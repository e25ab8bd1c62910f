"""The benchmark's per-layer tracing still finds the functions it wraps.

bench/traced.py replaces omatroid's public functions by name, so renaming
one breaks the benchmark's layer metrics. One small traced from-matrix run
must exit 0 and count at least one principal-Pfaffian table, a traced
maximal-minor run must count its minors without one determinant call, a
traced pfaffian run must count one pfaffian call and no determinant call,
and each basis-family verb must count one call of its checker.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def traced(tmp_path, *argv):
    """Run one CLI call under bench/traced.py; return the process and its layer metrics."""
    layers = tmp_path / "layers.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced.py"), str(layers), *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(layers.read_text())


def test_traced_from_matrix_counts_the_pfaffian_table(tmp_path):
    matrix = tmp_path / "skew.json"
    rows = [["0", "1", "2", "3"], ["-1", "0", "4", "5"],
            ["-2", "-4", "0", "6"], ["-3", "-5", "-6", "0"]]
    matrix.write_text(json.dumps({"ring": {"kind": "q"}, "matrix": rows}))
    proc, layers = traced(tmp_path, "from-matrix", "--kind", "wick", str(matrix))
    assert json.loads(proc.stdout)["data"]["kind"] == "wick"
    assert layers["exactalg.table_calls"] >= 1


def test_traced_plucker_minors_make_no_determinant_call(tmp_path):
    matrix = tmp_path / "wide.json"
    rows = [["1", "0", "1", "1"], ["0", "1", "1", "2"]]
    matrix.write_text(json.dumps({"ring": {"kind": "q"}, "matrix": rows}))
    proc, layers = traced(tmp_path, "from-matrix", "--kind", "plucker", str(matrix))
    assert json.loads(proc.stdout)["data"]["kind"] == "plucker"
    assert layers["plucker.minors"] == 6
    assert layers["exactalg.determinant_calls"] == 0


def test_traced_pfaffian_is_one_pfaffian_call(tmp_path):
    # the elimination runs inside pfaffian, so its whole time is in exactalg.pfaffian_s
    matrix = tmp_path / "skew.json"
    rows = [["0", "1", "2", "3"], ["-1", "0", "4", "5"],
            ["-2", "-4", "0", "6"], ["-3", "-5", "-6", "0"]]
    matrix.write_text(json.dumps({"ring": {"kind": "q"}, "matrix": rows}))
    proc, layers = traced(tmp_path, "pfaffian", str(matrix))
    assert json.loads(proc.stdout)["data"]["pfaffian"] == "8"
    assert layers["exactalg.pfaffian_calls"] == 1
    assert layers["exactalg.determinant_calls"] == 0


@pytest.mark.parametrize("verb, checker", [("check-matroid", "is_matroid"),
                                           ("check-orthogonal", "is_orthogonal")])
def test_traced_check_verbs_count_their_checker(tmp_path, verb, checker):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"n": 4, "bases": [[1, 2], [1, 3], [2, 3]]}))
    _, layers = traced(tmp_path, verb, str(family))
    assert layers[f"matroid.{checker}_calls"] == 1
