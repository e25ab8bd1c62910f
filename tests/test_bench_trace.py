"""The benchmark's per-layer tracing still finds the functions it wraps.

bench/traced.py replaces omatroid's public functions by name, so renaming
one breaks the benchmark's layer metrics. One small traced from-matrix run
must exit 0 and count at least one principal-Pfaffian table.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_from_matrix_counts_the_pfaffian_table(tmp_path):
    matrix = tmp_path / "skew.json"
    rows = [["0", "1", "2", "3"], ["-1", "0", "4", "5"],
            ["-2", "-4", "0", "6"], ["-3", "-5", "-6", "0"]]
    matrix.write_text(json.dumps({"ring": {"kind": "q"}, "matrix": rows}))
    layers = tmp_path / "layers.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced.py"), str(layers),
         "from-matrix", "--kind", "wick", str(matrix)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["data"]["kind"] == "wick"
    assert json.loads(layers.read_text())["exactalg.table_calls"] >= 1
