"""A ``python -m omatroid.cli`` process ends as soon as its report is flushed.

``cli._run`` flushes stdout and stderr after ``main`` and calls ``os._exit``,
skipping interpreter teardown. These tests pin that the process still prints
what ``main`` prints in-process, byte for byte, with the same stderr and exit
code; that a census file it writes is complete and resumable; that a failed
flush never exits 0; and that ``main`` itself still returns its code.
"""

import errno
import importlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from omatroid import cli
from omatroid.census import _candidate_total, _census_chunk
from omatroid.cli import main

from test_cli_grammar import FILES, RUNTIME

SRC = Path(__file__).resolve().parents[1] / "src"
# the benchmark's environment: no caller PYTHON* settings, the package from src
ENV = {**{k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}, "PYTHONPATH": str(SRC)}
RATE = re.compile(r"\d+ families/s, ETA [0-9.]+s")

# every verb, exit codes 0 to 3, -h, --version and a usage error ({name} as in test_cli_grammar)
ARGVS = [
    ("check-matroid", "{bad}"),
    ("check-orthogonal", "-"),
    ("check-plucker", "{wvec}"),
    ("check-wick", "--mode=short", "{wvec}"),
    ("reconstruct-plucker", "{pvec}"),
    ("reconstruct-wick", "{wvec}"),
    ("pfaffian", "{skew}"),
    ("from-matrix", "--kind", "plucker", "{wide}"),
    ("twist", "{fam}", "--by", "1,3"),
    ("census", "--n", "3"),
    ("census", "--n", "6"),
    ("verify-bounds", "--n", "12"),
    ("-h",),
    ("--version",),
    ("twist", "{fam}"),
]


def _paths(tmp_path) -> dict:
    for name, obj in FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    return {name: str(tmp_path / f"{name}.json") for name in FILES}


def _process(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "omatroid.cli", *argv], env=ENV, timeout=120,
                          **kwargs)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_process_prints_what_main_prints(tmp_path, capsys, monkeypatch, argv):
    argv = [arg.format(**_paths(tmp_path)) for arg in argv]
    stdin = json.dumps(FILES["fam"])
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    proc = _process(*argv, input=stdin.encode(), capture_output=True)
    assert proc.returncode == code
    assert RUNTIME.sub(b"", proc.stdout) == RUNTIME.sub(b"", captured.out.encode())
    assert RATE.sub("", proc.stderr.decode()) == RATE.sub("", captured.err)


def test_process_census_file_is_complete_and_resumable(tmp_path):
    in_process, by_process = tmp_path / "main.jsonl", tmp_path / "process.jsonl"
    assert main(["census", "--n", "4", "--out", str(in_process)]) == 0
    assert _process("census", "--n", "4", "--out", str(by_process), capture_output=True).returncode == 0
    whole = in_process.read_bytes()
    assert by_process.read_bytes() == whole
    # cut inside a record; a second process resumes the file to the same bytes
    cut = whole.index(b"\n", len(whole) // 2) - 5
    by_process.write_bytes(whole[:cut])
    assert _process("census", "--n", "4", "--out", str(by_process), capture_output=True).returncode == 0
    assert by_process.read_bytes() == whole


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [("check-orthogonal", "{fam}"), ("--version",)], ids=" ".join)
def test_a_report_that_cannot_be_written_exits_120(tmp_path, argv):
    # 120 is the interpreter's code for a failed flush of stdout at exit
    argv = [arg.format(**_paths(tmp_path)) for arg in argv]
    with open("/dev/full", "wb") as full:
        proc = _process(*argv, stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == 120, proc.stderr


def _bounded(*args, **kwargs):
    """A ``python *args`` child and its wall time, held to 1 GiB of address space and 10 s."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=ENV, timeout=10, preexec_fn=limit,
                          capture_output=True, **kwargs)
    return proc, time.perf_counter() - start


@pytest.mark.parametrize("device, code", [("/dev/full", 2), ("/dev/null", 0)])
def test_census_out_to_a_device(device, code):
    # only a regular file is resumed: read as one, /dev/full never ends a line
    if not os.path.exists(device):
        pytest.skip(f"needs {device}")
    proc, seconds = _bounded("-m", "omatroid.cli", "census", "--n", "3", "--out", device)
    assert proc.returncode == code, proc.stderr
    assert seconds < 1
    assert b"Traceback" not in proc.stderr
    if code:
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "InputError"
        assert error["message"].startswith(f"cannot use {device} as the census file")


@pytest.mark.parametrize("n", ["6", "15", "24"])
def test_census_past_the_budget_exits_3_at_once(tmp_path, n):
    # sized from n alone: no subset table is built, and a count of 4,300+ digits is still named
    out = tmp_path / "c.jsonl"
    proc, seconds = _bounded("-m", "omatroid.cli", "census", "--n", n, "--out", str(out))
    assert proc.returncode == 3, proc.stderr
    assert seconds < 1
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "CapabilityError"
    assert error["message"].startswith("the orthogonal enumeration would walk ")
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_census_out_to_a_fifo(tmp_path):
    # with no reader the open is refused at once (ENXIO) instead of waiting for one
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    argv = ("-m", "omatroid.cli", "census", "--n", "5", "--out", str(fifo))
    proc, seconds = _bounded(*argv)
    assert proc.returncode == 2, proc.stderr
    assert seconds < 1
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "InputError"
    assert error["message"].startswith(f"cannot use {fifo} as the census file: [Errno {errno.ENXIO}]")
    # with a reader every record arrives: 11 MB through a 64 KiB pipe, so writes must wait, not fail
    held = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # a reader before the child opens the FIFO
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        proc, _ = _bounded(*argv)
        reader.join(10)
    finally:
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))  # ends a read still waiting for a writer
        os.close(held)
    assert proc.returncode == 0, proc.stderr
    assert got == [b"".join(_census_chunk(5, "gf2", 0, _candidate_total(5)))]


def test_exponents_are_bounded_when_the_digit_limit_is_off(tmp_path):
    # with the limit off (0) an exponent is held to the default limit, not refused outright
    default = sys.int_info.default_max_str_digits
    for literal, code in (("1e1", 0), ("1e99999999", 3)):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"ring": {"kind": "q"}, "matrix": [["0", literal], ["-" + literal, "0"]]}))
        proc, seconds = _bounded("-X", "int_max_str_digits=0", "-m", "omatroid.cli", "pfaffian", str(path))
        assert proc.returncode == code, proc.stdout
        assert seconds < 1
        report = json.loads(proc.stdout)
        if code:
            assert report["error"]["type"] == "CapabilityError"
            assert f"more than {default} digits" in report["error"]["message"]
        else:
            assert report["data"]["pfaffian"] == "10"


def test_main_returns_and_run_exits_with_its_code(tmp_path, monkeypatch):
    class Exited(Exception):
        pass

    def exit_(code):
        raise Exited(code)

    monkeypatch.setattr(os, "_exit", exit_)
    paths = _paths(tmp_path)
    cases = [(["check-orthogonal", paths["fam"]], 0), (["check-matroid", paths["bad"]], 1),
             (["twist", paths["fam"]], 2), (["census", "--n", "6"], 3)]
    for argv, code in cases:
        assert main(argv) == code
        monkeypatch.setattr(sys, "argv", ["omatroid", *argv])
        with pytest.raises(Exited) as exited:
            cli._run()
        assert exited.value.args == (code,)


def test_console_script_ends_through_run():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["omatroid"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli._run
