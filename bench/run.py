"""End-to-end benchmark of the omatroid CLI, with a traced per-layer breakdown.

    python3 bench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from the root of a checkout of the repository; the package is taken
from its ``src/`` without being installed. Every timed operation is one
``python -m omatroid.cli VERB ...`` process, timed from spawn until it has
exited with its JSON line written, one at a time (a closed loop with one
client). The workload's operations run in rounds until ``--seconds`` is
spent; each time metric is the median over rounds. ``--trace 1`` instead
alternates plain rounds with rounds in which each operation runs through
bench/traced.py, and reports the per-layer metrics.

The last stdout line is the result object; the line before it records the
machine, the stated input sizes, per-operation timings and the torn-tail probe.
README.md in this directory describes the workloads, metrics and the
core-speed scaling applied to every time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEADLINE_S = 170  # the whole run, children included, must end before this
SETUP_PER_ROUND = 3  # import-only start-ups measured before each round
IMPORT_ARGV = ["-c", "import omatroid.cli"]
RUNTIME_FIELD = re.compile(rb'"runtime_seconds":[-+0-9.eE]+')

SPEED_PROBE_LOOPS = 180  # one probe: about 0.26 ms on a fast core of a 2-vCPU Xeon KVM guest
SPEED_PROBE_EVERY_S = 0.02
SPEED_PROBE_REFERENCE_S = 2.6e-4  # the probe time that scaled times are quoted at

E2E_GROUPS = ("census", "resume", "full_sweep", "short_sweep", "pfaffian", "from_matrix")

_SPEED_PROBE_SET = frozenset(range(0, 1 << 12, 3))
_SPEED_PROBE_COORDS = tuple(i * 7919 % 7 for i in range(512))


class Timeout(Exception):
    pass


def speed_probe() -> float:
    """Time a fixed loop shaped like the package's kernels.

    It walks bits of XORed masks through a coordinate tuple, as the
    relation sweeps do, and does set lookups with small allocations, as the
    axiom checks and record building do. Its time tracks how fast the
    current core runs that kind of code right now.
    """
    t0 = time.perf_counter()
    coords = _SPEED_PROBE_COORDS
    acc = 0
    for k in range(SPEED_PROBE_LOOPS):
        j1, j2 = (k * 37) & 511, (k * 101 + 7) & 511
        m = j1 ^ j2
        while m:
            b = m & -m
            m ^= b
            v = coords[j1 ^ b]
            if v:
                acc += v * coords[j2 ^ b]
    hits = []
    for m in range(1, 8 * SPEED_PROBE_LOOPS):
        low = m & -m
        if (m ^ low) in _SPEED_PROBE_SET:
            hits.append((m, low))
    return time.perf_counter() - t0


@dataclass
class Result:
    seconds: float  # spawn to exit, wall clock, minus the speed probes run meanwhile
    factor: float  # reference speed-probe time / mean speed-probe time during the run
    code: int
    stdout: bytes
    maxrss_kb: int

    @property
    def scaled(self) -> float:
        """The time at the reference core speed."""
        return self.seconds * self.factor


class Runner:
    """Spawns one child at a time, times it from spawn to exit, and probes the core.

    The runner and its children are pinned to one CPU. While a child runs,
    the runner wakes every SPEED_PROBE_EVERY_S, times speed_probe() on that
    CPU and sleeps again, so the probes see the core speed the child saw.
    """

    def __init__(self, work: Path, deadline: float):
        self.deadline = deadline
        # The caller's PYTHON* settings (no bytecode cache, unbuffered output,
        # a start-up script) would change what is measured, so none are passed.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(work / "pycache"))
        self.out = work / "stdout"
        self.err = work / "stderr"

    def spawn(self, argv: list[str]) -> Result:
        wr = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(self.out), wr, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(self.err), wr, 0o644),
        ]
        speeds = [speed_probe()]
        probing = 0.0
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        try:
            fd = os.pidfd_open(pid)
            try:
                poller = select.poll()
                poller.register(fd, select.POLLIN)
                while not poller.poll(SPEED_PROBE_EVERY_S * 1000):
                    if time.monotonic() > self.deadline:
                        raise Timeout
                    p = speed_probe()
                    speeds.append(p)
                    probing += p
                t1 = time.perf_counter()
            finally:
                os.close(fd)
            _, status, usage = os.wait4(pid, 0)
            pid = None
        finally:
            if pid is not None:  # interrupted: stop the child and reap it
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        speeds.append(speed_probe())
        return Result(t1 - t0 - probing, SPEED_PROBE_REFERENCE_S / statistics.fmean(speeds),
                      os.waitstatus_to_exitcode(status), self.out.read_bytes(),
                      usage.ru_maxrss)

    def stderr_tail(self) -> str:
        lines = self.err.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        return lines[-1] if lines else ""


class Checks:
    """Judges each operation: the first output by its own check, later ones by identity."""

    def __init__(self):
        self.refs: dict[str, tuple[bytes, str | None, bool]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, op: Op, res: Result, runner: Runner, label: str) -> None:
        self.attempted += 1
        stdout = RUNTIME_FIELD.sub(b'"runtime_seconds":_', res.stdout)
        digest = None
        if op.output_file is not None and op.output_file.exists():
            digest = hashlib.sha256(op.output_file.read_bytes()).hexdigest()
        if op.name not in self.refs:
            try:
                problems = op.check(json.loads(res.stdout), res.code)
            except ValueError:
                problems = [f"stdout is not a JSON report: {runner.stderr_tail()!r}"]
            self.refs[op.name] = (stdout, digest, not problems)
        else:
            ref_out, ref_digest, ref_ok = self.refs[op.name]
            problems = [] if ref_ok else ["same output as a failed run"]
            if stdout != ref_out:
                problems.append("stdout differs from the first run")
            if digest != ref_digest:
                problems.append("output file differs from the first run")
        if problems:
            self.failed += 1
            self.problems.append(f"{label} {op.name}: {'; '.join(problems)}")


@dataclass
class Round:
    scaled: dict[str, float]  # per operation
    seconds: dict[str, float]  # per operation, unscaled
    layers: dict[str, float]  # per-layer sums over the operations (traced rounds)
    peak_kb: int


def run_round(runner: Runner, ops: list[Op], checks: Checks, layer_out: Path | None) -> Round:
    """One pass over the operations, plain or (with ``layer_out``) traced."""
    rnd = Round({}, {}, {}, 0)
    for op in ops:
        if op.prepare:
            op.prepare()
        if layer_out is None:
            res = runner.spawn(["-m", "omatroid.cli", *op.argv])
        else:
            res = runner.spawn([str(HERE / "traced.py"), str(layer_out), *op.argv])
        checks.judge(op, res, runner, "traced" if layer_out else "plain")
        rnd.scaled[op.name] = res.scaled
        rnd.seconds[op.name] = res.seconds
        rnd.peak_kb = max(rnd.peak_kb, res.maxrss_kb)
        if layer_out is not None:
            add = rnd.layers
            add["cli.stdout_bytes"] = add.get("cli.stdout_bytes", 0) + len(res.stdout)
            if layer_out.exists():
                for k, v in json.loads(layer_out.read_text(encoding="utf-8")).items():
                    add[k] = add.get(k, 0) + (v * res.factor if k.endswith("_s") else v)
                layer_out.unlink()
    return rnd


def machine() -> dict:
    head = ROOT / ".git" / "HEAD"
    rev = "unknown (not a git checkout)"
    if head.is_file():
        rev = head.read_text().strip()
        if rev.startswith("ref: ") and (ROOT / ".git" / rev[5:]).is_file():
            rev = (ROOT / ".git" / rev[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_revision": rev,
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def group_times(ops: list[Op], rounds: list[Round]) -> dict:
    """Median over rounds of each operation group's summed time, and the two rates."""
    out = {}
    for g in E2E_GROUPS:
        names = [op.name for op in ops if op.group == g]
        if names:
            out[f"{g}_s"] = _median([sum(r.scaled[n] for n in names) for r in rounds])
    families = sum(op.families for op in ops if op.group == "census")
    if families:
        out["families_per_s"] = families / out["census_s"]
    relations = sum(op.relations for op in ops if op.group == "full_sweep")
    if relations:
        out["relations_per_s"] = relations / out["full_sweep_s"]
    return out


def layer_metrics(traced: list[Round], plain_wall: float) -> dict:
    keys = sorted({k for r in traced for k in r.layers})
    out = {k: _median([r.layers.get(k, 0) for r in traced]) for k in keys}
    orthogonal = out.pop("census.orthogonal", 0)
    candidates = out.get("census.candidates", 0)
    out["census.orthogonal_ratio"] = orthogonal / candidates if candidates else 0.0
    out["trace.overhead_s"] = _median([sum(r.scaled.values()) for r in traced]) - plain_wall
    return out


def bench(args, work: Path) -> int:
    start = time.monotonic()
    runner = Runner(work, start + DEADLINE_S)
    workload = WORKLOADS[args.workload](work, args.seed)
    ops = workload.ops
    checks = Checks()
    layer_out = work / "layers.json" if args.trace else None

    warm = runner.spawn(IMPORT_ARGV)  # writes bytecode caches, fills the file cache
    if warm.code != 0:
        print(f"error: cannot import omatroid.cli: {runner.stderr_tail()}", file=sys.stderr)
        return 1
    setup: list[Result] = []
    rounds: list[Round] = []
    traced: list[Round] = []
    t0 = time.perf_counter()
    while True:  # start a round only if it should end within --seconds
        r0 = time.perf_counter()
        setup += [runner.spawn(IMPORT_ARGV) for _ in range(SETUP_PER_ROUND)]
        rounds.append(run_round(runner, ops, checks, None))
        if layer_out is not None:
            traced.append(run_round(runner, ops, checks, layer_out))
        now = time.perf_counter()
        if now - t0 + (now - r0) > args.seconds:
            break

    probes = {}
    for p in workload.probes:  # untimed, and outside the attempted/failed counts
        if p.prepare:
            p.prepare()
        res = runner.spawn(["-m", "omatroid.cli", *p.argv])
        try:
            problems = p.check(json.loads(res.stdout), res.code)
        except ValueError:
            problems = [f"exit code {res.code}, no JSON report: {runner.stderr_tail()!r}"]
        probes[p.name] = {"ok": not problems, "problems": problems, "size": p.size}

    wall = _median([sum(r.scaled.values()) for r in rounds])
    record = {
        "benchmark": "omatroid-cli",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "rounds": len(rounds),
        "setup_samples": len(setup),
        "groups": group_times(ops, rounds),
        "unscaled": {
            "wall_s": _median([sum(r.seconds.values()) for r in rounds]),
            "setup_s": _median([s.seconds for s in setup]),
        },
        "ops": {
            op.name: {
                "size": op.size,
                "median_s": _median([r.scaled[op.name] for r in rounds]),
                "min_s": min(r.scaled[op.name] for r in rounds),
                "max_s": max(r.scaled[op.name] for r in rounds),
                "unscaled_median_s": _median([r.seconds[op.name] for r in rounds]),
                "samples": len(rounds),
            }
            for op in ops
        },
        "probes": probes,
        "problems": checks.problems,
        "elapsed_s": time.monotonic() - start,
    }
    print(json.dumps(record, sort_keys=True))

    if args.trace:
        values = layer_metrics(traced, wall)
    else:
        values = {
            "wall_s": wall,
            "setup_s": _median([s.scaled for s in setup]),
            "peak_rss_mb": max(r.peak_kb for r in rounds) / 1024,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = declared["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "omatroid" / "cli.py").is_file():
        print(f"error: no omatroid package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # One core for this process and its children, so that the speed probes measure
    # the core the operation runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        return bench(args, work)
    except Timeout:
        print(f"error: the run did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
