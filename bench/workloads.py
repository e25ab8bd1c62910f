"""The four workloads: seeded inputs, the CLI calls to time, and their checks.

Each workload function writes its inputs into a work directory and returns
its Ops. An Op names the CLI call, the end-to-end group its time feeds, the
stated size of its input, and a check that judges the first output with
the arithmetic in oracle.py only. Later rounds of the same call must
reproduce the first output byte for byte (census reports excepted, whose
``runtime_seconds`` is a wall-clock reading).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import oracle

P = 7
GF7 = {"kind": "gfp", "p": P}
QQ = {"kind": "q"}
ZZ = {"kind": "z"}


@dataclass
class Op:
    name: str
    group: str  # the end-to-end group its time is summed into
    argv: list[str]  # CLI arguments, verb first
    size: dict  # stated input size, recorded in the run output
    check: Callable[[dict, int], list[str]]  # (report, exit code) -> problems
    prepare: Callable[[], None] | None = None  # untimed, before every run
    output_file: Path | None = None  # compared byte for byte across runs
    relations: int = 0  # relation instances in the full family, for rates
    families: int = 0  # candidate families, for the census rate


@dataclass
class Workload:
    ops: list[Op]
    probes: list[Op] = field(default_factory=list)  # untimed, once per run


def _write(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return path


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _expect(problems: list[str], cond: bool, what: str) -> None:
    if not cond:
        problems.append(what)


def _coords_json(coords) -> dict:
    return {oracle.subset_key(m): str(v) for m, v in coords if v != 0}


def _str_matrix(rows) -> list[list[str]]:
    return [[str(v) for v in row] for row in rows]


# ---------------------------------------------------------------------------
# checks shared by several workloads


def _verdict_check(verdict: bool, *, short: bool = False):
    """A sweep on a vector built from a matrix: true, with both short-mode halves true."""

    def check(rep: dict, code: int) -> list[str]:
        problems: list[str] = []
        _expect(problems, rep.get("verdict") is verdict, f"verdict {rep.get('verdict')} != {verdict}")
        _expect(problems, code == (0 if verdict else 1), f"exit code {code}")
        if short:
            data = rep.get("data", {})
            _expect(problems, data.get("equations_ok") is verdict, "equations_ok")
            _expect(problems, data.get("support_ok") is True, "support_ok")
        return problems

    return check


def _wick_witness_check(coords: dict, *, short: bool):
    """The perturbed vector: false, and the witness pair really fails."""
    base = _verdict_check(False, short=short)

    def check(rep: dict, code: int) -> list[str]:
        problems = base(rep, code)
        w = rep.get("witness") or {}
        if "J1" not in w or "J2" not in w:
            return problems + [f"witness {w!r} is not a relation pair"]
        j1 = sum(1 << (e - 1) for e in w["J1"])
        j2 = sum(1 << (e - 1) for e in w["J2"])
        value = oracle.wick_pair_value(coords, j1, j2, P)
        _expect(problems, value != 0, "witness pair evaluates to zero")
        _expect(problems, str(value) == w.get("value"), f"witness value {w.get('value')} != {value}")
        if short:
            _expect(problems, (j1 ^ j2).bit_count() == 4, "short witness is not at distance four")
        return problems

    return check


def _vector_check(kind: str, n: int, ring: dict, expected: dict):
    """from-matrix: the vector equals the benchmark's own table, key by key."""

    def check(rep: dict, code: int) -> list[str]:
        problems: list[str] = []
        _expect(problems, code == 0, f"exit code {code}")
        data = rep.get("data", {})
        vec = data.get("vector", {})
        _expect(problems, data.get("kind") == kind, f"kind {data.get('kind')!r}")
        _expect(problems, vec.get("n") == n and vec.get("ring") == ring, "vector header")
        got = vec.get("coords", {})
        _expect(problems, set(got) == set(expected), "vector support differs")
        bad = [k for k, v in expected.items() if k in got and Fraction(got[k]) != v]
        _expect(problems, not bad, f"{len(bad)} coordinates differ, first {bad[:1]}")
        return problems

    return check


def _random_skew(rng: random.Random, n: int, entry) -> list[list]:
    return oracle.skew_from_upper(n, [entry() for _ in range(n * (n - 1) // 2)])


def _wick_size(n: int, support: int) -> tuple[dict, int, int]:
    full = comb(1 << n, 2)
    short = (1 << n) * comb(n, 4) // 2
    return {"n": n, "ring": "gf7", "support": support, "relations_full": full,
            "relations_short": short}, full, short


def _gp_size(n: int, r: int, support: int) -> tuple[dict, int, int]:
    full = comb(n, r + 1) * comb(n, r - 1)
    short = comb(n, r + 1) * comb(r + 1, 3) * (n - r - 1)
    return {"n": n, "r": r, "ring": "gf7", "support": support, "relations_full": full,
            "relations_short": short}, full, short


def _sweep_ops(tag: str, kind: str, path: Path, size: dict, full: int, short: int,
               full_check, short_check) -> list[Op]:
    verb = "check-wick" if kind == "wick" else "check-plucker"
    return [
        Op(f"{verb}-full-{tag}", "full_sweep", [verb, str(path), "--mode", "full"],
           size, full_check, relations=full),
        Op(f"{verb}-short-{tag}", "short_sweep", [verb, str(path), "--mode", "short"],
           size, short_check, relations=short),
    ]


# ---------------------------------------------------------------------------
# sweep-dense


def sweep_dense(work: Path, seed: int) -> Workload:
    """GF(7) inputs from uniformly random matrices: nearly full supports."""
    rng = _rng("sweep-dense", seed)
    n = 10
    a = _random_skew(rng, n, lambda: rng.randrange(P))
    table = oracle.pfaffian_table(a, P)
    coords = dict(enumerate(table))
    mat = _write(work / "skew10.json", {"ring": GF7, "matrix": _str_matrix(
        [[v % P for v in row] for row in a])})
    vec = _write(work / "wick10.json", {"n": n, "ring": GF7, "coords": _coords_json(coords.items())})
    support = sum(1 for v in table if v)
    wsize, wfull, wshort = _wick_size(n, support)

    # One coordinate of size >= 6 moved to another nonzero value. The vector
    # keeps its support and its two-element coordinates, which determine every
    # Pfaffian, so it is no longer a Pfaffian vector: both sweeps must fail.
    big = [m for m, v in enumerate(table) if v and m.bit_count() >= 6]
    bad_mask = rng.choice(big)
    bad = dict(coords)
    bad[bad_mask] = rng.choice([v for v in range(1, P) if v != table[bad_mask]])
    bad_vec = _write(work / "wick10-perturbed.json",
                     {"n": n, "ring": GF7, "coords": _coords_json(bad.items())})
    bsize = dict(wsize, perturbed=oracle.subset_key(bad_mask))

    r, c = 6, 12
    m = [[rng.randrange(P) for _ in range(c)] for _ in range(r)]
    minors = oracle.maximal_minors(m, P)
    pvec = _write(work / "plucker6x12.json", {"n": c, "r": r, "ring": GF7, "coords": _coords_json(
        zip(oracle.masks_of_size(c, r), minors))})
    psize, pfull, pshort = _gp_size(c, r, sum(1 for v in minors if v))

    ops = [Op("from-matrix-wick-10", "from_matrix", ["from-matrix", str(mat), "--kind", "wick"],
              {"n": n, "ring": "gf7", "table_entries": 1 << n},
              _vector_check("wick", n, GF7, {oracle.subset_key(m): v for m, v in coords.items() if v}))]
    ops += _sweep_ops("dense10", "wick", vec, wsize, wfull, wshort,
                      _verdict_check(True), _verdict_check(True, short=True))
    ops += _sweep_ops("dense6x12", "plucker", pvec, psize, pfull, pshort,
                      _verdict_check(True), _verdict_check(True, short=True))
    ops += _sweep_ops("perturbed10", "wick", bad_vec, bsize, wfull, wshort,
                      _wick_witness_check(bad, short=False), _wick_witness_check(bad, short=True))
    return Workload(ops)


# ---------------------------------------------------------------------------
# sweep-sparse


def sweep_sparse(work: Path, seed: int) -> Workload:
    """Block-structured GF(7) inputs: few nonzero coordinates, all relations true."""
    rng = _rng("sweep-sparse", seed)
    n = 11
    perm = rng.sample(range(n), n)
    a = [[0] * n for _ in range(n)]
    for k in range(0, n - 1, 2):  # five 2x2 blocks and one isolated element
        i, j = perm[k], perm[k + 1]
        v = rng.randrange(1, P)
        a[i][j], a[j][i] = v, P - v
    table = oracle.pfaffian_table(a, P)
    support = sum(1 for v in table if v)
    if support != 32:
        raise RuntimeError(f"block-diagonal skew matrix gave support {support}, not 32")
    vec = _write(work / "wick11-blocks.json",
                 {"n": n, "ring": GF7, "coords": _coords_json(enumerate(table))})
    wsize, wfull, wshort = _wick_size(n, support)

    r, c = 6, 12
    cols = rng.sample(range(c), c)
    m = [[0] * c for _ in range(r)]
    for i in range(r):  # row i is nonzero only on its own two columns
        for j in cols[2 * i:2 * i + 2]:
            m[i][j] = rng.randrange(1, P)
    minors = oracle.maximal_minors(m, P)
    psupport = sum(1 for v in minors if v)
    if psupport != 64:
        raise RuntimeError(f"block-patterned matrix gave {psupport} nonzero minors, not 64")
    pvec = _write(work / "plucker6x12-blocks.json", {"n": c, "r": r, "ring": GF7,
                  "coords": _coords_json(zip(oracle.masks_of_size(c, r), minors))})
    psize, pfull, pshort = _gp_size(c, r, psupport)

    ops = _sweep_ops("blocks11", "wick", vec, wsize, wfull, wshort,
                     _verdict_check(True), _verdict_check(True, short=True))
    ops += _sweep_ops("blocks6x12", "plucker", pvec, psize, pfull, pshort,
                      _verdict_check(True), _verdict_check(True, short=True))
    return Workload(ops)


# ---------------------------------------------------------------------------
# algebra


def _small_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _pfaffian_op(work: Path, rng: random.Random, ring_name: str, ring: dict, n: int, entry) -> Op:
    p = P if ring_name == "gf7" else None
    while True:  # a nonsingular matrix, so that Pf^2 = det is not 0 = 0
        a = _random_skew(rng, n, entry)
        det = oracle.determinant(a, p)
        if det != 0:
            break
    rows = [[v % P for v in row] for row in a] if p else a
    path = _write(work / f"pf20-{ring_name}.json", {"ring": ring, "matrix": _str_matrix(rows)})

    def check(rep: dict, code: int) -> list[str]:
        problems: list[str] = []
        _expect(problems, code == 0, f"exit code {code}")
        pf = Fraction(rep.get("data", {}).get("pfaffian", "nan"))
        sq = pf * pf % P if p else pf * pf
        _expect(problems, sq == det, f"Pf^2 = {sq} but det = {det}")
        return problems

    return Op(f"pfaffian-20-{ring_name}", "pfaffian", ["pfaffian", str(path)],
              {"n": n, "ring": ring_name}, check)


def algebra(work: Path, seed: int) -> Workload:
    """Exact Pfaffians, Pfaffian tables and minors: the exactalg kernels up front."""
    rng = _rng("algebra", seed)
    ops = [
        _pfaffian_op(work, rng, "qq", QQ, 20, lambda: _small_fraction(rng)),
        _pfaffian_op(work, rng, "gf7", GF7, 20, lambda: rng.randrange(P)),
        _pfaffian_op(work, rng, "zz", ZZ, 20, lambda: rng.randint(-9, 9)),
    ]

    n = 16
    a = _random_skew(rng, n, lambda: _small_fraction(rng))
    # Clear denominators so the table runs on integers: Pf((D*A)_J) = D**(|J|/2) Pf(A_J).
    d = 60  # lcm(1..6)
    ints = [[int(v * d) for v in row] for row in a]
    table = oracle.pfaffian_table(ints)
    expected = {oracle.subset_key(m): Fraction(v, d ** (m.bit_count() // 2))
                for m, v in enumerate(table) if v}
    mat = _write(work / "skew16-qq.json", {"ring": QQ, "matrix": _str_matrix(a)})
    ops.append(Op("from-matrix-wick-16-qq", "from_matrix", ["from-matrix", str(mat), "--kind", "wick"],
                  {"n": n, "ring": "qq", "table_entries": 1 << n}, _vector_check("wick", n, QQ, expected)))

    r, c = 6, 12
    m = [[_small_fraction(rng) for _ in range(c)] for _ in range(r)]
    minors = oracle.maximal_minors(m)
    first = next(v for v in minors if v)
    pexp = {oracle.subset_key(mask): v / first
            for mask, v in zip(oracle.masks_of_size(c, r), minors) if v}
    pmat = _write(work / "mat6x12-qq.json", {"ring": QQ, "matrix": _str_matrix(m)})
    ops.append(Op("from-matrix-plucker-6x12-qq", "from_matrix",
                  ["from-matrix", str(pmat), "--kind", "plucker"],
                  {"n": c, "r": r, "ring": "qq", "minors": comb(c, r)},
                  _vector_check("plucker", c, QQ, pexp)))
    return Workload(ops)


# ---------------------------------------------------------------------------
# census

CENSUS_N5_GF2 = {"total_families_checked": 131070, "orthogonal_count": 7966,
                 "matroid_count": 406, "representable_counts": {"gf2": 4590}}
CENSUS_N4_GF3 = {"total_families_checked": 510, "orthogonal_count": 294,
                 "matroid_count": 68, "representable_counts": {"gf3": 294}}


def _census_report_check(expected: dict):
    def check(rep: dict, code: int) -> list[str]:
        problems: list[str] = []
        _expect(problems, code == 0, f"exit code {code}")
        data = rep.get("data", {})
        for k, v in expected.items():
            _expect(problems, data.get(k) == v, f"{k} = {data.get(k)!r}, expected {v!r}")
        return problems

    return check


def _jsonl_counts(path: Path) -> dict:
    """Count the census records the benchmark itself reads back from the file."""
    total = orth = mat = rep = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            total += 1
            if rec["orthogonal"]:
                orth += 1
                mat += rec["matroid"]
                rep += rec["representable"]["gf2"]
    return {"total_families_checked": total, "orthogonal_count": orth,
            "matroid_count": mat, "representable_counts": {"gf2": rep}}


def census(work: Path, seed: int) -> Workload:
    """The GF(2) n=5 census written fresh, resumed from a clean cut, and GF(3) n=4."""
    rng = _rng("census", seed)
    total = CENSUS_N5_GF2["total_families_checked"]
    # A record boundary near the middle, so the resumed share (and with it the
    # operation's cost) is the same for every seed while the byte offset moves.
    cut = total // 2 + rng.randint(-total // 100, total // 100)
    fresh = work / "fresh.jsonl"
    resumed = work / "resumed.jsonl"
    torn = work / "torn.jsonl"
    cmd = ["census", "--n", "5", "--field", "gf2", "--out"]

    def fresh_prepare() -> None:
        fresh.unlink(missing_ok=True)

    def prefix(lines: int) -> bytes:
        with open(fresh, "rb") as fh:
            return b"".join(fh.readline() for _ in range(lines))

    def resume_prepare() -> None:
        resumed.write_bytes(prefix(cut))

    def torn_prepare() -> None:
        head = prefix(cut + 1)
        last = head.rstrip(b"\n").rfind(b"\n") + 1
        torn.write_bytes(head[: last + (len(head) - last) // 2])

    report_check = _census_report_check(CENSUS_N5_GF2)

    def fresh_check(rep: dict, code: int) -> list[str]:
        problems = report_check(rep, code)
        counts = _jsonl_counts(fresh)
        _expect(problems, counts == CENSUS_N5_GF2, f"JSONL holds {counts}")
        return problems

    def same_as_fresh(path: Path):
        def check(rep: dict, code: int) -> list[str]:
            problems = report_check(rep, code)
            _expect(problems, path.exists() and path.read_bytes() == fresh.read_bytes(),
                    f"{path.name} differs from the fresh census file")
            return problems

        return check

    size5 = {"n": 5, "field": "gf2", "candidates": total}
    ops = [
        Op("census-n5-gf2-fresh", "census", cmd + [str(fresh)], size5, fresh_check,
           prepare=fresh_prepare, output_file=fresh, families=total),
        Op("census-n5-gf2-resume", "resume", cmd + [str(resumed)], dict(size5, resumed_from=cut),
           same_as_fresh(resumed), prepare=resume_prepare, output_file=resumed),
        Op("census-n4-gf3", "census_small", ["census", "--n", "4", "--field", "gf3"],
           {"n": 4, "field": "gf3", "candidates": 510}, _census_report_check(CENSUS_N4_GF3)),
    ]
    probes = [
        Op("census-n5-gf2-torn-tail-resume", "probe", cmd + [str(torn)],
           dict(size5, resumed_from=cut, torn_bytes=True), same_as_fresh(torn),
           prepare=torn_prepare),
    ]
    return Workload(ops, probes)


WORKLOADS = {
    "census": census,
    "sweep-dense": sweep_dense,
    "sweep-sparse": sweep_sparse,
    "algebra": algebra,
}
