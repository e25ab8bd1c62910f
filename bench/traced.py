"""Run one CLI call in this process with spans around omatroid's public functions.

    PYTHONPATH=src python bench/traced.py OUT.json VERB [ARGS...]

Each call of a wrapped function is a span: a name, a start, an end and the
enclosing span as its parent. The wrapper replaces the name in every
omatroid module that imported it, so calls between modules are seen too.
As each span closes it is folded into per-name busy time, self time (its
duration minus the time covered by its child spans) and work counts; when
the CLI call returns, those per-layer metrics are written to OUT.json. The
CLI's stdout is untouched.
"""

from __future__ import annotations

import json
import os
import sys
from math import comb
from time import perf_counter

from omatroid import census, cli, exactalg, jsonio, matroid, plucker, wick


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # open spans: [start, time in child spans]
        self.total: dict[str, float] = {}  # busy time per span name
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.spans = 0
        self.census_depth = 0  # census runs open on the stack
        self.census_filter = 0.0  # matroid checks made inside a census run

    def count(self, key: str, k: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            self.stack.append(frame)
            if name == "census.run":
                self.census_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                if name == "census.run":
                    self.census_depth -= 1
                dur = end - frame[0]
                self.spans += 1
                self.total[name] = self.total.get(name, 0.0) + dur
                self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame[1]
                if self.stack:
                    self.stack[-1][1] += dur
                if self.census_depth and name.startswith("matroid."):
                    self.census_filter += dur
            self.count(name + "_calls", 1)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced


def patch(tracer: Tracer, module, attr: str, name: str, counter=None, outer=None) -> None:
    """Replace module.attr, and every omatroid module's reference to it, by a wrapper.

    ``outer``, when given, wraps the span wrapper in turn: what it does is
    outside the span.
    """
    original = getattr(module, attr)
    wrapper = tracer.wrap(name, original, counter)
    if outer is not None:
        wrapper = outer(tracer, wrapper)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "omatroid":
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


# ---------------------------------------------------------------------------
# work counts, derived from arguments and results


def _members(t: Tracer, args, result) -> None:
    t.count("matroid.member_pairs", len(args[0].masks) ** 2)


def _wick_full_pairs(t: Tracer, args, result) -> None:
    size = 1 << args[0].ground.n
    if result.ok:
        t.count("wick.full_pairs", comb(size, 2))
        return
    j1, j2 = result.j1.bits, result.j2.bits
    t.count("wick.full_pairs", j1 * (size - 1) - j1 * (j1 - 1) // 2 + (j2 - j1))


def _wick_short_pairs(t: Tracer, args, result) -> None:
    n = args[0].ground.n
    if n < 4:
        return
    if result.ok:
        t.count("wick.short_pairs", (1 << n) * comb(n, 4) // 2)
        return
    diffs = [d for d in range(1 << n) if d.bit_count() == 4]
    j1, j2 = result.j1.bits, result.j2.bits
    swept = sum(1 for a in range(j1) for d in diffs if a ^ d > a)
    swept += sum(1 for d in diffs if j1 < j1 ^ d <= j2)
    t.count("wick.short_pairs", swept)


def _gp_full_relations(t: Tracer, args, result) -> None:
    p = args[0]
    n, r = p.ground.n, p.r
    if r + 1 > n or r < 1:
        return
    per_s = comb(n, r - 1)
    if result.ok:
        t.count("plucker.full_relations", comb(n, r + 1) * per_s)
        return
    rank_s = sum(1 for m in range(result.s.bits) if m.bit_count() == r + 1)
    rank_t = sum(1 for m in range(result.t.bits) if m.bit_count() == r - 1)
    t.count("plucker.full_relations", rank_s * per_s + rank_t + 1)


def _minors(t: Tracer, args, result) -> None:
    t.count("plucker.minors", comb(args[0].cols, args[0].rows))


def _table_entries(t: Tracer, args, result) -> None:
    t.count("exactalg.table_entries", len(result))


def _load_bytes(t: Tracer, args, result) -> None:
    if args[0] != "-":
        t.count("jsonio.bytes_in", os.path.getsize(args[0]))


def _census_counts(t: Tracer, args, result) -> None:
    t.count("census.candidates", result.total_families_checked)
    t.count("census.orthogonal", result.orthogonal_count)


def _census_files(tracer: Tracer, fn):
    """Measure the census output file before and after the call, outside its span."""

    def run(n, field="gf2", out_path=None, **kwargs):
        lines_before = bytes_before = 0
        if out_path and os.path.exists(out_path):
            bytes_before = os.path.getsize(out_path)
            with open(out_path, "rb") as fh:
                lines_before = sum(1 for _ in fh)
        result = fn(n, field=field, out_path=out_path, **kwargs)
        if out_path:
            tracer.count("census.records_reused", lines_before)
            tracer.count("census.records_written", result.total_families_checked - lines_before)
            tracer.count("census.bytes_written", os.path.getsize(out_path) - bytes_before)
        return result

    return run


def install(tracer: Tracer) -> None:
    patch(tracer, exactalg, "pfaffian", "exactalg.pfaffian")
    patch(tracer, exactalg, "all_principal_pfaffians", "exactalg.table", _table_entries)
    patch(tracer, exactalg, "determinant", "exactalg.determinant")
    from_upper = exactalg.SkewMatrix.from_upper.__func__
    exactalg.SkewMatrix.from_upper = classmethod(tracer.wrap("exactalg.from_upper", from_upper))

    patch(tracer, matroid, "is_orthogonal", "matroid.is_orthogonal", _members)
    patch(tracer, matroid, "is_matroid", "matroid.is_matroid", _members)

    patch(tracer, wick, "check_wick_full", "wick.full", _wick_full_pairs)
    patch(tracer, wick, "check_wick_4term", "wick.short", _wick_short_pairs)
    patch(tracer, wick, "wick_from_representation", "wick.from_rep")

    patch(tracer, plucker, "check_gp_full", "plucker.full", _gp_full_relations)
    patch(tracer, plucker, "check_gp_3term", "plucker.short")
    patch(tracer, plucker, "plucker_from_matrix", "plucker.from_matrix", _minors)

    patch(tracer, census, "representability_census", "census.run", _census_counts,
          outer=_census_files)
    patch(tracer, census, "_achievable_supports", "census.enum")

    patch(tracer, jsonio, "load_json", "jsonio.load", _load_bytes)
    for attr in ("parse_basis_family", "parse_plucker_vector", "parse_wick_vector",
                 "parse_matrix_file"):
        patch(tracer, jsonio, attr, "jsonio.parse")
    for attr in ("wick_vector_to_json", "plucker_vector_to_json", "matrix_to_json",
                 "representation_to_json"):
        patch(tracer, jsonio, attr, "jsonio.emit")
    patch(tracer, cli, "_stable", "jsonio.emit")


def layer_metrics(t: Tracer) -> dict:
    def busy(name: str) -> float:
        return t.total.get(name, 0.0)

    def calls(name: str) -> float:
        return t.counts.get(name + "_calls", 0)

    out = {"trace.spans": t.spans}
    for name, key in (("exactalg.pfaffian", "pfaffian"), ("exactalg.table", "table"),
                      ("exactalg.determinant", "determinant"),
                      ("exactalg.from_upper", "from_upper"),
                      ("matroid.is_orthogonal", "is_orthogonal"),
                      ("matroid.is_matroid", "is_matroid")):
        layer = name.split(".")[0]
        out[f"{layer}.{key}_s"] = busy(name)
        out[f"{layer}.{key}_calls"] = calls(name)
    for name in ("wick.full", "wick.short", "wick.from_rep", "plucker.full", "plucker.short",
                 "plucker.from_matrix", "census.run", "census.enum", "jsonio.load",
                 "jsonio.parse", "jsonio.emit", "cli.main"):
        out[name + "_s"] = busy(name)
    out["census.self_s"] = t.self_time.get("census.run", 0.0)
    out["census.filter_s"] = t.census_filter
    out["cli.self_s"] = t.self_time.get("cli.main", 0.0)
    for key in ("exactalg.table_entries", "matroid.member_pairs", "wick.full_pairs",
                "wick.short_pairs", "plucker.full_relations", "plucker.minors",
                "census.candidates", "census.orthogonal", "census.records_written",
                "census.records_reused", "census.bytes_written", "jsonio.bytes_in"):
        out[key] = t.counts.get(key, 0)
    return out


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli.main", cli.main)(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(layer_metrics(tracer), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
