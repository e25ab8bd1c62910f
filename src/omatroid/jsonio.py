"""JSON schemas shared by the CLI, the tests, and file round-trips.

One vocabulary everywhere: ring declarations are objects like {"kind": "q"}
or {"kind": "gfp", "p": 7}; ring values travel as strings, an integer spelled
exactly as ``str`` writes it ("-3", never "+3", " 3", "03", "1_0" or "-0";
``groundset.parse_int``), and over QQ also a/b or a decimal built of such
integers ("2/5", "-2.5E-3"); subsets are sorted arrays of 1-based elements;
coordinate tables key subsets as comma-joined strings of such integers ("1,3",
"" for the empty set), omit zeros, and come out of the writers in key order,
the order of the sorted JSON line ("1,10" before "1,2").
"""

import json
import sys
from math import gcd
from typing import Any

from .errors import InputError
from .exactalg import GF, QQ, ZZ, Matrix, Ring, _Ratios, too_many_digits
from .groundset import GroundSet, _doubled, _key_bits
from .matroid import BasisFamily

# The vector classes are imported by the functions that build them, so a process that
# parses a family or a matrix loads neither sweep module (plucker, wick).

__all__ = [
    "parse_ring_decl",
    "ring_decl_to_json",
    "require_partial_field",
    "parse_basis_family",
    "parse_plucker_vector",
    "plucker_vector_to_json",
    "parse_wick_vector",
    "wick_vector_to_json",
    "parse_matrix_file",
    "matrix_to_json",
    "representation_to_json",
    "load_json",
]


def _expect_dict(obj: Any, what: str) -> dict:
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _expect_int(value: Any, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def parse_ring_decl(obj: Any) -> Ring:
    """Decode a ring declaration into its ring.

    "regular" and "z" both name the integers, the regular partial field;
    "z" is a spelling that ``require_partial_field`` refuses where a vector
    is built. Only "gfp" takes a key besides "kind", its modulus "p"; any
    other key is refused.
    """
    obj = _expect_dict(obj, "ring declaration")
    kind = obj.get("kind")
    if kind not in ("q", "z", "regular", "gfp"):
        raise InputError(f"unknown ring kind {kind!r}")
    stray = sorted(obj.keys() - {"kind", "p" if kind == "gfp" else "kind"})
    if stray:
        raise InputError(f"a {kind!r} ring declaration has no key {stray[0]!r}")
    if kind == "gfp":
        return GF(_expect_int(obj.get("p"), "'p' in a gfp declaration"))
    return QQ if kind == "q" else ZZ


def ring_decl_to_json(ring: Ring) -> dict:
    """The declaration that ``parse_ring_decl`` reads back as ``ring``: ZZ as "regular"."""
    if ring.p:
        return {"kind": "gfp", "p": ring.p}
    return {"kind": "regular" if ring == ZZ else ring.kind}


def require_partial_field(decl: dict) -> None:
    """Refuse a declaration, already parsed, that spells the integers "z"."""
    if decl["kind"] == "z":
        raise InputError(
            "ring kind 'z' carries no unit structure; use 'regular', 'q', or 'gfp'"
        )


def _parse_value(ring: Ring, raw: Any, what: str):
    if isinstance(raw, str):
        return ring.parse(raw)
    if isinstance(raw, int) and not isinstance(raw, bool):
        return ring.coerce(raw)
    raise InputError(f"{what} must be a decimal string or integer, got {raw!r}")


def _parse_elements(ground: GroundSet, raw: Any, what: str) -> int:
    if not isinstance(raw, list):
        raise InputError(f"{what} must be an array of elements")
    bits = 0
    for e in raw:
        e = _expect_int(e, f"element in {what}")
        if not 1 <= e <= ground.n:
            raise InputError(f"element {e} in {what} is outside 1..{ground.n}")
        if bits >> (e - 1) & 1:
            raise InputError(f"element {e} repeats in {what}")
        bits |= 1 << (e - 1)
    return bits


# ---------------------------------------------------------------------------
# basis families


def parse_basis_family(obj: Any) -> BasisFamily:
    obj = _expect_dict(obj, "basis family")
    n = _expect_int(obj.get("n"), "'n'")
    ground = GroundSet(n)
    bases = obj.get("bases")
    if not isinstance(bases, list) or not bases:
        raise InputError("'bases' must be a nonempty array of subsets")
    masks = frozenset(
        _parse_elements(ground, b, f"basis #{i}") for i, b in enumerate(bases, start=1)
    )
    return BasisFamily(ground, masks)


# ---------------------------------------------------------------------------
# coordinate vectors


def _parse_coords(obj: Any, ranked: bool):
    """(ground, r, ring, {mask: value}) of either vector schema.

    The rank field decides the schema: a ranked vector must have 'r' and
    key every coordinate by an r-subset; a full vector must not have 'r',
    its r is None and any subset may be a key.
    """
    obj = _expect_dict(obj, "coordinate vector")
    if ranked and "r" not in obj:
        raise InputError(
            "no rank field 'r': this is a full (Wick) vector, not a rank-r (Plucker) one"
        )
    if not ranked and "r" in obj:
        raise InputError(
            "rank field 'r' present: this is a rank-r (Plucker) vector, not a full (Wick) one"
        )
    n = _expect_int(obj.get("n"), "'n'")
    r = _expect_int(obj.get("r"), "'r'") if ranked else None
    ground = GroundSet(n)
    ring = parse_ring_decl(obj.get("ring"))
    require_partial_field(obj["ring"])
    coords_raw = obj.get("coords")
    if not isinstance(coords_raw, dict):
        raise InputError("'coords' must be an object keyed by subsets")
    mapping, keys = {}, {}
    for key, raw in coords_raw.items():
        bits = _key_bits(key, n)
        if ranked and bits.bit_count() != r:
            raise InputError(f"coordinate key {key!r} does not name an {r}-subset")
        if bits in keys:
            raise InputError(f"coordinate keys {keys[bits]!r} and {key!r} name the same subset")
        keys[bits] = key
        mapping[bits] = _parse_value(ring, raw, f"coordinate {key!r}")
    return ground, r, ring, mapping


def _vector_to_json(p, **rank) -> dict:
    """The shared vector schema, nonzero coordinates only, in key order; ``rank`` adds 'r'.

    Key order is the order of the JSON line: "1,10" precedes "1,2", and "1,2" precedes "10".
    A key joins a low half key, of the elements up to h = ceil(n/2), to a high one. For a low
    mask l and the least element f of a high mask g, the keys of the masks l + g are the key of
    l + f and the keys extending it by a comma (no element's digits extend f's, as 10f > n): one
    run in key order, sorted as the high keys; g = 0 is a run of one. So the writer sorts 2**h +
    2**(n-h) half keys and the runs, never the coordinates. Zero is falsy in every ring, so
    zeros are dropped; QQ values from the integer kernels are written as ``str(Fraction)`` does.
    """
    n, r, values = p.ground.n, rank.get("r"), p.coords
    try:
        if isinstance(values, _Ratios):
            text = [(str(v // g) if (g := gcd(v, d)) == d else f"{v // g}/{d // g}") if v else None
                    for v, d in zip(values.nums, values.dens)]
        else:
            text = [str(v) if v else None for v in values]
    except ValueError as exc:  # an int past sys.get_int_max_str_digits()
        raise too_many_digits() from exc
    # by mask: a full vector lists every mask, a ranked one only its r-subsets
    get = text.__getitem__ if r is None else {m: t for m, t in zip(p.masks(), text) if t}.get
    h = (n + 1) // 2
    elements = [f",{e}" for e in range(1, n + 1)]
    lo, hi = ([k[1:] for k in _doubled(half, "")] for half in (elements[:h], elements[h:]))  # no first comma
    runs = {}  # size of g if ranked -> lowest bit of g -> (key of g, g << h) in key order
    for g in sorted(range(len(hi)), key=hi.__getitem__):
        size = None if r is None else g.bit_count()
        runs.setdefault(size, {}).setdefault(g & -g, []).append((hi[g], g << h))
    starts = [(head + run[0][0], head, l, run) for l, k in enumerate(lo)
              for f, run in runs.get(None if r is None else r - l.bit_count(), {}).items()
              for head in [f"{k}," if k and f else k]]
    coords = {head + k: v for _, head, l, run in sorted(starts)
              for k, g in run if (v := get(l | g))}
    return {"n": n, **rank, "ring": ring_decl_to_json(p.ring), "coords": coords}


def parse_plucker_vector(obj: Any) -> "PluckerVector":
    from .plucker import PluckerVector

    ground, r, ring, mapping = _parse_coords(obj, ranked=True)
    return PluckerVector.from_coords(ground, r, ring, mapping)


def plucker_vector_to_json(p: "PluckerVector") -> dict:
    return _vector_to_json(p, r=p.r)


def parse_wick_vector(obj: Any) -> "WickVector":
    from .wick import WickVector

    ground, _, ring, mapping = _parse_coords(obj, ranked=False)
    return WickVector.from_coords(ground, ring, mapping)


def wick_vector_to_json(p: "WickVector") -> dict:
    return _vector_to_json(p)


# ---------------------------------------------------------------------------
# matrices


def parse_matrix_file(obj: Any):
    """Decode {"ring", "matrix", optional "n"/"twist"}.

    Returns (matrix, twist_mask_or_None). The matrix comes back as a plain
    rectangular matrix; callers wanting skew structure rebuild it.
    """
    obj = _expect_dict(obj, "matrix file")
    ring = parse_ring_decl(obj.get("ring"))
    rows_raw = obj.get("matrix")
    if not isinstance(rows_raw, list) or not rows_raw:
        raise InputError("'matrix' must be a nonempty array of rows")
    rows = []
    for i, row in enumerate(rows_raw, start=1):
        if not isinstance(row, list):
            raise InputError(f"row {i} of 'matrix' must be an array")
        rows.append([_parse_value(ring, v, f"entry ({i},{j})") for j, v in enumerate(row, start=1)])
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise InputError("matrix rows have unequal lengths")
    if "n" in obj:
        n = _expect_int(obj["n"], "'n'")
        if n != width:
            raise InputError(f"'n' is {n} but the matrix has {width} columns")
    m = Matrix.from_rows(ring, rows)
    twist = None
    if "twist" in obj:
        if len(rows) != width:
            raise InputError("'twist' only applies to square matrices")
        twist = _parse_elements(GroundSet(width), obj["twist"], "'twist'")
    return m, twist


def matrix_to_json(m: Matrix) -> dict:
    return {
        "ring": ring_decl_to_json(m.ring),
        "matrix": m.to_json_rows(),
    }


def representation_to_json(rep: "WickRepresentation") -> dict:
    return {
        "n": rep.matrix.size,
        "ring": ring_decl_to_json(rep.matrix.ring),
        "matrix": rep.matrix.to_json_rows(),
        "twist": rep.twist.to_json(),
    }


# ---------------------------------------------------------------------------
# io helpers


def _unique_keys(pairs: list) -> dict:
    """The object of ``pairs``; InputError if one key appears twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise InputError(f"key {key!r} appears twice in one JSON object")
    return obj


def load_json(path: str):
    """Parse a JSON document from a path, or stdin when the path is '-'."""
    try:
        if path == "-":
            return json.load(sys.stdin, object_pairs_hook=_unique_keys)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except InputError:  # a repeated key, raised by _unique_keys
        raise
    except RecursionError as exc:  # arrays or objects nested past the interpreter's stack
        raise InputError(f"JSON in {path} is nested too deeply to parse") from exc
    except ValueError as exc:  # JSONDecodeError, or a number past the int-to-string limit
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
