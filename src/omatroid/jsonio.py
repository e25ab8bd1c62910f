"""JSON schemas shared by the CLI, the tests, and file round-trips.

One vocabulary everywhere: ring declarations are objects like {"kind": "q"}
or {"kind": "gfp", "p": 7}; ring values travel as decimal strings ("-3",
"2/5"); subsets are sorted arrays of 1-based elements; coordinate tables
key subsets as comma-joined strings ("1,3", "" for the empty set) and omit
zeros.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from .errors import InputError
from .exactalg import (
    GF,
    Matrix,
    PartialField,
    QQ,
    REGULAR,
    Ring,
    ZZ,
)
from .groundset import GroundSet, _key_bits
from .matroid import BasisFamily
from .plucker import PluckerVector
from .wick import WickRepresentation, WickVector

__all__ = [
    "parse_ring_decl",
    "ring_decl_to_json",
    "require_partial_field",
    "parse_basis_family",
    "parse_plucker_vector",
    "plucker_vector_to_json",
    "parse_wick_vector",
    "wick_vector_to_json",
    "parse_vector_file",
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


def parse_ring_decl(obj: Any) -> tuple[Ring, PartialField | None]:
    """Decode a ring declaration into (ring, partial field or None).

    The bare integers ("z") have no unit structure attached, so they come
    back without a partial field; "regular" is the integers with units
    restricted to +1/-1.
    """
    obj = _expect_dict(obj, "ring declaration")
    kind = obj.get("kind")
    if kind == "q":
        return QQ, PartialField(QQ)
    if kind == "z":
        return ZZ, None
    if kind == "regular":
        return ZZ, REGULAR
    if kind == "gfp":
        p = _expect_int(obj.get("p"), "'p' in a gfp declaration")
        field = GF(p)
        return field, PartialField(field)
    raise InputError(f"unknown ring kind {kind!r}")


def ring_decl_to_json(ring: Ring, pf: PartialField | None = None) -> dict:
    """The declaration that ``parse_ring_decl`` reads back as (ring, pf)."""
    if pf == REGULAR:
        return {"kind": "regular"}
    if ring.p:
        return {"kind": "gfp", "p": ring.p}
    return {"kind": ring.kind}


def require_partial_field(pf: PartialField | None) -> PartialField:
    if pf is None:
        raise InputError(
            "ring kind 'z' carries no unit structure; use 'regular', 'q', or 'gfp'"
        )
    return pf


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
    """(ground, r, partial field, {mask: value}) of either vector schema.

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
    ring, pf = parse_ring_decl(obj.get("ring"))
    pf = require_partial_field(pf)
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
    return ground, r, pf, mapping


class _Keys(dict):
    """Subset keys by mask; a missing one extends the key of its mask without the top element."""

    def __missing__(self, mask: int) -> str:
        top = mask.bit_length()
        head = self[mask ^ (1 << top >> 1)]
        key = self[mask] = f"{head},{top}" if head else str(top)
        return key


def _vector_to_json(p, **rank) -> dict:
    """The shared vector schema, nonzero coordinates only; ``rank`` adds 'r'.

    Zero is falsy in every ring, so zeros are dropped before a key is built.
    Each key, and each shorter key it extends, is built once by ``_Keys``.
    """
    fmt = p.pf.ring.fmt
    keys = _Keys({0: ""})
    coords = {keys[mask]: fmt(v) for mask, v in zip(p.masks(), p.coords) if v}
    ring = ring_decl_to_json(p.pf.ring, p.pf)
    return {"n": p.ground.n, **rank, "ring": ring, "coords": coords}


def parse_plucker_vector(obj: Any) -> PluckerVector:
    ground, r, pf, mapping = _parse_coords(obj, ranked=True)
    return PluckerVector.from_coords(ground, r, pf, mapping)


def plucker_vector_to_json(p: PluckerVector) -> dict:
    return _vector_to_json(p, r=p.r)


def parse_wick_vector(obj: Any) -> WickVector:
    ground, _, pf, mapping = _parse_coords(obj, ranked=False)
    return WickVector.from_coords(ground, pf, mapping)


def wick_vector_to_json(p: WickVector) -> dict:
    return _vector_to_json(p)


def parse_vector_file(obj: Any):
    """Either vector schema, told apart by the rank field."""
    obj = _expect_dict(obj, "coordinate vector")
    if "r" in obj:
        return parse_plucker_vector(obj)
    return parse_wick_vector(obj)


# ---------------------------------------------------------------------------
# matrices


def parse_matrix_file(obj: Any):
    """Decode {"ring", "matrix", optional "n"/"twist"}.

    Returns (matrix, twist_mask_or_None, ring, pf). The matrix comes back as
    a plain rectangular matrix; callers wanting skew structure rebuild it.
    """
    obj = _expect_dict(obj, "matrix file")
    ring, pf = parse_ring_decl(obj.get("ring"))
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
    return m, twist, ring, pf


def matrix_to_json(m: Matrix, pf: PartialField | None = None) -> dict:
    return {
        "ring": ring_decl_to_json(m.ring, pf),
        "matrix": m.to_json_rows(),
    }


def representation_to_json(rep: WickRepresentation, pf: PartialField) -> dict:
    return {
        "n": rep.matrix.size,
        "ring": ring_decl_to_json(pf.ring, pf),
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
