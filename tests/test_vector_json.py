"""Coordinate vectors to JSON and back.

Every key the writer emits must be the oracle's per-mask key, in key
order (the order of the JSON line), with ``Ring.fmt`` of the canonical
value, and the parser must read the document back to the same vector. The
CLI digests pin ``from-matrix`` stdout byte for byte.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omatroid import groundset, jsonio, plucker, wick
from omatroid.cli import main
from omatroid.exactalg import GF, QQ, ZZ, _Ratios
from omatroid.groundset import GroundSet, masks_of_size
from omatroid.jsonio import (
    parse_plucker_vector,
    parse_wick_vector,
    plucker_vector_to_json,
    wick_vector_to_json,
)
from omatroid.plucker import PluckerVector
from omatroid.wick import WickVector

from oracles import subset_key

RINGS = {"gf7": GF(7), "qq": QQ, "regular": ZZ}

NONZERO = {
    "gf7": st.integers(1, 6),
    "qq": st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6)),
    "regular": st.sampled_from([1, -1]),
}


@st.composite
def sparse_vector(draw, name):
    """A sparse Wick (no rank) or Pluecker vector on n <= 9 with its raw {mask: value}."""
    n = draw(st.integers(0, 9))
    r = draw(st.none() | st.integers(0, n))
    masks = range(1 << n) if r is None else masks_of_size(n, r)
    support = draw(st.lists(st.sampled_from(masks), min_size=1, max_size=40, unique=True))
    return n, r, {m: draw(NONZERO[name]) for m in support}


def _expected_coords(p):
    """Oracle keys with ``Ring.fmt`` values, nonzero coordinates in key order."""
    fmt = p.ring.fmt
    return sorted((subset_key(m), fmt(v)) for m, v in zip(p.masks(), p.coords) if v)


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_emitted_coords_are_the_oracle_keys_and_parse_back(name, data):
    ring = RINGS[name]
    n, r, raw = data.draw(sparse_vector(name))
    ground = GroundSet(n)
    if r is None:
        p = WickVector.from_coords(ground, ring, raw)
        obj = wick_vector_to_json(p)
    else:
        p = PluckerVector.from_coords(ground, r, ring, raw)
        obj = plucker_vector_to_json(p)
    lam = ring.inv(ring.coerce(raw[min(raw)]))
    scaled = [lam * ring.coerce(raw[m]) for m in sorted(raw)]
    assert [(m, v) for m, v in zip(p.masks(), p.coords) if v] == [
        (m, v % ring.p if ring.p else v) for m, v in zip(sorted(raw), scaled)
    ]
    assert list(obj["coords"].items()) == _expected_coords(p)
    parse = parse_wick_vector if r is None else parse_plucker_vector
    assert parse(json.loads(json.dumps(obj))) == p


@pytest.mark.parametrize("parities", [(0,), (0, 1)], ids=["even-subsets", "all-subsets"])
def test_emitting_builds_no_key_from_a_mask_s_elements(monkeypatch, parities):
    # on the even subsets alone, as in a Pfaffian table, no key without its top element
    # is a coordinate's key, so every one of them must come from a still shorter key
    real, calls = groundset.mask_elements, []

    def counted(bits):
        calls.append(bits)
        return real(bits)

    for module in (groundset, jsonio, plucker, wick):
        monkeypatch.setattr(module, "mask_elements", counted, raising=False)
    n = 10
    p = WickVector(GroundSet(n), GF(7), tuple(1 + m % 6 if m.bit_count() % 2 in parities else 0
                                              for m in range(1 << n)))
    obj = wick_vector_to_json(p)
    assert calls == []
    assert len(obj["coords"]) == (512 if parities == (0,) else 1024)
    assert list(obj["coords"].items()) == _expected_coords(p)


def test_emitting_a_vector_on_20_elements_builds_two_half_tables_of_keys(monkeypatch):
    # the writer once built 352,716 keys for the 184,756 coordinates of this vector
    built, real = [], jsonio._doubled

    def counted(items, empty):
        keys = real(items, empty)
        built.append(len(keys))
        return keys

    monkeypatch.setattr(jsonio, "_doubled", counted)
    masks = masks_of_size(20, 10)
    p = PluckerVector(GroundSet(20), 10, GF(7), [1 + m % 6 for m in masks])
    coords = plucker_vector_to_json(p)["coords"]
    assert sum(built) <= 2**10 + 2**10
    assert len(coords) == len(masks) and list(coords) == sorted(coords)
    assert all(coords[subset_key(m)] == str(v) for m, v in zip(masks[::97], p.coords[::97]))


def _skew(n, entry):
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = entry(i, j)
            rows[i][j], rows[j][i] = str(v), str(-v)
    return rows


def _from_matrix_inputs():
    rng, wide = random.Random(1919), random.Random(1616)

    def fraction(*_):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    qq12 = _skew(12, fraction)
    # under twist {2} the first nonzero coordinate is {1}, Pf(A_{1,2}); it is not 1
    qq12[0][1], qq12[1][0] = "3/2", "-3/2"
    blocks = [0, 0, 1, 1, 1, 2, 2, 3, 3, 3]  # blocks of sizes 2 and 3 along the diagonal
    sign = {(i, j): rng.choice([1, -1]) for i in range(10) for j in range(i + 1, 10)}
    sign[0, 1] = -1  # so the regular vector is scaled by -1
    return {
        "wick-12-qq-twisted": ({"ring": {"kind": "q"}, "matrix": qq12, "twist": [2]}, "wick"),
        "wick-10-gf7": ({"ring": {"kind": "gfp", "p": 7},
                         "matrix": _skew(10, lambda *_: rng.randrange(7))}, "wick"),
        "wick-10-regular-blocks": ({"ring": {"kind": "regular"}, "twist": [2], "matrix": _skew(
            10, lambda i, j: sign[i, j] if blocks[i] == blocks[j] else 0)}, "wick"),
        "plucker-6x12-qq": ({"ring": {"kind": "q"}, "matrix": [
            [str(fraction()) for _ in range(12)] for _ in range(6)]}, "plucker"),
        "wick-16-qq": ({"ring": {"kind": "q"}, "matrix": _skew(16, lambda *_: Fraction(
            wide.randint(-9, 9), wide.randint(1, 6)))}, "wick"),
    }


# sha256 of `from-matrix` stdout on these inputs, taken when the writer still
# joined the elements of every shorter key it had not built; wick-16-qq's when
# the table still expanded one mask at a time and the writer emitted mask order
FROM_MATRIX_DIGESTS = {
    "wick-12-qq-twisted": "930deff3f2b9441e709e93f604e3c0cc73b01112d5af6ecd9388f2abb6f68c94",
    "wick-10-gf7": "00548a1a61cc5624ac2340eb1a1ecfa15476bb6ce1e1cb9b83d3c1f7bf97ab22",
    "wick-10-regular-blocks": "8eca132adbaa95c8520c6a04e8136536cb486f0f2ee7cd55a1e6f54f739c376a",
    "plucker-6x12-qq": "cc41c4f6a73d43aa00b1fad65d769674d8043f3f7698954372ab7d2f1ee00360",
    "wick-16-qq": "b33b5badbb0f215c103dc2f5cfb3e0cd0d290c9bdc22f98edd1236b83270749d",
}


@pytest.mark.parametrize("name", sorted(FROM_MATRIX_DIGESTS))
def test_from_matrix_stdout_is_pinned(tmp_path, capsys, name):
    obj, kind = _from_matrix_inputs()[name]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    assert main(["from-matrix", str(path), "--kind", kind]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["data"]["vector"]["coords"]
    assert hashlib.sha256(out.encode()).hexdigest() == FROM_MATRIX_DIGESTS[name]


@settings(max_examples=300, deadline=None)
@given(num=st.integers(-10**300, 10**300).filter(bool) | st.integers(-99, 99).filter(bool),
       den=st.integers(1, 10**300) | st.integers(1, 99), factor=st.integers(1, 10**200))
def test_integer_formatter_writes_what_fraction_writes(num, den, factor):
    # the writer formats a QQ _Ratios vector from its integers; a shared factor makes the
    # gcd matter, and den dividing the numerator gives "3", never "3/1"
    p = WickVector(GroundSet(2), QQ, _Ratios([1, num, num * factor, num * den],
                                             [1, den, den * factor, den]))
    written = wick_vector_to_json(p)["coords"]
    assert written == {subset_key(m): str(Fraction(v, d))
                       for m, v, d in zip(p.masks(), p.coords.nums, p.coords.dens)}
    assert written[subset_key(3)] == str(num)


def _fractions_made(monkeypatch, capsys, tmp_path, obj, kind):
    """Fractions constructed by one ``from-matrix`` call over QQ, and the vector's length."""
    made, real = [], Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(cls)
        return real(cls, *args, **kwargs)

    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    monkeypatch.setattr(Fraction, "__new__", counted)
    assert main(["from-matrix", str(path), "--kind", kind]) == 0
    monkeypatch.undo()
    return len(made), len(json.loads(capsys.readouterr().out)["data"]["vector"]["coords"])


@pytest.mark.parametrize("kind", ["wick", "plucker"])
def test_from_matrix_builds_no_fraction_per_coordinate(monkeypatch, capsys, tmp_path, kind):
    # parsing and the skew check make at most two Fractions per matrix entry, and the vector
    # none: the bound holds while the coordinates grow from 5 to 14 times the entries
    rng = random.Random(22)
    for size in (10, 12):
        if kind == "wick":
            rows = _skew(size, lambda *_: Fraction(rng.randint(1, 9), rng.randint(1, 6)))
            # under twist {2} the first coordinate is {1}, Pf(A_{1,2}) = 3/2, scaled away
            rows[0][1], rows[1][0] = "3/2", "-3/2"
            obj = {"ring": {"kind": "q"}, "matrix": rows, "twist": [2]}
        else:
            rows = [[str(Fraction(rng.randint(-9, 9), rng.randint(1, 6))) for _ in range(size)]
                    for _ in range(size // 2)]
            obj = {"ring": {"kind": "q"}, "matrix": rows}
        made, coords = _fractions_made(monkeypatch, capsys, tmp_path, obj, kind)
        entries = len(rows) * size
        assert coords >= 4 * entries
        assert made <= 2 * entries, f"{made} Fractions for {coords} coordinates"
