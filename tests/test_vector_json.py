"""Coordinate vectors to JSON and back.

Every key the writer emits must be the oracle's per-mask key, in the
vector's mask order, with ``Ring.fmt`` of the canonical value, and the
parser must read the document back to the same vector. The CLI digests pin
``from-matrix`` stdout byte for byte.
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
from omatroid.exactalg import GF, PartialField, QQ, REGULAR
from omatroid.groundset import GroundSet, masks_of_size
from omatroid.jsonio import parse_vector_file, plucker_vector_to_json, wick_vector_to_json
from omatroid.plucker import PluckerVector
from omatroid.wick import WickVector

from oracles import subset_key

PARTIAL_FIELDS = {
    "gf7": PartialField(GF(7)),
    "qq": PartialField(QQ),
    "regular": REGULAR,
}

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
    """Oracle keys with ``Ring.fmt`` values, nonzero coordinates in mask order."""
    fmt = p.pf.ring.fmt
    return [(subset_key(m), fmt(v)) for m, v in zip(p.masks(), p.coords) if v]


@pytest.mark.parametrize("name", sorted(PARTIAL_FIELDS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_emitted_coords_are_the_oracle_keys_and_parse_back(name, data):
    pf = PARTIAL_FIELDS[name]
    ring = pf.ring
    n, r, raw = data.draw(sparse_vector(name))
    ground = GroundSet(n)
    if r is None:
        p = WickVector.from_coords(ground, pf, raw)
        obj = wick_vector_to_json(p)
    else:
        p = PluckerVector.from_coords(ground, r, pf, raw)
        obj = plucker_vector_to_json(p)
    lam = ring.inv(ring.coerce(raw[min(raw)]))
    assert [(m, v) for m, v in zip(p.masks(), p.coords) if v] == [
        (m, ring.mul(lam, ring.coerce(raw[m]))) for m in sorted(raw)
    ]
    assert list(obj["coords"].items()) == _expected_coords(p)
    assert parse_vector_file(json.loads(json.dumps(obj))) == p


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
    pf = PARTIAL_FIELDS["gf7"]
    p = WickVector(GroundSet(n), pf, tuple(1 + m % 6 if m.bit_count() % 2 in parities else 0
                                            for m in range(1 << n)))
    obj = wick_vector_to_json(p)
    assert calls == []
    assert len(obj["coords"]) == (512 if parities == (0,) else 1024)
    assert list(obj["coords"].items()) == _expected_coords(p)


def _skew(n, entry):
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = entry(i, j)
            rows[i][j], rows[j][i] = str(v), str(-v)
    return rows


def _from_matrix_inputs():
    rng = random.Random(1919)

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
    }


# sha256 of `from-matrix` stdout on these inputs, taken when the writer still
# joined the elements of every shorter key it had not built
FROM_MATRIX_DIGESTS = {
    "wick-12-qq-twisted": "930deff3f2b9441e709e93f604e3c0cc73b01112d5af6ecd9388f2abb6f68c94",
    "wick-10-gf7": "00548a1a61cc5624ac2340eb1a1ecfa15476bb6ce1e1cb9b83d3c1f7bf97ab22",
    "wick-10-regular-blocks": "8eca132adbaa95c8520c6a04e8136536cb486f0f2ee7cd55a1e6f54f739c376a",
    "plucker-6x12-qq": "cc41c4f6a73d43aa00b1fad65d769674d8043f3f7698954372ab7d2f1ee00360",
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
