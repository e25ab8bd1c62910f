import hashlib
import json
import random
from fractions import Fraction

import pytest

from omatroid.census import (
    BoundCheck,
    CensusReport,
    _achievable_supports,
    _candidate_total,
    _candidates,
    _members,
    _orthogonal_bitmaps,
    _parity_subsets,
    _representable_families,
    _skew_matrices,
    enumerate_orthogonal,
    find_regular_representation,
    realizable_sets_demo,
    representability_census,
    verify_nelson_chain,
)
from omatroid.errors import CapabilityError, InputError
from omatroid.exactalg import GF, PartialField, REGULAR, ZZ
from omatroid.groundset import GroundSet
from omatroid.matroid import BasisFamily, is_matroid, is_orthogonal
from omatroid.wick import wick_from_representation


def fam(n, *bases):
    return BasisFamily.from_subsets(GroundSet(n), bases)


# ---------------------------------------------------------------------------
# candidate enumeration


def test_candidate_indexing():
    for n in range(5):
        total = _candidate_total(n)
        seen = set()
        for parity, bits, _bases in _candidates(n, 0, total):
            members = _members(n, parity, bits)
            assert members
            assert len({m.bit_count() & 1 for m in members}) == 1
            seen.add(members)
        assert len(seen) == total


def test_enumerate_orthogonal_counts():
    # frozen counts of labeled families passing symmetric exchange
    assert [len(enumerate_orthogonal(n)) for n in range(5)] == [1, 2, 6, 30, 294]
    assert len(enumerate_orthogonal(3, "even")) == 15
    assert len(enumerate_orthogonal(3, "odd")) == 15
    with pytest.raises(InputError):
        enumerate_orthogonal(3, "mixed")
    with pytest.raises(CapabilityError):
        enumerate_orthogonal(6)


def test_enumerate_results_verify():
    for f in enumerate_orthogonal(3):
        assert is_orthogonal(f).ok
    # twisting by {1} is a parity-swapping bijection on the enumeration
    evens = {f.masks for f in enumerate_orthogonal(4, "even")}
    odds = {frozenset(m ^ 1 for m in ms) for ms in evens}
    assert odds == {f.masks for f in enumerate_orthogonal(4, "odd")}


def _kernel_agrees(n, parity, bits):
    fam_ = BasisFamily(GroundSet(n), frozenset(_members(n, parity, bits)))
    return (bits in _orthogonal_bitmaps(n, parity)) == is_orthogonal(fam_).ok


def test_orthogonal_kernel_matches_oracle_exhaustively():
    for n in range(5):
        for parity in (0, 1):
            k = len(_parity_subsets(n, parity))
            assert all(_kernel_agrees(n, parity, bits) for bits in range(1, 1 << k))


def test_orthogonal_kernel_matches_oracle_on_n5_sample():
    rng = random.Random(2208)
    for parity in (0, 1):
        sample = rng.sample(range(1, 1 << 16), 3000)
        assert all(_kernel_agrees(5, parity, bits) for bits in sample)


def test_skew_matrices_count_in_code_order():
    mats = list(_skew_matrices(GF(3), 3, range(3)))
    assert len(mats) == 27 == len({m.entries for m in mats})
    # the first upper entry varies fastest
    assert [m.entries[1] for m in mats[:4]] == [0, 1, 2, 0]
    assert [m.entries[2] for m in mats[:4]] == [0, 0, 0, 1]


# ---------------------------------------------------------------------------
# representability census


def test_census_small_counts():
    r = representability_census(2, "gf2")
    assert r.total_families_checked == 6
    assert r.orthogonal_count == 6
    assert r.matroid_count == 5
    assert r.representable_counts == {"gf2": 6}

    r3 = representability_census(3, "gf2")
    assert (r3.orthogonal_count, r3.matroid_count) == (30, 16)
    assert r3.representable_counts == {"gf2": 30}


def test_census_n4_frozen():
    r = representability_census(4, "gf2")
    assert r.total_families_checked == 510
    assert r.orthogonal_count == 294
    # the matroid count matches the classical count of labeled matroids
    assert r.matroid_count == 68
    assert r.representable_counts == {"gf2": 270}

    r3 = representability_census(4, "gf3")
    assert r3.orthogonal_count == 294
    assert r3.representable_counts == {"gf3": 294}
    assert len(r.notes) == 2


def test_census_caps_and_validation():
    with pytest.raises(CapabilityError):
        representability_census(6, "gf2")
    with pytest.raises(CapabilityError):
        representability_census(5, "gf3")
    with pytest.raises(InputError):
        representability_census(3, "gf5")


def test_uniform_two_four_is_not_binary():
    # all 2-subsets of a 4-set: passes both axioms, has no representation
    # over GF(2) or the regular partial field, but has one over GF(3)
    u24 = fam(4, [1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 4])
    assert is_matroid(u24).ok and is_orthogonal(u24).ok
    sup2 = _achievable_supports(4, "gf2")
    assert not any(frozenset(b ^ t for b in u24.masks) in sup2 for t in u24.masks)
    sup3 = _achievable_supports(4, "gf3")
    assert any(frozenset(b ^ t for b in u24.masks) in sup3 for t in u24.masks)
    assert find_regular_representation(u24) is None


def test_census_jsonl_and_resume(tmp_path):
    out = tmp_path / "census.jsonl"
    full = representability_census(3, "gf2", out_path=str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == full.total_families_checked
    first = json.loads(lines[0])
    assert first == {"bases": [[]], "orthogonal": True, "matroid": True, "representable": {"gf2": True}}

    # chop the file and resume; counts and content must come out identical
    cut = tmp_path / "resumed.jsonl"
    cut.write_text("\n".join(lines[:7]) + "\n")
    resumed = representability_census(3, "gf2", out_path=str(cut))
    assert cut.read_text() == out.read_text()
    assert resumed.orthogonal_count == full.orthogonal_count
    assert resumed.matroid_count == full.matroid_count
    assert resumed.representable_counts == full.representable_counts

    # a file longer than the candidate list is rejected
    over = tmp_path / "over.jsonl"
    over.write_text(out.read_text() + lines[0] + "\n")
    with pytest.raises(InputError):
        representability_census(3, "gf2", out_path=str(over))


def test_supports_hold_the_empty_set():
    # the twist set behind the census is sound only because Pf of the empty matrix is 1
    for field, top in (("gf2", 5), ("gf3", 4)):
        for n in range(top + 1):
            assert all(0 in s for s in _achievable_supports(n, field))
            rep = _representable_families(n, field)
            assert all(sum(1 << m for m in s) in rep for s in _achievable_supports(n, field))


# sha256 of the census files as the per-candidate exchange checker wrote them
CENSUS_DIGESTS = {
    (5, "gf2"): "971abcec189b1bbd11877d65ad8bcaa1a3ec92d38a287db4ec12c2deaa0a58c2",
    (4, "gf2"): "e2507a4232fefd3577501284001abb9e88c5c3861b4cc89fef8b740d9c5d9d63",
    (4, "gf3"): "d0b448a16aa05ee4ca85c0336c3685b91ef67d4b7714dde5b31f75bb7ff9541c",
}


@pytest.mark.parametrize("n,field", sorted(CENSUS_DIGESTS))
def test_census_file_digests(tmp_path, n, field):
    out = tmp_path / "census.jsonl"
    r = representability_census(n, field, out_path=str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CENSUS_DIGESTS[n, field]
    if n == 5:
        assert r.total_families_checked == 131070
        assert r.orthogonal_count == 7966
        assert r.matroid_count == 406
        assert r.representable_counts == {"gf2": 4590}


def test_census_resume_torn_tail(tmp_path):
    out = tmp_path / "census.jsonl"
    full = representability_census(4, "gf2", out_path=str(out))
    data = out.read_bytes()
    cut = data.index(b"\n", len(data) // 2) + 1
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(data[: cut + 20])  # 20 bytes into the next record
    messages = []
    resumed = representability_census(4, "gf2", out_path=str(torn), progress=messages.append)
    assert torn.read_bytes() == data
    assert (resumed.orthogonal_count, resumed.matroid_count) == (full.orthogonal_count, full.matroid_count)
    assert resumed.representable_counts == full.representable_counts
    reused = data[:cut].count(b"\n")
    assert messages and all(f"{reused} reused" in m and "families/s" in m and "ETA" in m for m in messages)


def test_census_resume_refuses_other_field(tmp_path):
    out = tmp_path / "census.jsonl"
    representability_census(4, "gf2", out_path=str(out))
    before = out.read_bytes()
    out.write_bytes(b"".join(before.splitlines(keepends=True)[:100]))
    with pytest.raises(InputError):
        representability_census(4, "gf3", out_path=str(out))
    # a record with a wrong verdict word is refused too
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(before.replace(b'"gf2":true', b'"gf2":maybe', 1))
    with pytest.raises(InputError):
        representability_census(4, "gf2", out_path=str(bad))


def test_census_resume_refuses_other_n(tmp_path):
    out = tmp_path / "census.jsonl"
    representability_census(2, "gf2", out_path=str(out))
    before = out.read_bytes()
    with pytest.raises(InputError):
        representability_census(3, "gf2", out_path=str(out))
    assert out.read_bytes() == before


def test_find_regular_representation_roundtrip():
    f = fam(4, [], [1, 2], [3, 4], [1, 2, 3, 4])
    rep = find_regular_representation(f)
    assert rep is not None
    assert rep.matrix.ring == ZZ
    v = wick_from_representation(rep, REGULAR)
    assert frozenset(v.support_masks()) == f.masks
    with pytest.raises(CapabilityError):
        find_regular_representation(fam(5, [1, 2]))


# ---------------------------------------------------------------------------
# the certified counting chain


def test_bound_chain_true_for_small_n():
    for n in range(12, 17):
        bc = verify_nelson_chain(n)
        assert bc.verdict
        assert all(ok for _, ok in bc.steps)
        assert bc.lhs_upper_bound < bc.r


def test_bound_chain_parameters():
    bc = verify_nelson_chain(12)
    assert (bc.c, bc.d, bc.N, bc.m) == (1, 11, 2048, 66)
    assert bc.r == 1 << 12**3
    names = [name for name, _ in bc.steps]
    assert names == [
        "top_argument_dominates",
        "binomial_monotone",
        "binomial_vs_power",
        "power_simplifies",
        "log_term_integer_bound",
        "log_term_cap",
        "product_below_r",
        "hypothesis_certified",
    ]
    assert set(bc.context) == {
        "total_patterns_bound",
        "knuth_exponent_bounds",
        "e_upper",
        "log2e_upper",
    }
    assert int(bc.context["total_patterns_bound"]) == (1 << 12) * bc.r


def test_bound_chain_tighter_constants_stay_true():
    bc = verify_nelson_chain(
        12,
        e_upper=Fraction(27182818284590453, 10**16),
        log2e_upper=Fraction(14426950408889635, 10**16),
    )
    assert bc.verdict


def test_bound_chain_input_validation():
    with pytest.raises(InputError):
        verify_nelson_chain(11)
    with pytest.raises(InputError):
        verify_nelson_chain(True)
    with pytest.raises(InputError):
        verify_nelson_chain(12, e_upper=Fraction(5, 2))
    with pytest.raises(InputError):
        verify_nelson_chain(12, log2e_upper=Fraction(7, 5))


def test_bound_chain_json():
    data = verify_nelson_chain(12).to_json()
    assert data["verdict"] is True
    assert isinstance(data["r"], str)
    assert isinstance(data["lhs_upper_bound"], str)
    assert data["steps"][0] == ["top_argument_dominates", True]


# ---------------------------------------------------------------------------
# realizable zero patterns


def test_realizable_demo_counts():
    assert realizable_sets_demo(2).count == 2
    assert realizable_sets_demo(3).count == 8
    d4 = realizable_sets_demo(4)
    assert d4.count == 64
    assert d4.within_bound
    assert d4.all_orthogonal
    assert d4.bound == 1 << 64
    assert d4.supports[0] == (0,)


def test_realizable_demo_validation():
    with pytest.raises(CapabilityError):
        realizable_sets_demo(5)
    with pytest.raises(InputError):
        realizable_sets_demo(3, field="gf3")


def test_realizable_demo_json():
    d = realizable_sets_demo(2)
    data = d.to_json()
    assert data["count"] == 2
    assert data["supports"] == [[[]], [[], [1, 2]]]
