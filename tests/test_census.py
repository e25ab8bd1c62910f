import hashlib
import json
import random
import time

import pytest

from omatroid.census import (
    CENSUS_CHUNK,
    SEARCH_FIELDS,
    BoundCheck,
    CensusReport,
    _achievable_supports,
    _candidate_total,
    _census_chunk,
    _class_tables,
    _class_total,
    _gray_steps,
    _keep,
    _members,
    _orthogonal_bitmaps,
    _orthogonal_flags,
    _parity_subsets,
    _search_matrix,
    _twist_by_least,
    enumerate_orthogonal,
    find_regular_representation,
    representability_census,
    verify_nelson_chain,
)
from omatroid.errors import CapabilityError, InputError
from omatroid.exactalg import GF, ZZ, all_principal_pfaffians
from omatroid import groundset
from omatroid.groundset import GroundSet
from omatroid.matroid import BasisFamily, is_matroid, is_orthogonal
from omatroid.wick import wick_from_representation

from oracles import achievable_supports, brute_exchange, census_candidates, census_chunk, skew_matrices


OVER_BUDGET = r"^the orthogonal enumeration would walk (\d+|at least 2\*\*\d+) word operations, over the budget of 4194304$"


def fam(n, *bases):
    return BasisFamily.from_subsets(GroundSet(n), bases)


# ---------------------------------------------------------------------------
# candidate enumeration


def test_candidate_indexing():
    for n in range(5):
        total = _candidate_total(n)
        seen = set()
        for parity, bits, members in census_candidates(n, 0, total):
            assert members
            assert len({m.bit_count() & 1 for m in members}) == 1
            seen.add(members)
        assert len(seen) == total


def _chunk_ranges(n, rng):
    """Candidate ranges for the chunk writer: whole classes, the class boundary,
    the hi == 0 run, run edges, CENSUS_CHUNK edges and random ranges."""
    total, evens = _candidate_total(n), _class_total(n, 0)
    ranges = [(0, total), (0, evens), (evens, total), (0, 1), (total - 1, total)]
    ranges += [(max(evens - a, 0), min(evens + b, total)) for a in (0, 1, 3) for b in (1, 2, 5)]
    for parity, offset in ((0, 0), (1, evens)):
        h = len(_parity_subsets(n, parity)) // 2
        for top in range(1, 1 + (_class_total(n, parity) >> h)):
            edge = offset + (top << h) - 1  # candidate number of bitmap top << h
            ranges += [(max(edge - 1, 0), min(edge + 1, total)), (edge, min(edge + 3, total))]
        ranges.append((offset, min(offset + (1 << h) + 1, total)))
    ranges += [(k * CENSUS_CHUNK + a, min(k * CENSUS_CHUNK + b, total))
               for k in range(1, total // CENSUS_CHUNK + 1) for a, b in ((-1, 1), (-2, 0), (0, 3))]
    for _ in range(12):
        a = rng.randrange(total)
        ranges.append((a, min(total, a + rng.randrange(1, 1500))))
    return ranges


@pytest.mark.parametrize("field,top", [("gf2", 5), ("gf3", 4)])
def test_census_chunk_matches_the_per_candidate_oracle(field, top):
    rng = random.Random(1501)
    for n in range(top + 1):
        ranges = _chunk_ranges(n, rng)
        if n == 5:  # whole classes take the oracle seconds at n = 5
            ranges = [(a, b) for a, b in ranges if b - a <= 1500]
        for start, stop in ranges:
            assert b"".join(_census_chunk(n, field, start, stop)).decode() == census_chunk(n, field, start, stop), (
                n, start, stop)


def _of_parity(n, parity):
    """The member sets of the enumerated families whose members have sizes of this parity."""
    return [f.masks for f in enumerate_orthogonal(n) if min(f.masks).bit_count() & 1 == parity]


def test_enumerate_orthogonal_counts():
    # frozen counts of labeled families passing symmetric exchange
    assert [len(enumerate_orthogonal(n)) for n in range(5)] == [1, 2, 6, 30, 294]
    assert len(_of_parity(3, 0)) == len(_of_parity(3, 1)) == 15
    with pytest.raises(CapabilityError):
        enumerate_orthogonal(6)


def test_enumerate_results_verify():
    for f in enumerate_orthogonal(3):
        assert is_orthogonal(f).ok
    # twisting by {1} is a parity-swapping bijection on the enumeration
    odds = {frozenset(m ^ 1 for m in ms) for ms in _of_parity(4, 0)}
    assert odds == set(_of_parity(4, 1))


def _kernel_agrees(n, parity, bits):
    fam_ = BasisFamily(GroundSet(n), frozenset(_members(n, parity, bits)))
    brute = brute_exchange(fam_, "symmetric_exchange", same_size=False, strong=False)[0]
    return (bits in _orthogonal_bitmaps(n, parity)) == is_orthogonal(fam_).ok == brute


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


def test_orthogonal_kernel_refuses_above_the_cap_at_once():
    # n = 6 would build 32 integers of 2**32 bits each, n = 24 two tuples of 2**23 subsets before
    # them; the kernel is sized from n alone and refuses before either, its count past 64 bits
    # named by a power of 2
    listed = _parity_subsets.cache_info().misses
    for n, refuse in ((6, lambda: _orthogonal_bitmaps(6, 0)), (15, lambda: _orthogonal_bitmaps(15, 1)),
                      (24, lambda: enumerate_orthogonal(24))):
        start = time.perf_counter()
        with pytest.raises(CapabilityError, match=OVER_BUDGET) as info:
            refuse()
        assert time.perf_counter() - start < 1.0
        assert ("at least 2**" in str(info.value)) == (n > 6)
    assert _parity_subsets.cache_info().misses == listed


def test_orthogonal_kernel_budget_counts_both_classes(monkeypatch):
    # n = 5: 2 classes * 16 sets T * (16 members B * 7 + 15) operations * 1,024 words, which fits
    monkeypatch.setattr(groundset, "SWEEP_BUDGET", 4_161_535)
    with pytest.raises(CapabilityError, match=r"would walk 4161536 word operations, over the budget of 4161535$"):
        _orthogonal_bitmaps.__wrapped__(5, 0)


def test_skew_matrices_count_in_code_order():
    mats = list(skew_matrices(GF(3), 3, range(3)))
    assert len(mats) == 27 == len({m.entries for m in mats})
    # the first upper entry varies fastest
    assert [m.entries[1] for m in mats[:4]] == [0, 1, 2, 0]
    assert [m.entries[2] for m in mats[:4]] == [0, 0, 0, 1]
    # _search_matrix numbers the matrices in the same product order
    for field in ("gf3", "regular"):
        ring, values = SEARCH_FIELDS[field]
        assert [_search_matrix(3, field, i) for i in range(27)] == list(skew_matrices(ring, 3, values))


@pytest.mark.parametrize("q,m", [(2, 0), (2, 1), (2, 6), (3, 1), (3, 4), (4, 3)])
def test_gray_steps_visit_every_digit_tuple_once(q, m):
    digits, seen = [0] * m, {(0,) * m}
    for k, d in _gray_steps(q, m):
        digits[k] += d
        assert 0 <= digits[k] < q
        seen.add(tuple(digits))
    assert len(seen) == q**m == len(_gray_steps(q, m)) + 1


def _product_order_maps(n, field):
    """The support -> least-index matrix maps of the kernel and of the product-order oracle."""
    kernel = {v: _search_matrix(n, field, index).entries for v, index in _achievable_supports(n, field).items()}
    oracle = {sum(1 << s for s in support): a.entries for support, a in achievable_supports(n, field).items()}
    return kernel, oracle


def test_support_search_matches_the_product_order_oracle():
    # the walk keeps, for each support, the least product-order index: the oracle's first-found matrix
    for field, top in (("gf2", 5), ("gf3", 4), ("regular", 4)):
        for n in range(top + 1):
            kernel, oracle = _product_order_maps(n, field)
            assert kernel == oracle, (field, n)


@pytest.mark.slow
@pytest.mark.parametrize("field", ["gf3", "regular"])
def test_support_search_matches_the_product_order_oracle_at_n5(monkeypatch, field):
    # the oracle's n * 2**n steps a table put it over SWEEP_BUDGET at n = 5; the walk is not
    monkeypatch.setattr(groundset, "SWEEP_BUDGET", 1 << 24)
    kernel, oracle = _product_order_maps(5, field)
    assert kernel == oracle
    assert len(kernel) == {"gf3": 2029, "regular": 1024}[field]


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
        representability_census(6, "gf3")
    with pytest.raises(InputError):
        representability_census(3, "gf5")


def test_census_refusal_creates_no_file(tmp_path):
    # the enumeration is sized before the tables, the support search and --out
    out = tmp_path / "census.jsonl"
    searched, tabled = _achievable_supports.cache_info().misses, _class_tables.cache_info().misses
    listed = _parity_subsets.cache_info().misses
    for n, field in ((6, "gf2"), (6, "gf3"), (15, "gf2"), (24, "gf3")):
        start = time.perf_counter()
        with pytest.raises(CapabilityError, match=OVER_BUDGET):
            representability_census(n, field, out_path=str(out))
        assert time.perf_counter() - start < 1.0
        assert not out.exists()
    assert _achievable_supports.cache_info().misses == searched
    assert _class_tables.cache_info().misses == tabled
    assert _parity_subsets.cache_info().misses == listed


def test_uniform_two_four_is_not_binary():
    # all 2-subsets of a 4-set: passes both axioms, has no representation
    # over GF(2) or the regular partial field, but has one over GF(3)
    u24 = fam(4, [1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 4])
    assert is_matroid(u24).ok and is_orthogonal(u24).ok
    sup2 = _achievable_supports(4, "gf2")
    assert not any(sum(1 << (b ^ t) for b in u24.masks) in sup2 for t in u24.masks)
    sup3 = _achievable_supports(4, "gf3")
    assert any(sum(1 << (b ^ t) for b in u24.masks) in sup3 for t in u24.masks)
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


def test_census_matroid_flags_match_is_matroid(tmp_path):
    # the census reads the matroid flag off member sizes; every family of a
    # record, orthogonal or not, must get the verdict is_matroid gives it
    for n in range(5):
        out = tmp_path / f"census{n}.jsonl"
        representability_census(n, "gf2", out_path=str(out))
        for line in out.read_text().splitlines():
            record = json.loads(line)
            f = fam(n, *record["bases"])
            assert record.get("matroid", False) == is_matroid(f).ok, record


def test_supports_hold_the_empty_set():
    # Pf of the empty matrix is 1, so a support's least member is the empty set and the
    # twist by it leaves the support as it is: every support is a representable family
    for field, top in (("gf2", 5), ("gf3", 4)):
        for n in range(top + 1):
            for s in _achievable_supports(n, field):
                assert s & 1 and _twist_by_least(s, _keep(n)) == s


def test_supports_are_closed_under_twists_by_their_members():
    # twisting a support by one of its members is a principal pivot, the lemma behind
    # reading representability off the least member alone
    for field, top in (("gf2", 5), ("gf3", 5), ("regular", 4)):
        for n in range(top + 1):
            supports = _achievable_supports(n, field)
            for v in supports:
                members = [s for s in range(1 << n) if v >> s & 1]
                for t in members:
                    assert sum(1 << (s ^ t) for s in members) in supports, (field, n, v, t)


def test_twist_by_least_matches_the_twist_of_each_member():
    # the block swaps against the twist of every member moved one by one
    for n in range(6):
        keep = _keep(n)
        for f in enumerate_orthogonal(n):
            t = min(f.masks)
            assert _twist_by_least(sum(1 << b for b in f.masks), keep) == sum(1 << (b ^ t) for b in f.masks)


@pytest.mark.parametrize("field,top", [("gf2", 5), ("gf3", 4)])
def test_orthogonal_flags_match_the_per_family_rule(field, top):
    # every orthogonal family, where the chunk oracle reads ranges of at most 1,500 records at n = 5:
    # a matroid when its members share one size, representable when its twist by its least member,
    # moved block by block, is an achievable support
    for n in range(top + 1):
        supports, keep = _achievable_supports(n, field), _keep(n)
        for parity in (0, 1):
            bitmaps, flags = _orthogonal_flags(n, field, parity)
            assert bitmaps == tuple(sorted(_orthogonal_bitmaps(n, parity)))
            for bits, flag in zip(bitmaps, flags, strict=True):
                members = _members(n, parity, bits)
                twisted = _twist_by_least(sum(1 << m for m in members), keep)
                assert flag == (True, len({m.bit_count() for m in members}) == 1, twisted in supports), (n, bits)


def test_gf2_supports_are_one_per_skew_matrix():
    # over GF(2) a_ij = 1 exactly when {i, j} is in the support, so each of the
    # 2**C(n,2) skew matrices has a support of its own
    for n in range(6):
        assert len(_achievable_supports(n, "gf2")) == 1 << n * (n - 1) // 2


def test_every_support_is_orthogonal():
    for field, top in (("gf2", 5), ("gf3", 4), ("regular", 4)):
        for n in range(top + 1):
            ground = GroundSet(n)
            for v in _achievable_supports(n, field):
                members = frozenset(s for s in range(1 << n) if v >> s & 1)
                assert is_orthogonal(BasisFamily(ground, members)).ok, (field, n, members)


def test_one_support_search_for_every_partial_field():
    # a sign matrix with a table in {0, +1, -1} reduces to GF(2) and GF(3) with the
    # same support, and every binary support has such a matrix
    for n in range(5):
        regular = _achievable_supports(n, "regular")
        assert set(regular) == set(_achievable_supports(n, "gf2"))
        assert set(regular) <= set(_achievable_supports(n, "gf3"))
        for support, index in regular.items():
            a = _search_matrix(n, "regular", index)
            assert set(a.entries) <= {0, 1, -1}
            assert sum(1 << mask for mask, v in enumerate(all_principal_pfaffians(a)) if v) == support


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


def test_census_gf3_at_n5():
    # the GF(3) support search fits the budget at n = 5 since it walks one table update per set
    r = representability_census(5, "gf3")
    assert (r.total_families_checked, r.orthogonal_count, r.matroid_count) == (131070, 7966, 406)
    assert r.representable_counts == {"gf3": 7470}


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


def _same_census(report, full):
    return (report.orthogonal_count, report.matroid_count, report.representable_counts) == (
        full.orthogonal_count, full.matroid_count, full.representable_counts)


def test_census_resumes_from_every_record_cut(tmp_path):
    out = tmp_path / "census.jsonl"
    full = representability_census(3, "gf2", out_path=str(out))
    data = out.read_bytes()
    lines = data.splitlines(keepends=True)
    cut = tmp_path / "cut.jsonl"
    for k in range(len(lines) + 1):
        cut.write_bytes(b"".join(lines[:k]))
        messages = []
        resumed = representability_census(3, "gf2", out_path=str(cut), progress=messages.append)
        assert cut.read_bytes() == data, k
        assert _same_census(resumed, full), k
        assert all(f"{k} reused" in m for m in messages)


def test_census_resume_cuts_a_torn_line_at_any_byte(tmp_path):
    out = tmp_path / "census.jsonl"
    full = representability_census(4, "gf2", out_path=str(out))
    data = out.read_bytes()
    # an orthogonal record and a plain one past the first third of the file
    for needle in (b'"gf2":true', b'"orthogonal":false'):
        end = data.index(needle, len(data) // 3)
        begin = data.rindex(b"\n", 0, end) + 1
        stop = data.index(b"\n", end) + 1
        torn = tmp_path / "torn.jsonl"
        for cut in sorted({begin + 1, begin + 2, end, end + 3, stop - 2, stop - 1}):
            torn.write_bytes(data[:cut])
            resumed = representability_census(4, "gf2", out_path=str(torn))
            assert torn.read_bytes() == data, cut
            assert _same_census(resumed, full), cut


def test_census_resume_at_the_chunk_edges(tmp_path):
    # the resume compares CENSUS_CHUNK records at a time: cut, tear and break the records
    # on both sides of the first chunk boundary
    out = tmp_path / "census.jsonl"
    full = representability_census(5, "gf2", out_path=str(out))
    data = out.read_bytes()
    ends = [0]
    with open(out, "rb") as fh:
        for _ in range(CENSUS_CHUNK + 3):
            ends.append(ends[-1] + len(fh.readline()))
    cut = tmp_path / "cut.jsonl"
    for k in (CENSUS_CHUNK - 1, CENSUS_CHUNK, CENSUS_CHUNK + 1):
        for size in (ends[k], ends[k] + 7, ends[k + 1] - 1):
            cut.write_bytes(data[:size])
            assert _same_census(representability_census(5, "gf2", out_path=str(cut)), full), size
            assert cut.read_bytes() == data, size
        line = data[ends[k]:ends[k + 1]]
        for other in (line[:-2] + b" }\n", line[:-3] + b"}\n"):
            broken = data[:ends[k]] + other + data[ends[k + 1]:ends[k + 2]]
            cut.write_bytes(broken)
            with pytest.raises(InputError, match=f"line {k + 1} is not record {k} "):
                representability_census(5, "gf2", out_path=str(cut))
            assert cut.read_bytes() == broken


def test_census_resume_cuts_a_torn_line_past_the_end(tmp_path):
    out = tmp_path / "census.jsonl"
    full = representability_census(3, "gf2", out_path=str(out))
    data = out.read_bytes()
    for extra in (b"{", data[:10], data.splitlines()[0]):
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(data + extra)
        resumed = representability_census(3, "gf2", out_path=str(torn))
        assert torn.read_bytes() == data
        assert _same_census(resumed, full)


def test_census_resume_refuses_a_complete_line_past_the_end(tmp_path):
    out = tmp_path / "census.jsonl"
    representability_census(3, "gf2", out_path=str(out))
    data = out.read_bytes()
    over = tmp_path / "over.jsonl"
    for extra in (b"\n", data.splitlines(keepends=True)[0], b"{}\n{"):
        over.write_bytes(data + extra)
        with pytest.raises(InputError, match="holds more than the 30 records of the n = 3 census"):
            representability_census(3, "gf2", out_path=str(over))
        assert over.read_bytes() == data + extra


def test_census_resume_refuses_a_flipped_verdict(tmp_path):
    # records are deterministic, so a file with another verdict word was not written by this census
    out = tmp_path / "census.jsonl"
    representability_census(4, "gf2", out_path=str(out))
    data = out.read_bytes()
    at = data.index(b'"gf2":true', len(data) // 2)
    line = data.count(b"\n", 0, at) + 1
    flipped = data[:at] + b'"gf2":false' + data[at + len(b'"gf2":true'):]
    bad = tmp_path / "bad.jsonl"
    for tail in (len(flipped), flipped.index(b"\n", at) + 1, flipped.index(b"\n", at) + 5):
        bad.write_bytes(flipped[:tail])
        with pytest.raises(InputError, match=f"line {line} is not record {line - 1} of the n = 4 gf2 census"):
            representability_census(4, "gf2", out_path=str(bad))
        assert bad.read_bytes() == flipped[:tail]


def test_find_regular_representation_roundtrip():
    f = fam(4, [], [1, 2], [3, 4], [1, 2, 3, 4])
    rep = find_regular_representation(f)
    assert rep is not None
    assert rep.matrix.ring == ZZ
    v = wick_from_representation(rep)
    assert frozenset(v.support_masks()) == f.masks
    # the walk brings the regular search to n = 5; n = 6 is over the budget
    f5 = fam(5, [1, 2])
    rep5 = find_regular_representation(f5)
    assert rep5 is not None and rep5.matrix.ring == ZZ
    assert frozenset(wick_from_representation(rep5).support_masks()) == f5.masks
    with pytest.raises(CapabilityError):
        find_regular_representation(fam(6, [1, 2]))


# sha256 over find_regular_representation of every orthogonal matroid on [n],
# n <= 4, in enumeration order: which matrix is found first is part of the output
REGULAR_REPS_DIGEST = "8fc08b5d46e89af017211f5468fccb37d12c30ae39db4995295b79e2a0db3f67"


def test_find_regular_representation_digest():
    h = hashlib.sha256()
    for n in range(5):
        for f in enumerate_orthogonal(n):
            rep = find_regular_representation(f)
            h.update(repr(None if rep is None else (rep.matrix.entries, rep.twist.bits)).encode())
    assert h.hexdigest() == REGULAR_REPS_DIGEST


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


def test_bound_chain_input_validation():
    with pytest.raises(InputError):
        verify_nelson_chain(11)
    with pytest.raises(InputError):
        verify_nelson_chain(True)


def test_bound_chain_json():
    data = verify_nelson_chain(12).to_json()
    assert data["verdict"] is True
    assert isinstance(data["r"], str)
    assert isinstance(data["lhs_upper_bound"], str)
    assert data["steps"][0] == ["top_argument_dominates", True]
