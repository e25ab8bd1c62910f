import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omatroid.census import enumerate_orthogonal
from omatroid.errors import InputError
from omatroid.exactalg import GF, Matrix, SkewMatrix, all_principal_pfaffians
from omatroid.groundset import GroundSet, SubsetMask, mask_of_elements
from omatroid.matroid import (
    BasisFamily,
    is_matroid,
    is_matroid_strong,
    is_orthogonal,
    is_orthogonal_strong,
    twist,
)
from omatroid.plucker import plucker_from_matrix, plucker_support

from oracles import brute_exchange


def fam(n, *bases):
    g = GroundSet(n)
    return BasisFamily.from_subsets(g, bases)


def test_family_construction():
    f = fam(4, [1, 2], [3, 4])
    assert len(f) == 2
    assert f.ground.n == 4
    assert f.members() == (mask_of_elements([1, 2]), mask_of_elements([3, 4]))
    assert f.to_json() == {"n": 4, "bases": [[1, 2], [3, 4]]}
    # a member may also be given as a SubsetMask of the same ground set or as a mask
    g = BasisFamily.from_subsets(f.ground, [f.ground.subset([1, 2]), mask_of_elements([3, 4])])
    assert g == f
    assert f.ground.subset([3, 4]) in f and mask_of_elements([1, 2]) in f
    assert f.ground.subset([1, 3]) not in f and 0 not in f
    with pytest.raises(InputError, match="^subset from a different ground set$"):
        BasisFamily.from_subsets(f.ground, [GroundSet(5).subset([1, 2])])
    with pytest.raises(InputError):
        BasisFamily(GroundSet(2), frozenset())
    with pytest.raises(InputError):
        BasisFamily(GroundSet(2), frozenset({0b100}))


def test_uniform_families_are_matroids():
    for n in range(5):
        for r in range(n + 1):
            g = GroundSet(n)
            bases = [list(c) for c in combinations(range(1, n + 1), r)]
            f = BasisFamily.from_subsets(g, bases)
            assert is_matroid(f).ok
            assert is_matroid_strong(f).ok
            assert is_orthogonal(f).ok


def test_matroid_counterexample_witness():
    # the classic two-disjoint-pairs family; the first ordered violation is
    # reported with its colex-least missing exchange element
    v = is_matroid(fam(4, [1, 2], [3, 4]))
    assert not v.ok
    assert v.reason == "exchange"
    assert v.b1.elements() == (1, 2)
    assert v.b2.elements() == (3, 4)
    assert v.x == 1


def test_not_equicardinal():
    v = is_matroid(fam(3, [1], [1, 2]))
    assert not v.ok
    assert v.reason == "not_equicardinal"
    assert v.b1.elements() == (1,)
    assert v.b2.elements() == (1, 2)
    assert v.x is None


def test_strong_vs_weak_exchange():
    # every matroid on up to 4 elements satisfies strong exchange as well
    g = GroundSet(4)
    for bits in range(1, 1 << 16):
        members = frozenset(m for m in range(16) if bits >> m & 1)
        f = BasisFamily(g, members)
        if is_matroid(f).ok:
            assert is_matroid_strong(f).ok


def test_orthogonal_counterexample_witness():
    v = is_orthogonal(fam(4, [], [1, 2, 3, 4]))
    assert not v.ok
    assert v.reason == "symmetric_exchange"
    assert v.b1.elements() == ()
    assert v.b2.elements() == (1, 2, 3, 4)
    assert v.x == 1


def test_mixed_parity_always_fails():
    rng = random.Random(9)
    g = GroundSet(5)
    for _ in range(200):
        members = {rng.randrange(32) for _ in range(rng.randint(2, 6))}
        parities = {m.bit_count() & 1 for m in members}
        if len(parities) < 2:
            continue
        assert not is_orthogonal(BasisFamily(g, frozenset(members))).ok


def test_orthogonal_strong_difference():
    # this family passes symmetric exchange both weakly and strongly
    f = fam(4, [], [1, 2], [3, 4], [1, 2, 3, 4])
    assert is_orthogonal(f).ok
    assert is_orthogonal_strong(f).ok
    # singletons always pass everything
    assert is_orthogonal(fam(3, [1, 2])).ok
    assert is_orthogonal_strong(fam(3, [1, 2])).ok


def test_twist_involution_and_parity():
    f = fam(4, [], [1, 2], [3, 4], [1, 2, 3, 4])
    g = f.ground
    t = g.subset([1, 3])
    tw = twist(f, t)
    assert tw.to_json() == {"n": 4, "bases": [[1, 3], [2, 3], [1, 4], [2, 4]]}
    assert twist(tw, t).masks == f.masks
    with pytest.raises(InputError, match="^twist set lives on a different ground set$"):
        twist(f, GroundSet(5).subset([1, 3]))
    # twisting preserves symmetric exchange
    for bits in range(1 << 4):
        tt = SubsetMask(g, bits)
        assert is_orthogonal(twist(f, tt)).ok


CHECKERS = (is_matroid, is_matroid_strong, is_orthogonal, is_orthogonal_strong)


def _sampled_families(n, count, rng):
    """Random families on [n]: one member size, one size parity, or mixed sizes, in turn."""
    g = GroundSet(n)
    for i in range(count):
        k = rng.randint(1, 12)
        if i % 3 == 0:
            r = rng.randint(0, n)
            pool = [m for m in range(1 << n) if m.bit_count() == r]
        elif i % 3 == 1:
            p = rng.randint(0, 1)
            pool = [m for m in range(1 << n) if m.bit_count() & 1 == p]
        else:
            pool = list(range(1 << n))
        yield BasisFamily(g, frozenset(rng.choice(pool) for _ in range(k)))


def test_checker_witnesses_are_pinned():
    # every nonempty family on [4], then 3000 seeded families each on [5] and [6];
    # the digest covers (ok, reason, B1, B2, x) of all four checkers on each
    g = GroundSet(4)
    families = [
        BasisFamily(g, frozenset(m for m in range(16) if bits >> m & 1))
        for bits in range(1, 1 << 16)
    ]
    rng = random.Random(20240605)
    for n in (5, 6):
        families.extend(_sampled_families(n, 3000, rng))
    h = hashlib.sha256()
    for f in families:
        for check in CHECKERS:
            v = check(f)
            b1 = None if v.b1 is None else v.b1.bits
            b2 = None if v.b2 is None else v.b2.bits
            h.update(repr((v.ok, v.reason, b1, b2, v.x)).encode() + b"\n")
    assert h.hexdigest() == "aa476857312c90950e8ea1e2df9c49e0534703974758d1e56ee96ccba72d4939"


MODES = (
    (is_matroid, "exchange", True, False),
    (is_matroid_strong, "strong_exchange", True, True),
    (is_orthogonal, "symmetric_exchange", False, False),
    (is_orthogonal_strong, "strong_symmetric_exchange", False, True),
)


def _matches_brute(f):
    for check, reason, same_size, strong in MODES:
        v = check(f)
        b1 = None if v.b1 is None else v.b1.bits
        b2 = None if v.b2 is None else v.b2.bits
        got = (v.ok, v.reason, b1, b2, v.x)
        assert got == brute_exchange(f, reason, same_size, strong), (check.__name__, sorted(f.masks))


def _drop_one(f, rng):
    """The family without one member, picked by ``rng``."""
    return BasisFamily(f.ground, f.masks - {rng.choice(f.members())})


@st.composite
def families(draw):
    """Families on n <= 7 of mixed sizes, of one size parity, or of one size."""
    n = draw(st.integers(0, 7), label="n")
    r = draw(st.integers(0, n), label="r")
    kind = draw(st.sampled_from(["mixed", "parity", "size"]), label="kind")
    pool = [
        m for m in range(1 << n)
        if kind == "mixed" or (m.bit_count() - r) % 2 == 0 and (kind == "parity" or m.bit_count() == r)
    ]
    masks = draw(st.frozensets(st.sampled_from(pool), min_size=1, max_size=24), label="members")
    return BasisFamily(GroundSet(n), masks)


@settings(max_examples=300, deadline=None)
@given(f=families())
def test_checkers_match_the_brute_exchange_on_random_families(f):
    _matches_brute(f)


@pytest.mark.parametrize("n", [4, 5])
def test_checkers_match_the_brute_exchange_on_orthogonal_families_less_one_member(n):
    rng = random.Random(n)
    outcomes = set()
    for f in enumerate_orthogonal(n):
        if len(f) > 1:
            less = _drop_one(f, rng)
            _matches_brute(less)
            outcomes.add(is_orthogonal(less).ok)
    assert outcomes == {False, True}


def test_checkers_match_the_brute_exchange_on_dense_supports_less_one_member():
    # a random 10x10 skew matrix and a random 6x12 matrix over GF(7): hundreds of members
    rng = random.Random(710)
    f7 = GF(7)
    skew = SkewMatrix.from_upper(f7, 10, [rng.randrange(7) for _ in range(45)])
    wick = BasisFamily(GroundSet(10), frozenset(m for m, v in enumerate(all_principal_pfaffians(skew)) if v))
    rows = Matrix(f7, 6, 12, tuple(rng.randrange(7) for _ in range(72)))
    gp = plucker_support(plucker_from_matrix(rows))
    assert len(wick) > 400 and len(gp) > 700
    for f in (wick, gp):
        _matches_brute(_drop_one(f, rng))


class _CountingSet(frozenset):
    """A frozenset that counts its membership probes."""

    probes = 0

    def __contains__(self, m):
        self.probes += 1
        return frozenset.__contains__(self, m)


def test_weak_checkers_decide_each_t_once_on_dense_supports():
    # the supports of the dense differential test above; the failing B2 of (B1, x)
    # depend only on T = B1 delta {x}, so each T costs at most n probes
    rng = random.Random(710)
    f7 = GF(7)
    skew = SkewMatrix.from_upper(f7, 10, [rng.randrange(7) for _ in range(45)])
    wick = frozenset(m for m, v in enumerate(all_principal_pfaffians(skew)) if v)
    rows = Matrix(f7, 6, 12, tuple(rng.randrange(7) for _ in range(72)))
    gp = plucker_support(plucker_from_matrix(rows)).masks
    for n, masks, check, any_x in ((10, wick, is_orthogonal, True), (12, gp, is_matroid, False)):
        counted = _CountingSet(masks)
        assert check(BasisFamily(GroundSet(n), counted)).ok
        ts = {b ^ 1 << x for b in masks for x in range(n) if any_x or b >> x & 1}
        assert 0 < counted.probes <= n * len(ts), (check.__name__, counted.probes, n * len(ts))
