import hashlib
import random
from itertools import combinations

import pytest

from omatroid.errors import InputError
from omatroid.groundset import GroundSet, SubsetMask, mask_of_elements
from omatroid.matroid import (
    BasisFamily,
    find_smaller_basis,
    is_matroid,
    is_matroid_strong,
    is_orthogonal,
    is_orthogonal_strong,
    twist,
)


def fam(n, *bases):
    g = GroundSet(n)
    return BasisFamily.from_subsets(g, bases)


def test_family_construction():
    f = fam(4, [1, 2], [3, 4])
    assert len(f) == 2
    assert f.ground.n == 4
    assert f.members() == (mask_of_elements([1, 2]), mask_of_elements([3, 4]))
    assert [s.elements() for s in f.subsets()] == [(1, 2), (3, 4)]
    assert f.to_json() == {"n": 4, "bases": [[1, 2], [3, 4]]}
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
    # twisting preserves symmetric exchange
    for bits in range(1 << 4):
        tt = SubsetMask(g, bits)
        assert is_orthogonal(twist(f, tt)).ok


def test_find_smaller_basis_golden():
    f = fam(4, [], [1, 2], [3, 4], [1, 2, 3, 4])
    j = f.ground.subset([1, 2, 3, 4])
    smaller = find_smaller_basis(f, j)
    assert smaller.elements() == (1, 2)


def test_find_smaller_basis_validation():
    f = fam(4, [], [1, 2], [3, 4], [1, 2, 3, 4])
    g = f.ground
    with pytest.raises(InputError):
        find_smaller_basis(f, g.subset([1, 2, 3]))  # not a member
    with pytest.raises(InputError):
        find_smaller_basis(f, g.subset([]))  # already minimal
    nof = fam(4, [], [1, 2, 3, 4])
    with pytest.raises(InputError):
        find_smaller_basis(nof, nof.ground.subset([1, 2, 3, 4]))  # not orthogonal
    shifted = fam(3, [1], [2], [3], [1, 2, 3])
    with pytest.raises(InputError):
        find_smaller_basis(shifted, shifted.ground.subset([1, 2, 3]))  # no empty member


def test_find_smaller_basis_walks_to_empty():
    # iterating from the top member reaches the empty set in size/2 steps
    f = fam(4, [], [1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 4], [1, 2, 3, 4])
    assert is_orthogonal(f).ok
    j = f.ground.subset([1, 2, 3, 4])
    seen = []
    while j.bits:
        j = find_smaller_basis(f, j)
        seen.append(j.elements())
    assert len(seen) == 2
    assert seen[-1] == ()


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
