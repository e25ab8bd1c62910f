import random
from fractions import Fraction
from itertools import combinations

import pytest

from omatroid.errors import ClassificationError, InputError, MembershipError
from omatroid.exactalg import (
    GF,
    PartialField,
    QQ,
    REGULAR,
    SkewMatrix,
    ZZ,
    all_principal_pfaffians,
)
from omatroid.groundset import GroundSet, SubsetMask, mask_of_elements
from omatroid.matroid import is_orthogonal
from omatroid.verdicts import Label
from omatroid.wick import (
    WickRepresentation,
    WickVector,
    check_wick_4term,
    check_wick_full,
    classify_wick,
    reconstruct_wick,
    twist_wick,
    wick_from_representation,
    wick_support,
)

QF = PartialField(QQ)
G4 = GroundSet(4)

# the running 4x4 skew example over the rationals
EXAMPLE_ROWS = [[0, -3, 0, 1], [3, 0, 0, 6], [0, 0, 0, 0], [-1, -6, 0, 0]]


def example_matrix():
    return SkewMatrix.from_rows(QQ, EXAMPLE_ROWS)


def example_vector(twist_bits=0):
    rep = WickRepresentation(example_matrix(), SubsetMask(G4, twist_bits))
    return wick_from_representation(rep, QF)


def test_from_representation_golden():
    p = example_vector()
    support = [tuple(SubsetMask(G4, m).elements()) for m in p.support_masks()]
    assert support == [(), (1, 2), (1, 4), (2, 4)]
    assert p.coord(G4.subset([])) == 1
    assert p.coord(G4.subset([1, 2])) == -3
    assert p.coord(G4.subset([1, 4])) == 1
    assert p.coord(G4.subset([2, 4])) == 6
    assert p.coord(G4.subset([1, 2, 3, 4])) == 0  # pf of the full matrix vanishes


def test_from_representation_respects_twist():
    p = example_vector(twist_bits=0b0100)
    support = [tuple(SubsetMask(G4, m).elements()) for m in p.support_masks()]
    assert support == [(3,), (1, 2, 3), (1, 3, 4), (2, 3, 4)]
    assert p.coord(G4.subset([3])) == 1
    assert p.coord(G4.subset([1, 2, 3])) == -3


def test_vector_validation():
    with pytest.raises(InputError):
        WickVector.from_coords(G4, QF, [0] * 16)  # all zero
    with pytest.raises(InputError):
        WickVector.from_coords(G4, QF, [1] * 15)  # wrong length
    with pytest.raises(InputError):
        WickVector.from_coords(G4, QF, {1 << 4: 1})  # mask out of range
    with pytest.raises(MembershipError,
                       match=r"^coordinate '2,4' has value 2 outside the partial field$"):
        WickVector.from_coords(G4, REGULAR, {0: 1, 0b1010: 2})
    # over a field every nonzero value is a member: 5/2 over GF(7) is 6
    f7 = PartialField(GF(7))
    assert WickVector.from_coords(G4, f7, {0: 2, 0b1010: 5}).coords[10] == 6
    assert WickVector.from_coords(G4, QF, {0: 2, 0b1010: 10}).coords[10] == 5


def test_canonical_scaling():
    a = WickVector.from_coords(G4, QF, {0: Fraction(3), 0b11: Fraction(6)})
    assert a.coord(G4.subset([])) == 1
    assert a.coord(G4.subset([1, 2])) == 2
    b = WickVector.from_coords(G4, REGULAR, {0b11: -1, 0b1100: 1})
    assert b.coord(G4.subset([1, 2])) == 1
    assert b.coord(G4.subset([3, 4])) == -1


def test_wick_full_passes_on_example():
    for t in range(16):
        assert check_wick_full(example_vector(t)).ok


def test_wick_full_witness_on_parity_break():
    # support {emptyset, 12, 34} is even but fails symmetric exchange, so
    # some pair must fail; the numerically first one is ({1}, {2,3,4})
    p = WickVector.from_coords(G4, QF, {0: 1, 0b0011: 1, 0b1100: 1})
    v = check_wick_full(p)
    assert not v.ok
    assert v.j1.elements() == (1,)
    assert v.j2.elements() == (2, 3, 4)
    assert v.value != 0


def test_odd_distance_pairs_catch_mixed_parity():
    # a mixed-parity vector passes the four-term sweep (every term of every
    # four-term instance vanishes) but fails the full sweep at distance 1
    p = WickVector.from_coords(G4, QF, {0: 1, 0b0001: 1})
    assert check_wick_4term(p).ok
    v = check_wick_full(p)
    assert not v.ok
    assert v.j1.elements() == ()
    assert v.j2.elements() == (1,)
    c = classify_wick(p)
    assert c.label is Label.NEITHER
    assert not c.support.ok


def test_classification_strong():
    c = classify_wick(example_vector())
    assert c.label is Label.STRONG
    assert c.full.ok and c.short.ok and c.support.ok


def test_classification_neither_by_support():
    p = WickVector.from_coords(G4, QF, {0: 1, 0b0011: 1, 0b1100: 1})
    c = classify_wick(p)
    assert c.label is Label.NEITHER


def test_support_family():
    fam = wick_support(example_vector())
    assert fam.to_json() == {"n": 4, "bases": [[], [1, 2], [1, 4], [2, 4]]}
    assert is_orthogonal(fam).ok


def test_twist_golden_and_involution():
    p = example_vector()
    t = G4.subset([3])
    q = twist_wick(p, t)
    assert q.coord(G4.subset([3])) == 1
    assert q.coord(G4.subset([1, 2, 3])) == -3
    assert q.coord(G4.subset([1, 3, 4])) == 1
    assert q.coord(G4.subset([2, 3, 4])) == 6
    back = twist_wick(q, t)
    assert back.coords == p.coords
    assert q.coords == example_vector(0b0100).coords


def test_twist_preserves_wick():
    p = example_vector()
    for bits in range(16):
        q = twist_wick(p, SubsetMask(G4, bits))
        assert check_wick_full(q).ok


def test_reconstruct_golden():
    q = example_vector(0b0100)
    rep = reconstruct_wick(q)
    assert rep.twist.elements() == (3,)
    assert rep.matrix.row_lists() == [[Fraction(v) for v in r] for r in EXAMPLE_ROWS]
    again = wick_from_representation(rep, QF)
    assert again.coords == q.coords


def test_reconstruct_untwisted_when_empty_set_supported():
    p = example_vector()
    rep = reconstruct_wick(p)
    assert rep.twist.elements() == ()
    assert rep.matrix.row_lists() == [[Fraction(v) for v in r] for r in EXAMPLE_ROWS]


def test_reconstruct_rejects_neither():
    p = WickVector.from_coords(G4, QF, {0: 1, 0b0011: 1, 0b1100: 1})
    with pytest.raises(ClassificationError):
        reconstruct_wick(p)


def test_reconstruct_roundtrip_exhaustive_gf2_n3():
    f2 = GF(2)
    pf2 = PartialField(f2)
    g3 = GroundSet(3)
    for code in range(8):
        upper = [(code >> k) & 1 for k in range(3)]
        m = SkewMatrix.from_upper(f2, 3, upper)
        for tbits in range(8):
            p = wick_from_representation(
                WickRepresentation(m, SubsetMask(g3, tbits)), pf2
            )
            rep = reconstruct_wick(p)
            q = wick_from_representation(rep, pf2)
            assert q.coords == p.coords


def test_reconstruct_roundtrip_random_gf3():
    rng = random.Random(12)
    f3 = GF(3)
    pf3 = PartialField(f3)
    g5 = GroundSet(5)
    for _ in range(40):
        upper = [rng.randrange(3) for _ in range(10)]
        m = SkewMatrix.from_upper(f3, 5, upper)
        tbits = rng.randrange(32)
        p = wick_from_representation(WickRepresentation(m, SubsetMask(g5, tbits)), pf3)
        rep = reconstruct_wick(p)
        assert wick_from_representation(rep, pf3).coords == p.coords


def test_representation_membership_over_regular():
    # entries lie in {0,+1,-1} but one principal pfaffian reaches 2
    m = SkewMatrix.from_upper(ZZ, 4, [1, 1, 0, 0, -1, 1])
    table = all_principal_pfaffians(m)
    assert table[0b1111] == 2
    rep = WickRepresentation(m, SubsetMask(G4, 0))
    with pytest.raises(MembershipError, match="coordinate '1,2,3,4' has value 2 "):
        wick_from_representation(rep, REGULAR)
    # the same entries are fine over the rationals
    mq = SkewMatrix.from_upper(QQ, 4, [1, 1, 0, 0, -1, 1])
    pq = wick_from_representation(WickRepresentation(mq, SubsetMask(G4, 0)), QF)
    assert check_wick_full(pq).ok


def test_representation_ring_mismatch():
    m = SkewMatrix.from_rows(GF(3), [[0, 1], [2, 0]])
    rep = WickRepresentation(m, SubsetMask(GroundSet(2), 0))
    with pytest.raises(InputError):
        wick_from_representation(rep, QF)


def test_wick_support_even_always():
    rng = random.Random(13)
    for _ in range(30):
        upper = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        m = SkewMatrix.from_upper(QQ, 4, upper)
        p = wick_from_representation(WickRepresentation(m, SubsetMask(G4, 0)), QF)
        sizes = {len(SubsetMask(G4, s)) % 2 for s in p.support_masks()}
        assert sizes == {0}
