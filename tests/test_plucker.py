import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omatroid.errors import ClassificationError, InputError, MembershipError, RankError
from omatroid.exactalg import GF, Matrix, QQ, ZZ
from omatroid.groundset import GroundSet, mask_of_elements, masks_of_size
from omatroid.plucker import (
    PluckerVector,
    check_gp_3term,
    check_gp_full,
    classify_plucker,
    plucker_from_matrix,
    plucker_support,
    reconstruct_plucker,
)
from omatroid.verdicts import Label

from oracles import leibniz_det

G4 = GroundSet(4)

# the running 2x4 example over the rationals
EXAMPLE_ROWS = [[1, 0, 1, 1], [0, 1, 1, 2]]
# colex order on 2-subsets of {1..4}: 12, 13, 23, 14, 24, 34
EXAMPLE_COORDS = (1, 1, -1, 2, -1, 1)


def example_vector():
    a = Matrix.from_rows(QQ, EXAMPLE_ROWS)
    return plucker_from_matrix(a)


def test_vector_construction_dense_and_sparse():
    p = PluckerVector.from_coords(G4, 2, QQ, [Fraction(v) for v in EXAMPLE_COORDS])
    sparse = {
        mask_of_elements([1, 2]): 1,
        mask_of_elements([1, 3]): 1,
        mask_of_elements([2, 3]): -1,
        mask_of_elements([1, 4]): 2,
        mask_of_elements([2, 4]): -1,
        mask_of_elements([3, 4]): 1,
    }
    q = PluckerVector.from_coords(G4, 2, QQ, sparse)
    assert p.coords == q.coords
    assert p.coord(G4.subset([1, 4])) == 2
    with pytest.raises(InputError, match="^subset from a different ground set$"):
        p.coord(GroundSet(5).subset([1, 4]))
    with pytest.raises(InputError, match=r"^\{1\}/4 is not an 2-subset$"):
        p.coord(G4.subset([1]))


def test_vector_validation():
    with pytest.raises(InputError):
        PluckerVector.from_coords(G4, 5, QQ, [1])  # rank above ground size
    for r in (-1, 5):  # no r-subsets, so only the constructor itself can refuse the rank
        with pytest.raises(InputError, match=f"^rank {r} is outside 0..4$"):
            PluckerVector(G4, r, QQ, (1,))
    with pytest.raises(InputError):
        PluckerVector.from_coords(G4, 2, QQ, [1, 2, 3])  # wrong length
    with pytest.raises(InputError):
        PluckerVector.from_coords(G4, 2, QQ, [0] * 6)  # all zero
    with pytest.raises(InputError):
        PluckerVector.from_coords(G4, 2, QQ, {0b111: 1})  # not a 2-subset
    with pytest.raises(MembershipError,
                       match=r"^coordinate '2,4' has value 2 outside the partial field$"):
        PluckerVector.from_coords(G4, 2, ZZ, [1, 0, 0, 0, 2, 1])
    # over a field every nonzero value is a member: 5/2 over GF(7) is 6
    assert PluckerVector.from_coords(G4, 2, GF(7), [2, 0, 0, 0, 5, 1]).coords[4] == 6
    assert PluckerVector.from_coords(G4, 2, QQ, [2, 0, 0, 0, 10, 1]).coords[4] == 5


def test_canonical_scaling():
    base = [Fraction(v) for v in EXAMPLE_COORDS]
    scaled = [Fraction(3) * v for v in base]
    p = PluckerVector.from_coords(G4, 2, QQ, base)
    q = PluckerVector.from_coords(G4, 2, QQ, scaled)
    assert p.coords == q.coords
    assert p.coords[0] == Fraction(1)
    # over the regular partial field only the sign can be normalized
    r1 = PluckerVector.from_coords(G4, 2, ZZ, [-1, 1, 0, 0, 0, -1])
    assert r1.coords == (1, -1, 0, 0, 0, 1)


def test_from_matrix_golden():
    p = example_vector()
    assert p.r == 2
    assert p.coords == tuple(Fraction(v) for v in EXAMPLE_COORDS)
    assert [s for s in p.support_masks()] == list(masks_of_size(4, 2))


# entries per ring: small enough that rank drops and minors outside {0, +1, -1} both occur
MINOR_ENTRIES = {
    "qq": (QQ, st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))),
    "gf7": (GF(7), st.integers(0, 6)),
    "regular": (ZZ, st.sampled_from([0, 1, -1, 2])),
    # large cofactors for the fraction-free elimination's exact divisions
    "qq_big": (QQ, st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 97))),
}


@pytest.mark.parametrize("name", sorted(MINOR_ENTRIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_minors_match_the_leibniz_oracle(name, data):
    ring, entries = MINOR_ENTRIES[name]
    n = data.draw(st.integers(0, 7), label="n")
    r = data.draw(st.integers(0, n), label="r")
    rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r))
    minors = []
    for mask in masks_of_size(n, r):
        cols = [j for j in range(n) if mask >> j & 1]
        minors.append(ring.coerce(leibniz_det([[row[j] for j in cols] for row in rows])))
    a = Matrix(ring, r, n, tuple(v for row in rows for v in row))
    if not any(minors):
        with pytest.raises(RankError):
            plucker_from_matrix(a)
    elif not all(map(ring.is_element, minors)):
        with pytest.raises(MembershipError):
            plucker_from_matrix(a)
    else:
        assert plucker_from_matrix(a) == PluckerVector(GroundSet(n), r, ring, tuple(minors))


def test_from_matrix_errors():
    with pytest.raises(RankError):
        plucker_from_matrix(Matrix.from_rows(QQ, [[1, 1], [1, 1], [1, 1]]))
    with pytest.raises(RankError):
        plucker_from_matrix(Matrix.from_rows(QQ, [[1, 2, 3], [2, 4, 6]]))


def test_from_matrix_regular_membership():
    # determinant 2 falls outside the {0,+1,-1} value set
    a = Matrix.from_rows(ZZ, [[1, 1], [-1, 1]])
    with pytest.raises(MembershipError):
        plucker_from_matrix(a)
    ok = Matrix.from_rows(ZZ, [[1, 0, 1], [0, 1, 1]])
    v = plucker_from_matrix(ok)
    assert v.coords == (1, 1, -1)


def test_gp_full_passes_on_example():
    v = check_gp_full(example_vector())
    assert v.ok
    assert v.s is None and v.t is None


def test_gp_witness_on_corruption():
    coords = list(Fraction(v) for v in EXAMPLE_COORDS)
    coords[list(masks_of_size(4, 2)).index(mask_of_elements([3, 4]))] = Fraction(2)
    bad = PluckerVector.from_coords(G4, 2, QQ, coords)
    v = check_gp_full(bad)
    assert not v.ok
    assert v.s.elements() == (1, 2, 3)
    assert v.t.elements() == (4,)
    assert v.value == Fraction(-1)
    short = check_gp_3term(bad)
    assert not short.ok
    assert short.s.elements() == (1, 2, 3)
    assert short.t.elements() == (4,)


def test_gp_random_matrices_always_pass():
    rng = random.Random(10)
    f7 = GF(7)
    for _ in range(60):
        r = rng.randint(1, 3)
        n = rng.randint(r, 6)
        a = Matrix.from_rows(
            f7, [[rng.randrange(7) for _ in range(n)] for _ in range(r)]
        )
        try:
            p = plucker_from_matrix(a)
        except RankError:
            continue
        assert check_gp_full(p).ok
        assert check_gp_3term(p).ok


def test_support_family():
    p = example_vector()
    fam = plucker_support(p)
    assert fam.to_json() == {
        "n": 4,
        "bases": [[1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 4]],
    }


def test_classification_strong():
    c = classify_plucker(example_vector())
    assert c.label is Label.STRONG
    assert c.full.ok and c.short.ok and c.support.ok


def test_classification_neither():
    # support {12, 34} is not a matroid, and the three-term sweep also fails
    coords = {mask_of_elements([1, 2]): 1, mask_of_elements([3, 4]): 1}
    p = PluckerVector.from_coords(G4, 2, QQ, coords)
    c = classify_plucker(p)
    assert c.label is Label.NEITHER
    assert not c.short.ok
    assert not c.support.ok


def test_weak_equals_strong_exhaustively_r2_n4():
    # over GF(2) at rank 2 on 4 elements the short sweep plus support check
    # already forces the full sweep
    f2 = GF(2)
    weak = strong = 0
    for bits in range(1, 1 << 6):
        coords = [(bits >> i) & 1 for i in range(6)]
        p = PluckerVector.from_coords(G4, 2, f2, coords)
        c = classify_plucker(p)
        if c.label is Label.WEAK:
            weak += 1
        if c.label is Label.STRONG:
            strong += 1
        if c.short.ok and c.support.ok:
            assert c.full.ok
    assert weak == 0
    assert strong > 0


def test_reconstruct_golden():
    p = example_vector()
    a = reconstruct_plucker(p)
    assert a.row_lists() == [[Fraction(v) for v in row] for row in EXAMPLE_ROWS]
    assert plucker_from_matrix(a).coords == p.coords


def test_reconstruct_rejects_neither():
    coords = {mask_of_elements([1, 2]): 1, mask_of_elements([3, 4]): 1}
    p = PluckerVector.from_coords(G4, 2, QQ, coords)
    with pytest.raises(ClassificationError):
        reconstruct_plucker(p)


def test_reconstruct_roundtrip_random_gf7():
    rng = random.Random(11)
    f7 = GF(7)
    done = 0
    while done < 40:
        r = rng.randint(1, 3)
        n = rng.randint(r, 6)
        a = Matrix.from_rows(
            f7, [[rng.randrange(7) for _ in range(n)] for _ in range(r)]
        )
        try:
            p = plucker_from_matrix(a)
        except RankError:
            continue
        b = reconstruct_plucker(p)
        assert plucker_from_matrix(b).coords == p.coords
        done += 1


def test_reconstruct_places_identity_at_first_basis():
    p = example_vector()
    a = reconstruct_plucker(p)
    # support starts at {1,2}, so columns 1,2 carry the identity
    assert [a.entry(i, j) for i in range(2) for j in range(2)] == [1, 0, 0, 1]


def test_degenerate_ranks():
    g3 = GroundSet(3)
    p0 = PluckerVector.from_coords(g3, 0, QQ, [Fraction(5)])
    assert p0.coords == (Fraction(1),)
    assert check_gp_full(p0).ok
    a0 = reconstruct_plucker(p0)
    assert (a0.rows, a0.cols) == (0, 3)
    assert plucker_from_matrix(a0).coords == p0.coords

    p3 = PluckerVector.from_coords(g3, 3, QQ, [Fraction(2)])
    assert p3.coords == (Fraction(1),)
    a3 = reconstruct_plucker(p3)
    assert a3.row_lists() == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_scaling_failure_over_regular():
    # leading support coordinate -1 normalizes, but a vector whose first
    # nonzero entry is not a unit cannot arise: membership already rejects it
    with pytest.raises(MembershipError):
        PluckerVector.from_coords(G4, 2, ZZ, [2, 0, 0, 0, 0, 0])
