import random
from fractions import Fraction

import pytest

from omatroid.errors import CapabilityError, InputError, MapUndefinedError
from omatroid.exactalg import (
    GF,
    Homomorphism,
    Matrix,
    PartialField,
    QQ,
    REGULAR,
    SkewMatrix,
    ZZ,
    all_principal_pfaffians,
    apply_hom,
    determinant,
    pfaffian,
    rational_residue_hom,
    residue_hom,
)
from omatroid.groundset import SWEEP_BUDGET, GroundSet

from oracles import leibniz_det, matching_pfaffian, random_int_matrix, random_skew_int


# ---------------------------------------------------------------------------
# rings


def test_ring_identities():
    assert ZZ.add(2, 3) == 5
    with pytest.raises(InputError):
        ZZ.inv(2)
    assert ZZ.inv(-1) == -1

    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.parse("-2/5") == Fraction(-2, 5)
    with pytest.raises(InputError):
        QQ.parse("2/0")

    f7 = GF(7)
    assert f7.coerce(-3) == 4
    assert f7.mul(3, 5) == 1
    assert f7.inv(3) == 5
    with pytest.raises(InputError):
        f7.parse("1/2")
    with pytest.raises(InputError):
        GF(6)
    # Miller-Rabin: a 61-bit prime at once; Carmichael 561 and strong pseudoprime 2047 refused
    assert GF(2**61 - 1).p == 2**61 - 1
    for composite in (561, 2047):
        with pytest.raises(InputError):
            GF(composite)
    with pytest.raises(CapabilityError):  # exit 3: past the range where the test is exact
        GF(2**64 + 13)
    assert GF(7) == GF(7)
    assert GF(5) != GF(7)
    assert QQ != ZZ


def test_ring_parse_fmt_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        v = Fraction(rng.randint(-40, 40), rng.randint(1, 17))
        assert QQ.parse(QQ.fmt(v)) == v
        k = rng.randint(-40, 40)
        assert ZZ.parse(ZZ.fmt(k)) == k
        assert GF(11).parse(GF(11).fmt(k % 11)) == k % 11


def test_partial_fields():
    assert REGULAR.is_element(1) and REGULAR.is_element(-1) and REGULAR.is_element(0)
    assert not REGULAR.is_element(2)
    qf = PartialField(QQ)
    assert qf.is_element(Fraction(5, 3)) and PartialField(GF(3)).is_element(2)
    # the ring names the partial field: its whole unit group, {+1, -1} over the integers
    assert PartialField(ZZ) == REGULAR and qf != REGULAR
    assert (repr(REGULAR), repr(qf), repr(PartialField(GF(3)))) == ("regular", "q", "gf(3)")
    for bad in ("q", None, 7):
        with pytest.raises(InputError):
            PartialField(bad)


# ---------------------------------------------------------------------------
# matrices


def test_matrix_shapes():
    m = Matrix.from_rows(ZZ, [[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.entry(1, 2) == 6
    assert m.row_lists() == [[1, 2, 3], [4, 5, 6]]
    assert m.to_json_rows() == [["1", "2", "3"], ["4", "5", "6"]]
    with pytest.raises(InputError):
        Matrix.from_rows(ZZ, [[1, 2], [3]])


def test_matrix_entries_are_ring_values():
    # the constructor coerces every entry, however the matrix was built
    m = SkewMatrix(QQ, 4, 4, (0, 1, 2, 3, -1, 0, 4, 5, -2, -4, 0, 6, -3, -5, -6, 0))
    assert type(pfaffian(m)) is Fraction and pfaffian(m) == 8
    d = determinant(Matrix(QQ, 2, 2, (1, 2, -3, -1)))
    assert type(d) is Fraction and d == 5
    assert determinant(Matrix(GF(3), 1, 1, (3,))) == 0
    with pytest.raises(InputError):
        Matrix(QQ, 1, 1, (1.5,))


def test_skew_validation():
    SkewMatrix.from_rows(ZZ, [[0, 2], [-2, 0]])
    with pytest.raises(InputError):
        SkewMatrix.from_rows(ZZ, [[1, 2], [-2, 0]])
    with pytest.raises(InputError):
        SkewMatrix.from_rows(ZZ, [[0, 2], [2, 0]])
    with pytest.raises(InputError):
        SkewMatrix.from_rows(ZZ, [[0, 1, 0], [-1, 0, 0]])
    # over GF(2), skew means symmetric with zero diagonal
    SkewMatrix.from_rows(GF(2), [[0, 1], [1, 0]])


def test_skew_from_upper():
    a = SkewMatrix.from_upper(ZZ, 3, [1, 2, 3])
    assert a.row_lists() == [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]
    with pytest.raises(InputError):
        SkewMatrix.from_upper(ZZ, 3, [1, 2])


def test_principal_submatrix():
    a = SkewMatrix.from_upper(ZZ, 4, [1, 2, 3, 4, 5, 6])
    g = GroundSet(4)
    sub = a.principal(g.subset([2, 4]))
    assert sub.row_lists() == [[0, 5], [-5, 0]]
    assert a.principal(0b1010).row_lists() == [[0, 5], [-5, 0]]
    assert a.principal(0).rows == 0
    with pytest.raises(InputError):
        a.principal(1 << 4)


# ---------------------------------------------------------------------------
# determinants against the permutation-sum oracle


def test_det_small_known():
    assert determinant(Matrix.from_rows(ZZ, [])) == 1
    assert determinant(Matrix.from_rows(ZZ, [[5]])) == 5
    assert determinant(Matrix.from_rows(ZZ, [[1, 2], [3, 4]])) == -2
    with pytest.raises(InputError):
        determinant(Matrix.from_rows(ZZ, [[1, 2, 3], [4, 5, 6]]))


def test_det_matches_leibniz_int():
    rng = random.Random(0)
    for n in range(6):
        for _ in range(30):
            rows = random_int_matrix(rng, n, n)
            assert determinant(Matrix.from_rows(ZZ, rows)) == leibniz_det(rows)


def test_det_matches_leibniz_rational():
    rng = random.Random(1)
    for n in range(6):
        for _ in range(15):
            rows = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)
            ]
            assert determinant(Matrix.from_rows(QQ, rows)) == leibniz_det(rows)


def test_det_matches_leibniz_gfp():
    rng = random.Random(2)
    f7 = GF(7)
    for n in range(6):
        for _ in range(30):
            rows = random_int_matrix(rng, n, n, 0, 6)
            assert determinant(Matrix.from_rows(f7, rows)) == leibniz_det(rows) % 7


def test_det_singular_and_permuted():
    # rows needing pivoting exercise the swap sign in both eliminators
    rows = [[0, 0, 1, 0, 0], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 1, 0]]
    assert determinant(Matrix.from_rows(ZZ, rows)) == leibniz_det(rows) == -1
    singular = [[1, 2, 3, 4, 5]] * 5
    assert determinant(Matrix.from_rows(ZZ, singular)) == 0
    assert determinant(Matrix.from_rows(GF(5), singular)) == 0


# ---------------------------------------------------------------------------
# pfaffians against the matching-sum oracle


def test_pfaffian_known_values():
    assert pfaffian(SkewMatrix.from_rows(ZZ, [])) == 1
    assert pfaffian(SkewMatrix.from_rows(ZZ, [[0]])) == 0
    assert pfaffian(SkewMatrix.from_rows(ZZ, [[0, 7], [-7, 0]])) == 7
    a, b, c, d, e, f = 2, 3, 5, 7, 11, 13
    m = SkewMatrix.from_upper(ZZ, 4, [a, b, c, d, e, f])
    assert pfaffian(m) == a * f - b * e + c * d


def test_pfaffian_matches_matching_sum():
    rng = random.Random(3)
    for n in (0, 1, 2, 3, 4, 5, 6, 8):
        for _ in range(12):
            rows = random_skew_int(rng, n)
            assert pfaffian(SkewMatrix.from_rows(ZZ, rows)) == matching_pfaffian(rows)


def test_pfaffian_square_is_determinant():
    rng = random.Random(4)
    for n in (2, 4, 6, 8):
        for _ in range(12):
            rows = random_skew_int(rng, n)
            m = SkewMatrix.from_rows(ZZ, rows)
            assert pfaffian(m) ** 2 == determinant(m)


def test_rational_coerce_keeps_a_fraction():
    v = Fraction(3, 4)
    assert QQ.coerce(v) is v
    assert type(QQ.coerce(3)) is Fraction and QQ.coerce(3) == 3


def test_principal_pfaffian_table_budget():
    # 2**n * n expansion steps: n = 17 fits SWEEP_BUDGET and n = 18 does not
    assert 17 << 17 <= SWEEP_BUDGET < 18 << 18
    with pytest.raises(CapabilityError):
        all_principal_pfaffians(SkewMatrix.from_upper(GF(7), 18, [0] * (18 * 17 // 2)))


def test_pfaffian_rejects_plain_matrix():
    with pytest.raises(InputError):
        pfaffian(Matrix.from_rows(ZZ, [[0, 1], [-1, 0]]))


def test_principal_pfaffian_table():
    rng = random.Random(5)
    for n in range(7):
        rows = random_skew_int(rng, n)
        m = SkewMatrix.from_rows(ZZ, rows)
        table = all_principal_pfaffians(m)
        assert len(table) == 1 << n
        assert table[0] == 1
        for mask in range(1 << n):
            assert table[mask] == pfaffian(m.principal(mask))


def test_principal_pfaffian_table_gfp():
    rng = random.Random(6)
    f3 = GF(3)
    for _ in range(10):
        rows = random_skew_int(rng, 5, 0, 2)
        m = SkewMatrix.from_rows(f3, rows)
        table = all_principal_pfaffians(m)
        for mask in range(1 << 5):
            assert table[mask] == matching_pfaffian(m.principal(mask).row_lists()) % 3


# ---------------------------------------------------------------------------
# homomorphisms


def test_residue_hom_on_matrices():
    h = residue_hom(3)
    m = SkewMatrix.from_upper(ZZ, 3, [1, -1, 0])
    img = apply_hom(h, m)
    assert isinstance(img, SkewMatrix)
    assert img.ring == GF(3)
    assert img.row_lists() == [[0, 1, 2], [2, 0, 0], [1, 0, 0]]


def test_apply_hom_refuses_a_matrix_over_another_ring():
    m = SkewMatrix.from_upper(QQ, 3, [Fraction(1, 2), Fraction(-1), Fraction(0)])
    with pytest.raises(InputError):
        apply_hom(residue_hom(3), m)  # residue_hom reads integers, not rationals
    img = apply_hom(rational_residue_hom(3), m)
    assert img.ring == GF(3)
    assert img.row_lists() == [[0, 2, 2], [1, 0, 0], [1, 0, 0]]  # 1/2 = 2 mod 3


def test_rational_residue_hom_partiality():
    h = rational_residue_hom(5)
    assert h.apply(Fraction(1, 3)) == 2  # 3*2 = 6 = 1 mod 5
    with pytest.raises(MapUndefinedError):
        h.apply(Fraction(1, 5))


@pytest.mark.parametrize("source, target", [
    (PartialField(QQ), REGULAR),  # a target that is not GF(p)
    (REGULAR, PartialField(QQ)),
    (PartialField(GF(5)), PartialField(GF(7))),  # a source that is neither ZZ nor QQ
], ids=["qq-to-regular", "regular-to-qq", "gf5-source"])
def test_homomorphism_refuses_a_triple_it_cannot_apply(source, target):
    with pytest.raises(InputError):
        Homomorphism(source, target)


def test_hom_commutes_with_pfaffian():
    rng = random.Random(8)
    h = residue_hom(7)
    for _ in range(20):
        rows = random_skew_int(rng, 6)
        m = SkewMatrix.from_rows(ZZ, rows)
        assert pfaffian(apply_hom(h, m)) == pfaffian(m) % 7
