import random
from fractions import Fraction

import pytest

from omatroid.errors import CapabilityError, InputError, MapUndefinedError
from omatroid.exactalg import (
    GF,
    Homomorphism,
    Matrix,
    QQ,
    SkewMatrix,
    ZZ,
    _is_prime,
    all_principal_pfaffians,
    apply_hom,
    determinant,
    pfaffian,
    rational_residue_hom,
    residue_hom,
)
from omatroid.groundset import SWEEP_BUDGET, GroundSet

from oracles import (
    leibniz_det,
    matching_pfaffian,
    pfaffian_table,
    random_int_matrix,
    random_skew_int,
)


# ---------------------------------------------------------------------------
# rings


def test_ring_identities():
    with pytest.raises(InputError):
        ZZ.inv(2)
    assert ZZ.inv(-1) == -1

    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.parse("-2/5") == Fraction(-2, 5)
    with pytest.raises(InputError):
        QQ.parse("2/0")

    f7 = GF(7)
    assert f7.coerce(-3) == 4
    assert f7.inv(3) == 5
    with pytest.raises(InputError):
        f7.parse("1/2")
    with pytest.raises(InputError):
        GF(6)
    # Miller-Rabin: primes past the trial divisions up to the largest below 2**64, at once
    for prime in (41, 2**61 - 1, 2**64 - 59):
        assert GF(prime).p == prime
    assert not _is_prime(True)
    with pytest.raises(CapabilityError):  # exit 3: past the range where the test is exact
        GF(2**64 + 13)
    assert GF(7) == GF(7)
    assert GF(5) != GF(7)
    assert QQ != ZZ


# 561 (Carmichael) and 2047 = 23 * 89 stop at a trial division; the rest pass every one and
# reach Miller-Rabin: 1,763 = 41 * 43 fails base 2, 3,215,031,751 is a strong pseudoprime to
# bases 2, 3, 5 and 7, and 3,825,123,056,546,413,051 to every prime base below 37
@pytest.mark.parametrize("composite", [561, 2047, 1763, 3215031751, 3825123056546413051])
def test_a_composite_modulus_is_refused(composite):
    with pytest.raises(InputError, match=f"^{composite} is not prime$"):  # exit 2
        GF(composite)


def test_ring_parse_fmt_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        v = Fraction(rng.randint(-40, 40), rng.randint(1, 17))
        assert QQ.parse(QQ.fmt(v)) == v
        k = rng.randint(-40, 40)
        assert ZZ.parse(ZZ.fmt(k)) == k
        assert GF(11).parse(GF(11).fmt(k % 11)) == k % 11


# int() and Fraction() read each of these, but none is an integer as str writes it
SPELLINGS = ["1_0", "+2", " 3", "3 ", "01", "\u0661", "-0"]


@pytest.mark.parametrize("text", SPELLINGS)
def test_every_ring_reads_an_integer_one_way(text):
    for ring in (ZZ, QQ, GF(7)):
        for read in (ring.parse, ring.coerce):
            with pytest.raises(InputError):
                read(text)


def test_rational_literals():
    for text, value in [("7", 7), ("-2/5", Fraction(-2, 5)), ("2/5", Fraction(2, 5)),
                        ("-0.5", Fraction(-1, 2)), ("0.05", Fraction(1, 20)), ("2.50", Fraction(5, 2)),
                        ("1e-5", Fraction(1, 10**5)), ("-2.5E-3", Fraction(-1, 400)), ("0e0", 0)]:
        assert QQ.parse(text) == value
    for text in ["1/-2", "2/0", "1/02", "01/2", "-0/2", ".5", "5.", "-.5", "--1.5", "1e+5", "1e05",
                 "1e", "e5", "1.5/2", "1/2e3", "1.\u0665", "1/ 2", "1e5 ", "1_0.5", ""]:
        with pytest.raises(InputError):
            QQ.parse(text)
    for ring in (ZZ, GF(7)):  # the fraction and decimal forms are QQ's alone
        for text in ("2/5", "1e5", "1.0"):
            with pytest.raises(InputError):
                ring.parse(text)


def test_coerce_takes_ints_whole_fractions_and_literals():
    assert ZZ.coerce(Fraction(4)) == 4 and type(ZZ.coerce(Fraction(4))) is int
    assert GF(7).coerce(Fraction(10)) == 3 and GF(7).coerce("-4") == 3
    assert ZZ.coerce("-4") == -4 and QQ.coerce("1/3") == Fraction(1, 3)
    for ring in (ZZ, GF(7)):
        for v in (True, 1.5, Fraction(1, 2), None):
            with pytest.raises(InputError):
                ring.coerce(v)
    for v in (False, 1.5, None):
        with pytest.raises(InputError):
            QQ.coerce(v)


def test_partial_fields():
    # the ring is the partial field: its whole unit group, {+1, -1} over the integers
    assert ZZ.is_element(1) and ZZ.is_element(-1) and ZZ.is_element(0)
    assert not ZZ.is_element(2) and not ZZ.is_element(-2)
    assert QQ.is_element(Fraction(5, 3)) and GF(3).is_element(2)


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
    for rows, cols, entries in ((-1, 0, ()), (0, -2, ()), (2, 2, (1, 2, 3))):
        with pytest.raises(InputError):
            Matrix(ZZ, rows, cols, entries)


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
    with pytest.raises(InputError):  # a subset of another ground set
        a.principal(GroundSet(5).subset([2, 4]))


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


TABLE_RINGS = {"zz": ZZ, "gf7": GF(7), "qq": QQ}


def _sparse_skew(rng, ring, n, zeros):
    """A random skew matrix over ``ring`` whose upper entries are 0 with probability ``zeros``."""
    def entry():
        if rng.random() < zeros:
            return 0
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if ring == QQ else rng.randint(-9, 9)

    return SkewMatrix.from_upper(ring, n, [entry() for _ in range(n * (n - 1) // 2)])


def _table_matches_the_oracle(m):
    table = all_principal_pfaffians(m)
    assert len(table) == 1 << m.size
    assert list(table) == pfaffian_table(m.row_lists(), m.ring.p)


@pytest.mark.parametrize("name", sorted(TABLE_RINGS))
def test_principal_pfaffian_table_matches_the_per_mask_oracle(name):
    # zero entries skip whole expansions; every n >= 2 runs both the run and the stride slices
    rng = random.Random(f"table-{name}")
    for n in range(11):
        for zeros in (0.0, 0.3, 0.7):
            _table_matches_the_oracle(_sparse_skew(rng, TABLE_RINGS[name], n, zeros))


def test_principal_pfaffian_table_matches_the_oracle_at_n14():
    _table_matches_the_oracle(_sparse_skew(random.Random(2514), ZZ, 14, 0.2))


@pytest.mark.slow
@pytest.mark.parametrize("name, n", [("qq", 16), ("gf7", 17)])
def test_principal_pfaffian_table_matches_the_oracle_at_the_largest_sizes(name, n):
    # n = 17 is the largest table the budget admits
    _table_matches_the_oracle(_sparse_skew(random.Random(2516), TABLE_RINGS[name], n, 0.1))


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
    (QQ, ZZ),  # a target that is not GF(p)
    (ZZ, QQ),
    (GF(5), GF(7)),  # a source that is neither ZZ nor QQ
    ("q", GF(7)),  # arguments that are not rings
    (ZZ, 7),
], ids=["qq-to-regular", "regular-to-qq", "gf5-source", "str-source", "int-target"])
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
