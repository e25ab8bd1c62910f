"""Property tests: one Pfaffian by three routes, its square, and residue maps.

On random skew matrices of size 0 to 8 over the integers, the rationals
(each also with entries up to 10**12, denominators up to 97) and GF(7), the
eliminated Pfaffian, the last entry of the principal-Pfaffian table and the
perfect-matching sum of the oracle (reduced mod 7 over GF(7)) must agree,
and Pf(A)**2 must equal det(A). Elimination and table must also
agree at sizes 9 to 12. Over ZZ, QQ, GF(2), GF(7) and the regular partial
field, every entry of the table must be the matching sum of its principal
submatrix (mod p over GF(p)) and a canonical ring value. Reduction mod p
must commute with the Pfaffian. Half the drawn entries are zero, so
singular matrices and pivot swaps come up often.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omatroid.exactalg import (
    GF,
    Homomorphism,
    QQ,
    SkewMatrix,
    ZZ,
    all_principal_pfaffians,
    apply_hom,
    determinant,
    pfaffian,
)

from oracles import matching_pfaffian

RINGS = {"zz": ZZ, "qq": QQ, "gf7": GF(7), "zz_big": ZZ, "qq_big": QQ}

ENTRIES = {
    "zz": st.integers(-5, 5),
    "qq": st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    "gf7": st.integers(0, 6),
    # large cofactors for the fraction-free eliminations' exact divisions
    "zz_big": st.integers(-10**12, 10**12),
    "qq_big": st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 97)),
}


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pfaffian_routes_agree_and_square_to_the_determinant(name, data):
    ring = RINGS[name]
    n = data.draw(st.integers(0, 8), label="n")
    k = n * (n - 1) // 2
    entries = st.just(0) | ENTRIES[name]
    upper = data.draw(st.lists(entries, min_size=k, max_size=k), label="upper")
    m = SkewMatrix.from_upper(ring, n, upper)
    pf = pfaffian(m)
    assert pf == all_principal_pfaffians(m)[-1] == ring.coerce(matching_pfaffian(m.row_lists()))
    assert (pf * pf % ring.p if ring.p else pf * pf) == determinant(m)


def _skew(data, ring, n: int, entries) -> SkewMatrix:
    k = n * (n - 1) // 2
    upper = data.draw(st.lists(st.just(0) | entries, min_size=k, max_size=k), label="upper")
    return SkewMatrix.from_upper(ring, n, upper)


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_elimination_matches_the_table_at_sizes_9_to_12(name, data):
    n = data.draw(st.integers(9, 12), label="n")
    m = _skew(data, RINGS[name], n, ENTRIES[name])
    assert pfaffian(m) == all_principal_pfaffians(m)[-1]


@pytest.mark.parametrize("name", ["zz", "qq"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_residue_maps_commute_with_pfaffians(name, data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]), label="p")
    n = data.draw(st.integers(0, 10), label="n")
    if name == "zz":
        h, entries = Homomorphism(ZZ, GF(p)), ENTRIES["zz"]
    else:
        # denominators prime to p: the cases where the residue map is defined
        dens = st.sampled_from([d for d in range(1, 7) if d % p])
        h, entries = Homomorphism(QQ, GF(p)), st.builds(Fraction, st.integers(-9, 9), dens)
    m = _skew(data, RINGS[name], n, entries)
    assert pfaffian(apply_hom(h, m)) == h.apply(pfaffian(m))


TABLE_RINGS = {  # every ring the table runs on; with the zeros _skew adds, regular is {0, +1, -1}
    "zz": (ZZ, ENTRIES["zz"]),
    "qq": (QQ, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))),
    "gf2": (GF(2), st.integers(0, 1)),
    "gf7": (GF(7), ENTRIES["gf7"]),
    "regular": (ZZ, st.sampled_from([1, -1])),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rational_table_is_the_matching_sum_on_every_mask(data):
    # one matrix over each ring of TABLE_RINGS, all of the same size
    n = data.draw(st.integers(0, 8), label="n")
    for ring, entries in TABLE_RINGS.values():
        m = _skew(data, ring, n, entries)
        rows, p = m.row_lists(), ring.p
        for mask, v in enumerate(all_principal_pfaffians(m)):
            idx = [i for i in range(n) if mask >> i & 1]
            want = matching_pfaffian([[rows[i][j] for j in idx] for i in idx])
            assert v == (want % p if p else want)
            assert type(v) is (Fraction if ring == QQ else int)
            assert 0 <= v < p or not p
