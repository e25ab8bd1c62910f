"""Property tests: one Pfaffian by three routes, and its square.

On random skew matrices of size 0 to 8 over the integers, the rationals
and GF(7), the top-down Pfaffian, the last entry of the principal-Pfaffian
table and the perfect-matching sum of the oracle (reduced mod 7 over GF(7))
must agree, and Pf(A)**2 must equal det(A). Half the drawn entries are
zero, so singular matrices and pivot swaps come up often.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omatroid.exactalg import (
    GF,
    QQ,
    SkewMatrix,
    ZZ,
    all_principal_pfaffians,
    determinant,
    pfaffian,
)

from oracles import matching_pfaffian

RINGS = {"zz": ZZ, "qq": QQ, "gf7": GF(7)}

ENTRIES = {
    "zz": st.integers(-5, 5),
    "qq": st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    "gf7": st.integers(0, 6),
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
    assert ring.mul(pf, pf) == determinant(m)
