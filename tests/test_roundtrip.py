"""Property tests: reconstruction inverts the matrix-to-vector maps.

A vector built from a matrix comes out of the constructor in canonical
scaling (first nonzero coordinate 1). Reconstruction reads its matrix off
that scaling directly, so mapping the rebuilt matrix back must give the
same canonical coordinates, over GF(7), the rationals and the regular
partial field alike.
"""

from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from omatroid.errors import MembershipError, RankError
from omatroid.exactalg import GF, Matrix, PartialField, QQ, REGULAR, SkewMatrix, ZZ
from omatroid.groundset import GroundSet, SubsetMask
from omatroid.plucker import plucker_from_matrix, reconstruct_plucker
from omatroid.wick import WickRepresentation, reconstruct_wick, wick_from_representation

PARTIAL_FIELDS = {
    "gf7": PartialField(GF(7)),
    "qq": PartialField(QQ),
    "regular": REGULAR,
}

ENTRIES = {
    "gf7": st.integers(0, 6),
    "qq": st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    "regular": st.sampled_from([0, 0, 1, -1]),
}

ROUNDTRIP = settings(max_examples=60, deadline=None)


@st.composite
def network_matrix(draw):
    """A full-row-rank r x n matrix whose maximal minors all lie in {0, +1, -1}.

    It is the vertex-arc incidence matrix of a connected directed graph on
    r + 1 vertices with the last vertex's row dropped; such matrices are
    totally unimodular.
    """
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r, 6))
    arcs = [(v, draw(st.integers(0, v - 1))) for v in range(1, r + 1)]  # a spanning tree
    for _ in range(n - r):
        u = draw(st.integers(0, r))
        arcs.append((u, draw(st.integers(0, r).filter(lambda w: w != u))))
    arcs = [(w, u) if draw(st.booleans()) else (u, w) for u, w in arcs]
    arcs = draw(st.permutations(arcs))
    rows = [[(u == v) - (w == v) for u, w in arcs] for v in range(r)]
    return Matrix.from_rows(ZZ, rows)


@st.composite
def field_matrix(draw, name):
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r, 6))
    entries = ENTRIES[name]
    rows = [[draw(entries) for _ in range(n)] for _ in range(r)]
    return Matrix.from_rows(PARTIAL_FIELDS[name].ring, rows)


@st.composite
def twisted_skew(draw, name):
    n = draw(st.integers(0, 5 if name == "regular" else 6))
    upper = [draw(ENTRIES[name]) for _ in range(n * (n - 1) // 2)]
    matrix = SkewMatrix.from_upper(PARTIAL_FIELDS[name].ring, n, upper)
    twist = SubsetMask(GroundSet(n), draw(st.integers(0, (1 << n) - 1)))
    return WickRepresentation(matrix, twist)


@pytest.mark.parametrize("name", sorted(PARTIAL_FIELDS))
@ROUNDTRIP
@given(data=st.data())
def test_reconstruct_plucker_inverts_plucker_from_matrix(name, data):
    pf = PARTIAL_FIELDS[name]
    a = data.draw(network_matrix() if name == "regular" else field_matrix(name))
    try:
        p = plucker_from_matrix(a, pf)
    except RankError:
        reject()
    rebuilt = reconstruct_plucker(p)
    assert plucker_from_matrix(rebuilt, pf).coords == p.coords


@pytest.mark.parametrize("name", sorted(PARTIAL_FIELDS))
@ROUNDTRIP
@given(data=st.data())
def test_reconstruct_wick_inverts_wick_from_representation(name, data):
    pf = PARTIAL_FIELDS[name]
    rep = data.draw(twisted_skew(name))
    try:
        p = wick_from_representation(rep, pf)
    except MembershipError:
        reject()  # a regular-field Pfaffian outside {0, +1, -1}
    rebuilt = reconstruct_wick(p)
    assert wick_from_representation(rebuilt, pf).coords == p.coords
