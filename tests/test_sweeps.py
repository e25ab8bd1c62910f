"""The neighbourhood sweeps against the brute sweeps, the classifiers, twists and the budget.

The Wick and Grassmann-Plucker sweeps walk only pairs whose sets lie one
element away from the support. The brute sweeps in ``oracles`` walk every
pair of the family in the same colex order, so both must give the same
verdict, the same first failing pair and the same value. Vectors come from
block (zero-heavy) and dense matrices over GF(2), GF(3), GF(7), the
rationals and the regular partial field, then have one coordinate moved,
or one coordinate of the other size parity made nonzero.
"""

import json
import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from omatroid import plucker
from omatroid.cli import main
from omatroid.errors import CapabilityError, MembershipError, RankError
from omatroid.exactalg import GF, QQ, ZZ, Matrix, SkewMatrix, all_principal_pfaffians
from omatroid.groundset import SWEEP_BUDGET, GroundSet, SubsetMask
from omatroid.matroid import BasisFamily, is_orthogonal
from omatroid.plucker import (
    PluckerVector,
    _neighbourhood,
    check_gp_3term,
    check_gp_full,
    classify_plucker,
    plucker_from_matrix,
)
from omatroid.wick import (
    WickRepresentation,
    WickVector,
    check_wick_4term,
    check_wick_full,
    classify_wick,
    twist_wick,
    wick_from_representation,
)

from oracles import brute_gp_sweep, brute_wick_4term, brute_wick_full

RINGS = {"gf2": GF(2), "gf3": GF(3), "gf7": GF(7), "qq": QQ, "regular": ZZ}

ENTRIES = {
    "gf2": st.integers(0, 1),
    "gf3": st.integers(0, 2),
    "gf7": st.integers(0, 6),
    "qq": st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    "regular": st.sampled_from([0, 1, -1]),
}

SWEEPS = settings(max_examples=40, deadline=None)


def _entry(draw, name, block, i, j):
    """A matrix entry; in a block matrix, zero unless i and j share a block."""
    if block is not None and block[i] != block[j]:
        return 0
    return draw(ENTRIES[name])


def _moved(draw, name, ring, coords, masks):
    """The coordinates with one entry, at one of ``masks``, set to another element."""
    m = draw(st.sampled_from(masks))
    v = ring.coerce(draw(ENTRIES[name].filter(lambda x: ring.coerce(x) != coords[m])))
    coords = list(coords)
    coords[m] = v
    if not any(coords):
        reject()
    return coords


@st.composite
def wick_vectors(draw, name):
    """A Wick vector from a block or dense skew matrix and a random twist,
    kept as is, with one coordinate moved, or with one coordinate of the
    other size parity made nonzero."""
    ring = RINGS[name]
    n = draw(st.integers(2, 5 if name == "regular" else 7), label="n")
    g = GroundSet(n)
    block = draw(st.none() | st.lists(st.integers(0, 2), min_size=n, max_size=n), label="block")
    upper = [_entry(draw, name, block, i, j) for i in range(n) for j in range(i + 1, n)]
    twist = draw(st.integers(0, (1 << n) - 1), label="twist")
    try:
        p = wick_from_representation(
            WickRepresentation(SkewMatrix.from_upper(ring, n, upper), SubsetMask(g, twist))
        )
    except MembershipError:
        reject()
    kind = draw(st.sampled_from(["pfaffian", "moved", "mixed"]), label="kind")
    if kind == "pfaffian":
        return p
    if kind == "moved":
        masks = range(1 << n)
    else:  # a Pfaffian support has the parity of the twist; add a member of the other one
        masks = [m for m in range(1 << n) if (m ^ twist).bit_count() % 2]
        if not masks:
            reject()
    return WickVector(g, ring, tuple(_moved(draw, name, ring, p.coords, masks)))


@st.composite
def plucker_vectors(draw, name):
    """A Plucker vector of rank 1..n-1 on 3 <= n <= 7 from a block or dense matrix,
    kept as is or with one coordinate moved."""
    ring = RINGS[name]
    n = draw(st.integers(3, 7), label="n")
    r = draw(st.integers(1, n - 1), label="r")
    block = draw(st.none() | st.lists(st.integers(0, 2), min_size=n, max_size=n), label="block")
    row_block = draw(st.lists(st.integers(0, 2), min_size=r, max_size=r)) if block else None
    rows = [
        [0 if block and block[j] != row_block[i] else draw(ENTRIES[name]) for j in range(n)]
        for i in range(r)
    ]
    try:
        p = plucker_from_matrix(Matrix.from_rows(ring, rows))
    except (RankError, MembershipError):
        reject()
    if draw(st.sampled_from([False, True, True]), label="moved"):
        coords = _moved(draw, name, ring, p.coords, range(len(p.coords)))
        p = PluckerVector(p.ground, r, ring, tuple(coords))
    return p


def _verdict(v, a, b):
    """A sweep verdict as the oracle's tuple: ok, the two masks of the pair, the value."""
    pair = [getattr(v, name) for name in (a, b)]
    return (v.ok, *(None if s is None else s.bits for s in pair), v.value)


@pytest.mark.parametrize("name", sorted(RINGS))
@SWEEPS
@given(data=st.data())
def test_wick_sweeps_match_the_brute_sweeps(name, data):
    p = data.draw(wick_vectors(name))
    assert _verdict(check_wick_full(p), "j1", "j2") == brute_wick_full(p)
    assert _verdict(check_wick_4term(p), "j1", "j2") == brute_wick_4term(p)


@pytest.mark.parametrize(
    "support, sweep, brute, pair",
    [
        # the empty set fails against {1,2,5} and {1,2,3,4}; colex order meets {1,2,3,4} first
        ((0b00001, 0b01110, 0b10010), check_wick_full, brute_wick_full, (0, 0b01111)),
        # {2} fails against {3,4,5} and {1,2,3,4,5}; colex order meets {3,4,5} first
        ((0, 0b00011, 0b10110, 0b11110), check_wick_4term, brute_wick_4term, (0b10, 0b11100)),
    ],
)
def test_the_witness_is_the_colex_first_failing_pair(support, sweep, brute, pair):
    p = WickVector.from_coords(GroundSet(5), RINGS["qq"], dict.fromkeys(support, 1))
    v = _verdict(sweep(p), "j1", "j2")
    assert v == brute(p)
    assert v[1:3] == pair


@pytest.mark.parametrize("name", sorted(RINGS))
@SWEEPS
@given(data=st.data())
def test_gp_sweeps_match_the_brute_sweeps(name, data):
    p = data.draw(plucker_vectors(name))
    assert _verdict(check_gp_full(p), "s", "t") == brute_gp_sweep(p, three_term_only=False)
    assert _verdict(check_gp_3term(p), "s", "t") == brute_gp_sweep(p, three_term_only=True)


@pytest.mark.parametrize("name", sorted(RINGS))
@SWEEPS
@given(data=st.data())
def test_twisting_keeps_both_wick_verdicts(name, data):
    p = data.draw(wick_vectors(name))
    t = SubsetMask(p.ground, data.draw(st.integers(0, (1 << p.ground.n) - 1), label="t"))
    q = twist_wick(p, t)
    assert check_wick_full(q).ok == check_wick_full(p).ok
    assert check_wick_4term(q).ok == check_wick_4term(p).ok


# ---------------------------------------------------------------------------
# the rank certificate on dense vectors with a late coordinate moved
#
# Every check decides which rows are dirty by one echelon basis of the W
# rows. A coordinate late in colex order reaches that basis only through the
# last W rows, so moving one tests that the basis keeps every row it needs,
# and the witness must still be the brute sweep's first failing pair.


def _late_moved(ring, coords, late):
    """Copies of ``coords``, each with one of the last ``late`` nonzero coordinates moved."""
    support = [m for m, v in enumerate(coords) if v]
    for m in support[-late:]:
        moved = list(coords)
        v = coords[m]
        moved[m] = ring.neg(v) if ring == ZZ else ring.coerce(2 * v)  # 2v != v off characteristic 2
        yield moved


def _dense_wick(name, seed, n=8):
    """A dense Wick vector: a random skew matrix, or over the regular partial field the
    all-ones one (every principal Pfaffian 1), with random signs; then a random twist."""
    rng = random.Random(seed)
    ring = RINGS[name]
    if name == "regular":
        signs = [rng.choice((1, -1)) for _ in range(n)]
        upper = [signs[i] * signs[j] for i in range(n) for j in range(i + 1, n)]
    else:
        entry = {"gf7": lambda: rng.randrange(1, 7),
                 "qq": lambda: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))}[name]
        upper = [entry() for _ in range(n * (n - 1) // 2)]
    twist = SubsetMask(GroundSet(n), rng.randrange(1 << n))
    rep = WickRepresentation(SkewMatrix.from_upper(ring, n, upper), twist)
    return wick_from_representation(rep)


def _dense_plucker(name, seed=3):
    """The maximal minors of a random 3 x 8 matrix."""
    rng = random.Random(seed)
    ring = RINGS[name]
    entry = {"gf7": lambda: rng.randrange(7),
             "qq": lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))}[name]
    rows = [[entry() for _ in range(8)] for _ in range(3)]
    return plucker_from_matrix(Matrix.from_rows(ring, rows))


@pytest.mark.parametrize("name", ["gf7", "qq", "regular"])
def test_full_wick_certificate_finds_the_brute_witness(name):
    p = _dense_wick(name, seed=8)
    assert 8 * len(p.support_masks()) >= 3 * len(p.coords)  # 3/4 of one parity class
    assert check_wick_full(p).ok
    for coords in _late_moved(p.ring, p.coords, late=4):
        q = WickVector(p.ground, p.ring, tuple(coords))
        v = check_wick_full(q)
        assert _verdict(v, "j1", "j2") == brute_wick_full(q)
        assert not v.ok
        if name == "regular":
            assert type(v.value) is int  # the elimination over QQ leaks no Fraction


@pytest.mark.parametrize("name", ["gf7", "qq", "regular"])
def test_short_wick_certificate_finds_the_brute_witness(name):
    p = _dense_wick(name, seed=8)
    assert check_wick_4term(p).ok
    for coords in _late_moved(p.ring, p.coords, late=4):
        q = WickVector(p.ground, p.ring, tuple(coords))
        v = check_wick_4term(q)
        assert _verdict(v, "j1", "j2") == brute_wick_4term(q)
        assert not v.ok
        if name == "regular":
            assert type(v.value) is int


@pytest.mark.parametrize("name", ["gf7", "qq"])
def test_full_gp_certificate_finds_the_brute_witness(name):
    p = _dense_plucker(name)
    ring = p.ring
    assert len(p.support_masks()) >= comb(8, 3) - 8
    assert check_gp_full(p).ok
    for coords in _late_moved(ring, p.coords, late=4):
        q = PluckerVector(p.ground, 3, ring, tuple(coords))
        v = check_gp_full(q)
        assert _verdict(v, "s", "t") == brute_gp_sweep(q, three_term_only=False)
        assert not v.ok


@pytest.mark.parametrize("name", ["gf7", "qq"])
def test_short_gp_certificate_finds_the_brute_witness(name):
    p = _dense_plucker(name)
    assert check_gp_3term(p).ok
    for coords in _late_moved(p.ring, p.coords, late=4):
        q = PluckerVector(p.ground, 3, p.ring, tuple(coords))
        v = check_gp_3term(q)
        assert _verdict(v, "s", "t") == brute_gp_sweep(q, three_term_only=True)
        assert not v.ok


def test_short_checks_sweep_no_pair_when_the_full_family_passes(monkeypatch):
    # a passing full certificate leaves no dirty row, so no relation is evaluated
    calls = []

    def counting(value):
        def counted(*args):
            calls.append(args)
            return value(*args)
        return counted

    monkeypatch.setattr(plucker._Certificate, "value", counting(plucker._Certificate.value))
    w = _dense_wick("gf7", seed=8)
    p = _dense_plucker("gf7")
    assert check_wick_4term(w).ok
    assert check_gp_3term(p).ok
    assert calls == []
    moved = next(_late_moved(w.ring, w.coords, late=1))
    assert not check_wick_4term(WickVector(w.ground, w.ring, tuple(moved))).ok
    assert calls  # the counters see the pairs a failing vector sweeps


# ---------------------------------------------------------------------------
# the classifiers read both families off one certificate


def _same_verdict(v, w):
    """Two sweep verdicts equal field for field, the value's type included."""
    return v == w and type(v.value) is type(w.value)


def _assert_classify_matches_checks(p):
    if isinstance(p, WickVector):
        c, full, short = classify_wick(p), check_wick_full(p), check_wick_4term(p)
    else:
        c, full, short = classify_plucker(p), check_gp_full(p), check_gp_3term(p)
    assert _same_verdict(c.full, full)
    assert _same_verdict(c.short, short)


@pytest.mark.parametrize("name", sorted(RINGS))
@SWEEPS
@given(data=st.data())
def test_classify_reads_the_checks_verdicts(name, data):
    _assert_classify_matches_checks(data.draw(wick_vectors(name)))
    _assert_classify_matches_checks(data.draw(plucker_vectors(name)))


@pytest.mark.parametrize("name", ["gf7", "qq", "regular"])
def test_classify_reads_the_checks_verdicts_on_late_moved_vectors(name):
    vectors = [_dense_wick(name, seed=8)]
    if name != "regular":
        vectors.append(_dense_plucker(name))
    for p in vectors:
        _assert_classify_matches_checks(p)
        for coords in _late_moved(p.ring, p.coords, late=4):
            if isinstance(p, WickVector):
                moved = WickVector(p.ground, p.ring, tuple(coords))
            else:
                moved = PluckerVector(p.ground, p.r, p.ring, tuple(coords))
            _assert_classify_matches_checks(moved)


def test_classify_builds_one_certificate(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return dirty_test(*args)

    dirty_test = plucker._dirty_test
    monkeypatch.setattr(plucker, "_dirty_test", counted)
    w = _dense_wick("gf7", seed=8)
    p = _dense_plucker("gf7")
    moved_w = WickVector(w.ground, w.ring, tuple(next(_late_moved(w.ring, w.coords, late=1))))
    moved_p = PluckerVector(p.ground, 3, p.ring, tuple(next(_late_moved(p.ring, p.coords, late=1))))
    for vector, classify in ((w, classify_wick), (moved_w, classify_wick),
                             (p, classify_plucker), (moved_p, classify_plucker)):
        built.clear()
        classify(vector)
        assert len(built) == 1


# ---------------------------------------------------------------------------
# the sweep budget


def _dense_wick_coords(n: int, seed: int) -> list:
    rng = random.Random(seed)
    f7 = GF(7)
    a = SkewMatrix.from_upper(f7, n, [rng.randrange(7) for _ in range(n * (n - 1) // 2)])
    return all_principal_pfaffians(a)


def _wick_file(tmp_path, n: int, coords) -> str:
    keys = {",".join(str(e) for e in SubsetMask(GroundSet(n), m).elements()): str(v)
            for m, v in enumerate(coords) if v}
    path = tmp_path / "wick.json"
    path.write_text(json.dumps({"n": n, "ring": {"kind": "gfp", "p": 7}, "coords": keys}))
    return str(path)


def _timed_main(capsys, *argv):
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    return code, json.loads(capsys.readouterr().out), elapsed


@pytest.mark.parametrize("mode", ["full", "short"])
def test_dense_n14_wick_vector_is_refused_fast(tmp_path, capsys, mode):
    coords = _dense_wick_coords(14, seed=14)
    assert sum(1 for v in coords if v) > 6000
    path = _wick_file(tmp_path, 14, coords)
    code, rep, elapsed = _timed_main(capsys, "check-wick", path, "--mode", mode)
    assert code == 3
    assert rep["error"]["type"] == "CapabilityError"
    assert elapsed < 1.0


@pytest.mark.parametrize("mode", ["full", "short"])
def test_four_member_n14_wick_vector_is_answered_fast(tmp_path, capsys, mode):
    coords = {0: 1, 0b11: 1, 0b1100: 1, 0b1111: 1}  # Pf of the blocks {1,2} and {3,4}
    path = _wick_file(tmp_path, 14, [coords.get(m, 0) for m in range(1 << 14)])
    code, rep, elapsed = _timed_main(capsys, "check-wick", path, "--mode", mode)
    assert (code, rep["verdict"]) == (0, True)
    assert elapsed < 1.0


def test_dense_n12_wick_vector_fits_the_budget():
    p = WickVector(GroundSet(12), RINGS["gf7"], tuple(_dense_wick_coords(12, seed=12)))
    near = len(_neighbourhood(p))
    assert comb(near, 2) <= SWEEP_BUDGET
    assert near * comb(12, 4) <= SWEEP_BUDGET
    assert check_wick_4term(p).ok


def test_dense_n13_support_check_is_refused_fast(tmp_path, capsys):
    # |F|**2 member pairs of the symmetric exchange check are over the budget,
    # and the support check runs before the 4-term sweep, which would fit
    coords = _dense_wick_coords(13, seed=13)
    members = sum(1 for v in coords if v)
    assert members ** 2 > SWEEP_BUDGET
    path = _wick_file(tmp_path, 13, coords)
    code, rep, elapsed = _timed_main(capsys, "check-wick", path, "--mode", "short")
    assert code == 3
    assert rep["error"]["type"] == "CapabilityError"
    assert "member pairs" in rep["error"]["message"]
    assert elapsed < 1.0


def test_dense_n12_support_check_fits_the_budget():
    p = WickVector(GroundSet(12), RINGS["gf7"], tuple(_dense_wick_coords(12, seed=12)))
    assert len(p.support_masks()) ** 2 <= SWEEP_BUDGET


def test_exchange_check_is_refused_above_the_budget():
    # 2**11 members make exactly SWEEP_BUDGET member pairs; one more is refused
    g = GroundSet(12)
    evens = frozenset(range(0, 1 << 12, 2))
    assert len(evens) ** 2 == SWEEP_BUDGET
    assert not is_orthogonal(BasisFamily(g, evens)).ok
    with pytest.raises(CapabilityError):
        is_orthogonal(BasisFamily(g, evens | {1}))


def test_dense_n14_plucker_vector_is_refused():
    g = GroundSet(14)
    p = PluckerVector(g, 7, RINGS["gf7"], (1,) * comb(14, 7))
    with pytest.raises(CapabilityError):
        check_gp_full(p)
    with pytest.raises(CapabilityError):
        check_gp_3term(p)
