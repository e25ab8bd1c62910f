"""End-to-end acceptance checks.

Each test here certifies one headline guarantee of the package at desk
scale, prints a single PASS/FAIL line so a full run reads as a checklist,
and enforces a wall-clock budget.  Everything is exact arithmetic; there
are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from omatroid import (
    GF,
    QQ,
    ASYMPTOTIC_GAP_NOTE,
    LABELED_COUNT_NOTE,
    BasisFamily,
    GroundSet,
    Homomorphism,
    Label,
    Matrix,
    PluckerVector,
    SkewMatrix,
    SubsetMask,
    WickRepresentation,
    WickVector,
    all_principal_pfaffians,
    apply_hom,
    check_gp_3term,
    check_gp_full,
    check_wick_4term,
    check_wick_full,
    classify_plucker,
    classify_wick,
    determinant,
    enumerate_orthogonal,
    find_regular_representation,
    is_matroid,
    is_matroid_strong,
    is_orthogonal,
    is_orthogonal_strong,
    pfaffian,
    plucker_from_matrix,
    plucker_support,
    reconstruct_plucker,
    reconstruct_wick,
    representability_census,
    twist,
    twist_wick,
    verify_nelson_chain,
    wick_from_representation,
    wick_support,
    ZZ,
)
from omatroid.census import _achievable_supports
from omatroid.errors import RankError



def _report(capsys, num, name, ok, elapsed, budget):
    with capsys.disabled():
        print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.2f}s / budget {budget:.0f}s)", flush=True)
    assert ok, f"acceptance criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


# -- 1: the worked 4x4 example ------------------------------------------------

EXAMPLE_ROWS = [
    [0, -3, 0, 1],
    [3, 0, 0, 6],
    [0, 0, 0, 0],
    [-1, -6, 0, 0],
]


def test_worked_example_supports(capsys):
    t0 = time.perf_counter()
    g = GroundSet(4)
    a = SkewMatrix.from_rows(QQ, EXAMPLE_ROWS)
    rep = WickRepresentation(a, g.subset([]))
    w = wick_from_representation(rep)

    want = {g.subset(s).bits for s in ([], [1, 2], [1, 4], [2, 4])}
    ok = wick_support(w).masks == frozenset(want)

    tw = twist_wick(w, g.subset([3]))
    want_t = {g.subset(s).bits for s in ([3], [1, 2, 3], [1, 3, 4], [2, 3, 4])}
    ok = ok and wick_support(tw).masks == frozenset(want_t)
    ok = ok and check_wick_full(w).ok and check_wick_full(tw).ok

    _report(capsys, 1, "4x4 rational example: Pfaffian supports and twist", ok,
            time.perf_counter() - t0, 1.0)


# -- 2: Pfaffian squared equals determinant -----------------------------------

def test_pfaffian_squared_equals_determinant(capsys):
    t0 = time.perf_counter()
    ok = True

    # every skew matrix over GF(2) up to 4x4
    gf2 = GF(2)
    for n in range(5):
        m = n * (n - 1) // 2
        for code in range(1 << m):
            upper = [(code >> i) & 1 for i in range(m)]
            a = SkewMatrix.from_upper(gf2, n, upper)
            pf = pfaffian(a)
            ok = ok and pf * pf % 2 == determinant(a)

    # random rational skew matrices up to 8x8
    rng = random.Random(20260815)
    for _ in range(1000):
        n = rng.randint(0, 8)
        upper = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n * (n - 1) // 2)]
        a = SkewMatrix.from_upper(QQ, n, upper)
        pf = pfaffian(a)
        ok = ok and pf * pf == determinant(a)

    _report(capsys, 2, "pfaffian squared equals determinant", ok,
            time.perf_counter() - t0, 10.0)


# -- 3: Plucker equations against actual matrices -----------------------------

def test_plucker_checks_agree_with_matrices(capsys):
    t0 = time.perf_counter()
    ok = True
    gf7 = GF(7)
    rng = random.Random(73)

    done = 0
    while done < 500:
        n = rng.randint(2, 6)
        r = rng.randint(1, min(3, n))
        rows = [[rng.randrange(7) for _ in range(n)] for _ in range(r)]
        try:
            p = plucker_from_matrix(Matrix.from_rows(gf7, rows))
        except RankError:
            continue
        done += 1
        ok = ok and check_gp_full(p).ok
        ok = ok and classify_plucker(p).label is Label.STRONG
        b = reconstruct_plucker(p)
        ok = ok and plucker_from_matrix(b).coords == p.coords

    # exhaustive rank-2 vectors on 4 elements over GF(2): the short form
    # plus a matroid support is never weaker than the full equation sweep
    g = GroundSet(4)
    full_passers = 0
    for bits in range(1, 1 << 6):
        coords = tuple((bits >> i) & 1 for i in range(6))
        p = PluckerVector(g, 2, GF(2), coords)
        short_ok = check_gp_3term(p).ok
        support_ok = is_matroid(plucker_support(p)).ok
        full_ok = check_gp_full(p).ok
        if short_ok and support_ok:
            ok = ok and full_ok
        if full_ok:
            full_passers += 1
            ok = ok and short_ok and support_ok
    ok = ok and full_passers == 35  # point count of the rank-2 space on [4] over GF(2)

    _report(capsys, 3, "Plucker equations match matrix minors (GF(7) random + GF(2) exhaustive)",
            ok, time.perf_counter() - t0, 60.0)


# -- 4: Wick equations, exhaustive at small n ----------------------------------

def _wick_sweep(n, parity_blocks):
    """Sweep coordinate vectors over GF(2) on [n]; return (ok, weak_count).

    parity_blocks=False walks every nonzero vector; True walks the two
    same-parity blocks (mixed-parity supports are handled separately since
    they can never satisfy the odd-distance equations).
    """
    g = GroundSet(n)
    size = 1 << n
    if parity_blocks:
        evens = [m for m in range(size) if bin(m).count("1") % 2 == 0]
        odds = [m for m in range(size) if bin(m).count("1") % 2 == 1]
        blocks = [evens, odds]
    else:
        blocks = [list(range(size))]

    ok = True
    weak = 0
    for block in blocks:
        for bits in range(1, 1 << len(block)):
            coords = [0] * size
            for i, m in enumerate(block):
                if (bits >> i) & 1:
                    coords[m] = 1
            p = WickVector(g, GF(2), tuple(coords))
            if not check_wick_4term(p).ok:
                continue
            support_ok = is_orthogonal(wick_support(p)).ok
            full_ok = check_wick_full(p).ok
            ok = ok and (not full_ok or support_ok)      # strong => support
            ok = ok and (not support_ok or full_ok)      # weak => strong
            if support_ok and full_ok:
                weak += 1
                rep = reconstruct_wick(p)
                q = wick_from_representation(rep)
                ok = ok and q.coords == p.coords
    return ok, weak


def test_wick_checks_agree_exhaustively(capsys):
    t0 = time.perf_counter()

    ok4, weak4 = _wick_sweep(4, parity_blocks=False)
    ok5, weak5 = _wick_sweep(5, parity_blocks=True)
    ok = ok4 and ok5

    # mixed-parity supports at n=5: never pass the full sweep
    g5 = GroundSet(5)
    rng = random.Random(42)
    for _ in range(300):
        coords = [0] * 32
        coords[rng.choice([m for m in range(32) if bin(m).count("1") % 2 == 0])] = 1
        coords[rng.choice([m for m in range(32) if bin(m).count("1") % 2 == 1])] = 1
        for m in range(32):
            if rng.random() < 0.3:
                coords[m] = 1
        p = WickVector(g5, GF(2), tuple(coords))
        ok = ok and not check_wick_full(p).ok
        ok = ok and classify_wick(p).label is Label.NEITHER

    # the weak counts match the matrix-side census exactly
    ok = ok and weak4 == representability_census(4, "gf2").representable_counts["gf2"] == 270
    ok = ok and weak5 == representability_census(5, "gf2").representable_counts["gf2"] == 4590

    _report(capsys, 4, "Wick equation passers = representable families (GF(2), n <= 5)",
            ok, time.perf_counter() - t0, 300.0)


# -- 5: weak and strong axioms coincide ----------------------------------------

def test_axiom_variants_agree(capsys):
    t0 = time.perf_counter()
    ok = True
    counts = [0, 0, 0, 0]
    g = GroundSet(4)
    for bits in range(1, 1 << 16):
        f = BasisFamily(g, frozenset(m for m in range(16) if (bits >> m) & 1))
        mw = is_matroid(f).ok
        ms = is_matroid_strong(f).ok
        ow = is_orthogonal(f).ok
        os_ = is_orthogonal_strong(f).ok
        ok = ok and mw == ms and ow == os_ and (not mw or ow)
        counts[0] += mw
        counts[1] += ms
        counts[2] += ow
        counts[3] += os_
    ok = ok and counts == [68, 68, 294, 294]

    _report(capsys, 5, "weak and strong exchange axioms agree on every family of [4]",
            ok, time.perf_counter() - t0, 300.0)


# -- 6: twisting is structure-preserving ----------------------------------------

def test_twist_preserves_structure(capsys):
    t0 = time.perf_counter()
    ok = True
    g = GroundSet(4)

    for f in enumerate_orthogonal(4):
        for tbits in range(16):
            ok = ok and is_orthogonal(twist(f, SubsetMask(g, tbits))).ok

    # twisting a coordinate vector never changes the equation verdict
    a = SkewMatrix.from_rows(QQ, EXAMPLE_ROWS)
    passing = wick_from_representation(WickRepresentation(a, g.subset([])))
    failing_coords = [0] * 16
    for s in ([], [1, 2], [3, 4]):
        failing_coords[g.subset(s).bits] = 1
    failing = WickVector(g, QQ, tuple(failing_coords))
    ok = ok and check_wick_full(passing).ok and not check_wick_full(failing).ok
    for base, verdict in ((passing, True), (failing, False)):
        for tbits in range(16):
            tw = twist_wick(base, SubsetMask(g, tbits))
            ok = ok and check_wick_full(tw).ok == verdict

    _report(capsys, 6, "twists preserve symmetric exchange and equation verdicts",
            ok, time.perf_counter() - t0, 60.0)


# -- 7: the counting bound chain ------------------------------------------------

def test_counting_bound_chain_holds(capsys):
    t0 = time.perf_counter()
    ok = True
    for n in range(12, 17):
        chk = verify_nelson_chain(n)
        ok = ok and chk.verdict and all(step_ok for _, step_ok in chk.steps)
        ok = ok and chk.lhs_upper_bound < chk.r

    _report(capsys, 7, "pattern-count bound chain certified for n = 12..16",
            ok, time.perf_counter() - t0, 10.0)


# -- 8: representations survive reduction mod p ---------------------------------

def test_regular_reps_transport_to_primes(capsys):
    t0 = time.perf_counter()
    ok = True
    regular = 0
    for f in enumerate_orthogonal(4):
        rep = find_regular_representation(f)
        if rep is None:
            continue
        regular += 1
        table = all_principal_pfaffians(rep.matrix)
        ok = ok and all(v in (-1, 0, 1) for v in table)
        for p in (2, 3):
            mat_p = apply_hom(Homomorphism(ZZ, GF(p)), rep.matrix)
            w = wick_from_representation(WickRepresentation(mat_p, rep.twist))
            ok = ok and wick_support(w).masks == f.masks
            ok = ok and check_wick_full(w).ok

    # agreement with the census counts on both prime fields
    ok = ok and regular == representability_census(4, "gf2").representable_counts["gf2"] == 270
    ok = ok and representability_census(4, "gf3").representable_counts["gf3"] == 294

    _report(capsys, 8, "sign representations reduce mod 2 and mod 3 with the same support",
            ok, time.perf_counter() - t0, 300.0)


# -- 9: reports label what the finite runs do and do not show --------------------

def test_reports_label_finite_scale(capsys):
    t0 = time.perf_counter()
    rpt = representability_census(3, "gf2")
    ok = ASYMPTOTIC_GAP_NOTE in rpt.notes and LABELED_COUNT_NOTE in rpt.notes
    ok = ok and "not reproducible at desk scale" in ASYMPTOTIC_GAP_NOTE

    # the GF(2) Pfaffian supports at n = 3: one per skew matrix, each orthogonal, and
    # far below the chain's pattern cap r = 2**(n**3)
    supports = _achievable_supports(3, "gf2")
    ok = ok and len(supports) == 8 and len(supports) <= 1 << 27
    g3 = GroundSet(3)
    ok = ok and all(
        is_orthogonal(BasisFamily(g3, frozenset(s for s in range(8) if v >> s & 1))).ok
        for v in supports
    )

    chk = verify_nelson_chain(12)
    ok = ok and "total_patterns_bound" in chk.context
    ok = ok and "knuth_exponent_bounds" in chk.context

    _report(capsys, 9, "census and bound reports label the finite-scale gap",
            ok, time.perf_counter() - t0, 30.0)
