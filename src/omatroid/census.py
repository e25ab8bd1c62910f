"""Desk-scale censuses and certified counting bounds.

Three kinds of work live here:

* exhaustive enumeration of labeled orthogonal matroids on small ground
  sets. A candidate family is a bitmap over the subsets of one parity
  (families mixing parities never pass), and one bitset sweep decides
  symmetric exchange for every bitmap of a parity class at once;
  ``enumerate_orthogonal`` and the census both read it, and the brute-force
  ``matroid.is_orthogonal`` is the oracle the tests hold it to;
* representability censuses over GF(2), GF(3), and the regular partial
  field, by enumerating every skew matrix over the field, collecting the
  achievable Pfaffian supports S, and matching families against every twist
  S Δ t (a support always contains the empty set, so t is then a member of
  the family). Census records are JSON lines assembled from text
  fragments, and a resumed file is checked against them line by line;
* an exact verification of the counting-bound chain that caps the number
  of realizable zero patterns of the principal-Pfaffian polynomial family,
  using big integers and certified rational over-approximations only. The
  chain instantiates c = 1, d = n - 1, N = 2**(n-1) polynomials in
  m = n(n-1)/2 variables and certifies that the hypothesis quantity
  C(Nd+m, m) * (log2(3r) + N*log2(c*(e*N)**d)) stays below r = 2**(n**3).

Counts reported here are of labeled objects, and every verdict is exact;
floating point appears nowhere. Asymptotic claims are out of reach at desk
scale, and reports say so explicitly instead of pretending otherwise.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

from .errors import CapabilityError, InputError
from .exactalg import GF, SkewMatrix, ZZ, all_principal_pfaffians
from .groundset import GroundSet, SubsetMask, mask_elements
from .matroid import BasisFamily, is_matroid, is_orthogonal
from .wick import WickRepresentation

#: Enumeration cap: 2**16 families per parity class at n = 5 is the desk limit.
ENUM_MAX_N = 5

#: Candidates per census chunk: one progress line and one file write each.
CENSUS_CHUNK = 4096

#: Representability caps per field (matrix count is q**(n(n-1)/2)).
CENSUS_CAPS = {"gf2": 5, "gf3": 4}

REGULAR_SEARCH_MAX_N = 4
DEMO_MAX_N = 4

#: Default certified upper bounds: e <= 2.71828183 and log2(e) <= 1.4426951.
E_UPPER_DEFAULT = Fraction(271828183, 10**8)
LOG2E_UPPER_DEFAULT = Fraction(14426951, 10**7)

# Certified lower references used only to reject grossly invalid "upper bounds".
_E_LOWER_CERT = Fraction(2718281828459045, 10**15)
_LOG2E_LOWER_CERT = Fraction(14426950408889634, 10**16)

ASYMPTOTIC_GAP_NOTE = (
    "asymptotic claims are not reproducible at desk scale; this report certifies "
    "the enumerated instances and the exact bound chain only"
)
LABELED_COUNT_NOTE = (
    "counts are of labeled families on {1..n}; matroid counts come from a direct "
    "exchange-axiom check, no isomorphism classes or external tables are inferred"
)


# ---------------------------------------------------------------------------
# candidate families
#
# A candidate of parity p is a bitmap over _parity_subsets(n, p): bit i set
# means the i-th subset of that parity, in colex order, is a member.
# Candidate number ``index`` is bitmap index + 1 of the even class, and past
# the even block, bitmap index - even_total + 1 of the odd class.


@lru_cache(maxsize=None)
def _parity_subsets(n: int, parity: int) -> tuple[int, ...]:
    return tuple(m for m in range(1 << n) if m.bit_count() & 1 == parity)


def _class_total(n: int, parity: int) -> int:
    return (1 << len(_parity_subsets(n, parity))) - 1


def _candidate_total(n: int) -> int:
    return _class_total(n, 0) + _class_total(n, 1)


def _members(n: int, parity: int, bits: int) -> tuple[int, ...]:
    return tuple(s for i, s in enumerate(_parity_subsets(n, parity)) if bits >> i & 1)


@lru_cache(maxsize=None)
def _orthogonal_bitmaps(n: int, parity: int) -> frozenset[int]:
    """The candidate bitmaps of one parity class that pass symmetric exchange.

    For B1, B2 in F and x1 in B1 Δ B2 the axiom wants an x2 in B1 Δ B2 - x1
    with B1 Δ {x1, x2} in F. Write T = B1 Δ {x1}, a set of the other parity:
    then B1 Δ {x1, x2} = T Δ {x2} and B1 Δ B2 - x1 = T Δ B2. For x1 outside
    B1 Δ B2, x1 itself lies in T Δ B2 and T Δ {x1} = B1 is in F. So F passes
    exactly when, for every T with some T Δ {x} in F and every B in F, some
    x in T Δ B has T Δ {x} in F. That is decided for all 2**k bitmaps at
    once, one operation on 2**k-bit integers per (T, B, x).
    ``matroid.is_orthogonal`` is the oracle the tests hold it to.
    """
    subsets = _parity_subsets(n, parity)
    size = 1 << len(subsets)
    everything = (1 << size) - 1
    has = []  # has[i]: the bitmaps holding subset i, runs of 2**i ones every 2**(i+1) places
    for i in range(len(subsets)):
        run = 1 << i
        bitset, width = ((1 << run) - 1) << run, 2 * run
        while width < size:
            bitset |= bitset << width
            width *= 2
        has.append(bitset)
    index = {s: i for i, s in enumerate(subsets)}
    bad = 0
    for t in _parity_subsets(n, 1 - parity):
        near = [has[index[t ^ (1 << x)]] for x in range(n)]  # bitmaps holding T Δ {x}
        miss = [everything ^ b for b in near]
        touched = 0
        for b in near:
            touched |= b
        for i, b in enumerate(subsets):
            stuck = has[i] & touched
            for x in range(n):
                if (t ^ b) >> x & 1:
                    stuck &= miss[x]
            bad |= stuck
    good = everything & ~bad & ~1  # bitmap 0 is the empty family, never a candidate
    return frozenset(f for f, bit in enumerate(bin(good)[:1:-1]) if bit == "1")


@lru_cache(maxsize=None)
def enumerate_orthogonal(n: int, parity: str = "both") -> tuple[BasisFamily, ...]:
    """Every labeled orthogonal matroid on {1..n}, even families first.

    Families mixing parities never pass symmetric exchange, so each parity
    class is swept on its own, and the families come out in candidate order.
    """
    if parity not in ("even", "odd", "both"):
        raise InputError(f"parity must be 'even', 'odd', or 'both', got {parity!r}")
    if n > ENUM_MAX_N:
        raise CapabilityError(f"orthogonal enumeration is capped at n = {ENUM_MAX_N}")
    ground = GroundSet(n)
    classes = {"even": (0,), "odd": (1,), "both": (0, 1)}[parity]
    return tuple(
        BasisFamily(ground, frozenset(_members(n, par, bits)))
        for par in classes
        for bits in sorted(_orthogonal_bitmaps(n, par))
    )


# ---------------------------------------------------------------------------
# achievable Pfaffian supports


def _skew_matrices(ring, n: int, values):
    """Every n x n skew matrix over ``ring`` with upper-triangle entries from ``values``.

    The first upper entry varies fastest, as in a base-len(values) counter.
    """
    for entries in product(values, repeat=n * (n - 1) // 2):
        yield SkewMatrix.from_upper(ring, n, entries[::-1])


def _support(table) -> frozenset[int]:
    return frozenset(mask for mask, v in enumerate(table) if v != 0)


@lru_cache(maxsize=None)
def _achievable_supports(n: int, field: str) -> frozenset[frozenset[int]]:
    """Supports {J : Pf(A_J) != 0} over all skew A with entries in the field."""
    ring = GF(2) if field == "gf2" else GF(3)
    return frozenset(
        _support(all_principal_pfaffians(a)) for a in _skew_matrices(ring, n, range(ring.p))
    )


@lru_cache(maxsize=None)
def _representable_families(n: int, field: str) -> frozenset[int]:
    """Every S Δ t, S an achievable support and t ⊆ [n], as a bitmap over all 2**n subsets.

    Every Pfaffian support holds the empty set, so t lies in S Δ t: a family
    F is here exactly when F Δ t is achievable for some member t of F.
    """
    return frozenset(
        sum(1 << (s ^ t) for s in support)
        for support in _achievable_supports(n, field)
        for t in range(1 << n)
    )


@lru_cache(maxsize=None)
def _regular_normal_reps(n: int) -> dict[frozenset[int], SkewMatrix]:
    """First-found skew matrix over {0, +1, -1} per achievable support.

    Only matrices whose entire principal-Pfaffian table stays inside
    {0, +1, -1} count: those are the valid regular-partial-field vectors,
    and exactly the ones whose support survives every residue map.
    """
    found: dict[frozenset[int], SkewMatrix] = {}
    for a in _skew_matrices(ZZ, n, (0, 1, -1)):
        table = all_principal_pfaffians(a)
        if all(v in (0, 1, -1) for v in table):
            found.setdefault(_support(table), a)
    return found


def find_regular_representation(f: BasisFamily) -> WickRepresentation | None:
    """A representation of f over the regular partial field, or None.

    Twists range over the members of f in colex order; the first achievable
    support wins, so the result is deterministic.
    """
    n = f.ground.n
    if n > REGULAR_SEARCH_MAX_N:
        raise CapabilityError(f"regular representability search is capped at n = {REGULAR_SEARCH_MAX_N}")
    reps = _regular_normal_reps(n)
    for t in sorted(f.masks):
        target = frozenset(b ^ t for b in f.masks)
        a = reps.get(target)
        if a is not None:
            return WickRepresentation(a, SubsetMask(f.ground, t))
    return None


# ---------------------------------------------------------------------------
# representability census


@dataclass(frozen=True)
class CensusReport:
    n: int
    field: str
    total_families_checked: int
    orthogonal_count: int
    matroid_count: int
    representable_counts: dict
    runtime_seconds: float
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "field": self.field,
            "total_families_checked": self.total_families_checked,
            "orthogonal_count": self.orthogonal_count,
            "matroid_count": self.matroid_count,
            "representable_counts": dict(self.representable_counts),
            "runtime_seconds": self.runtime_seconds,
            "notes": list(self.notes),
        }


# A census record is one JSON line with sorted keys and no spaces:
#   {"bases":[[],[1,2]],"orthogonal":false}
#   {"bases":[[],[1,2]],"matroid":true,"orthogonal":true,"representable":{"gf2":true}}
# It is assembled from text fragments: the member list, then one of five
# endings, keyed here by the record's (orthogonal, matroid, representable).


def _record_endings(field: str) -> dict[tuple[bool, bool, bool], str]:
    word = ("false", "true")
    out = {(False, False, False): '],"orthogonal":false}\n'}
    for m in (False, True):
        for r in (False, True):
            out[True, m, r] = (
                f'],"matroid":{word[m]},"orthogonal":true,"representable":{{"{field}":{word[r]}}}}}\n'
            )
    return out


@lru_cache(maxsize=None)
def _bases_halves(n: int, parity: int) -> tuple[int, tuple[str, ...], tuple[str, ...]]:
    """The JSON member lists of every bitmap of a parity class, split at position h.

    The members of bitmap F below class position h read low[F & (2**h - 1)],
    the rest high[F >> h], so two tables of at most 2**ceil(k/2) strings
    cover all 2**k bitmaps.
    """
    frags = ["[" + ",".join(map(str, mask_elements(s))) + "]" for s in _parity_subsets(n, parity)]
    h = len(frags) // 2

    def table(part: list[str]) -> tuple[str, ...]:
        return tuple(
            ",".join(f for i, f in enumerate(part) if bits >> i & 1) for bits in range(1 << len(part))
        )

    return h, table(frags[:h]), table(frags[h:])


def _candidates(n: int, start: int, stop: int):
    """(parity, bitmap, JSON member list) of candidates number start .. stop - 1."""
    offset = 0
    for parity in (0, 1):
        count = _class_total(n, parity)
        h, low, high = _bases_halves(n, parity)
        low_mask = (1 << h) - 1
        for bits in range(max(start - offset, 0) + 1, min(stop - offset, count) + 1):
            lo, hi = low[bits & low_mask], high[bits >> h]
            yield parity, bits, f"{lo},{hi}" if lo and hi else lo or hi
        offset += count


def _census_chunk(n: int, field: str, start: int, stop: int) -> tuple[str, Counter]:
    """Record lines of candidates start .. stop - 1, and a tally of their flags."""
    ground = GroundSet(n)
    orthogonal = (_orthogonal_bitmaps(n, 0), _orthogonal_bitmaps(n, 1))
    representable = _representable_families(n, field)
    endings = _record_endings(field)
    lines = []
    tally: Counter = Counter()
    for parity, bits, bases in _candidates(n, start, stop):
        flags = (False, False, False)
        if bits in orthogonal[parity]:
            members = _members(n, parity, bits)
            flags = (
                True,
                is_matroid(BasisFamily(ground, frozenset(members))).ok,
                sum(1 << s for s in members) in representable,
            )
        tally[flags] += 1
        lines.append('{"bases":[' + bases + endings[flags])
    return "".join(lines), tally


def _resume(path: str, n: int, field: str, total: int) -> tuple[int, Counter]:
    """Check the records already in ``path`` and tally their flags.

    Line i must be the record of candidate i with one of the five endings of
    this field, so a file from another n or another field is refused with
    InputError. A last line without its newline is cut off the file, to be
    computed again. Returns the number of records kept.
    """
    flags_of = {text.encode(): flags for flags, text in _record_endings(field).items()}
    expected = _candidates(n, 0, total)
    tally: Counter = Counter()
    done = size = 0
    with open(path, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break
            if done == total:
                raise InputError(f"{path} holds more than the {total} records of the n = {n} census")
            head = b'{"bases":[' + next(expected)[2].encode()
            flags = flags_of.get(line[len(head):]) if line.startswith(head) else None
            if flags is None:
                raise InputError(f"{path} line {done + 1} is not record {done} of the n = {n} {field} census")
            tally[flags] += 1
            done += 1
            size += len(line)
    if size < os.path.getsize(path):
        os.truncate(path, size)
    return done, tally


def representability_census(
    n: int,
    field: str = "gf2",
    out_path: str | None = None,
    progress=None,
) -> CensusReport:
    """Sweep every candidate family on {1..n} and mark the representable ones.

    Writes one JSON line per candidate family to ``out_path`` when given.
    An existing file resumes the sweep after its last complete record: every
    record in it must be the one this census would write there, up to its
    verdicts, or InputError is raised, and a torn last line is cut off and
    computed again. The sweep runs in chunks of CENSUS_CHUNK candidates,
    with one progress line after each.
    """
    if field not in CENSUS_CAPS:
        raise InputError(f"field must be one of {sorted(CENSUS_CAPS)}, got {field!r}")
    GroundSet(n)  # InputError unless a nonnegative integer
    if n > CENSUS_CAPS[field]:
        raise CapabilityError(f"census over {field} is capped at n = {CENSUS_CAPS[field]}")
    t0 = time.perf_counter()
    total = _candidate_total(n)
    reused, tally = 0, Counter()
    if out_path and os.path.exists(out_path):
        reused, tally = _resume(out_path, n, field, total)
    sweep_start = time.perf_counter()
    with open(out_path, "a", encoding="utf-8") if out_path else nullcontext() as sink:
        for start in range(reused, total, CENSUS_CHUNK):
            done = min(start + CENSUS_CHUNK, total)
            text, part = _census_chunk(n, field, start, done)
            if sink is not None:
                sink.write(text)
            tally.update(part)
            if progress:
                rate = (done - reused) / max(time.perf_counter() - sweep_start, 1e-9)
                progress(
                    f"census n={n} {field}: {done}/{total} families, {reused} reused, "
                    f"{rate:.0f} families/s, ETA {(total - done) / rate:.1f}s"
                )
    runtime = time.perf_counter() - t0
    orthogonal, matroids, representable = (
        sum(c for flags, c in tally.items() if flags[k]) for k in range(3)
    )
    return CensusReport(
        n=n,
        field=field,
        total_families_checked=total,
        orthogonal_count=orthogonal,
        matroid_count=matroids,
        representable_counts={field: representable},
        runtime_seconds=round(runtime, 3),
        notes=(ASYMPTOTIC_GAP_NOTE, LABELED_COUNT_NOTE),
    )


# ---------------------------------------------------------------------------
# certified bound chain


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of the exact bound-chain verification at one n."""

    n: int
    c: int
    d: int
    N: int
    m: int
    r: int
    lhs_upper_bound: Fraction
    verdict: bool
    steps: tuple[tuple[str, bool], ...]
    context: dict

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "c": self.c,
            "d": self.d,
            "N": self.N,
            "m": self.m,
            "r": str(self.r),
            "lhs_upper_bound": str(self.lhs_upper_bound),
            "verdict": self.verdict,
            "steps": [[name, ok] for name, ok in self.steps],
            "context": self.context,
        }


def verify_nelson_chain(
    n: int,
    e_upper: Fraction | None = None,
    log2e_upper: Fraction | None = None,
) -> BoundCheck:
    """Certify the zero-pattern counting chain at one n, 12 <= n <= 24, exactly.

    The polynomial family is the N = 2**(n-1) principal Pfaffians of a
    generic n x n skew matrix: m = n(n-1)/2 variables, degrees at most
    d = n - 1, coefficients c = 1, candidate cap r = 2**(n**3). Every step
    is an exact big-integer or big-rational comparison, with e and log2(e)
    replaced by certified rational upper bounds, so a true verdict is a
    proof that the hypothesis quantity stays below r. Passing tighter valid
    bounds can only keep a true verdict true.
    """
    GroundSet(n)  # InputError unless a nonnegative integer, CapabilityError past MAX_GROUND_SIZE
    if n < 12:
        raise InputError(f"the certified chain needs n >= 12, got {n}")
    e_up = E_UPPER_DEFAULT if e_upper is None else Fraction(e_upper)
    log2e_up = LOG2E_UPPER_DEFAULT if log2e_upper is None else Fraction(log2e_upper)
    if e_up <= _E_LOWER_CERT:
        raise InputError(f"{e_up} cannot be an upper bound for e")
    if log2e_up <= _LOG2E_LOWER_CERT:
        raise InputError(f"{log2e_up} cannot be an upper bound for log2(e)")

    c = 1
    d = n - 1
    N = 1 << (n - 1)
    m = n * (n - 1) // 2
    r = 1 << n**3

    steps: list[tuple[str, bool]] = []
    binom_hyp = comb(N * d + m, m)
    mid_top = n << (n - 1)
    steps.append(("top_argument_dominates", N * d + m <= mid_top))
    binom_mid = comb(mid_top, n * n)
    steps.append(("binomial_monotone", binom_hyp <= binom_mid))
    # C(a, b) <= (e*a/b)**b, evaluated with the rational upper bound for e
    stirling = (e_up * mid_top / (n * n)) ** (n * n)
    steps.append(("binomial_vs_power", binom_mid <= stirling))
    clean_power = Fraction(1 << (n + 1), n) ** (n * n)
    steps.append(("power_simplifies", stirling < clean_power))
    # log2(3r) + N*log2(c*(e*N)**d)
    #   = log2(3) + n**3 + (n-1)*2**(n-1)*(log2(e) + n - 1)
    # log2(3) <= bitlength(3) = 2, log2(e) <= the certified bound <= 2
    log_bits = 2 + n**3 + (n - 1) * N * (log2e_up + (n - 1))
    log_bits_int = 2 + n**3 + (n - 1) * N * (n + 1)
    steps.append(("log_term_integer_bound", log_bits <= log_bits_int))
    log_cap = n * n << (n - 1)
    steps.append(("log_term_cap", log_bits_int < log_cap))
    product = clean_power * log_cap
    steps.append(("product_below_r", product < r))
    lhs = binom_hyp * log_bits
    steps.append(("hypothesis_certified", lhs < r))
    verdict = all(ok for _, ok in steps)

    # Context numbers, not part of the verdict: the total pattern bound
    # 2**n * r over all twists, and interval bounds for the doubly
    # logarithmic growth exponent n - (3/2)*log2(n) via bit lengths.
    bl = n.bit_length()
    knuth_lo = Fraction(n) - Fraction(3, 2) * bl
    knuth_hi = Fraction(n) - Fraction(3, 2) * (bl - 1)
    context = {
        "total_patterns_bound": str((1 << n) * r),
        "knuth_exponent_bounds": [str(knuth_lo), str(knuth_hi)],
        "e_upper": str(e_up),
        "log2e_upper": str(log2e_up),
    }
    return BoundCheck(n, c, d, N, m, r, lhs, verdict, tuple(steps), context)


# ---------------------------------------------------------------------------
# realizable zero-pattern demo


@dataclass(frozen=True)
class RealizableSetsDemo:
    """Exhaustive zero patterns of the principal Pfaffians over a small field."""

    n: int
    field: str
    count: int
    bound: int
    within_bound: bool
    all_orthogonal: bool
    supports: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "field": self.field,
            "count": self.count,
            "bound": str(self.bound),
            "within_bound": self.within_bound,
            "all_orthogonal": self.all_orthogonal,
            "supports": [
                [list(mask_elements(m)) for m in support] for support in self.supports
            ],
        }


def realizable_sets_demo(n: int, field: str = "gf2") -> RealizableSetsDemo:
    """Realized zero patterns of the n x n principal Pfaffians over GF(2).

    Every assignment of the m = n(n-1)/2 matrix variables realizes the
    pattern of subsets with nonvanishing Pfaffian. The distinct patterns
    are counted against the cap r = 2**(n**3) from the bound chain, and
    each pattern is checked to satisfy symmetric exchange.
    """
    if field != "gf2":
        raise InputError("the zero-pattern demo runs over gf2")
    if n > DEMO_MAX_N:
        raise CapabilityError(f"the zero-pattern demo is capped at n = {DEMO_MAX_N}")
    ground = GroundSet(n)
    raw = _achievable_supports(n, "gf2")
    supports = tuple(sorted((tuple(sorted(s)) for s in raw)))
    all_orth = all(
        is_orthogonal(BasisFamily(ground, frozenset(s))).ok for s in supports
    )
    bound = 1 << n**3
    return RealizableSetsDemo(
        n=n,
        field=field,
        count=len(supports),
        bound=bound,
        within_bound=len(supports) <= bound,
        all_orthogonal=all_orth,
        supports=supports,
    )
