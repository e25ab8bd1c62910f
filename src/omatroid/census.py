"""Desk-scale censuses and certified counting bounds.

Three kinds of work live here:

* exhaustive enumeration of labeled orthogonal matroids on small ground
  sets. A candidate family is a bitmap over the subsets of one parity
  (families mixing parities never pass), and one bitset sweep, sized in
  word operations against SWEEP_BUDGET, decides symmetric exchange for
  every bitmap of a parity class at once; ``enumerate_orthogonal`` and the
  census both read it. An orthogonal family is counted as a matroid
  exactly when its members share one size, since symmetric exchange on
  such a family is basis exchange; no separate matroid check is run;
* representability over GF(2), GF(3), and the regular partial field, from one
  search: every skew matrix with entries among the field's values whose whole
  Pfaffian table stays among them, walked along a Gray code one table update
  per set, keeping the least product-order index for each support S. A family
  F is representable exactly when F Δ t is a support for its least member t,
  since twisting a support by a member is a principal pivot. The search is
  sized in table updates against SWEEP_BUDGET. Census records are JSON lines
  assembled from text fragments a run of candidates at a time, and a resumed
  file is compared with them byte for byte. The report's counts depend on
  (n, field) alone: sums over the cached flags of the orthogonal candidates;
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

import os
import time
from bisect import bisect_left
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb

from .errors import InputError
from .exactalg import GF, SkewMatrix, ZZ
from .groundset import GroundSet, SubsetMask, mask_elements, record, within_budget
from .matroid import BasisFamily

#: Candidates per census chunk: one progress line and one file write each.
CENSUS_CHUNK = 4096

#: Each finite partial field the support search covers: its ring and the entry values.
SEARCH_FIELDS = {"gf2": (GF(2), range(2)), "gf3": (GF(3), range(3)), "regular": (ZZ, (0, 1, -1))}

#: The fields a representability census runs over.
CENSUS_FIELDS = ("gf2", "gf3")

#: Certified upper bounds: e <= 2.71828183 and log2(e) <= 1.4426951.
E_UPPER_DEFAULT = Fraction(271828183, 10**8)
LOG2E_UPPER_DEFAULT = Fraction(14426951, 10**7)

ASYMPTOTIC_GAP_NOTE = (
    "asymptotic claims are not reproducible at desk scale; this report certifies "
    "the enumerated instances and the exact bound chain only"
)
LABELED_COUNT_NOTE = (
    "counts are of labeled families on {1..n}; a family passing symmetric exchange is "
    "counted as a matroid exactly when its members share one size, where symmetric "
    "exchange is basis exchange; no isomorphism classes or external tables are inferred"
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
    once, in operations on 2**k-bit integers: at most n + 2 per (T, B) and
    3n per T for its near, miss and touched lists. Both classes' sweeps, the
    whole enumeration, are sized from n alone in 64-bit words against
    SWEEP_BUDGET before any subset table is built. The tests hold it to the
    pair-by-pair exchange search in ``tests/oracles.py`` and to
    ``matroid.is_orthogonal``.
    """
    k = 1 << n >> 1  # the subsets of each parity, for n >= 1; 2**k bits are 2**(k - 6) words
    within_budget(2 * k * (k * (n + 2) + 3 * n) << max(k - 6, 0), "orthogonal enumeration", "word operations")
    subsets, others = _parity_subsets(n, parity), _parity_subsets(n, 1 - parity)
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
    for t in others:
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
    return frozenset(f - 1 for f in accumulate(len(zeros) + 1 for zeros in bin(good)[:1:-1].split("1")[:-1]))


@lru_cache(maxsize=None)
def enumerate_orthogonal(n: int) -> tuple[BasisFamily, ...]:
    """Every labeled orthogonal matroid on {1..n}, even families first.

    Families mixing parities never pass symmetric exchange, so each parity
    class is swept on its own, and the families come out in candidate order.
    """
    ground = GroundSet(n)
    return tuple(
        BasisFamily(ground, frozenset(_members(n, par, bits)))
        for par in (0, 1)
        for bits in sorted(_orthogonal_bitmaps(n, par))
    )


# ---------------------------------------------------------------------------
# achievable Pfaffian supports


def _gray_steps(q: int, m: int) -> list[tuple[int, int]]:
    """The reflected q-ary Gray code on m digits, digit 0 fastest, as (digit, +1 or -1) moves from
    0...0: between moves of digit k the lower digits run forward and back in turn (TAOCP 7.2.1.1)."""
    steps: list[tuple[int, int]] = []
    for k in range(m):
        back = [(j, -d) for j, d in reversed(steps)]
        steps = steps + [s for r in range(1, q) for s in [(k, 1)] + (back if r & 1 else steps)]
    return steps


def _search_matrix(n: int, field: str, index: int) -> SkewMatrix:
    """Matrix sum(d_k * q**k) of the support search: upper entry k, row by row, is values[d_k]."""
    ring, values = SEARCH_FIELDS[field]
    q = len(values)
    return SkewMatrix.from_upper(ring, n, [values[index // q**k % q] for k in range(n * (n - 1) // 2)])


@lru_cache(maxsize=None)
def _achievable_supports(n: int, field: str) -> dict[int, int]:
    """Each Pfaffian support over a finite partial field, with the least index of a matrix having it.

    A support is a bitmap over the 2**n subsets, bit J set when Pf(A_J) != 0. A
    matrix counts only when its whole principal-Pfaffian table stays among the
    field's values in SEARCH_FIELDS: always over GF(p), and over {0, +1, -1}
    exactly the valid vectors of the regular partial field. A Gray step moves
    one upper entry a_ij by delta. Pf(A_J) is linear in a_ij with coefficient
    e * Pf(A_(J-i-j)), e = (-1)**|J ∩ (i, j)|, so the step adds e * delta *
    T[J-i-j] to the 2**(n-2) entries T[J], J ⊇ {i, j}. Over GF(2) the table
    is its own support, one 2**n-bit integer. Refused above SWEEP_BUDGET.
    """
    ring, values = SEARCH_FIELDS[field]
    q, pairs = len(values), [(i, j) for i in range(n) for j in range(i + 1, n)]
    within_budget(q ** len(pairs) << n >> 2, f"{field} support search", "table updates")
    updates = [[(s | 1 << i | 1 << j, s, (-1) ** (s & (1 << j) - (2 << i)).bit_count())  # (J, J-i-j, e)
                for s in range(1 << n) if not s & (1 << i | 1 << j)] for i, j in pairs]
    lack = [sum(1 << s for _, s, _ in u) for u in updates]  # over GF(2), J = (J-i-j) << shift
    shift = [(1 << i) + (1 << j) for i, j in pairs]
    p, allowed = ring.p, frozenset(values)
    table, digits, support, outside = [1] + [0] * ((1 << n) - 1), [0] * len(pairs), 1, 0
    index, found = 0, {1: 0}  # the zero matrix: Pf of the empty set is 1, of every other set 0
    for k, d in _gray_steps(q, len(pairs)):
        index += d * q**k
        if q == 2:
            support ^= (support & lack[k]) << shift[k]
        else:
            delta = values[digits[k] + d] - values[digits[k]]
            digits[k] += d
            for big, small, e in updates[k]:
                old, new = table[big], table[big] + e * delta * table[small]
                table[big] = new = new % p if p else new
                if (old == 0) != (new == 0):
                    support ^= 1 << big
                outside += (new not in allowed) - (old not in allowed)
        if not outside and found.setdefault(support, index) > index:
            found[support] = index
    return found


@lru_cache(maxsize=None)
def _keep(n: int) -> tuple[int, ...]:
    """keep[x]: the bitmap over the 2**n subsets of those that lack x."""
    return tuple(sum(1 << s for s in range(1 << n) if not s >> x & 1) for x in range(n))


def _twist_by_least(v: int, keep: tuple[int, ...]) -> int:
    """F Δ t for the bitmap v of a family F over all 2**n subsets, t = min F its lowest set bit.

    Twisting by x swaps each block of 2**x bits whose subsets lack x with the block
    above it. F is representable when F Δ t' is the support of some A; Pf(A_∅) = 1
    makes t' a member, so u = t Δ t' is in it. The principal pivot A*u is skew with
    Pf((A*u)_J) = ±Pf(A_(J Δ u)) / Pf(A_u) (Tucker: det (A*u)_J = det A_(J Δ u) / det A_u,
    and det = Pf**2 on skew matrices; Bouchet 1988, Baker-Jin arXiv:2208.03256), so its
    support is F Δ t. Over {0, ±1}, Pf(A_u) = ±1 keeps A*u's whole table, its entries
    among it, in {0, ±1}: the search meets A*u over every field it covers.
    """
    t = (v & -v).bit_length() - 1
    while t > 0:  # t is -1 only for v = 0, the empty family, whose twists are all empty
        x = (t & -t).bit_length() - 1
        v = (v >> (1 << x) & keep[x]) | (v & keep[x]) << (1 << x)
        t &= t - 1
    return v


def find_regular_representation(f: BasisFamily) -> "WickRepresentation | None":
    """A representation of f over the regular partial field twisted by f's least member, or None."""
    from .wick import WickRepresentation  # here: a census process loads no sweep module
    n = f.ground.n
    index = _achievable_supports(n, "regular").get(_twist_by_least(sum(1 << b for b in f.masks), _keep(n)))
    if index is None:
        return None
    return WickRepresentation(_search_matrix(n, "regular", index), SubsetMask(f.ground, min(f.masks)))


# ---------------------------------------------------------------------------
# representability census


@record
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
        counts = dict(self.representable_counts)
        return _json_fields(self, representable_counts=counts, notes=list(self.notes))


def _json_fields(rec, **converted) -> dict:
    """A record's fields by name, in their order, with ``converted`` in place of some."""
    return dict({name: getattr(rec, name) for name in rec.__slots__}, **converted)


# A census record is one JSON line with sorted keys and no spaces:
#   {"bases":[[],[1,2]],"orthogonal":false}
#   {"bases":[[],[1,2]],"matroid":true,"orthogonal":true,"representable":{"gf2":true}}
# It is assembled from text fragments: a prefix holding the low members, the
# high members, then one of five endings, keyed here by the record's
# (orthogonal, matroid, representable).

_PLAIN = (False, False, False)


def _record_endings(field: str) -> dict[tuple[bool, bool, bool], bytes]:
    word = ("false", "true")
    out = {_PLAIN: b'],"orthogonal":false}\n'}
    for m in (False, True):
        for r in (False, True):
            out[True, m, r] = (
                f'],"matroid":{word[m]},"orthogonal":true,"representable":{{"{field}":{word[r]}}}}}\n'
            ).encode()
    return out


def _doubled(items: list, empty) -> list:
    """The sum of the items picked by each bitmask b, in item order, doubling the table once per
    item: entry b | 2**i, for b < 2**i, is entry b + items[i]."""
    table = [empty]
    for x in items:
        table += [t + x for t in table]
    return table


@lru_cache(maxsize=None)
def _class_tables(n: int, parity: int) -> tuple:
    """Tables over the halves lo = F & (2**h - 1) and hi = F >> h of the class bitmaps F.

    The record line of F is pre[lo] + high[hi] + ending, pre being ``plain``
    when hi == 0 and otherwise ``joined``, which adds a comma after any low
    member. Each table has at most 2**ceil(k/2) entries.
    """
    subsets = _parity_subsets(n, parity)
    h = len(subsets) // 2
    frags = [(",[" + ",".join(map(str, mask_elements(s))) + "]").encode() for s in subsets]
    low, high = ([t[1:] for t in _doubled(half, b"")] for half in (frags[:h], frags[h:]))  # no first comma
    plain = [b'{"bases":[' + lo for lo in low]
    joined = [pre + b"," if lo else pre for pre, lo in zip(plain, low)]
    return h, plain, joined, high


@lru_cache(maxsize=None)
def _orthogonal_flags(n: int, field: str, parity: int) -> tuple[tuple[int, ...], tuple]:
    """The sorted orthogonal bitmaps of a parity class and the flags of each.

    Symmetric exchange on a family of one member size is basis exchange, and
    a matroid's bases share one size, so an orthogonal candidate is a matroid
    exactly when its bitmap lies inside the bitmap of its least member's size.
    For each index i of a least member t, two tables over the halves of the
    class bitmap give F Δ t over all 2**n subsets, bit s ^ t for each member s.
    """
    bitmaps = tuple(sorted(_orthogonal_bitmaps(n, parity)))  # first: its refusal builds no table
    subsets = _parity_subsets(n, parity)
    h, supports, flags = len(subsets) // 2, _achievable_supports(n, field), []
    sizes = [sum(1 << i for i, s in enumerate(subsets) if s.bit_count() == k) for k in range(n + 1)]
    halves = subsets[:h], subsets[h:]
    tables = [(*(_doubled([1 << (s ^ t) for s in half], 0) for half in halves), ~sizes[t.bit_count()])
              for t in subsets]  # by the index of t: F Δ t from each half, and the members of other sizes
    for f in bitmaps:
        low, high, other = tables[(f & -f).bit_length() - 1]
        flags.append((True, not f & other, low[f & (1 << h) - 1] | high[f >> h] in supports))
    return bitmaps, tuple(flags)


def _census_chunk(n: int, field: str, start: int, stop: int) -> list[bytes]:
    """The record lines of candidates start .. stop - 1, as pieces to be written in turn.

    Within a parity class the bitmaps sharing a high half form a run, and the
    lines of the run's non-orthogonal bitmaps differ only in their prefix, so
    each run is one bytes.join over the prefix table. The line of an
    orthogonal bitmap, found by bisection, is joined to the next prefix, so
    that the next separator ends the line after it.
    """
    endings = _record_endings(field)
    pieces, offset = [], 0
    for parity in (0, 1):
        count = _class_total(n, parity)
        first, last = max(start - offset, 0) + 1, min(stop - offset, count) + 1  # bitmaps [first, last)
        offset += count
        if first >= last:
            continue
        bitmaps, flags = _orthogonal_flags(n, field, parity)
        h, plain, joined, high = _class_tables(n, parity)
        i = bisect_left(bitmaps, first)
        for hi in range(first >> h, (last - 1 >> h) + 1):
            base = hi << h
            a, b = max(first, base), min(last, base + (1 << h))
            j = bisect_left(bitmaps, b, i)
            suffix = tail = high[hi] + endings[_PLAIN]
            items = (joined if hi else plain)[a - base : b - base]
            for k in range(j - 1, i - 1, -1):  # from the last, so the places of the others stay
                at = bitmaps[k] - a
                line = items[at] + high[hi] + endings[flags[k]]
                if at + 1 < len(items):
                    items[at : at + 2] = [line + items[at + 1]]
                else:
                    items[at], tail = line, b""
            pieces += [suffix.join(items), tail]
            i = j
    return pieces


def _resume(path: str, n: int, field: str, total: int) -> int:
    """Check the records already in ``path`` and return how many to keep.

    The file must hold exactly the text this census writes, compared byte
    for byte one CENSUS_CHUNK of records at a time, so a file from another n,
    another field or with another verdict is refused with InputError and
    left as it is. A last line without its newline is cut off the file, to
    be computed again.
    """
    done = size = 0
    with open(path, "rb") as fh:
        for done in range(0, total, CENSUS_CHUNK):
            want = b"".join(_census_chunk(n, field, done, min(done + CENSUS_CHUNK, total)))
            got = fh.read(len(want))
            if got != want:
                break
            size += len(got)
        else:
            done, got, want = total, fh.readline(), b""
            if got.endswith(b"\n"):
                raise InputError(f"{path} holds more than the {total} records of the n = {n} census")
        # the first line of got that is not its record is refused if complete and cut if torn
        have, want = got.split(b"\n"), want.split(b"\n")
        k = 0
        while k < len(have) - 1 and have[k] == want[k]:
            k += 1
        done, size = done + k, size + sum(map(len, have[:k])) + k
        if k < len(have) - 1 or have[k] and (have[k] + fh.readline()).endswith(b"\n"):
            raise InputError(f"{path} line {done + 1} is not record {done} of the n = {n} {field} census")
    if size < os.path.getsize(path):
        os.truncate(path, size)
    return done


@contextmanager
def _census_file(path: str | None):
    """Refuse an OSError of the census file's resume, open, writes or close as InputError."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot use {path} as the census file: {exc}") from exc


def _open_unwaited(path: str, flags: int) -> int:
    """The census file's opener: O_NONBLOCK refuses a FIFO with no reader at once (ENXIO) instead
    of waiting for one, and blocking again, a write to a slow reader waits instead of failing."""
    fd = os.open(path, flags | os.O_NONBLOCK, 0o666)
    os.set_blocking(fd, True)
    return fd


def representability_census(n: int, field: str = "gf2", out_path: str | None = None,
                            progress=None) -> CensusReport:
    """Sweep every candidate family on {1..n} and mark the representable ones.

    Writes one JSON line per candidate family to ``out_path`` when given.
    An existing regular file resumes after its last complete record: every
    record in it must be exactly the one this census would write there, or
    InputError is raised and the file is left as it is, and a torn last line
    is cut off and computed again. The sweep runs in chunks of CENSUS_CHUNK
    candidates, with one progress line after each.
    """
    if field not in CENSUS_FIELDS:
        raise InputError(f"field must be one of {list(CENSUS_FIELDS)}, got {field!r}")
    GroundSet(n)  # InputError unless a nonnegative integer
    t0 = time.perf_counter()
    # before --out is opened, so a refusal of the enumeration or the support search leaves no file
    flags = [f for parity in (0, 1) for f in _orthogonal_flags(n, field, parity)[1]]
    total = _candidate_total(n)
    with _census_file(out_path):  # only a regular file is read: /dev/full never ends a line
        reused = _resume(out_path, n, field, total) if out_path and os.path.isfile(out_path) else 0
        opened = open(out_path, "ab", opener=_open_unwaited) if out_path else nullcontext()
    sweep_start = time.perf_counter()
    with opened as sink:
        for start in range(reused, total, CENSUS_CHUNK):
            done = min(start + CENSUS_CHUNK, total)
            if sink is not None:
                pieces = _census_chunk(n, field, start, done)
                with _census_file(out_path):
                    sink.writelines(pieces)
            if progress:
                rate = (done - reused) / max(time.perf_counter() - sweep_start, 1e-9)
                progress(
                    f"census n={n} {field}: {done}/{total} families, {reused} reused, "
                    f"{rate:.0f} families/s, ETA {(total - done) / rate:.1f}s"
                )
        if sink is not None:
            with _census_file(out_path):  # the buffered tail is written here, /dev/full refuses it
                sink.close()
    runtime = time.perf_counter() - t0
    orthogonal, matroids, representable = (sum(f[k] for f in flags) for k in range(3))
    return CensusReport(n, field, total, orthogonal, matroids, {field: representable}, round(runtime, 3),
                        (ASYMPTOTIC_GAP_NOTE, LABELED_COUNT_NOTE))


# ---------------------------------------------------------------------------
# certified bound chain


@record
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
        steps = [[name, ok] for name, ok in self.steps]
        return _json_fields(self, r=str(self.r), lhs_upper_bound=str(self.lhs_upper_bound), steps=steps)


def verify_nelson_chain(n: int) -> BoundCheck:
    """Certify the zero-pattern counting chain at one n, 12 <= n <= 24, exactly.

    The polynomial family is the N = 2**(n-1) principal Pfaffians of a
    generic n x n skew matrix: m = n(n-1)/2 variables, degrees at most
    d = n - 1, coefficients c = 1, candidate cap r = 2**(n**3). Every step
    is an exact big-integer or big-rational comparison, with e and log2(e)
    replaced by certified rational upper bounds, so a true verdict is a
    proof that the hypothesis quantity stays below r.
    """
    GroundSet(n)  # InputError unless a nonnegative integer, CapabilityError past MAX_GROUND_SIZE
    if n < 12:
        raise InputError(f"the certified chain needs n >= 12, got {n}")

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
    stirling = (E_UPPER_DEFAULT * mid_top / (n * n)) ** (n * n)
    steps.append(("binomial_vs_power", binom_mid <= stirling))
    clean_power = Fraction(1 << (n + 1), n) ** (n * n)
    steps.append(("power_simplifies", stirling < clean_power))
    # log2(3r) + N*log2(c*(e*N)**d)
    #   = log2(3) + n**3 + (n-1)*2**(n-1)*(log2(e) + n - 1)
    # log2(3) <= bitlength(3) = 2, log2(e) <= the certified bound <= 2
    log_bits = 2 + n**3 + (n - 1) * N * (LOG2E_UPPER_DEFAULT + (n - 1))
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
        "e_upper": str(E_UPPER_DEFAULT),
        "log2e_upper": str(LOG2E_UPPER_DEFAULT),
    }
    return BoundCheck(n, c, d, N, m, r, lhs, verdict, tuple(steps), context)
