"""Rank-r coordinate vectors and their quadratic exchange relations.

A vector assigns a partial-field element p_J to every r-subset J of {1..n},
not all zero, kept in a canonical projective scaling. The full relation
family runs over all pairs (S, T) with |S| = r+1 and |T| = r-1:

    sum over x in S of  sign(x; S, T) * p_{S - x} * p_{T + x}  =  0

where terms with x already in T vanish. The short family keeps only the
pairs with |S - T| = 3, whose surviving three signs alternate. A vector is
Strong when the full family vanishes, Weak when the short family vanishes
and the support is a matroid, and Neither otherwise. Strong and Weak agree
for vectors over a partial field; the checkers still compute both routes
independently so that equivalence stays testable.

A term p_{S-x} * p_{T+x} is nonzero only when both of its indices are in
the support, so S and T are then both one element away from a support
member. Both checks therefore take only the (r+1)-sets N_S and (r-1)-sets
N_T of that one-step neighbourhood, in the same colex order as the whole
family: every skipped pair has only zero terms, so verdicts and the first
failing pair are those over all C(n, r+1) * C(n, r-1) pairs.

Both families are bilinear: the relation for (S, T) is the dot product
u_S . w_T of two rows on the coordinates x in 1..n, an entry of U W^T. A
row u_S is dirty when it is not orthogonal to the span of the w_T, and a
relation is nonzero only when its u_S is dirty. The full family vanishes
exactly when no u_S is dirty, and sweeping the first dirty row gives the
first failing T. The short check sweeps the rows of dirty S only, so it
evaluates no pair when the full family vanishes. Either way the witness
and its value are the pair sweep's. Either check is refused before it
starts when its family has more than SWEEP_BUDGET pairs in N_S x N_T, so
refusals do not depend on the method.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from math import comb, gcd, lcm
from operator import mul
from typing import Callable, Iterator, Mapping

from .errors import ClassificationError, InputError, MembershipError, RankError
from .exactalg import Matrix, PartialField, PrimeField, _field_rows, _reduce
from .groundset import (  # SWEEP_BUDGET stays importable from here, next to the sweeps
    SWEEP_BUDGET,
    GroundSet,
    SubsetMask,
    mask_elements,
    masks_of_size,
    within_budget,
)
from .matroid import BasisFamily, is_matroid
from .verdicts import AxiomVerdict, Label


@lru_cache(maxsize=None)
def _index_of(n: int, r: int) -> dict[int, int]:
    return {m: i for i, m in enumerate(masks_of_size(n, r))}


def _canonical_coords(pf: PartialField, masks, coords) -> tuple:
    """Validate coordinates listed in the order of ``masks`` and scale them.

    There must be one coordinate per mask. Each value is coerced into the
    ring and must lie in the partial field (MembershipError names the first
    subset that does not). The vector is then scaled so its first nonzero
    coordinate is 1. Over the regular partial field that coordinate is
    already +1 or -1, its own inverse.
    """
    if len(coords) != len(masks):
        raise InputError(f"expected {len(masks)} coordinates, got {len(coords)}")
    ring = pf.ring
    coords = [ring.coerce(v) for v in coords]
    for mask, v in zip(masks, coords):
        if not pf.is_element(v):
            key = ",".join(map(str, mask_elements(mask)))
            raise MembershipError(
                f"coordinate {key!r} has value {ring.fmt(v)} outside the partial field"
            )
    first = next((v for v in coords if not ring.is_zero(v)), None)
    if first is None:
        raise InputError("all coordinates are zero")
    lam = ring.inv(first)
    if lam == ring.one:
        return tuple(coords)
    return tuple(ring.mul(lam, v) for v in coords)


class _CoordinateVector:
    """What PluckerVector and WickVector share: ``coords`` listed in the order of ``masks()``."""

    def masks(self):
        raise NotImplementedError

    def support_masks(self) -> tuple[int, ...]:
        ring = self.pf.ring
        return tuple(m for m, v in zip(self.masks(), self.coords) if not ring.is_zero(v))


def _neighbourhood(p: _CoordinateVector) -> list[int]:
    """Masks one element away from some support member, in colex order.

    A relation term multiplies two coordinates, each indexed one element
    away from one of the pair's sets, so a pair with a set outside this
    list has only zero terms.
    """
    bits = [1 << i for i in range(p.ground.n)]
    return sorted({u ^ b for u in p.support_masks() for b in bits})


@dataclass(frozen=True)
class PluckerVector(_CoordinateVector):
    """Projective point indexed by the r-subsets of {1..n} in colex order.

    Constructed values are validated against the partial field and rescaled
    so the first nonzero coordinate is 1 (fields) or +1 (regular partial
    field), making equality of vectors projective equality.
    """

    ground: GroundSet
    r: int
    pf: PartialField
    coords: tuple

    def __post_init__(self) -> None:
        n = self.ground.n
        if not 0 <= self.r <= n:
            raise InputError(f"rank {self.r} is outside 0..{n}")
        object.__setattr__(self, "coords", _canonical_coords(self.pf, self.masks(), self.coords))

    @classmethod
    def from_coords(
        cls, ground: GroundSet, r: int, pf: PartialField, coords: Mapping[int, object] | list
    ) -> "PluckerVector":
        """Build from a dense sequence or a sparse {mask: value} mapping."""
        subsets = masks_of_size(ground.n, r)
        if isinstance(coords, Mapping):
            ring = pf.ring
            dense = [coords.get(m, ring.zero) for m in subsets]
            extra = set(coords) - set(subsets)
            if extra:
                raise InputError(f"coordinate mask {min(extra)!r} is not an {r}-subset")
        else:
            dense = list(coords)
        return cls(ground, r, pf, tuple(dense))

    def masks(self) -> tuple[int, ...]:
        return masks_of_size(self.ground.n, self.r)

    def coord(self, j: SubsetMask):
        if j.ground.n != self.ground.n:
            raise InputError("subset from a different ground set")
        idx = _index_of(self.ground.n, self.r).get(j.bits)
        if idx is None:
            raise InputError(f"{j!r} is not an {self.r}-subset")
        return self.coords[idx]


@dataclass(frozen=True, slots=True)
class GPVerdict:
    """Result of sweeping a family of exchange relations.

    On failure (S, T) is the first offending pair, ordered by colex S then
    colex T, and ``value`` the nonzero residual.
    """

    ok: bool
    s: SubsetMask | None = None
    t: SubsetMask | None = None
    value: object = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, slots=True)
class PluckerClassification:
    label: Label
    full: GPVerdict
    short: GPVerdict
    support: AxiomVerdict


def plucker_support(p: PluckerVector) -> BasisFamily:
    """Subsets with nonzero coordinate, as a basis family."""
    return BasisFamily(p.ground, frozenset(p.support_masks()))


def plucker_from_matrix(a: Matrix, pf: PartialField) -> PluckerVector:
    """Maximal minors of a full-row-rank r x n matrix, column labels 1..n.

    One row reduction over the ring's field of fractions gives the first
    pivot basis P, p_P = det(A_P) and E = A_P^-1 A. Every other r-set S
    then follows from sets one step nearer P by one column exchange: with
    j the lowest element of S - P,

        p_S = sum over i in P - S of  (-1)**k * E[row of i][j] * p_{S - j + i}

    where k counts the elements of S - j strictly between i and j. That is
    at most C(n, r) * min(r, n - r) exchange steps, refused above
    SWEEP_BUDGET. Raises RankError when every minor vanishes and
    MembershipError when a minor falls outside the partial field.
    """
    if a.ring != pf.ring:
        raise InputError(f"matrix ring {a.ring!r} does not match partial field {pf!r}")
    r, n = a.rows, a.cols
    if r > n:
        raise RankError(f"a {r}x{n} matrix cannot have row rank {r}")
    ground = GroundSet(n)
    within_budget(comb(n, r) * min(r, n - r), "minor table", "exchange steps")
    field, rows = _field_rows(a)  # integer minors are whole Fractions, coerced back by PluckerVector
    pivots, det = _reduce(field, rows)
    if len(pivots) < r:
        raise RankError(f"matrix has row rank below {r}; every maximal minor vanishes")
    base = sum(1 << c for c in pivots)
    row_of = {1 << c: row for c, row in zip(pivots, rows)}
    minors = {base: det}
    for s in sorted(masks_of_size(n, r), key=lambda m: (m & ~base).bit_count()):
        if s == base:
            continue
        rest = s & ~base
        jb = rest & -rest
        j = jb.bit_length() - 1
        acc = field.zero
        missing = base & ~s
        while missing:
            ib = missing & -missing
            missing ^= ib
            e, v = row_of[ib][j], minors[s ^ jb | ib]
            if e and v:  # zero is falsy in every ring
                term = field.mul(e, v)
                lo, hi = min(ib, jb), max(ib, jb)
                between = s & (hi - 1) & ~(2 * lo - 1)
                acc = field.sub(acc, term) if between.bit_count() & 1 else field.add(acc, term)
        minors[s] = acc
    return PluckerVector(ground, r, pf, tuple(minors[s] for s in masks_of_size(n, r)))


def _relation_value(p: PluckerVector, s_mask: int, t_mask: int):
    ring = p.pf.ring
    idx = _index_of(p.ground.n, p.r)
    coords = p.coords
    acc = ring.zero
    m = s_mask
    while m:
        b = m & -m
        m ^= b
        if t_mask & b:
            continue  # T + x collapses to a set of size r-1, the term is zero
        x = b.bit_length()  # element label
        v1 = coords[idx[s_mask ^ b]]
        if ring.is_zero(v1):
            continue
        v2 = coords[idx[t_mask | b]]
        if ring.is_zero(v2):
            continue
        term = ring.mul(v1, v2)
        parity = (s_mask >> x).bit_count() + (t_mask >> x).bit_count()
        acc = ring.sub(acc, term) if parity & 1 else ring.add(acc, term)
    return acc


def _dirty_test(ring, rows) -> Callable[[list], bool]:
    """A test for whether a row is dirty: not orthogonal to the span of ``rows``.

    Rows are equal-length lists of ring values; over QQ and ZZ each is scaled
    to integers, which keeps span and orthogonality, so no Fraction is made.
    The echelon basis that decides the test is grown from ``rows``, read
    once, only while a tested row is orthogonal to all of it: a dirty row
    met early costs a few rows, a clean one completes the basis.
    """
    p = ring.p if isinstance(ring, PrimeField) else None
    pivots, basis = [], []  # basis[i] is 0 at pivots[:i] and not at pivots[i]

    def whole(row: list) -> list:
        if p:
            return row
        scale = lcm(*(x.denominator for x in row))
        return [x.numerator * (scale // x.denominator) for x in row]

    def grow():  # the basis rows still to come, each appended to ``basis`` when found
        for w in map(whole, rows):
            for k, b in zip(pivots, basis):
                c, f = b[k], w[k]
                if f:
                    w = [c * x - f * y for x, y in zip(w, b)]
            if p:
                w = [x % p for x in w]
            else:
                g = gcd(*w) or 1
                w = [x // g for x in w]
            if any(w):
                pivots.append(next(k for k, x in enumerate(w) if x))
                basis.append(w)
                yield w

    growth = grow()

    def dirty(u: list) -> bool:
        u = whole(u)
        if not any(u):
            return False
        dots = (sum(map(mul, u, b)) for b in chain(basis, growth))
        return any(d % p for d in dots) if p else any(dots)

    return dirty


def _signed_row(ring, coords, idx, n: int, mask: int, elems: int) -> list:
    """x -> (-1)**|mask above x| * p_{mask delta x} for the elements x in ``elems``, else 0."""
    row = [0] * n
    while elems:
        b = elems & -elems
        elems ^= b
        x = b.bit_length()  # element label
        v = coords[idx[mask ^ b]]
        row[x - 1] = ring.neg(v) if (mask >> x).bit_count() & 1 else v
    return row


def _first_failure(p: _CoordinateVector, pairs, value, verdict=GPVerdict):
    """The first of ``pairs`` (a, b) with a nonzero ``value(a, b)``, as a failing ``verdict``."""
    ring = p.pf.ring
    for a, b in pairs:
        val = value(a, b)
        if not ring.is_zero(val):
            return verdict(False, SubsetMask(p.ground, a), SubsetMask(p.ground, b), val)
    return verdict(True)


def _gp_rows(p: PluckerVector, family: str) -> tuple[list[int], list[int], Iterator, Iterator]:
    """The (r+1)-sets and (r-1)-sets of N, once their pairs fit the budget, and lazy rows."""
    near = _neighbourhood(p)
    s_masks = [m for m in near if m.bit_count() == p.r + 1]
    t_masks = [m for m in near if m.bit_count() == p.r - 1]
    within_budget(len(s_masks) * len(t_masks), family)
    ring, coords, n = p.pf.ring, p.coords, p.ground.n
    idx = _index_of(n, p.r)
    everything = (1 << n) - 1
    u_rows = (_signed_row(ring, coords, idx, n, s, s) for s in s_masks)
    w_rows = (_signed_row(ring, coords, idx, n, t, everything ^ t) for t in t_masks)
    return s_masks, t_masks, u_rows, w_rows


def check_gp_full(p: PluckerVector) -> GPVerdict:
    """Decide all C(n, r+1) * C(n, r-1) relation instances by the rank certificate.

    u_S(x) = sign * p_{S - x} for x in S and w_T(x) = sign * p_{T + x} for
    x outside T, each sign being -1 to the number of the set's elements
    above x.
    """
    s_masks, t_masks, u_rows, w_rows = _gp_rows(p, "full GP sweep")
    dirty = _dirty_test(p.pf.ring, w_rows)
    s = next((s for s, u in zip(s_masks, u_rows) if dirty(u)), None)
    if s is None:
        return GPVerdict(True)
    verdict = _first_failure(p, ((s, t) for t in t_masks), partial(_relation_value, p))
    assert not verdict.ok, "the certificate's row holds no failing pair"
    return verdict


def check_gp_3term(p: PluckerVector) -> GPVerdict:
    """Sweep the instances with |S - T| = 3 (three surviving terms) whose u_S is dirty."""
    s_masks, t_masks, u_rows, w_rows = _gp_rows(p, "3-term GP sweep")
    dirty = _dirty_test(p.pf.ring, w_rows)
    pairs = (
        (s, t)
        for s, u in zip(s_masks, u_rows)
        if dirty(u)
        for t in t_masks
        if (s & ~t).bit_count() == 3
    )
    return _first_failure(p, pairs, partial(_relation_value, p))


def classify_plucker(p: PluckerVector) -> PluckerClassification:
    """Strongest satisfied label plus the evidence for each route."""
    return _classify(
        PluckerClassification, check_gp_full(p), check_gp_3term(p), is_matroid(plucker_support(p))
    )


def _classify(cls, full, short, support):
    """Strong if the full family vanishes, Weak if the short one does on an axiom-sound support."""
    if full.ok:
        label = Label.STRONG
    elif short.ok and support.ok:
        label = Label.WEAK
    else:
        label = Label.NEITHER
    return cls(label, full, short, support)


def reconstruct_plucker(p: PluckerVector) -> Matrix:
    """Rebuild an r x n matrix whose maximal minors reproduce p projectively.

    Requires the weak gate (short relations plus matroid support). The
    colex-least support member B becomes the identity block; canonical
    scaling has already made p_B = 1, so column j outside B gets entries
    read off the near-basis coordinates p_{B - b_i + j} with the
    row/position sign that makes the corresponding minor come out right.
    """
    support = is_matroid(plucker_support(p))
    short = check_gp_3term(p)
    if not (short.ok and support.ok):
        raise ClassificationError(
            "vector is not Weak (short relations or matroid support fail); cannot reconstruct"
        )
    ring = p.pf.ring
    n, r = p.ground.n, p.r
    idx = _index_of(n, r)
    b_mask = min(p.support_masks())  # the first nonzero coordinate, which scaling made 1
    b_elems = SubsetMask(p.ground, b_mask).elements()
    grid = [[ring.zero] * n for _ in range(r)]
    for i, be in enumerate(b_elems):
        grid[i][be - 1] = ring.one
    for j in range(1, n + 1):
        jbit = 1 << (j - 1)
        if b_mask & jbit:
            continue
        for i, be in enumerate(b_elems, start=1):
            j_mask = (b_mask ^ (1 << (be - 1))) | jbit
            q = p.coords[idx[j_mask]]
            if ring.is_zero(q):
                continue
            pos = (j_mask & ((1 << j) - 1)).bit_count()  # 1-based position of j in J
            grid[i - 1][j - 1] = q if (i + pos) % 2 == 0 else ring.neg(q)
    return Matrix(ring, r, n, tuple(v for row in grid for v in row))
