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

The short family is swept pair by pair. The full family is bilinear: the
relation for (S, T) is the dot product u_S . w_T of two rows on the
coordinates x in 1..n, so the whole family is the product U W^T, one row
per set of N_S and of N_T. It vanishes exactly when every u_S is orthogonal
to an echelon basis of the w_T, at most n rows computed exactly over the
ring's field of fractions. The first u_S that is not is the first failing
S, and sweeping its row alone gives the first failing T, so the witness and
its value are the pair sweep's. Either check is refused before it starts
when its family has more than SWEEP_BUDGET pairs in N_S x N_T, the
certificate included, so refusals do not depend on the method.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul
from typing import Mapping

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


def _relation_value(p: PluckerVector, s_mask: int, t_mask: int, idx: dict[int, int]):
    ring = p.pf.ring
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


def _first_unorthogonal_row(ring, u_rows, w_rows) -> int | None:
    """Index of the first of ``u_rows`` with a nonzero dot product against some of ``w_rows``.

    Rows are equal-length lists of ring values, and products are taken in
    the ring's field of fractions: GF(p) itself, QQ for QQ and ZZ. The W
    rows are reduced to an echelon basis, which has their span, so a U row
    is orthogonal to every W row exactly when it is orthogonal to each
    basis row. ``u_rows`` is read only up to the row found; None means
    every product vanishes.
    """
    p = ring.p if isinstance(ring, PrimeField) else None
    basis = []  # (pivot, row): row[pivot] == 1, and later rows are 0 at earlier pivots
    for w in w_rows:
        for k, b in basis:
            f = w[k]
            if f:
                if p:
                    w = [(x - f * y) % p for x, y in zip(w, b)]
                else:
                    w = [x - f * y for x, y in zip(w, b)]
        if not any(w):
            continue  # w is in the span of the basis
        k = next(k for k, x in enumerate(w) if x)
        if p:
            inv = pow(w[k], -1, p)
            basis.append((k, [x * inv % p for x in w]))
        else:
            inv = Fraction(1, w[k])
            basis.append((k, [x * inv for x in w]))
        if len(basis) == len(w):
            break  # the W rows span everything, so any nonzero U row is the one
    for index, u in enumerate(u_rows):
        for _, b in basis:
            dot = sum(map(mul, u, b))
            if (dot % p if p else dot):
                return index
    return None


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


def _relation_sets(p: PluckerVector, family: str) -> tuple[list[int], list[int]]:
    """The (r+1)-sets and (r-1)-sets of the neighbourhood, once their pairs fit the budget.

    Degenerate ranks have no sets of one of the sizes, so no pairs.
    """
    near = _neighbourhood(p)
    s_masks = [m for m in near if m.bit_count() == p.r + 1]
    t_masks = [m for m in near if m.bit_count() == p.r - 1]
    within_budget(len(s_masks) * len(t_masks), family)
    return s_masks, t_masks


def _first_failure(p: PluckerVector, pairs) -> GPVerdict:
    ring = p.pf.ring
    idx = _index_of(p.ground.n, p.r)
    for s_mask, t_mask in pairs:
        val = _relation_value(p, s_mask, t_mask, idx)
        if not ring.is_zero(val):
            return GPVerdict(False, SubsetMask(p.ground, s_mask), SubsetMask(p.ground, t_mask), val)
    return GPVerdict(True)


def check_gp_full(p: PluckerVector) -> GPVerdict:
    """Decide all C(n, r+1) * C(n, r-1) relation instances by the rank certificate.

    The relation for (S, T) is the dot product of the rows u_S and w_T, on
    the coordinates x in 1..n, with u_S(x) = sign * p_{S - x} for x in S
    and w_T(x) = sign * p_{T + x} for x outside T, each sign being -1 to
    the number of the set's elements above x. The first S whose row is not
    orthogonal to every w_T is the first failing S, and its T is found by
    sweeping that one row.
    """
    s_masks, t_masks = _relation_sets(p, "full GP sweep")
    ring, coords, n = p.pf.ring, p.coords, p.ground.n
    idx = _index_of(n, p.r)
    everything = (1 << n) - 1
    i = _first_unorthogonal_row(
        ring,
        (_signed_row(ring, coords, idx, n, s, s) for s in s_masks),
        (_signed_row(ring, coords, idx, n, t, everything ^ t) for t in t_masks),
    )
    if i is None:
        return GPVerdict(True)
    verdict = _first_failure(p, ((s_masks[i], t) for t in t_masks))
    assert not verdict.ok, "the certificate's row holds no failing pair"
    return verdict


def check_gp_3term(p: PluckerVector) -> GPVerdict:
    """Sweep only the instances with |S - T| = 3 (three surviving terms) that can be nonzero."""
    s_masks, t_masks = _relation_sets(p, "3-term GP sweep")
    return _first_failure(
        p, ((s, t) for s in s_masks for t in t_masks if (s & ~t).bit_count() == 3)
    )


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
