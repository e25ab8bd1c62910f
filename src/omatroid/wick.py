"""Coordinate vectors indexed by all subsets and their Pfaffian relations.

A vector assigns a partial-field element p_J to every subset J of {1..n},
not all zero. For every unordered pair J1 != J2 with symmetric difference
{i_1 < ... < i_k}, k >= 1, the relation

    sum over j of  (-1)**j * p_{J1 delta i_j} * p_{J2 delta i_j}  =  0

must hold for the vector to be the table of principal Pfaffians of a skew
matrix, up to a twist. Pairs at odd symmetric-difference distance are part
of the family; they are what forces all support members onto one size
parity. The short family keeps only pairs at distance four. A vector is
Strong when the full family vanishes, Weak when the short family vanishes
and the support satisfies symmetric exchange, Neither otherwise.

A term p_{J1 delta i} * p_{J2 delta i} is nonzero only when both of its
indices are in the support, so J1 and J2 both lie in the support's
one-step neighbourhood N = {u delta {i} : u in support, i in 1..n}. Both
checks take only pairs from N, in the same colex order as the whole
family: every skipped pair has only zero terms, so verdicts and the first
failing pair are those over all pairs.

Both families use the rank certificate of plucker.py: on 2n coordinates
(i, a), a in {0, 1}, the relation for (J1, J2) is minus u_J1 . w_J2, so
over N the family is the symmetric product U W^T with a zero diagonal.
By symmetry the first dirty u_J1 has its first failing partner later in
colex order, so the full check sweeps that row alone; the short check
sweeps the rows of dirty J1 only. Either check is refused before it
starts when it has more than SWEEP_BUDGET pairs from N to cover, so
refusals do not depend on the method.

A representation is a skew matrix A plus a twist set T; it induces the
vector p_J = Pf(A restricted to J delta T). Reconstruction inverts this:
twist by the colex-least support member, whose coordinate canonical
scaling has already made 1, and read the matrix entries off the
two-element coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Mapping

from .errors import ClassificationError, InputError, MembershipError
from .exactalg import PartialField, SkewMatrix, all_principal_pfaffians
from .groundset import GroundSet, SubsetMask, masks_of_size, within_budget
from .matroid import BasisFamily, is_orthogonal
from .plucker import (
    _canonical_coords,
    _classify,
    _CoordinateVector,
    _dirty_test,
    _first_failure,
    _neighbourhood,
)
from .verdicts import AxiomVerdict, Label


@dataclass(frozen=True)
class WickVector(_CoordinateVector):
    """Projective point indexed by all 2**n subsets, mask order = colex order.

    Canonical scaling matches PluckerVector: first nonzero coordinate is 1
    over a field, +1 over the regular partial field.
    """

    ground: GroundSet
    pf: PartialField
    coords: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _canonical_coords(self.pf, self.masks(), self.coords))

    @classmethod
    def from_coords(
        cls, ground: GroundSet, pf: PartialField, coords: Mapping[int, object] | list
    ) -> "WickVector":
        if isinstance(coords, Mapping):
            ring = pf.ring
            size = 1 << ground.n
            bad = [m for m in coords if not 0 <= m < size]
            if bad:
                raise InputError(f"coordinate mask {min(bad)!r} does not fit the ground set")
            dense = [coords.get(m, ring.zero) for m in range(size)]
        else:
            dense = list(coords)
        return cls(ground, pf, tuple(dense))

    def masks(self) -> range:
        return range(1 << self.ground.n)

    def coord(self, j: SubsetMask):
        if j.ground.n != self.ground.n:
            raise InputError("subset from a different ground set")
        return self.coords[j.bits]


@dataclass(frozen=True)
class WickRepresentation:
    """A skew matrix plus a twist set over the matrix's index set."""

    matrix: SkewMatrix
    twist: SubsetMask

    def __post_init__(self) -> None:
        if self.twist.ground.n != self.matrix.size:
            raise InputError(
                f"twist ground set size {self.twist.ground.n} does not match matrix size "
                f"{self.matrix.size}"
            )


@dataclass(frozen=True, slots=True)
class WickPairVerdict:
    """Sweep outcome; on failure (j1, j2) is the numerically first bad pair."""

    ok: bool
    j1: SubsetMask | None = None
    j2: SubsetMask | None = None
    value: object = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, slots=True)
class WickClassification:
    label: Label
    full: WickPairVerdict
    short: WickPairVerdict
    support: AxiomVerdict


def wick_support(p: WickVector) -> BasisFamily:
    return BasisFamily(p.ground, frozenset(p.support_masks()))


def wick_from_representation(rep: WickRepresentation, pf: PartialField) -> WickVector:
    """Principal Pfaffians of the matrix, reindexed through the twist.

    Every entry of the matrix and every resulting Pfaffian must be a
    partial-field element; a Pfaffian escaping the unit group raises
    MembershipError from WickVector, naming the offending subset.
    """
    a = rep.matrix
    if a.ring != pf.ring:
        raise InputError(f"matrix ring {a.ring!r} does not match partial field {pf!r}")
    for i in range(a.size):
        for j in range(i + 1, a.size):
            if not pf.is_element(a.entry(i, j)):
                raise MembershipError(
                    f"matrix entry ({i + 1},{j + 1}) = {a.ring.fmt(a.entry(i, j))} "
                    f"is outside the partial field"
                )
    ground = GroundSet(a.size)
    table = all_principal_pfaffians(a)
    tb = rep.twist.bits
    return WickVector(ground, pf, tuple(table[m ^ tb] for m in range(1 << a.size)))


def _pair_value(ring, coords, j1: int, j2: int):
    acc = ring.zero
    pos = 0
    m = j1 ^ j2
    while m:
        b = m & -m
        m ^= b
        pos += 1
        v1 = coords[j1 ^ b]
        if ring.is_zero(v1):
            continue
        v2 = coords[j2 ^ b]
        if ring.is_zero(v2):
            continue
        term = ring.mul(v1, v2)
        acc = ring.sub(acc, term) if pos & 1 else ring.add(acc, term)
    return acc


def _wick_row(ring, coords, n: int, mask: int) -> list:
    """i -> (-1)**|mask below i| * p_{mask delta i}, at slot i + n * [i in mask] of 2n."""
    row = [0] * (2 * n)
    for i in range(n):
        b = 1 << i
        v = coords[mask ^ b]
        if v:
            row[i + n * (mask >> i & 1)] = ring.neg(v) if (mask & (b - 1)).bit_count() & 1 else v
    return row


def _wick_rows(p: WickVector, near: list[int]) -> tuple[Callable, Callable[[list], bool]]:
    """J -> u_J, each row built once, and the test for a row dirty against the w_J of ``near``."""
    n = p.ground.n
    row = cache(partial(_wick_row, p.pf.ring, p.coords, n))
    return row, _dirty_test(p.pf.ring, (u[n:] + u[:n] for u in map(row, near)))


def check_wick_full(p: WickVector) -> WickPairVerdict:
    """Decide every unordered pair {J1, J2}, odd distances included, by the rank certificate.

    u_J = _wick_row(J) and w_J is u_J with its two halves swapped: the
    slots of u_J1 and w_J2 meet exactly at the i in J1 delta J2, and the
    signs multiply to minus the relation's.
    """
    near = _neighbourhood(p)
    within_budget(len(near) * (len(near) - 1) // 2, "full Wick sweep")
    row, dirty = _wick_rows(p, near)
    j1 = next((j for j in near if dirty(row(j))), None)
    if j1 is None:
        return WickPairVerdict(True)
    pairs = ((j1, j2) for j2 in near if j2 > j1)
    verdict = _first_failure(p, pairs, partial(_pair_value, p.pf.ring, p.coords), WickPairVerdict)
    assert not verdict.ok, "the certificate's row holds no failing pair"
    return verdict


def check_wick_4term(p: WickVector) -> WickPairVerdict:
    """Sweep the pairs of N at symmetric-difference distance four whose u_J1 is dirty."""
    n = p.ground.n
    if n < 4:
        return WickPairVerdict(True)
    diffs = masks_of_size(n, 4)
    near = _neighbourhood(p)
    within_budget(len(near) * len(diffs), "4-term Wick sweep")
    members = set(near)
    row, dirty = _wick_rows(p, near)
    pairs = (
        (j1, j2)
        for j1 in near
        if dirty(row(j1))
        for j2 in sorted(j1 ^ d for d in diffs if j1 ^ d > j1 and j1 ^ d in members)
    )
    return _first_failure(p, pairs, partial(_pair_value, p.pf.ring, p.coords), WickPairVerdict)


def twist_wick(p: WickVector, t: SubsetMask) -> WickVector:
    """Relabel coordinates by J -> J delta t. Involutive up to canonical scaling."""
    if t.ground.n != p.ground.n:
        raise InputError("twist set lives on a different ground set")
    tb = t.bits
    coords = tuple(p.coords[m ^ tb] for m in range(len(p.coords)))
    return WickVector(p.ground, p.pf, coords)


def classify_wick(p: WickVector) -> WickClassification:
    return _classify(
        WickClassification, check_wick_full(p), check_wick_4term(p), is_orthogonal(wick_support(p))
    )


def reconstruct_wick(p: WickVector) -> WickRepresentation:
    """Rebuild a representation (A, T) with Pf(A_{J delta T}) = p_J projectively.

    Requires the weak gate (distance-four relations plus symmetric-exchange
    support). T is the colex-least support member, so canonical scaling has
    made p_T = 1; after twisting by T, entry a_ij is the coordinate of
    {i, j}.
    """
    support = is_orthogonal(wick_support(p))
    short = check_wick_4term(p)
    if not (short.ok and support.ok):
        raise ClassificationError(
            "vector is not Weak (short relations or symmetric exchange fail); cannot reconstruct"
        )
    n = p.ground.n
    t_mask = min(p.support_masks())  # the first nonzero coordinate, which scaling made 1
    upper = [p.coords[((1 << i) | (1 << j)) ^ t_mask] for i in range(n) for j in range(i + 1, n)]
    a = SkewMatrix.from_upper(p.pf.ring, n, upper)
    return WickRepresentation(a, SubsetMask(p.ground, t_mask))
