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

A term is nonzero only when both of its indices are in the support, so
only pairs from the support's one-step neighbourhood
N = {u delta {i} : u in support, i in 1..n} are taken, in the colex order
of the whole family: verdicts and witnesses are those over all pairs.

Both families are read off the certificate of plucker.py on 2n slots
(i, a), a in {0, 1}: the relation for (J1, J2) is minus u_J1 . w_J2, and
U W^T is symmetric with a zero diagonal, so the first dirty u_J1 fails
first against a later partner (w_J is u_J with its halves swapped). The
full check reads that row's partners, the short check the dirty rows' only,
and classify_wick decides both from one certificate. Either check is
refused before it starts when it has more than SWEEP_BUDGET pairs from N,
whatever the method.

A representation is a skew matrix A plus a twist set T; it induces the
vector p_J = Pf(A restricted to J delta T). Reconstruction inverts this:
twist by the colex-least support member, whose coordinate canonical
scaling has already made 1, and read the matrix entries off the
two-element coordinates.
"""

from functools import cache, partial
from typing import Mapping

from .errors import InputError, MembershipError
from .exactalg import Ring, SkewMatrix, _integers, _Ratios, all_principal_pfaffians
from .groundset import GroundSet, SubsetMask, masks_of_size, record, within_budget
from .matroid import BasisFamily, is_orthogonal
from .plucker import (
    _canonical_coords,
    _Certificate,
    _classify,
    _CoordinateVector,
    _dense,
    _neighbourhood,
    _weak_gate,
)
from .verdicts import AxiomVerdict, Label


@record
class WickVector(_CoordinateVector):
    """Projective point indexed by all 2**n subsets, mask order = colex order.

    Canonical scaling matches PluckerVector: first nonzero coordinate is 1
    over a field, +1 over the regular partial field.
    """

    ground: GroundSet
    ring: Ring
    coords: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _canonical_coords(self.ring, self.masks(), self.coords))

    @classmethod
    def from_coords(
        cls, ground: GroundSet, ring: Ring, coords: Mapping[int, object] | list
    ) -> "WickVector":
        """Build from a dense sequence or a sparse {mask: value} mapping."""
        masks = range(1 << ground.n)
        return cls(ground, ring, _dense(ring, masks, coords, "does not fit the ground set"))

    def masks(self) -> range:
        return range(1 << self.ground.n)

    def coord(self, j: SubsetMask):
        if j.ground.n != self.ground.n:
            raise InputError("subset from a different ground set")
        return self.coords[j.bits]


@record
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


@record
class WickPairVerdict:
    """Sweep outcome; on failure (j1, j2) is the numerically first bad pair."""

    ok: bool
    j1: SubsetMask | None = None
    j2: SubsetMask | None = None
    value: object = None

    def __bool__(self) -> bool:
        return self.ok


@record
class WickClassification:
    label: Label
    full: WickPairVerdict
    short: WickPairVerdict
    support: AxiomVerdict


def wick_support(p: WickVector) -> BasisFamily:
    return BasisFamily(p.ground, frozenset(p.support_masks()))


def wick_from_representation(rep: WickRepresentation) -> WickVector:
    """Principal Pfaffians of the matrix, reindexed through the twist.

    Every entry of the matrix and every resulting Pfaffian must be a
    partial-field element; a Pfaffian escaping the unit group raises
    MembershipError from WickVector, naming the offending subset.
    """
    a = rep.matrix
    for i in range(a.size):
        for j in range(i + 1, a.size):
            if not a.ring.is_element(a.entry(i, j)):
                raise MembershipError(
                    f"matrix entry ({i + 1},{j + 1}) = {a.ring.fmt(a.entry(i, j))} "
                    f"is outside the partial field"
                )
    table = all_principal_pfaffians(a)
    return WickVector(GroundSet(a.size), a.ring, _twisted(table, rep.twist.bits))


def _twisted(coords, tb: int):
    """Coordinates reindexed by J -> J delta tb; a _Ratios stays one, so no Fraction is built."""
    if isinstance(coords, _Ratios):
        return _Ratios(_twisted(coords.nums, tb), _twisted(coords.dens, tb))
    return [coords[m ^ tb] for m in range(len(coords))] if tb else coords


def _wick_row(p: int, coords, n: int, mask: int) -> list:
    """i -> (-1)**|mask below i| * p_{mask delta i}, at slot i + n * [i in mask] of 2n (mod p if p)."""
    row = [0] * (2 * n)
    for i in range(n):
        b = 1 << i
        if v := coords[mask ^ b]:
            row[i + n * (mask >> i & 1)] = (p - v if p else -v) if (mask & (b - 1)).bit_count() & 1 else v
    return row


def _wick_certificate(p: WickVector) -> _Certificate:
    """N as rows u_J = _wick_row(J) and as columns w_J, u_J with its halves swapped.

    Their slots meet at the i in J1 delta J2, and the signs multiply to minus the relation's.
    """
    near, n = _neighbourhood(p), p.ground.n
    coords, scale = _integers(p.coords, p.ring)
    u = cache(partial(_wick_row, p.ring.p, coords, n))
    w = cache(lambda j: (row := u(j))[n:] + row[:n])
    return _Certificate(p, near, near, u, w, -1, WickPairVerdict, scale)


def _wick_full(cert: _Certificate) -> WickPairVerdict:
    within_budget(len(cert.rows) * (len(cert.rows) - 1) // 2, "full Wick sweep")
    return cert.full(lambda j1: (j2 for j2 in cert.rows if j2 > j1))


def _wick_4term(cert: _Certificate) -> WickPairVerdict:
    n, near = cert.ground.n, cert.rows
    if n < 4:
        return WickPairVerdict(True)
    diffs = masks_of_size(n, 4)
    within_budget(len(near) * len(diffs), "4-term Wick sweep")
    members = set(near)
    return cert.short(lambda j1: sorted(j1 ^ d for d in diffs if j1 ^ d > j1 and j1 ^ d in members))


def check_wick_full(p: WickVector) -> WickPairVerdict:
    """Decide every unordered pair {J1, J2}, odd distances included, by the rank certificate."""
    return _wick_full(_wick_certificate(p))


def check_wick_4term(p: WickVector) -> WickPairVerdict:
    """Sweep the pairs of N at symmetric-difference distance four whose u_J1 is dirty."""
    return _wick_4term(_wick_certificate(p))


def twist_wick(p: WickVector, t: SubsetMask) -> WickVector:
    """Relabel coordinates by J -> J delta t. Involutive up to canonical scaling."""
    if t.ground.n != p.ground.n:
        raise InputError("twist set lives on a different ground set")
    return WickVector(p.ground, p.ring, _twisted(p.coords, t.bits))


def classify_wick(p: WickVector) -> WickClassification:
    """Strongest satisfied label plus the evidence for each route, from one certificate."""
    cert = _wick_certificate(p)
    full, short = _wick_full(cert), _wick_4term(cert)
    return _classify(WickClassification, full, short, is_orthogonal(wick_support(p)))


def reconstruct_wick(p: WickVector) -> WickRepresentation:
    """Rebuild a representation (A, T) with Pf(A_{J delta T}) = p_J projectively.

    Requires the weak gate (distance-four relations plus symmetric-exchange
    support). T is the colex-least support member, so canonical scaling has
    made p_T = 1; after twisting by T, entry a_ij is the coordinate of
    {i, j}.
    """
    _weak_gate(is_orthogonal(wick_support(p)), check_wick_4term(p), "symmetric exchange")
    n = p.ground.n
    t_mask = min(p.support_masks())  # the first nonzero coordinate, which scaling made 1
    upper = [p.coords[((1 << i) | (1 << j)) ^ t_mask] for i in range(n) for j in range(i + 1, n)]
    a = SkewMatrix.from_upper(p.ring, n, upper)
    return WickRepresentation(a, SubsetMask(p.ground, t_mask))
