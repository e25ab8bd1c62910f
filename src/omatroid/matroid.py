"""Basis families and their exchange axioms.

A basis family is a nonempty collection of subsets of {1..n}. Every axiom
checked here has one form: for every B1, B2 in the family and every x in X,
some y in Y has B1 delta {x, y} in the family, and the strong forms also
want B2 delta {x, y} in it for the same y.

* ``is_matroid`` and ``is_matroid_strong``: all members share one size,
  X = B1 - B2 and Y = B2 - B1. Then B1 delta {x, y} = (B1 - x) + y and
  B2 delta {x, y} = (B2 - y) + x, the basis exchange axiom.
* ``is_orthogonal`` and ``is_orthogonal_strong``: X = B1 delta B2 and
  Y = X - x, the symmetric exchange axiom of orthogonal matroids (even
  delta-matroids). Members then share size parity, but that is a
  consequence the checkers never assume.

One search, ``_exchange``, runs all four. It is deliberately brute force,
O(|B|^2 * n^2), and doubles as the trusted oracle for everything else in
the package. Failures report the colexicographically first violating
(B1, B2, x) so they are stable golden data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InputError
from .groundset import GroundSet, SubsetMask, mask_elements
from .verdicts import AxiomVerdict


@dataclass(frozen=True)
class BasisFamily:
    """A nonempty, deduplicated family of subsets of a common ground set."""

    ground: GroundSet
    masks: frozenset[int]

    def __post_init__(self) -> None:
        if not self.masks:
            raise InputError("a basis family must be nonempty")
        full = self.ground.full_mask
        for m in self.masks:
            if not 0 <= m <= full:
                raise InputError(f"member mask {m!r} does not fit ground set size {self.ground.n}")

    @classmethod
    def from_subsets(cls, ground: GroundSet, subsets: Iterable) -> "BasisFamily":
        masks = set()
        for s in subsets:
            if isinstance(s, SubsetMask):
                if s.ground.n != ground.n:
                    raise InputError("subset from a different ground set")
                masks.add(s.bits)
            elif isinstance(s, int):
                masks.add(s)
            else:
                masks.add(ground.subset(s).bits)
        return cls(ground, frozenset(masks))

    def members(self) -> tuple[int, ...]:
        """Member masks in colex (numeric) order."""
        return tuple(sorted(self.masks))

    def subsets(self) -> tuple[SubsetMask, ...]:
        return tuple(SubsetMask(self.ground, m) for m in self.members())

    def __contains__(self, s) -> bool:
        bits = s.bits if isinstance(s, SubsetMask) else s
        return bits in self.masks

    def __len__(self) -> int:
        return len(self.masks)

    def to_json(self) -> dict:
        return {
            "n": self.ground.n,
            "bases": [list(mask_elements(m)) for m in self.members()],
        }


def _exchange(f: BasisFamily, reason: str, same_size: bool, strong: bool) -> AxiomVerdict:
    """The one exchange search: for all B1, B2 and x in X, some y in Y fixes B1.

    ``same_size`` reads X = B1 - B2 and Y = B2 - B1 after the equal-size
    check, otherwise X = B1 delta B2 and Y = X - x. ``strong`` asks the same
    y to fix B2 as well. The first failing (B1, B2, x) in colex order is
    reported under ``reason``.
    """
    members = f.members()
    mset = f.masks
    ground = f.ground
    if same_size:
        size = members[0].bit_count()
        for m in members[1:]:
            if m.bit_count() != size:
                first, other = SubsetMask(ground, members[0]), SubsetMask(ground, m)
                return AxiomVerdict(False, "not_equicardinal", first, other, None)
    for b1 in members:
        for b2 in members:
            d = b1 ^ b2
            xs = d & b1 if same_size else d
            while xs:
                xb = xs & -xs
                xs ^= xb
                base = b1 ^ xb
                ys = d & b2 if same_size else d ^ xb
                while ys:
                    yb = ys & -ys
                    ys ^= yb
                    if (base ^ yb) in mset and (not strong or (b2 ^ xb ^ yb) in mset):
                        break
                else:
                    b1s, b2s = SubsetMask(ground, b1), SubsetMask(ground, b2)
                    return AxiomVerdict(False, reason, b1s, b2s, xb.bit_length())
    return AxiomVerdict(True)


def is_matroid(f: BasisFamily) -> AxiomVerdict:
    """Matroid basis axiom: equicardinal plus the exchange property."""
    return _exchange(f, "exchange", same_size=True, strong=False)


def is_matroid_strong(f: BasisFamily) -> AxiomVerdict:
    """Strong exchange: one y must repair both bases at once."""
    return _exchange(f, "strong_exchange", same_size=True, strong=True)


def is_orthogonal(f: BasisFamily) -> AxiomVerdict:
    """Symmetric exchange axiom for orthogonal matroids (even delta-matroids)."""
    return _exchange(f, "symmetric_exchange", same_size=False, strong=False)


def is_orthogonal_strong(f: BasisFamily) -> AxiomVerdict:
    """Strong symmetric exchange: one x2 must move both B1 and B2 inside the family."""
    return _exchange(f, "strong_symmetric_exchange", same_size=False, strong=True)


def twist(f: BasisFamily, t: SubsetMask) -> BasisFamily:
    """Replace every member B by B delta t. Involutive; preserves both axioms' verdicts."""
    if t.ground.n != f.ground.n:
        raise InputError("twist set lives on a different ground set")
    tb = t.bits
    return BasisFamily(f.ground, frozenset(b ^ tb for b in f.masks))


def find_smaller_basis(f: BasisFamily, j: SubsetMask) -> SubsetMask:
    """In a normal orthogonal matroid, drop two elements of a nonempty basis.

    Requires the empty set and j to be members and j nonempty. Among all
    two-element subsets {a, b} of j with j delta {a, b} in the family, the
    colexicographically least resulting basis is returned. Failure to find
    one means the family was not a normal orthogonal matroid.
    """
    if j.ground.n != f.ground.n:
        raise InputError("basis lives on a different ground set")
    if 0 not in f.masks:
        raise InputError("family is not normal (empty set is not a member)")
    if j.bits == 0:
        raise InputError("basis must be nonempty")
    if j.bits not in f.masks:
        raise InputError(f"{j!r} is not a member of the family")
    check = is_orthogonal(f)
    if not check.ok:
        raise InputError("family is not an orthogonal matroid")
    jb = j.bits
    elems = mask_elements(jb)
    best = None
    for ai in range(len(elems)):
        for bi in range(ai + 1, len(elems)):
            pair = (1 << (elems[ai] - 1)) | (1 << (elems[bi] - 1))
            cand = jb ^ pair
            if cand in f.masks and (best is None or cand < best):
                best = cand
    if best is None:
        raise InputError("no smaller basis exists; the family violates normality")
    return SubsetMask(f.ground, best)
