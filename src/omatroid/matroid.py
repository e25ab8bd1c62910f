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

One search, ``_exchange``, runs all four. It holds a set of members as an
|F|-bit integer, one bit per member in colex order, and for every B1 and x
finds all failing B2 at once with one AND per y. Those B2 depend only on
T = B1 delta {x}, so the weak forms decide each distinct T once, at most n
probes and ANDs each, in place of O(|F| * n^2) big-integer operations in
all; the strong forms, whose B2 depend on x too, still take that.
``census._orthogonal_bitmaps`` decides the same T condition one bit per
family. ``tests/oracles.py`` keeps the pair-by-pair search as
the reference it is held to. A family with more than SWEEP_BUDGET member
pairs is refused (CapabilityError) before the search starts; the budget
still counts |F|^2 member pairs, though the search does not walk them.
Failures report the colexicographically first violating (B1, B2, x) so
they are stable golden data.
"""

from typing import Iterable

from .errors import InputError
from .groundset import GroundSet, SubsetMask, mask_elements, record, within_budget
from .verdicts import AxiomVerdict


@record
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

    Every B2 is decided at once, as one bit of an |F|-bit set over the
    members in colex order. For B1 and x let T = B1 delta {x}: the failing
    B2 agree with T on N(T) = {z : T delta {z} in F}, which holds x and each
    y with B1 delta {x, y} in F (for matroids T = B1 - x, and N(T) lies
    outside T as the members share one size). That set depends on T alone,
    and a nonempty one ends the search, so the weak forms skip a T once it
    is found empty. The strong forms also let through, for each such y, the
    B2 with B2 delta {x, y} outside F, a set that depends on {x, y} alone
    and is built the first time that pair comes up. The witness needs no
    second search: B1 is the first member with a failing B2, B2 the lowest
    failing bit over its x's, and x the first x whose failing set holds it.
    """
    members = f.members()
    ground = f.ground
    if same_size:
        size = members[0].bit_count()
        for m in members[1:]:
            if m.bit_count() != size:
                first, other = SubsetMask(ground, members[0]), SubsetMask(ground, m)
                return AxiomVerdict(False, "not_equicardinal", first, other, None)
    within_budget(len(members) ** 2, f"{reason} check", "member pairs")
    mset = f.masks
    everything = (1 << len(members)) - 1
    has = [0] * ground.n  # has[y]: the members holding y
    for i, m in enumerate(members):
        bit = 1 << i
        while m:
            low = m & -m
            m ^= low
            has[low.bit_length() - 1] |= bit
    outside = {}  # strong only: {x, y} -> the members B2 with B2 delta {x, y} outside F
    clean = set()  # weak only: the T = B1 delta {x} that no member agrees with on N(T)
    full = ground.full_mask
    for b1 in members:
        best = best_x = 0
        xs = b1 if same_size else full
        while xs:
            xb = xs & -xs
            xs ^= xb
            t = b1 ^ xb
            if t in clean:
                continue
            x = xb.bit_length() - 1
            fail = everything & ~has[x] if b1 & xb else has[x]  # the B2 that differ at x
            if best:
                fail &= best - 1  # a later x matters only below the best B2 so far
            ys = full ^ (b1 if same_size else xb)
            while fail and ys:
                yb = ys & -ys
                ys ^= yb
                if t ^ yb in mset:
                    y = yb.bit_length() - 1
                    agree = has[y] if b1 & yb else ~has[y]
                    if strong:
                        pair = xb | yb
                        miss = outside.get(pair)
                        if miss is None:
                            miss = everything
                            for i, m in enumerate(members):
                                if m ^ pair in mset:
                                    miss ^= 1 << i
                            outside[pair] = miss
                        agree |= miss
                    fail &= agree
            if fail:
                best, best_x = fail & -fail, x + 1
            elif not (best or strong):
                clean.add(t)
        if best:
            b2 = members[best.bit_length() - 1]
            return AxiomVerdict(False, reason, SubsetMask(ground, b1), SubsetMask(ground, b2), best_x)
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

