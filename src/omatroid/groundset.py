"""Ground-set combinatorics on bitmask-encoded subsets.

Elements of a ground set of size n are labeled 1..n. A subset is an n-bit
mask with bit i-1 standing for element i, so numeric order of masks is
exactly colexicographic order of subsets, for equal-size subsets and across
sizes alike. Every value here is immutable and safe to share.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import CapabilityError, InputError

#: Hard cap on the ground-set size. Subset-indexed coordinate vectors take
#: 2**n slots, so this keeps everything comfortably in memory.
MAX_GROUND_SIZE = 24

#: The most steps one exponential kernel may take: the candidate pairs of
#: a relation family in the support's neighbourhood (all counted, though
#: the rank certificate evaluates only the pairs of dirty rows), the member
#: pairs of an exchange check, the 2**n * n expansion steps of a
#: principal-Pfaffian table, or the exchange steps of a table of maximal
#: minors. Above it the kernel raises CapabilityError (exit 3) before it
#: starts, so the CLI refuses in well under a second instead of running
#: for minutes.
SWEEP_BUDGET = 1 << 22


def within_budget(steps: int, task: str, unit: str = "candidate pairs") -> None:
    """Refuse ``task`` with CapabilityError if it would take more than SWEEP_BUDGET steps."""
    if steps > SWEEP_BUDGET:
        raise CapabilityError(
            f"the {task} would walk {steps} {unit}, over the budget of {SWEEP_BUDGET}"
        )


def record(cls):
    """Make ``cls`` a frozen, slotted record of its annotated fields, as a frozen dataclass
    would be (a class-body value is a default), but with no source compiled at import."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    ns = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    defaults = {name: ns.pop(name) for name in names if name in ns}
    key = attrgetter(*names) if len(names) > 1 else lambda self: (getattr(self, names[0]),)
    post_init, set_field = hasattr(cls, "__post_init__"), object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) < len(names):
            try:
                args += tuple(kwargs.pop(n) if n in kwargs else defaults[n] for n in names[len(args):])
            except KeyError as exc:
                raise TypeError(f"{cls.__name__}() is missing the field {exc}") from None
        if kwargs or len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}, each once")
        for name, value in zip(names, args):
            set_field(self, name, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        fields = ", ".join(map("%s=%r".__mod__, zip(names, key(self))))
        return f"{self.__class__.__qualname__}({fields})"

    def frozen(self, name, *value):
        raise AttributeError(f"{self.__class__.__name__} is frozen: {name!r} cannot change")

    ns.setdefault("__repr__", __repr__)
    ns.update(__slots__=names, __init__=__init__, __setattr__=frozen, __delattr__=frozen,
              __eq__=lambda a, b: key(a) == key(b) if b.__class__ is a.__class__ else NotImplemented,
              __hash__=lambda a: hash(key(a)), __reduce__=lambda a: (a.__class__, key(a)))
    return type(cls.__name__, cls.__bases__, ns)


@record
class GroundSet:
    """The index set {1, ..., n}."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise InputError(f"ground set size must be a nonnegative integer, got {self.n!r}")
        if self.n > MAX_GROUND_SIZE:
            raise CapabilityError(
                f"ground set size {self.n} exceeds the supported maximum {MAX_GROUND_SIZE}"
            )

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def subset(self, elements: Iterable[int] = ()) -> SubsetMask:
        """Build a subset from 1-based element labels."""
        bits = 0
        for e in elements:
            if not isinstance(e, int) or isinstance(e, bool) or not 1 <= e <= self.n:
                raise InputError(f"element {e!r} is outside 1..{self.n}")
            bits |= 1 << (e - 1)
        return SubsetMask(self, bits)


@record
class SubsetMask:
    """An immutable subset of a ground set, stored as a bitmask."""

    ground: GroundSet
    bits: int

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int) or self.bits < 0 or self.bits > self.ground.full_mask:
            raise InputError(
                f"mask {self.bits!r} does not fit a ground set of size {self.ground.n}"
            )

    def elements(self) -> tuple[int, ...]:
        """Member elements in increasing order."""
        return mask_elements(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements())

    def __contains__(self, e: int) -> bool:
        return 1 <= e <= self.ground.n and bool(self.bits >> (e - 1) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def to_json(self) -> list[int]:
        return list(self.elements())

    def __repr__(self) -> str:  # {1,4} on n=4 prints as {1,4}/4
        inner = ",".join(str(e) for e in self.elements())
        return "{%s}/%d" % (inner, self.ground.n)


def mask_elements(bits: int) -> tuple[int, ...]:
    """1-based elements of a bare bitmask, increasing."""
    out = []
    while bits:
        b = bits & -bits
        out.append(b.bit_length())
        bits ^= b
    return tuple(out)


def mask_of_elements(elements: Iterable[int]) -> int:
    bits = 0
    for e in elements:
        bits |= 1 << (e - 1)
    return bits


@lru_cache(maxsize=None)
def masks_of_size(n: int, r: int) -> tuple[int, ...]:
    """All r-subset masks of {1..n} in colex (numeric) order.

    Uses the standard next-bit-permutation trick, so generation itself walks
    the colex order without sorting.
    """
    if not 0 <= r <= n:
        raise InputError(f"subset size {r} is outside 0..{n}")
    if r == 0:
        return (0,)
    out = []
    v = (1 << r) - 1
    limit = 1 << n
    while v < limit:
        out.append(v)
        u = v & -v
        w = v + u
        v = w | (((v ^ w) >> 2) // u)
    return tuple(out)


def _key_bits(key: str, n: int) -> int:
    """The mask of a coordinate key like '1,4' on {1..n} (empty string means the empty set)."""
    if key == "":
        return 0
    try:
        elements = [int(part) for part in key.split(",")]
    except ValueError as exc:
        raise InputError(f"bad subset key {key!r}") from exc
    seen = set()
    for e in elements:
        if e in seen:
            raise InputError(f"duplicate element {e} in subset key {key!r}")
        seen.add(e)
    bits = 0
    for e in elements:
        if not 1 <= e <= n:
            raise InputError(f"element {e!r} is outside 1..{n}")
        bits |= 1 << (e - 1)
    return bits


def parse_subset_key(key: str, ground: GroundSet) -> SubsetMask:
    """Parse a coordinate key like '1,4' (empty string means the empty set)."""
    return SubsetMask(ground, _key_bits(key, ground.n))


def format_subset_key(j: SubsetMask) -> str:
    return ",".join(str(e) for e in j.elements())
