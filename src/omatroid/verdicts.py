"""Shared verdict vocabulary for checkers and classifiers."""

import enum

from .groundset import SubsetMask, record


class Label(enum.Enum):
    """Classification of a coordinate vector against its quadratic relations."""

    STRONG = "strong"
    WEAK = "weak"
    NEITHER = "neither"

    def __str__(self) -> str:
        return self.value


@record
class AxiomVerdict:
    """Outcome of a basis-family axiom check.

    On failure carries the colexicographically first violating triple:
    ``b1`` and ``b2`` are family members and ``x`` the exchange element
    that cannot be completed. ``reason`` names the failed requirement.
    """

    ok: bool
    reason: str | None = None
    b1: SubsetMask | None = None
    b2: SubsetMask | None = None
    x: int | None = None

    def __bool__(self) -> bool:
        return self.ok
