"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: :class:`InputError` and its subclasses
are usage or input problems (exit 2), :class:`CapabilityError` marks
requests beyond the built-in size caps (exit 3). A false mathematical
verdict is not an error; checkers report it through verdict objects.
"""


class OmatroidError(Exception):
    """Base class for every error raised by this package."""


class InputError(OmatroidError, ValueError):
    """Malformed or out-of-contract input."""


class CapabilityError(OmatroidError, RuntimeError):
    """Request exceeds a documented size cap (not a bug, a refusal)."""


class MembershipError(InputError):
    """A scalar fell outside the allowed partial-field elements."""


class MapUndefinedError(InputError):
    """A ring homomorphism is undefined at the given value."""


class RankError(InputError):
    """A matrix does not have the rank the operation requires."""


class ClassificationError(InputError):
    """A vector fails the classification a reconstruction requires."""
