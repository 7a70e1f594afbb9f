"""Error types.

Every failure mode that callers (or the CLI exit-code protocol) need to
distinguish gets its own class; callers tell them apart by class, and the
message is free-form.
"""


class VclabError(Exception):
    """Base class for all package errors."""


class DomainError(VclabError):
    """A value violates a type invariant (bad interval, negative radius, ...)."""


class ParseError(VclabError):
    """Malformed input file or serialized value."""


class DimensionMismatchError(VclabError):
    """A dimension or axis does not fit the points, anchor or class."""


class DuplicateAfterProjectionError(VclabError):
    """Two points coincide after dropping axes."""


class NotContainingAnchorError(VclabError):
    """A ball to collapse does not contain the anchor box."""


class NotContainingZeroError(VclabError):
    """A ball to expand does not contain the origin."""


class NotShatteredError(VclabError):
    """A construction's input is not shattered; ``mask`` is its first failing mask."""

    def __init__(self, message: str, mask: "int | None" = None):
        super().__init__(message)
        self.mask = mask


class NoConvergenceError(VclabError):
    """The injective perturbation's step fell below its floor."""


class CapExceededError(VclabError):
    """More points than the mask cap allows."""


class BudgetExceededError(VclabError):
    """A scan hit its budget; a scan that makes a report attaches it as ``report``."""
