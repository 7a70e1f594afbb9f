"""Error types.

A failure gets its own class only when callers (or the CLI exit-code
protocol) need to tell it apart; every other refusal is a ``DomainError``
whose message names its cause.
"""


class VclabError(Exception):
    """Base class for all package errors."""


class DomainError(VclabError):
    """An input the operation refuses: a broken type invariant (bad interval,
    negative radius, ...), mismatched dimensions or axes, a ball that misses
    the anchor or origin, an unshattered input, or a perturbation that does
    not converge."""


class ParseError(VclabError):
    """Malformed input file or serialized value."""


class CapExceededError(VclabError):
    """More points than the mask cap allows."""


class BudgetExceededError(VclabError):
    """A scan hit its budget; a scan that makes a report attaches it as ``report``."""
