"""Engine error types.

Every error raised by the engine derives from LedgerError so callers (and
the CLI) can catch one base class. Errors that originate from a journal
file carry an optional source span attached by whoever knows the location.
"""

from __future__ import annotations

__all__ = [
    "LedgerError",
    "DuplicateAccountError",
    "UnknownAccountError",
    "NonLeafPostingError",
    "ImbalanceError",
    "PartitionMismatchError",
    "ChildCollisionError",
    "IntervalError",
]


class LedgerError(Exception):
    """Base class for all engine errors."""

    def __init__(self, message: str, *, span=None):
        super().__init__(message)
        self.span = span


class DuplicateAccountError(LedgerError):
    """An account path was declared twice."""


class UnknownAccountError(LedgerError):
    """A referenced account path does not exist in the chart."""


class NonLeafPostingError(LedgerError):
    """A posting targeted an interior (non-postable) account."""


class ImbalanceError(LedgerError):
    """A transaction's postings do not sum to a zero pair.

    residual is the signed balance of their sum, a Fraction.
    """

    def __init__(self, message: str, residual=None, *, span=None):
        super().__init__(message, span=span)
        self.residual = residual


class PartitionMismatchError(LedgerError):
    """Refinement shares do not sum exactly to the parent balance.

    residual is the shares' balance minus the parent's, a Fraction.
    """

    def __init__(self, message: str, residual=None, *, span=None):
        super().__init__(message, span=span)
        self.residual = residual


class ChildCollisionError(LedgerError):
    """A refinement child path is not fresh or is duplicated."""


class IntervalError(LedgerError):
    """An inverted time interval was supplied to a flow derivation."""
