"""Source locations and diagnostics for the journal file format."""

from __future__ import annotations

import enum

from .algebra import _Record

__all__ = ["Severity", "SourceSpan", "ParseDiagnostic"]


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


class SourceSpan(_Record):
    """A 1-based (line, column) location with a length in characters."""

    __slots__ = _fields = ("file", "line", "column", "length")

    def __post_init__(self):
        if self.line < 1 or self.column < 1:
            raise ValueError("line and column are 1-based")
        if self.length < 0:
            raise ValueError("length must be >= 0")

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseDiagnostic(_Record):
    """A located message; every error carries a span."""

    __slots__ = _fields = ("severity", "message", "span")

    def render(self) -> str:
        return f"{self.span}: {self.severity.value}: {self.message}"
