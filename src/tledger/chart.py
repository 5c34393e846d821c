"""Hierarchical chart of accounts.

Account names are colon-separated paths ("assets:cash"). Declaring a
path materializes every missing ancestor as an implicit interior node.
Only leaves of the resulting tree are postable; interior nodes exist to
be aggregated over their subtrees.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from operator import attrgetter

from .algebra import _orderings, _Record
from .errors import DuplicateAccountError, UnknownAccountError

__all__ = ["AccountPath", "Chart"]

SEGMENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")  # with .match: the whole segment

# Sort key for paths: their order, run as a C tuple compare.
_segments = attrgetter("segments")


class AccountPath(_Record):
    """A non-empty sequence of identifier segments, rendered with ":".

    Comparison is case-sensitive and exact; ordering is lexicographic by
    segment, which keeps reports deterministic.
    """

    __slots__ = ("segments", "_hash")
    _fields = ("segments",)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("account path needs at least one segment")
        for seg in self.segments:
            if not SEGMENT_RE.match(seg):
                raise ValueError(f"invalid account segment {seg!r}")
        object.__setattr__(self, "_hash", hash((self.segments,)))

    @classmethod
    def parse(cls, text: str) -> AccountPath:
        return cls(tuple(text.split(":")))

    @classmethod
    def _prefix(cls, segments: tuple[str, ...]) -> AccountPath:
        # A proper prefix of a checked path's segments is itself valid.
        out = object.__new__(cls)
        object.__setattr__(out, "segments", segments)
        object.__setattr__(out, "_hash", hash((segments,)))
        return out

    @property
    def parent(self) -> AccountPath | None:
        if len(self.segments) == 1:
            return None
        return AccountPath._prefix(self.segments[:-1])

    def child(self, segment: str) -> AccountPath:
        return AccountPath(self.segments + (segment,))

    def covers(self, other: AccountPath) -> bool:
        """Subtree test: other is this path or lies under it."""
        return other.segments[: len(self.segments)] == self.segments

    def __hash__(self) -> int:
        return self._hash  # hash((segments,)), computed once

    __lt__, __le__, __gt__, __ge__ = _orderings("segments")

    def __str__(self) -> str:
        return ":".join(self.segments)


class Chart(_Record):
    """An immutable rooted tree of account paths.

    Each present path is flagged declared (True) or implicit (False); an
    implicit node exists only because some declared descendant needs it.
    Operations return new charts, never mutate.
    """

    __slots__ = _fields = ("nodes",)

    def __init__(self, nodes: dict[AccountPath, bool] | None = None):
        object.__setattr__(self, "nodes", {} if nodes is None else nodes)

    @classmethod
    def empty(cls) -> Chart:
        return cls({})

    def declare(self, path: AccountPath) -> Chart:
        """Add a declared path, materializing missing ancestors as implicit.

        Re-declaring an already declared path raises: it signals a
        journal authoring mistake.
        """
        return self.declare_all((path,))

    def declare_all(self, paths: Iterable[AccountPath]) -> Chart:
        """declare() over paths in order, with one copy of the nodes."""
        nodes = dict(self.nodes)
        for path in paths:
            _declare(nodes, path)
        return Chart(nodes)

    def __contains__(self, path: AccountPath) -> bool:
        return path in self.nodes

    def is_declared(self, path: AccountPath) -> bool:
        return bool(self.nodes.get(path))

    def children(self, path: AccountPath) -> tuple[AccountPath, ...]:
        segments = path.segments
        return tuple(
            sorted((p for p in self.nodes if p.segments[:-1] == segments), key=_segments)
        )

    def leaves(self) -> tuple[AccountPath, ...]:
        parents = {p.segments[:-1] for p in self.nodes}
        return tuple(
            sorted((p for p in self.nodes if p.segments not in parents), key=_segments)
        )

    def leaves_under(self, path: AccountPath) -> tuple[AccountPath, ...]:
        """All postable leaves in the subtree rooted at path (inclusive)."""
        if path not in self.nodes:
            raise UnknownAccountError(f"unknown account {path}")
        return tuple(p for p in self.leaves() if path.covers(p))

    def declared_paths(self) -> tuple[AccountPath, ...]:
        return tuple(
            sorted((p for p, declared in self.nodes.items() if declared), key=_segments)
        )


def _declare(nodes: dict[AccountPath, bool], path: AccountPath) -> None:
    """Chart.declare in place: flag path declared, add missing ancestors.

    Raises DuplicateAccountError, leaving nodes as they were, when path
    is already declared.
    """
    if nodes.get(path):
        raise DuplicateAccountError(f"account {path} already declared")
    segments = path.segments
    for end in range(len(segments) - 1, 0, -1):
        ancestor = AccountPath._prefix(segments[:end])
        if ancestor in nodes:
            break
        nodes[ancestor] = False
    nodes[path] = True
