"""Spans and counters recorded from outside the program under test.

A Tracer replaces public functions and methods of the tledger modules
with wrappers that record one span per call (name, start, end, parent
span, request), and wraps hot calls with plain counters. Every module
attribute bound to a wrapped function is patched, so aliases such as
tledger.cli.parse_journal are traced too. uninstall() puts the originals
back. Spans stay in memory; the session writes them out when it ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute path, span name); a dotted path names a method.
SPANS = (
    ("tledger.parser", "parse_journal", "parser.parse_journal"),
    ("tledger.parser", "validate_file", "parser.validate_file"),
    ("tledger.matching", "emit_schedule_transactions", "matching.emit"),
    ("tledger.ledger", "Journal.expand", "ledger.expand"),
    ("tledger.ledger", "Journal.stock_at", "ledger.stock_at"),
    ("tledger.ledger", "Journal.flow_between", "ledger.flow_between"),
    ("tledger.ledger", "Journal.reconcile", "ledger.reconcile"),
    ("tledger.ledger", "Ledger.post", "ledger.post"),
    ("tledger.ledger", "Ledger.total", "ledger.total"),
    ("tledger.ledger", "Ledger.aggregate", "ledger.aggregate"),
    ("tledger.chart", "Chart.declare", "chart.declare"),
    ("tledger.chart", "Chart.children", "chart.children"),
    ("tledger.chart", "Chart.leaves", "chart.leaves"),
    ("tledger.chart", "Chart.leaves_under", "chart.leaves_under"),
    ("tledger.cli", "main", "cli.main"),
)

# Called far too often for a span each: counted only.
COUNTERS = (
    ("tledger.algebra", "TAccount.__add__", "algebra.tadd_calls"),
    ("tledger.chart", "AccountPath.__post_init__", "chart.path_constructions"),
)


def _tally_lines(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return "parser.lines", text.count("\n") + 1


def _tally_emissions(args, kwargs, result):
    return "matching.emissions", len(result)


TALLIES = {"parser.parse_journal": _tally_lines, "matching.emit": _tally_emissions}


class Tracer:
    def __init__(self):
        # span id = index; entries are (name, start, end, parent id, request)
        self.spans: list[tuple | None] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._request = ""
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def region(self, name: str, fn, *args):
        """Run fn(*args) as the root span of a new request called name."""
        self._request = name
        return self._traced(name, fn)(*args)

    def _traced(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        tally = TALLIES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (name, start, end, parent, self._request)
            if tally is not None:
                key, amount = tally(args, kwargs, result)
                counters[key] += amount
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "tledger" or n.startswith("tledger.")]
        for table, make in ((SPANS, self._traced), (COUNTERS, self._counted)):
            for module, path, name in table:
                owner = sys.modules[module]
                *classes, attr = path.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
                wrapper = make(name, original)
                if classes:
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:  # the function and every alias bound to it
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, alias, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """(calls, inclusive seconds, self seconds) per span name.

        Inclusive time counts only spans with no ancestor of the same
        name; self time is a span's duration minus its children's.
        """
        calls: Counter[str] = Counter()
        inclusive: Counter[str] = Counter()
        self_time: Counter[str] = Counter()
        child_time = [0.0] * len(self.spans)
        names_above: list[frozenset] = []
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            above = names_above[parent] if parent >= 0 else frozenset()
            names_above.append(above | {name})
            calls[name] += 1
            if name not in above:
                inclusive[name] += duration
            if parent >= 0:
                child_time[parent] += duration
        for span_id, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child_time[span_id]
        return calls, inclusive, self_time

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {"spans": self.spans, "counters": self.counters},
                out,
                separators=(",", ":"),
            )
