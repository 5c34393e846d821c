"""tledger's records keep the value semantics of frozen dataclasses.

The fifteen records are plain classes over one shared base, which
generates each record's __init__ once, when its class is made; only
Posting, Transaction and Chart write their own. A generated __init__
writes each field through its slot's member descriptor, bound when the
class is made, never through object.__setattr__, and what it builds
still refuses assignment and deletion. Each record gets a twin here, made
with dataclasses.make_dataclass from the same fields, defaults and
compare flags, which is how the records were declared before. On values
drawn from seeded journalgen journals and the fixtures, every record
must agree with its twin: ==, !=, hash (with the span left out where it
was), AccountPath ordering, repr text, constructor signature, defaults,
keyword construction, validation messages, positional match patterns,
and refused assignment. A parsed Posting, which builds its entry on
first read, must also agree with its twin built by the public
constructor.
"""

import copy
import datetime as dt
import inspect
import itertools
import pickle
import random
from dataclasses import field, fields, make_dataclass
from pathlib import Path
from types import MemberDescriptorType

import pytest

from journalgen import random_journal, random_taccount
from tledger import (
    AccountPath,
    Amount,
    Chart,
    FileReport,
    IncomeReport,
    Journal,
    Ledger,
    MatchingSchedule,
    ParseDiagnostic,
    Posting,
    ReconcileRow,
    ReconciliationReport,
    ScheduleMode,
    Severity,
    SourceSpan,
    TAccount,
    Transaction,
    build_schedule,
    parse_journal,
    validate_file,
)
from tledger.chart import SEGMENT_RE
from tledger.ledger import _Replay

D = dt.date
FIXTURES = Path(__file__).parent / "fixtures"
NO_SPAN = field(default=None, compare=False)


def _old_span_checks(self):
    if self.line < 1 or self.column < 1:
        raise ValueError("line and column are 1-based")
    if self.length < 0:
        raise ValueError("length must be >= 0")


def _old_posting_checks(self):
    if not self.entry.is_canonical:
        raise ValueError(f"posting entry must be a pure debit or credit, got {self.entry}")


def _old_path_checks(self):
    if not self.segments:
        raise ValueError("account path needs at least one segment")
    for seg in self.segments:
        if not SEGMENT_RE.match(seg):
            raise ValueError(f"invalid account segment {seg!r}")


# record -> (make_dataclass fields, __post_init__ as the dataclass had it)
SPECS = {
    AccountPath: (["segments"], _old_path_checks),
    TAccount: (["debit", "credit"], None),
    Chart: ([("nodes", dict, field(default_factory=dict))], None),
    SourceSpan: (["file", "line", "column", "length"], _old_span_checks),
    ParseDiagnostic: (["severity", "message", "span"], None),
    Posting: (["account", "entry", ("span", object, NO_SPAN)], _old_posting_checks),
    Transaction: (["date", "description", "postings", ("span", object, NO_SPAN)], None),
    Ledger: (
        ["chart", "balances", ("as_of", object, None), ("interval", object, None)],
        None,
    ),
    _Replay: (["chart", "scale", "posted", "faults", "final"], None),
    Journal: (
        [
            "chart",
            ("transactions", object, ()),
            ("schedules", object, ()),
            ("basis", object, None),
        ],
        Journal.__post_init__,
    ),
    MatchingSchedule: (
        [
            "source",
            "counterpart_prefix",
            "total",
            "periods",
            ("mode", object, ScheduleMode.DIRECT),
            ("start", object, None),
            ("span", object, NO_SPAN),
        ],
        MatchingSchedule.__post_init__,
    ),
    FileReport: (
        ["status", "diagnostics", "transactions", "message", ("journal", object, None)],
        None,
    ),
    ReconcileRow: (["account", "opening", "flow", "closing", "ok"], None),
    ReconciliationReport: (["start", "end", "rows"], None),
    IncomeReport: (["start", "end", "rows", "total", "net_income"], None),
}


def _make_twin(cls):
    spec, post_init = SPECS[cls]
    namespace = {"__post_init__": post_init} if post_init else {}
    return make_dataclass(
        cls.__name__, spec, frozen=True, order=cls is AccountPath, namespace=namespace
    )


TWINS = {cls: _make_twin(cls) for cls in SPECS}


def twin_of(value):
    """value with every record in it, however deep, swapped for its twin.

    The twin is filled in field by field, as the record holds them,
    without running any check.
    """
    twin = TWINS.get(type(value))
    if twin is not None:
        out = object.__new__(twin)
        for f in fields(twin):
            object.__setattr__(out, f.name, twin_of(getattr(value, f.name)))
        return out
    if isinstance(value, (tuple, list)):
        return type(value)(twin_of(v) for v in value)
    if isinstance(value, dict):
        return {twin_of(k): twin_of(v) for k, v in value.items()}
    return value


def _outcome(fn):
    """fn()'s value, or the type and text of what it raised."""
    try:
        return fn()
    except Exception as err:  # the comparison is the point
        return (type(err).__name__, str(err))


def _corpus():
    """Records of every class, from generated journals and the fixtures."""
    values = {cls: [] for cls in SPECS}

    def add(value):
        values[type(value)].append(value)

    journals = [random_journal(random.Random(seed), 8, 12) for seed in range(6)]
    for name in ("machine_purchase.journal", "machine_purchase_contra.journal"):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        journal, diags = parse_journal(text, file=name)
        journals.append(journal)
        report = validate_file(text, file=name)
        add(report)
        broken = validate_file(text.replace("dr 1234567.89", "dr 1", 1), file=name)
        add(broken)
        for diag in broken.diagnostics:
            add(diag)
            add(diag.span)
    add(validate_file("2020-01-01 x\n  nowhere", file="bad.journal"))
    for journal in journals:
        add(journal)
        add(journal.chart)
        add(journal._replay)
        chart, txs = journal.expand()
        add(chart)
        for path in chart.nodes:
            add(path)
            add(AccountPath(path.segments))  # equal, not the interned one
        for schedule in journal.schedules:
            add(schedule)
            n, start = len(schedule.periods), schedule.start or D(2020, 1, 1)
            source, prefix = schedule.source, schedule.counterpart_prefix
            add(build_schedule(source, prefix, schedule.total, n, start, schedule.mode))
        for tx in txs[:6]:
            add(tx)
            add(Transaction(tx.date, tx.description, tx.postings))  # no span
            if tx.span is not None:
                add(tx.span)
            for posting in tx.postings:
                add(posting)
                add(Posting(posting.account, posting.entry))  # no span
                add(posting.entry)
        first, last = txs[0].date, txs[-1].date
        add(journal.stock_at(last))
        add(journal.flow_between(first, last))
        report = journal.reconcile(first, last)
        add(report)
        for row in report.rows[:5]:
            add(row)
        roots = sorted(p for p in chart.nodes if len(p.segments) == 1)
        add(journal.income_report(first, last, tuple(roots)))
    rng = random.Random(99)
    for _ in range(20):
        add(random_taccount(rng))
    return values


VALUES = _corpus()


def test_every_record_has_a_twin_with_its_fields():
    for cls, twin in TWINS.items():
        assert tuple(f.name for f in fields(twin)) == cls._fields
        assert VALUES[cls], cls


@pytest.mark.parametrize("cls", SPECS, ids=lambda c: c.__name__)
def test_equality_and_hash_match_the_twin(cls):
    sample = VALUES[cls][:40]
    twins = [twin_of(v) for v in sample]
    for (a, ta), (b, tb) in itertools.product(zip(sample, twins), repeat=2):
        assert (a == b) is (ta == tb)
        assert (a != b) is (ta != tb)
    for value, twin in zip(sample, twins):
        assert _outcome(lambda: hash(value)) == _outcome(lambda: hash(twin))
        assert value != twin and twin != value  # one class only, as before
        assert value != object() and (value == None) is False  # noqa: E711


def test_span_stays_out_of_equality_and_hash():
    span = SourceSpan("f", 3, 1, 4)
    entry = TAccount.dr(Amount(2))
    a, costs, day = AccountPath.parse("cash"), AccountPath.parse("costs"), D(2020, 1, 1)
    pairs = [
        (Posting(a, entry, span), Posting(a, entry)),
        (Transaction(day, "x", (), span), Transaction(day, "x", ())),
        (
            build_schedule(a, costs, Amount(3), 3, day, span=span),
            build_schedule(a, costs, Amount(3), 3, day),
        ),
    ]
    for with_span, without in pairs:
        assert with_span == without and hash(with_span) == hash(without)
        assert twin_of(with_span) == twin_of(without)
        assert hash(twin_of(with_span)) == hash(twin_of(without))
    diag = ParseDiagnostic(Severity.ERROR, "m", span)
    assert diag != ParseDiagnostic(Severity.ERROR, "m", SourceSpan("f", 3, 1, 5))


def test_unhashable_records_stay_unhashable():
    for cls in (Chart, Ledger, Journal):
        for value in VALUES[cls][:3]:
            with pytest.raises(TypeError):
                hash(value)


def test_account_path_ordering_matches_the_twin():
    paths = VALUES[AccountPath][:60]
    for a, b in itertools.product(paths, repeat=2):
        ta, tb = twin_of(a), twin_of(b)
        assert (a < b, a <= b, a > b, a >= b) == (ta < tb, ta <= tb, ta > tb, ta >= tb)
    assert sorted(paths) == sorted(paths, key=lambda p: p.segments)
    for other in (1, "a", None, TAccount.zero()):
        assert _outcome(lambda: paths[0] < other)[0] == "TypeError"
        assert _outcome(lambda: twin_of(paths[0]) < other)[0] == "TypeError"


@pytest.mark.parametrize("cls", SPECS, ids=lambda c: c.__name__)
def test_repr_matches_the_twin(cls):
    for value in VALUES[cls][:20]:
        assert repr(value) == repr(twin_of(value))
    expected = "TAccount(debit=Amount(1, 1), credit=Amount(0, 1))"
    assert repr(TAccount.dr(Amount(1))) == expected


def _required(cls):
    spec, _ = SPECS[cls]
    return [f for f in spec if isinstance(f, str)]


@pytest.mark.parametrize("cls", SPECS, ids=lambda c: c.__name__)
def test_keyword_construction_and_defaults_match_the_twin(cls):
    twin = TWINS[cls]
    params = inspect.signature(cls).parameters.values()
    twin_params = inspect.signature(twin).parameters.values()
    assert [(p.name, p.kind) for p in params] == [(p.name, p.kind) for p in twin_params]
    if cls is not Chart:  # the twin's default is a factory
        assert [p.default for p in params] == [p.default for p in twin_params]
    for value in VALUES[cls][:10]:
        kwargs = {name: getattr(value, name) for name in cls._fields}
        by_keyword, twin_by_keyword = cls(**kwargs), twin(**kwargs)
        assert by_keyword == value
        assert repr(by_keyword) == repr(twin_by_keyword)
        required = {name: kwargs[name] for name in _required(cls)}
        positional = list(required.values())
        for made, twin_made in (
            (cls(**required), twin(**required)),
            (cls(*positional), twin(*positional)),
        ):
            assert repr(made) == repr(twin_made)
    if cls is Chart:
        assert Chart().nodes == {} and Chart().nodes is not Chart().nodes
    value = VALUES[cls][0]
    args = [getattr(value, name) for name in cls._fields]
    for bad in (
        lambda c: c(*args, None),
        lambda c: c(*args, unknown=1),
        lambda c: c(*args[:1], **{cls._fields[0]: args[0]}),
        lambda c: c() if _required(cls) else c(*args, *args),
    ):
        got, want = _outcome(lambda: bad(cls)), _outcome(lambda: bad(twin))
        assert got[0] == want[0] == "TypeError"


VALID_PATH = AccountPath.parse("assets:machine")
COSTS = AccountPath.parse("expenses:dep")
HALF = Amount(1, 2)
INVALID = [
    (AccountPath, ((),)),
    (AccountPath, (("assets", "1x"),)),
    (AccountPath, (("", "b"),)),
    (SourceSpan, ("f", 0, 1, 1)),
    (SourceSpan, ("f", 1, 0, 1)),
    (SourceSpan, ("f", 1, 1, -1)),
    (Posting, (VALID_PATH, TAccount(HALF, HALF))),
    (MatchingSchedule, (VALID_PATH, COSTS, Amount(0), ((D(2021, 1, 1), Amount(1)),))),
    (MatchingSchedule, (VALID_PATH, COSTS, Amount(5), ())),
    (MatchingSchedule, (VALID_PATH, COSTS, Amount(5), ((D(2021, 1, 1), Amount(0)),))),
    (
        MatchingSchedule,
        (VALID_PATH, COSTS, Amount(5), ((D(2021, 1, 1), HALF), (D(2021, 1, 1), HALF))),
    ),
    (MatchingSchedule, (VALID_PATH, COSTS, Amount(5), ((D(2021, 1, 1), HALF),))),
]


@pytest.mark.parametrize("cls, args", INVALID, ids=lambda x: getattr(x, "__name__", ""))
def test_validation_messages_match_the_twin(cls, args):
    got, want = _outcome(lambda: cls(*args)), _outcome(lambda: TWINS[cls](*args))
    assert isinstance(got, tuple) and got == want


def test_journal_sorts_its_transactions_like_the_twin():
    journal = VALUES[Journal][0]
    shuffled = list(journal.transactions)
    random.Random(5).shuffle(shuffled)
    made = Journal(journal.chart, tuple(shuffled), journal.schedules, journal.basis)
    twin = TWINS[Journal](journal.chart, tuple(shuffled), journal.schedules, journal.basis)
    assert made.transactions == twin.transactions
    assert made == journal


@pytest.mark.parametrize("cls", SPECS, ids=lambda c: c.__name__)
def test_positional_patterns_match_the_twin(cls):
    value = VALUES[cls][0]
    assert cls.__match_args__ == TWINS[cls].__match_args__
    match value:
        case AccountPath(segments):
            assert segments == value.segments
        case TAccount(debit, credit):
            assert (debit, credit) == (value.debit, value.credit)
        case Posting(account, entry, span):
            assert (account, entry, span) == (value.account, value.entry, value.span)
        case _:
            pass


@pytest.mark.parametrize("cls", SPECS, ids=lambda c: c.__name__)
def test_fields_cannot_be_set_or_deleted(cls):
    value = VALUES[cls][0]
    twin = twin_of(value)
    for name in cls._fields + ("not_a_field",):
        for act in (lambda v: setattr(v, name, None), lambda v: delattr(v, name)):
            got, want = _outcome(lambda: act(value)), _outcome(lambda: act(twin))
            assert got[1] == want[1]
            with pytest.raises(AttributeError):
                act(value)


def test_generated_inits_write_through_the_slots():
    generated = [cls for cls in SPECS if cls.__init__.__code__.co_filename == "<string>"]
    assert set(SPECS) - set(generated) == {Posting, Transaction, Chart}
    for cls in generated:
        for name in cls._fields:
            assert isinstance(vars(cls)[name], MemberDescriptorType), (cls, name)
        names = cls.__init__.__code__.co_names
        assert "set_field" not in names and "__setattr__" not in names, cls
        value = VALUES[cls][0]
        made = cls(*(getattr(value, name) for name in cls._fields))
        assert repr(made) == repr(value)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(made, name, None)
            with pytest.raises(AttributeError):
                delattr(made, name)


def test_layout_slots_and_cached_views():
    for cls in SPECS:
        assert hasattr(VALUES[cls][0], "__dict__") is (cls is Journal), cls
    journal = Journal(VALUES[Journal][0].chart)
    assert "_replay" not in vars(journal)
    journal._replay
    assert "_replay" in vars(journal)


# The replay holds LedgerErrors, whose pickling is not a record's concern.
PICKLED = [cls for cls in SPECS if cls is not _Replay]


@pytest.mark.parametrize("cls", PICKLED, ids=lambda c: c.__name__)
def test_copy_and_pickle_round_trip(cls):
    for value in VALUES[cls][:3]:
        clones = copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))
        for clone in clones:
            assert type(clone) is cls
            assert repr(clone) == repr(value)


EDGE_LITERALS = "account a\naccount b\n\n" + "\n".join(
    f'2020-01-0{day} "t"\n    a {side} {literal}\n\tb {other} {literal}\n'
    for day, literal in enumerate(("0", "0.00", "000/5", "10/4", "493827.16", "7"), 1)
    for side, other in (("dr", "credit"), ("cr", "debit"))
)


def _parsed_postings():
    postings = []
    for text in ((FIXTURES / "machine_purchase.journal").read_text(encoding="utf-8"), EDGE_LITERALS):
        journal, diagnostics = parse_journal(text)
        assert diagnostics == []
        postings += [p for tx in journal.transactions for p in tx.postings]
    return postings


CHECKS = {
    "==": lambda p, others: [p == q for q in others] + [q == p for q in others],
    "hash": lambda p, others: hash(p),
    "repr": lambda p, others: repr(p),
    "pickle": lambda p, others: pickle.dumps(p),
    "unpickled": lambda p, others: repr(pickle.loads(pickle.dumps(p))),
    "copy": lambda p, others: (copy.copy(p) == p, repr(copy.copy(p)), copy.copy(p)._ints),
}


@pytest.mark.parametrize("check", CHECKS)
def test_a_parsed_posting_matches_its_publicly_built_twin(check):
    # The twins are built with the public constructor from a first parse;
    # each check runs on a fresh parse, whose entries nothing has read.
    twins = [Posting(p.account, p.entry, p.span) for p in _parsed_postings()]
    parsed = _parsed_postings()
    assert len(parsed) > 20 and all(p._entry is None for p in parsed)
    for posting, twin in zip(parsed, twins):
        assert CHECKS[check](posting, twins) == CHECKS[check](twin, twins)
    for posting, twin in zip(parsed, twins):
        assert posting._ints == twin._ints
        assert posting.entry is posting.entry
        assert "_ints" not in repr(posting) and "_entry" not in repr(posting)
