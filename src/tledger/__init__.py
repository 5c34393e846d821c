"""tledger: a double-entry ledger engine with exact T-account algebra.

Amounts are arbitrary-precision rationals; T-accounts are (debit,
credit) pairs forming a commutative group under componentwise addition;
transactions are zero pairs; stock and flow views of a journal
reconcile exactly. A plain-text journal language and a batch CLI sit on
top of the algebra.
"""

from .algebra import Amount, TAccount
from .chart import AccountPath, Chart
from .diagnostics import ParseDiagnostic, Severity, SourceSpan
from .errors import (
    ChildCollisionError,
    DuplicateAccountError,
    ImbalanceError,
    IntervalError,
    LedgerError,
    NonLeafPostingError,
    PartitionMismatchError,
    UnknownAccountError,
)
from .ledger import (
    IncomeReport,
    Journal,
    Ledger,
    Posting,
    ReconciliationReport,
    ReconcileRow,
    Transaction,
    validate_transaction,
)
from .matching import (
    MatchingSchedule,
    ScheduleMode,
    build_schedule,
    contra_account,
    emit_schedule_transactions,
    net_book_value,
)
from .parser import (
    FileReport,
    format_transaction_block,
    parse_journal,
    serialize_journal,
    validate_file,
)

__version__ = "0.1.0"

__all__ = [
    "Amount",
    "TAccount",
    "AccountPath",
    "Chart",
    "ParseDiagnostic",
    "Severity",
    "SourceSpan",
    "LedgerError",
    "DuplicateAccountError",
    "UnknownAccountError",
    "NonLeafPostingError",
    "ImbalanceError",
    "PartitionMismatchError",
    "ChildCollisionError",
    "IntervalError",
    "Posting",
    "Transaction",
    "Journal",
    "Ledger",
    "ReconcileRow",
    "ReconciliationReport",
    "IncomeReport",
    "validate_transaction",
    "MatchingSchedule",
    "ScheduleMode",
    "build_schedule",
    "contra_account",
    "emit_schedule_transactions",
    "net_book_value",
    "parse_journal",
    "serialize_journal",
    "format_transaction_block",
    "validate_file",
    "FileReport",
    "__version__",
]
