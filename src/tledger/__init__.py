"""tledger: a double-entry ledger engine with exact T-account algebra.

Amounts are arbitrary-precision rationals; T-accounts are (debit,
credit) pairs forming a commutative group under componentwise addition;
transactions are zero pairs; stock and flow views of a journal
reconcile exactly. A plain-text journal language and a batch CLI sit on
top of the algebra.

The package exports exactly its modules' __all__ names, and __version__.
"""

from .algebra import *
from .chart import *
from .diagnostics import *
from .errors import *
from .ledger import *
from .matching import *
from .parser import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += algebra.__all__
__all__ += chart.__all__
__all__ += diagnostics.__all__
__all__ += errors.__all__
__all__ += ledger.__all__
__all__ += matching.__all__
__all__ += parser.__all__
