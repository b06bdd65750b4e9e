"""Exact counting and enumeration of chain flip histories by kink number.

A chain of n spin sites flips from all minus to all plus one site at a
time; the order of flips is a history.  Flips that open a new plus block
are kinks, and histories are counted by chain length n and kink number d
through five routes that must agree: exhaustive scanning, pruned
backtracking, generating-tree recurrences, closed-form series expansion,
and an explicit formula, a sum of powers i^n with polynomial weights,
which shares its binomial and power helpers with the series route.
"""

# The package surface is each module's __all__, declared there only.
from . import algebra, core, genfunc, oracle, treedp, verify
from .algebra import *
from .core import *
from .genfunc import *
from .oracle import *
from .treedp import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    *algebra.__all__, *core.__all__, *genfunc.__all__,
    *oracle.__all__, *treedp.__all__, *verify.__all__, "__version__",
]
