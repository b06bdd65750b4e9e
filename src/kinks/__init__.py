"""Exact counting and enumeration of chain flip histories by kink number.

A chain of n spin sites flips from all minus to all plus one site at a
time; the order of flips is a history.  Flips that open a new plus block
are kinks, and histories are counted by chain length n and kink number d
through five independent routes that must agree: exhaustive scanning,
pruned backtracking, generating-tree recurrences, closed-form series
expansion, and an explicit formula, a sum of powers i^n with
polynomial weights.
"""

from .algebra import TruncPoly, TSeries, sqrt_one_minus_v
from .core import (
    CountTable,
    History,
    TreeLabel,
    kink_count,
    max_kinks,
    tree_label,
)
from .genfunc import (
    CoefficientError,
    ConvergenceRow,
    asymptotic_estimate,
    bivariate_series,
    closed_form,
    convergence_report,
    fixed_kinks_series,
    series_count,
    series_table,
)
from .oracle import (
    DEFAULT_BRUTE_CEILING,
    backtrack_count,
    brute_force_table,
    enumerate_histories,
)
from .treedp import (
    ConsistencyReport,
    LevelState,
    advance_level,
    dp_table,
    root_state,
    succession_children,
    tree_label_consistency,
)
from .verify import GOLDEN_ROWS, CheckResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "TruncPoly",
    "TSeries",
    "sqrt_one_minus_v",
    "CountTable",
    "History",
    "TreeLabel",
    "kink_count",
    "max_kinks",
    "tree_label",
    "CoefficientError",
    "ConvergenceRow",
    "asymptotic_estimate",
    "bivariate_series",
    "closed_form",
    "convergence_report",
    "fixed_kinks_series",
    "series_count",
    "series_table",
    "DEFAULT_BRUTE_CEILING",
    "backtrack_count",
    "brute_force_table",
    "enumerate_histories",
    "ConsistencyReport",
    "LevelState",
    "advance_level",
    "dp_table",
    "root_state",
    "succession_children",
    "tree_label_consistency",
    "GOLDEN_ROWS",
    "CheckResult",
    "run_verification",
    "__version__",
]
