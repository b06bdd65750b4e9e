"""The one argument gate: every integer argument is exactly an int at or above its bound."""

import re
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinks import (
    LevelState,
    TreeLabel,
    TruncPoly,
    TSeries,
    advance_level,
    asymptotic_estimate,
    backtrack_count,
    bivariate_series,
    brute_force_table,
    closed_form,
    convergence_report,
    dp_table,
    enumerate_histories,
    fixed_kinks_series,
    max_kinks,
    root_state,
    run_verification,
    series_count,
    series_table,
    sqrt_one_minus_v,
    succession_children,
    tree_label_consistency,
)

DP6 = dp_table(6)

#: entry point -> (the call, valid keyword arguments, the least value of
#: each integer argument).  Every call passes with the valid arguments,
#: and with any one of them lowered to its bound.
ENTRY_POINTS = {
    "max_kinks": (max_kinks, {"n": 3}, {"n": 1}),
    "CountTable.count": (DP6.count, {"n": 6, "d": 2}, {"n": 1, "d": 0}),
    # n_max = 1 keeps the call inside the ceiling at the ceiling's bound
    "brute_force_table": (
        brute_force_table, {"n_max": 1, "ceiling": 4}, {"n_max": 1, "ceiling": 1}
    ),
    "backtrack_count": (backtrack_count, {"n": 5, "d": 0}, {"n": 1, "d": 0}),
    "enumerate_histories": (
        enumerate_histories, {"n": 5, "d": 0, "limit": 2}, {"n": 1, "d": 0, "limit": 0}
    ),
    "bivariate_series": (bivariate_series, {"t_order": 5, "v_order": 2}, {"t_order": 2, "v_order": 0}),
    "series_table": (series_table, {"t_order": 5, "v_order": 2}, {"t_order": 2, "v_order": 0}),
    "series_count": (series_count, {"n": 5, "d": 1}, {"n": 2, "d": 0}),
    "fixed_kinks_series": (fixed_kinks_series, {"d": 1, "n_max": 5}, {"d": 0, "n_max": 2}),
    "closed_form": (closed_form, {"n": 5, "d": 1}, {"n": 1, "d": 0}),
    "asymptotic_estimate": (asymptotic_estimate, {"n": 5, "d": 1}, {"n": 1, "d": 0}),
    # the counts of column 1 start at n = 3
    "convergence_report": (
        partial(convergence_report, table=DP6), {"d": 1, "n_max": 6}, {"d": 0, "n_max": 3}
    ),
    "dp_table": (dp_table, {"n_max": 6, "d_max": 2}, {"n_max": 1, "d_max": 0}),
    "succession_children": (partial(succession_children, TreeLabel(2, 0, 0)), {"n": 2}, {"n": 2}),
    # the parent label's three fields, at level 2
    "succession_children.label": (
        lambda **fields: succession_children(TreeLabel(**fields), 2),
        {"max_pos": 2, "kinks": 0, "max_first": 0},
        {"max_pos": 1, "kinks": 0, "max_first": 0},
    ),
    "tree_label_consistency": (tree_label_consistency, {"n_max": 4}, {"n_max": 2}),
    # the level of a state; only level 2 fits the root's counts
    "advance_level": (
        lambda n: advance_level(LevelState(n, root_state().counts)), {"n": 2}, {"n": 2}
    ),
    "run_verification": (
        run_verification,
        {"max_n_brute": 4, "max_n_dp": 6, "t_order": 4, "v_order": 1},
        {"max_n_brute": 2, "max_n_dp": 2, "t_order": 2, "v_order": 0},
    ),
    "TruncPoly": (partial(TruncPoly, (1, 2, 3)), {"order": 2}, {"order": 0}),
    "TSeries": (partial(TSeries, ()), {"t_order": 2, "v_order": 1}, {"t_order": 0, "v_order": 0}),
    "sqrt_one_minus_v": (sqrt_one_minus_v, {"order": 3}, {"order": 0}),
}


@st.composite
def bad_arguments(draw):
    """An entry point and one of its integer arguments set to a bool, an
    equal float or an int below its bound."""
    name = draw(st.sampled_from(sorted(ENTRY_POINTS)))
    least = ENTRY_POINTS[name][2]
    arg = draw(st.sampled_from(sorted(least)))
    bad = draw(
        st.booleans()
        | st.integers(least[arg], least[arg] + 20).map(float)
        | st.integers(max_value=least[arg] - 1)
    )
    return name, {arg: bad}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_integer_argument_may_sit_at_its_bound(name):
    call, valid, least = ENTRY_POINTS[name]
    call(**valid)
    for arg, bound in least.items():
        call(**{**valid, arg: bound})


@settings(max_examples=300, deadline=None)
@given(bad_arguments())
# each a float result or a bool computed as 0 or 1 before the gate
@example(("asymptotic_estimate", {"n": 5.0}))
@example(("max_kinks", {"n": 3.0}))
@example(("fixed_kinks_series", {"d": True}))
@example(("series_table", {"v_order": True}))
@example(("brute_force_table", {"n_max": True}))
@example(("CountTable.count", {"d": True}))
@example(("run_verification", {"v_order": True}))
@example(("run_verification", {"max_n_brute": 4.0}))  # a TypeError before the gate
# brute_force_table took a float ceiling
@example(("brute_force_table", {"ceiling": 4.5}))
# an order-1 polynomial, and a TypeError from a slice
@example(("TruncPoly", {"order": True}))
@example(("TruncPoly", {"order": 2.0}))
@example(("sqrt_one_minus_v", {"order": True}))
@example(("TSeries", {"v_order": 1.0}))
# dp_table(True) gave the n = 1 table
@example(("closed_form", {"d": -1}))
@example(("dp_table", {"n_max": True}))
@example(("dp_table", {"n_max": 5.0}))
@example(("dp_table", {"d_max": 1.0}))
@example(("dp_table", {"d_max": True}))
# max_kinks(3.0) is 1.0, so without the type check (3.0, 1) would pass
# the range check and fail late
@example(("enumerate_histories", {"n": 3.0}))
@example(("enumerate_histories", {"n": True}))
@example(("enumerate_histories", {"d": 1.0}))
@example(("enumerate_histories", {"d": True}))
@example(("enumerate_histories", {"n": 5.0, "d": 1.0}))
@example(("enumerate_histories", {"d": -1}))
@example(("backtrack_count", {"n": 3.0}))
@example(("backtrack_count", {"n": True}))
@example(("backtrack_count", {"d": 1.0}))
@example(("backtrack_count", {"d": True}))
@example(("backtrack_count", {"n": 5.0, "d": 1.0}))
@example(("backtrack_count", {"d": -1}))
# children with kinks = 1.0, 0.0 or False, and a TypeError from a range
@example(("succession_children.label", {"kinks": 0.0}))
@example(("succession_children.label", {"kinks": False}))
@example(("succession_children.label", {"max_pos": 2.0}))
# a TypeError from a tuple repeat
@example(("advance_level", {"n": 2.0}))
def test_the_gate_rejects_every_non_int_or_low_argument(case):
    # at the call, before any work: a bad enumerate_histories argument
    # raises without a next().  With two bad arguments the message names
    # one of them.
    name, bad = case
    call, valid, least = ENTRY_POINTS[name]
    messages = "|".join(
        f"{arg} must be an int of at least {least[arg]}, got {re.escape(repr(value))}"
        for arg, value in bad.items()
    )
    with pytest.raises(ValueError, match=f"^(?:{messages})$"):
        call(**{**valid, **bad})
