"""Spans around the library's public functions, recorded from outside it.

`Tracer.install` replaces each wrapped function in every `kinks` module
namespace that binds it (the CLI and the verify suite import the routes
into their own namespaces, and `dp_table` looks `advance_level` up in
its own module), wraps the `TSeries` product and inverse on the class,
and the table formatters in the CLI's dispatch dict. `uninstall` puts
every original back. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from math import factorial
from time import perf_counter
from typing import NamedTuple

#: span name -> (module, attribute) of the public function it wraps
FUNCTIONS = {
    "cli.main": ("kinks.cli", "main"),
    "treedp.dp_table": ("kinks.treedp", "dp_table"),
    "treedp.advance_level": ("kinks.treedp", "advance_level"),
    "treedp.tree_label_consistency": ("kinks.treedp", "tree_label_consistency"),
    "core.tree_label": ("kinks.core", "tree_label"),
    "genfunc.series_table": ("kinks.genfunc", "series_table"),
    "genfunc.bivariate_series": ("kinks.genfunc", "bivariate_series"),
    "genfunc.closed_form": ("kinks.genfunc", "closed_form"),
    "genfunc.fixed_kinks_series": ("kinks.genfunc", "fixed_kinks_series"),
    "genfunc.convergence_report": ("kinks.genfunc", "convergence_report"),
    "oracle.brute_force_table": ("kinks.oracle", "brute_force_table"),
    "oracle.backtrack_count": ("kinks.oracle", "backtrack_count"),
    "verify.run_verification": ("kinks.verify", "run_verification"),
}
#: span name -> TSeries method it wraps (TruncPoly operators stay unwrapped:
#: they run far too often for cheap tracing)
METHODS = {"algebra.tseries_mul": "__mul__", "algebra.tseries_inverse": "inverse"}
ENUMERATE = "oracle.enumerate"
FORMAT_TABLE = "cli.format_table"
HOOK = "trace.count"

#: Per-layer metrics: (name, unit, exact). Exact ones repeat bit for bit
#: between runs of the same seed and length.
LAYER_METRICS = (
    ("cli.main.calls", "count", True),
    ("cli.main.self_s", "s", False),
    ("cli.format_table.self_s", "s", False),
    ("cli.format_table.bytes", "B", True),
    ("treedp.dp_table.calls", "count", True),
    ("treedp.advance_level.calls", "count", True),
    ("treedp.advance_level.self_s", "s", False),
    ("treedp.level_bits", "bit", True),
    ("treedp.tree_label_consistency.self_s", "s", False),
    ("core.tree_label.calls", "count", True),
    ("core.tree_label.self_s", "s", False),
    ("genfunc.series_table.calls", "count", True),
    ("genfunc.series_table.self_s", "s", False),
    ("genfunc.bivariate_series.self_s", "s", False),
    ("genfunc.closed_form.calls", "count", True),
    ("genfunc.closed_form.self_s", "s", False),
    ("genfunc.fixed_kinks_series.self_s", "s", False),
    ("genfunc.convergence_report.self_s", "s", False),
    ("algebra.tseries_mul.calls", "count", True),
    ("algebra.tseries_mul.self_s", "s", False),
    ("algebra.tseries_inverse.calls", "count", True),
    ("algebra.tseries_inverse.self_s", "s", False),
    ("algebra.fraction_share", "ratio", True),
    ("oracle.brute_force_table.self_s", "s", False),
    ("oracle.brute.words", "count", True),
    ("oracle.backtrack_count.calls", "count", True),
    ("oracle.backtrack_count.self_s", "s", False),
    ("oracle.enumerate.self_s", "s", False),
    ("oracle.enumerate.histories", "count", True),
    ("verify.run_verification.calls", "count", True),
    ("verify.run_verification.self_s", "s", False),
    ("verify.checks_failed", "count", True),
    ("trace.overhead", "ratio", False),
)


class Span(NamedTuple):
    sid: int
    parent: int | None
    request: int | None
    name: str
    start: float
    end: float


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


def _level_bits(state) -> int:
    return sum(c.bit_length() for band in state.counts for row in band for c in row)


def _series_fractions(series) -> tuple[int, int]:
    coeffs = [c for poly in series.coeffs for c in poly.coeffs]
    return sum(isinstance(c, Fraction) for c in coeffs), len(coeffs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = len(self.spans) + len(self.stack)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end) -> None:
        self.stack.pop()
        self.spans.append(Span(sid, parent, self.request, name, start, end))

    def wrap(self, name, func, after=None):
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start, perf_counter())
            if after is not None:
                # a span of its own, so that counting is not charged to the caller
                sid, parent = self._open()
                start = perf_counter()
                try:
                    after(result, args)
                finally:
                    self._close(sid, parent, HOOK, start, perf_counter())
            return result

        traced.__wrapped__ = func
        return traced

    def _traced_iter(self, iterator):
        # Only advancing the iterator counts as enumeration time.
        while True:
            sid, parent = self._open()
            start = perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(sid, parent, ENUMERATE, start, perf_counter())
            self.counts["oracle.enumerate.histories"] += 1
            yield item

    # -- installing ---------------------------------------------------------

    def _count(self, key, amount):
        self.counts[key] += amount

    def _hooks(self):
        c = self._count

        def fractions(series, _args):
            share, total = _series_fractions(series)
            c("fraction_coeffs", share)
            c("all_coeffs", total)

        return {
            "treedp.advance_level": lambda state, _a: c("treedp.level_bits", _level_bits(state)),
            "genfunc.bivariate_series": fractions,
            "oracle.brute_force_table": lambda table, _a: c(
                "oracle.brute.words", sum(factorial(n) for n in table.lengths())
            ),
            "verify.run_verification": lambda results, _a: c(
                "verify.checks_failed", sum(not r.passed for r in results)
            ),
        }

    def _replace(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "kinks"]
        hooks = self._hooks()

        def rebind(original, wrapped):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapped)

        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            rebind(original, self.wrap(name, original, hooks.get(name)))

        enumerate_histories = sys.modules["kinks.oracle"].enumerate_histories
        rebind(
            enumerate_histories,
            lambda *a, **k: self._traced_iter(iter(enumerate_histories(*a, **k))),
        )

        series_class = sys.modules["kinks.algebra"].TSeries
        for name, attr in METHODS.items():
            self._replace(series_class, attr, self.wrap(name, getattr(series_class, attr)))

        formatters = sys.modules["kinks.cli"]._TABLE_FORMATTERS
        count_bytes = lambda text, _a: self._count("cli.format_table.bytes", len(text.encode()))
        for fmt, func in list(formatters.items()):
            self._replace_item(formatters, fmt, self.wrap(FORMAT_TABLE, func, count_bytes))

    def _replace_item(self, mapping, key, value) -> None:
        self._restore.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self, slowdowns: list[float] | None = None) -> dict[str, float | int]:
        """Every per-layer metric but `trace.overhead`, from the spans.

        Self times are divided by the slowdown of their request, when given.
        """
        selfs = self_times(self.spans)
        calls: Counter = Counter()
        busy: Counter = Counter()
        for s in self.spans:
            calls[s.name] += 1
            slowdown = slowdowns[s.request] if slowdowns and s.request is not None else 1.0
            busy[s.name] += selfs[s.sid] / slowdown
        out: dict[str, float | int] = {}
        for name, unit, _exact in LAYER_METRICS:
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls[layer]
            elif kind == "self_s":
                out[name] = busy[layer]
            elif name == "algebra.fraction_share":
                total = self.counts["all_coeffs"]
                out[name] = self.counts["fraction_coeffs"] / total if total else 0.0
            elif name != "trace.overhead":
                out[name] = self.counts[name]
        return out

    def write(self, path, header: dict) -> None:
        """Write the header and then one span per line, as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for s in self.spans:
                handle.write(json.dumps(s._asdict()) + "\n")
