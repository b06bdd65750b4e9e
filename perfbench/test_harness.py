"""Self-tests of the benchmark harness (stdlib unittest).

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import ast
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Outcome, Request  # noqa: E402

KINKS = run.load_program()


def stream(workload, seed, rounds):
    return [req for index in range(rounds) for req in workload.round(seed, index)]


class StreamTest(unittest.TestCase):
    def test_same_seed_same_argv_stream(self):
        for cls in WORKLOADS.values():
            a, b = stream(cls(), 7, 3), stream(cls(), 7, 3)
            self.assertEqual([(r.argv, r.api) for r in a], [(r.argv, r.api) for r in b])

    def test_other_seed_other_argv_stream(self):
        for cls in WORKLOADS.values():
            a, b = stream(cls(), 7, 3), stream(cls(), 8, 3)
            self.assertNotEqual([(r.argv, r.api) for r in a], [(r.argv, r.api) for r in b])

    def test_table_sizes_stay_in_range_and_reach_200(self):
        sizes = [int(r.argv[4]) for r in stream(WORKLOADS["tables"](), 3, 5)]
        self.assertTrue(all(20 <= n <= 200 for n in sizes))
        self.assertEqual(sizes.count(200), 5 * 6)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        spans = [
            Span(0, None, 0, "root", 0.0, 10.0),
            Span(1, 0, 0, "a", 1.0, 4.0),
            Span(2, 1, 0, "a.child", 2.0, 3.5),
            Span(3, 0, 0, "b", 6.0, 8.0),
            Span(4, 0, 0, "c", 7.5, 9.0),  # overlaps b: covered once
        ]
        got = self_times(spans)
        self.assertAlmostEqual(got[0], 10.0 - 3.0 - 3.0)
        self.assertAlmostEqual(got[1], 3.0 - 1.5)
        self.assertAlmostEqual(got[2], 1.5)
        self.assertAlmostEqual(got[3], 2.0)
        self.assertAlmostEqual(got[4], 1.5)

    def test_span_ids_are_unique_and_parents_nest(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: (inner(), inner()))
        outer()
        outer()
        by_id = {s.sid: s for s in tracer.spans}
        self.assertEqual(sorted(by_id), list(range(6)))
        for s in tracer.spans:
            parent = by_id.get(s.parent)
            self.assertEqual(parent and parent.name, "outer" if s.name == "inner" else None)


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail_percentile(99), 500)
        self.assertEqual(run.tail_percentile(100), 900)
        self.assertEqual(run.tail_percentile(999), 900)
        self.assertEqual(run.tail_percentile(1000), 990)
        self.assertEqual(run.tail_percentile(10000), 999)
        for n in (20, 100, 250, 1000, 12345):
            self.assertGreaterEqual(run.beyond(n, run.tail_percentile(n)), 10)

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(run.tail_percentile(12), 500)

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 500), 2.0)
        self.assertAlmostEqual(run.percentile(list(map(float, range(101))), 900), 90.0)


class CheckTest(unittest.TestCase):
    def test_wrong_expected_value_counts_as_failed(self):
        queries = WORKLOADS["queries"]()
        queries.prepare(KINKS)
        req = Request("count", ("count", "--n", "12", "--d", "2", "--method", "closed"))
        passes = run.Pass()
        passes.run_round(KINKS, queries, [req])
        self.assertEqual(passes.failed, 0)
        queries.rational[2] = tuple(c + 1 for c in queries.rational[2])
        passes.run_round(KINKS, queries, [req])
        self.assertEqual(passes.failed, 1)

    def test_negative_check_catches_every_workload(self):
        for name in ("tables", "queries"):
            workload = WORKLOADS[name]()
            workload.prepare(KINKS)
            self.assertTrue(run.negative_check(KINKS, workload), name)

    def test_corrupted_reference_reports_golden_failures(self):
        verify = WORKLOADS["verify"]()
        corrupt = next(r for r in verify.round(5, 0) if r.kind == "corrupt")
        _, got = run.execute(KINKS, corrupt)
        self.assertTrue(verify.check(corrupt, got))
        self.assertEqual(sum(not r.passed for r in got.results), 3)
        got.results = [r for r in got.results if r.passed]
        self.assertFalse(verify.check(corrupt, got))

    def test_table_checker_rejects_a_changed_cell(self):
        tables = WORKLOADS["tables"]()
        tables.prepare(KINKS)
        for fmt in ("csv", "json", "text"):
            req = Request("table", ("table", "--method", "dp", "--max-n", "14", "--format", fmt))
            _, got = run.execute(KINKS, req)
            self.assertTrue(tables.check(req, got), fmt)
            bad = Outcome(got.code, got.out.replace("1304832", "1304833"), got.err)
            self.assertFalse(tables.check(req, bad), fmt)


class ScalingTest(unittest.TestCase):
    def test_round_latencies_are_divided_by_the_slowdown(self):
        queries = WORKLOADS["queries"]()
        queries.prepare(KINKS)
        passes = run.Pass()
        passes.run_round(KINKS, queries, queries.round(1, 0)[:5])
        self.assertEqual(len(set(passes.slowdowns)), 1)
        for raw, scaled in zip(passes.raw, passes.scaled):
            self.assertAlmostEqual(scaled * passes.slowdowns[0], raw)

    def test_rounds_follow_seconds_only(self):
        tables = WORKLOADS["tables"]()
        self.assertEqual(run.timed_rounds(tables, 1), 1)
        self.assertEqual(run.timed_rounds(tables, 20), round(20 / tables.nominal_round_s))


class TracingTest(unittest.TestCase):
    REQUESTS = [
        Request("table", ("table", "--method", "dp", "--max-n", "30", "--format", "json")),
        Request("count", ("count", "--n", "12", "--d", "3", "--method", "gf")),
        Request("count", ("count", "--n", "9", "--d", "2", "--method", "backtrack")),
        Request("count", ("count", "--n", "40", "--d", "2", "--method", "closed")),
        Request("enumerate", ("enumerate", "--n", "10", "--d", "2", "--limit", "50")),
        Request("verify", ("verify", "--max-n-brute", "4", "--max-n-dp", "12",
                           "--t-order", "6", "--v-order", "2")),
    ]

    def test_stdout_is_byte_identical_with_and_without_wrappers(self):
        plain = [run.execute(KINKS, req)[1] for req in self.REQUESTS]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [run.execute(KINKS, req)[1] for req in self.REQUESTS]
        finally:
            tracer.uninstall()
        for a, b in zip(plain, traced):
            self.assertEqual((a.code, a.out, a.err), (b.code, b.out, b.err))
        layers = tracer.layer_metrics()
        self.assertEqual(layers["cli.main.calls"], len(self.REQUESTS))
        self.assertEqual(layers["oracle.enumerate.histories"], 50)
        self.assertEqual(layers["oracle.backtrack_count.calls"], 1 + 5)  # request + verify
        self.assertGreater(layers["treedp.advance_level.calls"], 28)
        self.assertGreater(layers["algebra.tseries_mul.calls"], 0)
        self.assertGreater(layers["core.tree_label.calls"], 0)
        self.assertGreater(layers["algebra.fraction_share"], 0)

    def test_uninstall_restores_every_binding(self):
        import kinks.cli
        import kinks.treedp

        before = (kinks.cli.dp_table, kinks.treedp.advance_level,
                  kinks.algebra.TSeries.__mul__, dict(kinks.cli._TABLE_FORMATTERS))
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(kinks.cli.dp_table, before[0])
        tracer.uninstall()
        after = (kinks.cli.dp_table, kinks.treedp.advance_level,
                 kinks.algebra.TSeries.__mul__, dict(kinks.cli._TABLE_FORMATTERS))
        self.assertEqual(before, after)


class StdlibOnlyTest(unittest.TestCase):
    def test_no_module_outside_the_standard_library(self):
        local = {p.stem for p in HERE.glob("*.py")} | {"kinks"}
        for path in HERE.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    self.assertTrue(
                        top in sys.stdlib_module_names or top in local,
                        f"{path.name} imports {name}",
                    )


if __name__ == "__main__":
    unittest.main()
