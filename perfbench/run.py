"""End-to-end and per-layer benchmark of the kinks library (stdlib only).

    python3 perfbench/run.py --workload tables --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Each workload is one closed loop: one client in one process and one
thread sends the next request only after the previous one returned.
Requests go through `kinks.cli.main(argv)` with stdout captured, or
through `kinks.verify.run_verification`. Every output is checked against
a reference that does not come from the route under test. The last line
of stdout is a JSON result; the line before it is a JSON record of the
run's conditions. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from math import ceil
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibration import REFERENCE_S, calibrate  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, Request  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)
#: Candidate tail percentiles, in tenths of a percent.
TAIL_LADDER = (500, 900, 990, 999)
SETUP_REPEATS = 7
CALIBRATION_SHARE = 0.1
WINDOW_S = 0.5
#: Nominal seconds for a bare `python3 -c` to start and write a line.
REFERENCE_SPAWN_S = 0.04
#: No round starts after this many seconds, so a run ends within 180 s.
WALL_LIMIT_S = 100
READY = b"ready\n"


# ---------------------------------------------------------------------------
# statistics


def percentile(values: list[float], tenths: int) -> float:
    """Linear-interpolated percentile (inclusive method) of the values."""
    xs = sorted(values)
    pos = (len(xs) - 1) * tenths / 1000
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(n: int, tenths: int) -> int:
    """Samples that lie above the given percentile of n samples."""
    return n - ceil(n * tenths / 1000)


def tail_percentile(n: int) -> int:
    """Highest ladder percentile with at least ten samples beyond it.

    Below 20 samples no percentile has ten beyond; the median is used.
    """
    fitting = [p for p in TAIL_LADDER if beyond(n, p) >= 10]
    return fitting[-1] if fitting else TAIL_LADDER[0]


# ---------------------------------------------------------------------------
# the program under test


def load_program():
    if not (SRC / "kinks" / "cli.py").is_file():
        raise SystemExit(f"error: no kinks sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kinks.cli  # noqa: F401  (binds the submodules on the package)

    return sys.modules["kinks"]


def _spawn_s(code: str, env: dict) -> float:
    """Seconds from spawning `python3 -c code` until it writes READY."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT
    ) as proc:
        line = proc.stdout.read(len(READY))
        ready = perf_counter()
        proc.stdout.read()
    if line != READY or proc.returncode != 0:
        raise SystemExit(f"error: the interpreter failed to run {code!r}")
    return ready - start


def measure_setup() -> tuple[list[float], list[float]]:
    """Set-up samples: spawn to `import kinks.cli` done, scaled; and unscaled.

    Each kinks spawn sits between two spawns of a bare interpreter, and is
    scaled by REFERENCE_SPAWN_S over their mean. The first round compiles
    bytecode in a fresh checkout and is dropped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    bare = "import sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    program = bare.replace("import sys;", "import sys, kinks.cli;")
    scaled, unscaled = [], []
    for i in range(SETUP_REPEATS + 1):
        before = _spawn_s(bare, env)
        setup = _spawn_s(program, env)
        after = _spawn_s(bare, env)
        if i:
            scaled.append(setup * REFERENCE_SPAWN_S * 2 / (before + after))
            unscaled.append(setup)
    return scaled, unscaled


def execute(kinks, req: Request) -> tuple[float, Outcome]:
    """Run one request; time only the call into the program."""
    got = Outcome()
    if req.is_cli:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            got.code = kinks.cli.main(list(req.argv))
            elapsed = perf_counter() - start
        got.out, got.err = out.getvalue(), err.getvalue()
    else:
        start = perf_counter()
        got.results = kinks.verify.run_verification(**req.api)
        elapsed = perf_counter() - start
    return elapsed, got


def digest(got: Outcome) -> str:
    return hashlib.sha256(repr((got.code, got.out, got.err, got.results)).encode()).hexdigest()


class Pass:
    """Latencies, failures and output digests of one pass over requests.

    After each request the calibration kernel runs for CALIBRATION_SHARE
    of that request's latency. A request's slowdown is the kernel's mean
    time over REFERENCE_S, taken over every calibration that ran from
    WINDOW_S before the request started to WINDOW_S after it ended; its
    scaled latency is its latency divided by that slowdown.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.spans: list[tuple[float, float]] = []  # (start, end) per request
        self.calibrations: list[tuple[float, int, float]] = []  # (midpoint, calls, seconds)
        self.failed = 0
        self.digests: list[str] = []

    def run_round(self, kinks, workload, requests, tracer=None) -> None:
        for req in requests:
            if tracer is not None:
                tracer.request = len(self.raw)
            elapsed, got = execute(kinks, req)
            end = perf_counter()
            if tracer is not None:
                tracer.request = None
            self.raw.append(elapsed)
            self.spans.append((end - elapsed, end))
            self.failed += not workload.check(req, got)
            self.digests.append(digest(got))
            start = perf_counter()
            calls, spent = calibrate(CALIBRATION_SHARE * elapsed)
            self.calibrations.append((start + spent / 2, calls, spent))

    @property
    def slowdowns(self) -> list[float]:
        mids = [mid for mid, _, _ in self.calibrations]
        out = []
        for start, end in self.spans:
            near = self.calibrations[
                bisect_left(mids, start - WINDOW_S) : bisect_right(mids, end + WINDOW_S)
            ]
            out.append(sum(t for _, _, t in near) / sum(c for _, c, _ in near) / REFERENCE_S)
        return out

    @property
    def scaled(self) -> list[float]:
        return [x / slowdown for x, slowdown in zip(self.raw, self.slowdowns)]


def summarize(latencies: list[float]) -> dict:
    """Throughput and latency percentiles of one closed-loop stream."""
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": percentile(latencies, 500) * 1000,
        "latency_tail_ms": percentile(latencies, tail_percentile(len(latencies))) * 1000,
    }


def negative_check(kinks, workload) -> bool:
    """A request whose expected value is deliberately wrong must fail."""
    req = workload.round(0, 0)[-1]
    _, got = execute(kinks, req)
    if req.is_cli:
        got.out += "0\n"
    else:
        got.results = got.results[1:]
    return not workload.check(req, got)


# ---------------------------------------------------------------------------
# runs


def stamp(args, samples: int, rounds: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "kinks").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "rounds": rounds,
        "samples": samples,
    }


def git_commit() -> str | None:
    """HEAD of the enclosing git checkout, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed_rounds(workload, seconds: int) -> int:
    """Rounds that fill about `seconds` of scaled time at the reference speed.

    Fixed by the arguments alone, so every run of a seed measures the same
    requests and the tail percentile does not move with the machine's speed.
    """
    return max(1, round(seconds / workload.nominal_round_s))


def run_timed(args, kinks, workload) -> tuple[dict, dict, int, int, bool]:
    """The end-to-end metrics, with tracing off."""
    setup, setup_unscaled = measure_setup()
    workload.prepare(kinks)
    ok = negative_check(kinks, workload)
    gc.collect()
    timed = Pass()
    start = perf_counter()
    rounds = 0
    while rounds < timed_rounds(workload, args.seconds):
        timed.run_round(kinks, workload, workload.round(args.seed, rounds))
        rounds += 1
        if perf_counter() - start > WALL_LIMIT_S:
            break
    n = len(timed.raw)
    metrics = {"setup_s": statistics.median(setup), **summarize(timed.scaled),
               "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    tail = tail_percentile(n)
    record = stamp(args, n, rounds)
    record.update(
        tail_percentile=tail / 10,
        tail_samples_beyond=beyond(n, tail),
        setup_samples=len(setup),
        setup_unscaled_s=statistics.median(setup_unscaled),
        unscaled=summarize(timed.raw),
        slowdown_median=statistics.median(timed.slowdowns),
        busy_s=sum(timed.raw),
        error_rate=timed.failed / n,
        negative_check_failed_as_expected=ok,
    )
    units = dict(END_TO_END)
    result = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return result, record, n, timed.failed, ok


def run_traced(args, kinks, workload) -> tuple[dict, dict, int, int, bool]:
    """The same fixed rounds untraced, then traced; per-layer metrics."""
    workload.prepare(kinks)
    ok = negative_check(kinks, workload)
    rounds = max(1, timed_rounds(workload, args.seconds) // 3)  # two passes, one traced
    batches = [workload.round(args.seed, index) for index in range(rounds)]
    gc.collect()
    plain = Pass()
    for batch in batches:
        plain.run_round(kinks, workload, batch)
    tracer = Tracer()
    traced = Pass()
    tracer.install()
    try:
        for batch in batches:
            traced.run_round(kinks, workload, batch, tracer)
    finally:
        tracer.uninstall()
    identical = plain.digests == traced.digests
    layers = tracer.layer_metrics(traced.slowdowns)
    layers["trace.overhead"] = sum(traced.scaled) / sum(plain.scaled)
    expected_failures = 3 * sum(req.kind == "corrupt" for batch in batches for req in batch)
    counted = layers["verify.checks_failed"] == expected_failures
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{workload.name}.jsonl"
    tracer.write(spans_path, {"workload": workload.name, "seed": args.seed, "rounds": rounds})
    n = len(plain.raw)
    record = stamp(args, n, rounds)
    record.update(
        stdout_identical_with_tracing=identical,
        spans=len(tracer.spans),
        spans_file=str(spans_path.relative_to(ROOT)),
        exact_counts=[name for name, _, exact in LAYER_METRICS if exact],
        untraced_busy_s=sum(plain.raw),
        traced_busy_s=sum(traced.raw),
        negative_check_failed_as_expected=ok,
        checks_failed_as_expected=counted,
    )
    result = {name: {"value": layers[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    return result, record, 2 * n, plain.failed + traced.failed, ok and identical and counted


def run_all(args) -> int:
    """Each workload in its own process; prints one table of every metric."""
    rows = []
    correct = True
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *_, record_line, result_line = proc.stdout.strip().split("\n")
        result = json.loads(result_line)
        correct = correct and result["correct"]
        rows.append((name, json.loads(record_line)["record"], result))
    for name, record, result in rows:
        print_table(name, record, result)
    return 0 if correct else 1


def print_table(name: str, record: dict, result: dict) -> None:
    print(f"{name}: seed {record['seed']}, {record['rounds']} rounds, "
          f"{record['samples']} requests, correct {result['correct']}")
    for key, metric in result["metrics"].items():
        note = ""
        if key == "latency_tail_ms":
            note = f"  (p{record['tail_percentile']:g}, {record['tail_samples_beyond']} beyond)"
        print(f"  {key:40} {metric['value']:>16.6g} {metric['unit']}{note}")
    if "error_rate" in record:
        print(f"  {'error_rate':40} {record['error_rate']:>16.6g} ratio")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    kinks = load_program()
    workload = WORKLOADS[args.workload]()
    runner = run_traced if args.trace else run_timed
    metrics, record, attempted, failed, healthy = runner(args, kinks, workload)
    result = {"correct": healthy and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print_table(args.workload, record, result)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
