"""Seeded request streams, reference values and output checks.

A workload is a stream of rounds. Each round is a fixed mix of requests
(a deck) whose sizes are drawn inside fixed strata, so every round costs
about the same whatever the seed, and the seed changes the sizes, the
order and the formats. References come from a route other than the one
under test and are built once by `prepare`, outside the timed section.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import factorial

FORMATS = ("csv", "json", "text")

#: The published table for n = 2..10, kept here so that the checks do not
#: depend on the program's own copy.
PUBLISHED_ROWS = {
    2: (2,),
    3: (4, 2),
    4: (8, 16),
    5: (16, 88, 16),
    6: (32, 416, 272),
    7: (64, 1824, 2880, 272),
    8: (128, 7680, 24576, 7936),
    9: (256, 31616, 185856, 137216, 7936),
    10: (512, 128512, 1304832, 1841152, 353792),
}

CHECK_NAMES = (
    "golden_dp",
    "golden_brute",
    "golden_series",
    "method_agreement",
    "partition_identity",
    "series_partition",
    "rational_forms",
    "closed_forms",
    "tree_labels",
    "growth_estimate",
    "exact_algebra",
)
GOLDEN_CHECKS = ("golden_dp", "golden_brute", "golden_series")
VERIFY_TRANSCRIPT = "".join(f"PASS {name}\n" for name in CHECK_NAMES) + (
    f"{len(CHECK_NAMES)} checks, {len(CHECK_NAMES)} passed, 0 failed\n"
)


def max_kinks(n: int) -> int:
    return (n - 1) // 2


@dataclass(frozen=True)
class Request:
    """One request: CLI argv, or keyword arguments of `run_verification`.

    `row` is the reference row that a "corrupt" request corrupted.
    """

    kind: str  # "count", "enumerate", "table", "verify" or "corrupt"
    argv: tuple[str, ...] = ()
    api: dict = field(default_factory=dict, compare=False)
    row: int = 0

    @property
    def is_cli(self) -> bool:
        return self.kind != "corrupt"


@dataclass
class Outcome:
    """What a request returned: exit code and captured streams, or results."""

    code: int = 0
    out: str = ""
    err: str = ""
    results: list = field(default_factory=list)


def _rng(name: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{index}")


def _stratum(rng: random.Random, i: int, k: int) -> float:
    """A point drawn from the middle half of the i-th of k slices of [0, 1)."""
    return (i + 0.25 + 0.5 * rng.random()) / k


class Workload:
    name = ""
    #: Scaled seconds one round took when the benchmark was defined; a run
    #: of `--seconds S` measures round(S / nominal_round_s) rounds.
    nominal_round_s = 1.0

    def round(self, seed: int, index: int) -> list[Request]:
        raise NotImplementedError

    def prepare(self, kinks) -> None:
        """Build the references, with the untraced library."""

    def check(self, req: Request, got: Outcome) -> bool:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# tables


def _parse_csv(text: str) -> dict[int, list[int]]:
    lines = text.split("\n")
    if lines[0] != "n,d,count" or lines[-1] != "":
        raise ValueError("bad csv framing")
    rows: dict[int, list[int]] = {}
    for line in lines[1:-1]:
        n, d, c = (int(x) for x in line.split(","))
        row = rows.setdefault(n, [])
        if d != len(row):
            raise ValueError(f"row {n} is out of order")
        row.append(c)
    return rows


def _parse_json(text: str) -> dict[int, list[int]]:
    rows: dict[int, list[int]] = {}
    for row in json.loads(text)["rows"]:
        if not all(isinstance(c, str) for c in row["counts"]):
            raise ValueError("counts must be decimal strings")
        rows[row["n"]] = [int(c) for c in row["counts"]]
    return rows


def _parse_text(text: str) -> dict[int, list[int]]:
    rows: dict[int, list[int]] = {}
    for line in text.split("\n")[:-1]:
        head, poly = line.split(": ")
        if not head.startswith("n="):
            raise ValueError(f"bad row head {head!r}")
        row = []
        for d, term in enumerate(poly.split(" + ")):
            tail = "" if d == 0 else " v" if d == 1 else f" v^{d}"
            if not term.endswith(tail) or (tail and term == tail):
                raise ValueError(f"bad term {term!r} at d = {d}")
            row.append(int(term[: len(term) - len(tail)]))
        rows[int(head[2:])] = row
    return rows


_PARSERS = {"csv": _parse_csv, "json": _parse_json, "text": _parse_text}


class Tables(Workload):
    """`table --method dp --max-n N --format F`, N skewed over 20..200."""

    name = "tables"
    nominal_round_s = 4.0

    def round(self, seed, index):
        rng = _rng(self.name, seed, index)
        # 30 requests: 12 over 20..55, 6 at N = 60, 6 over 70..150 and 6 at
        # N = 200. The p50 falls in the middle of the N = 60 block and the
        # p90 in the middle of the N = 200 block, never between unlike sizes.
        sizes = [20 + round(35 * _stratum(rng, i, 12)) for i in range(12)]
        sizes += [60] * 6
        sizes += [70 + round(80 * _stratum(rng, i, 6)) for i in range(6)]
        sizes += [200] * 6
        # formats cycle over the strata, the same way in every round, so that
        # each block holds two requests of each format
        jobs = [(n, FORMATS[i % len(FORMATS)]) for i, n in enumerate(sizes)]
        rng.shuffle(jobs)
        return [
            Request("table", ("table", "--method", "dp", "--max-n", str(n), "--format", fmt))
            for n, fmt in jobs
        ]

    def prepare(self, kinks):
        self.factorials = [factorial(n) for n in range(201)]
        self.closed = {
            (n, d): kinks.genfunc.closed_form(n, d)
            for n in range(1, 201)
            for d in range(min(3, max_kinks(n)) + 1)
        }

    def check(self, req, got):
        if got.code != 0 or got.err:
            return False
        n_max = int(req.argv[4])
        try:
            rows = _PARSERS[req.argv[6]](got.out)
        except (ValueError, KeyError, TypeError):
            return False
        if sorted(rows) != list(range(2, n_max + 1)):
            return False
        for n, row in rows.items():
            if len(row) != max_kinks(n) + 1 or sum(row) != self.factorials[n]:
                return False
            if n in PUBLISHED_ROWS and tuple(row) != PUBLISHED_ROWS[n]:
                return False
            if any(row[d] != self.closed[n, d] for d in range(min(3, len(row) - 1) + 1)):
                return False
        return True


# ---------------------------------------------------------------------------
# queries


def _kinks_of(word: tuple[int, ...]) -> int:
    # Replays the flips on an explicit chain: a flip with no plus neighbour
    # opens a new block, and every block after the first is a kink.
    plus = [False] * (len(word) + 2)
    rises = 0
    for site in word:
        if not (plus[site - 1] or plus[site + 1]):
            rises += 1
        plus[site] = True
    return rises - 1


def _parse_word(line: str, n: int) -> tuple[int, ...]:
    return tuple(int(x) for x in (line if n <= 9 else line.split(",")))


class Queries(Workload):
    """Single-answer requests: gf, closed, dp and backtrack counts, enumerate."""

    name = "queries"
    nominal_round_s = 1.2
    closed_n_max = 300
    enumerate_limit = 2000
    #: gf requests per round by d; the d = 6 block is 15% of the round, so
    #: the p90 latency falls inside it
    gf_kinks = {1: 2, 2: 2, 3: 2, 4: 3, 5: 3, 6: 6}

    def round(self, seed, index):
        rng = _rng(self.name, seed, index)
        reqs = []
        for d, count in self.gf_kinks.items():  # 45%: the series route
            low = max(10, 2 * d + 1)
            for j in range(count):
                n = low + int((31 - low) * _stratum(rng, j, count))
                reqs.append(self._count("gf", n, d))
        for i in range(8):  # 20%: explicit formulas, d <= 3
            d = i % 4
            n = rng.randint(max(2, 2 * d + 1), self.closed_n_max)
            reqs.append(self._count("closed", n, d))
        for i in range(6):  # 15%: the recurrences
            n = 40 + int(61 * _stratum(rng, i, 6))
            reqs.append(self._count("dp", n, rng.randint(0, 3)))
        # 10%: pruned backtracking; at n = 9 the cost varies 50-fold with d,
        # so the two n = 9 requests cycle through every d across rounds
        first = (_rng(self.name, seed, -1).randrange(5) + index) % 5
        for n, d in ((7, rng.randint(0, 3)), (8, rng.randint(0, 3)), (9, first),
                     (9, (first + 2) % 5)):
            reqs.append(self._count("backtrack", n, d))
        for i, n in enumerate((9, 10, 11, 12)):  # 10%: enumeration
            limit = 200 + int((self.enumerate_limit - 200) * _stratum(rng, i, 4))
            reqs.append(
                Request(
                    "enumerate",
                    ("enumerate", "--n", str(n), "--d", str(rng.randint(0, max_kinks(n))),
                     "--limit", str(limit)),
                )
            )
        rng.shuffle(reqs)
        return reqs

    @staticmethod
    def _count(method, n, d):
        return Request("count", ("count", "--n", str(n), "--d", str(d), "--method", method))

    def prepare(self, kinks):
        # gf, backtrack and enumerate against the recurrences, dp against
        # the explicit formulas, closed against the rational forms.
        self.dp = kinks.treedp.dp_table(30)
        self.rational = {
            d: kinks.genfunc.fixed_kinks_series(d, self.closed_n_max) for d in range(4)
        }
        self.closed = {
            (n, d): kinks.genfunc.closed_form(n, d) for n in range(40, 101) for d in range(4)
        }

    def expected(self, method: str, n: int, d: int) -> int:
        if method in ("gf", "backtrack"):
            return self.dp.count(n, d)
        if method == "closed":
            return self.rational[d][n - 2]
        return self.closed[n, d]

    def check(self, req, got):
        if got.code != 0 or got.err:
            return False
        a = req.argv
        n, d = int(a[2]), int(a[4])
        if req.kind == "count":
            return got.out == f"{self.expected(a[6], n, d)}\n"
        if got.out and not got.out.endswith("\n"):
            return False
        try:
            words = [_parse_word(line, n) for line in got.out.split("\n")[:-1]]
        except ValueError:
            return False
        if len(words) != min(int(a[6]), self.dp.count(n, d)):
            return False
        if any(w >= nxt for w, nxt in zip(words, words[1:])):
            return False  # word order, no duplicates
        full = tuple(range(1, n + 1))
        return all(tuple(sorted(w)) == full and _kinks_of(w) == d for w in words)


# ---------------------------------------------------------------------------
# verify


class Verify(Workload):
    """`kinks verify` at default and reduced scopes, and corrupted references."""

    name = "verify"
    nominal_round_s = 5.5
    reduced = ((True, False), (True, True), (False, False), (False, False), (False, True))

    def round(self, seed, index):
        rng = _rng(self.name, seed, index)
        reqs = [Request("verify", ("verify",)) for _ in range(2)]
        # a low and a middle block of reduced scopes, so that the median
        # falls in the middle block: (level, corrupted) per request
        for low, corrupt in self.reduced:
            u = (0.05 if low else 0.5) + 0.1 * rng.random()
            scope = self._scope(u)
            if not corrupt:
                argv = ["verify"]
                for key, value in scope.items():
                    argv += ["--" + key.replace("_", "-"), str(value)]
                reqs.append(Request("verify", tuple(argv)))
                continue
            top = min(10, scope["max_n_brute"], scope["max_n_dp"], scope["t_order"])
            n = rng.randint(2, top)
            d = rng.randint(0, min(scope["v_order"], max_kinks(n)))
            golden = dict(PUBLISHED_ROWS)
            row = list(golden[n])
            row[d] += rng.randint(1, 9)
            golden[n] = tuple(row)
            reqs.append(Request("corrupt", api=dict(scope, golden_rows=golden), row=n))
        rng.shuffle(reqs)
        return reqs

    @staticmethod
    def _scope(u):
        """A reduced scope; every bound grows with u in [0, 1)."""
        return {
            "max_n_brute": 3 + int(6 * u),
            "max_n_dp": 10 + int(50 * u),
            "t_order": 4 + int(17 * u),
            "v_order": 1 + int(6 * u),
        }

    def check(self, req, got):
        if req.is_cli:
            return got.code == 0 and not got.err and got.out == VERIFY_TRANSCRIPT
        n = req.row
        if tuple(r.name for r in got.results) != CHECK_NAMES:
            return False
        for r in got.results:
            if r.passed != (r.name not in GOLDEN_CHECKS):
                return False
            if r.passed == bool(r.detail):
                return False
            if not r.passed and f"row {n} " not in r.detail:
                return False
        return True


WORKLOADS = {w.name: w for w in (Tables, Queries, Verify)}
