"""Command-line front end: compute, enumerate, verify, and export.

`count` reads one entry of `routes.ROUTES`, `table` its rows n =
2..max_n, and `verify` every entry at its own scope.  A request imports
only the modules it runs: `count` and `table` the route they read,
`enumerate` the oracle, `asym` the series module, and `verify` all.
Each subcommand's options are one table, `_COMMANDS`.  An argument list
in its exact form (`_parse_exact`) is read from that table alone; only
any other (`--help`, a usage error, an abbreviation) imports argparse,
whose parser `build_parser` builds from the same table.

Exit codes: 0 on success, 1 when a verification or cross-method
comparison finds a mismatch or an internal invariant check fails (an
ArithmeticError such as CoefficientError, a route giving fewer or more
rows than asked or a `count` row other than one count (or none above
max_kinks(n)), or `enumerate`'s walk flipping a site twice or outside
1..n, as one `error:` line on stderr, without a traceback), 2 on usage
or range errors, such as a row asked of a method outside its domain or
a `verify --max-n-brute` above KINKS_BRUTE_CEILING.  Any other
exception is a fault, and exits 1 with its traceback.  A
reader that closes stdout early (`kinks table ... | head -c 20`) also
gives exit 1, with nothing on stderr; any other failure to write stdout
(a full disk) gives exit 1 and one `error: cannot write stdout:` line.
`table` writes each row as soon as it is formatted, so on stdout exit 1
means that the output is incomplete.  `-o PATH` is all or nothing: PATH
is replaced whole on success, keeping its permission bits, and left as
it was on any failure.  A PATH that cannot be opened exits 2 before any
row is computed; a write to it that fails exits 1 with one `error:
cannot write PATH:` line.  All counts serialize as decimal strings (they
outgrow 64-bit integers quickly) and identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import errno
import os
import stat
import sys
from contextlib import contextmanager
from functools import cache
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import DEFAULT_BRUTE_CEILING, max_kinks
from .recurrence import dp_table
from .routes import ENV_BRUTE_CEILING, MAX_BRUTE_CEILING, ROUTES, VERIFY_DEFAULTS, Route

if TYPE_CHECKING:
    import argparse

FORMATS = ("csv", "json", "text")


class UsageError(Exception):
    """Bad argument or out-of-range request; maps to exit code 2."""


class WriteError(Exception):
    """A write to -o PATH that failed after PATH was opened; maps to exit code 1."""


def _brute_ceiling() -> int:
    raw = os.environ.get(ENV_BRUTE_CEILING, str(DEFAULT_BRUTE_CEILING))
    try:
        ceiling = int(raw)
    except ValueError:
        ceiling = 0
    if not 1 <= ceiling <= MAX_BRUTE_CEILING:
        raise UsageError(
            f"{ENV_BRUTE_CEILING} must be an integer from 1 to {MAX_BRUTE_CEILING}, got {raw!r}"
        )
    return ceiling


# ---------------------------------------------------------------------------
# counting routes (each one entry of routes.ROUTES)


def _route(method: str, n: int, d: int, ceiling: int) -> Route:
    route = ROUTES[method]
    if not route.covers(n, d, ceiling):
        raise UsageError(f"the {method} method needs {route.domain(ceiling)}")
    return route


# ---------------------------------------------------------------------------
# count


def _check_chain(args: SimpleNamespace) -> None:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.d < 0:
        raise UsageError("--d must be nonnegative")


def _cmd_count(args: SimpleNamespace) -> int:
    _check_chain(args)
    n, d, ceiling = args.n, args.d, _brute_ceiling()
    if not args.all_methods:
        print(_route(args.method, n, d, ceiling).count(n, d))
        return 0
    values = [
        (method, route.count(n, d))
        for method, route in ROUTES.items()
        if route.covers(n, d, ceiling)
    ]
    for method, value in values:
        print(f"{method}: {value}")
    if len({value for _, value in values}) > 1:
        print("error: methods disagree", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# table serialization (counts as decimal strings; the CLI reads no table)


@contextmanager
def _unlimited_int_digits() -> Iterator[None]:
    # Exact counts outgrow the int <-> str digit limit (4300 digits, from
    # Python 3.11 on) near n = 1500; `main` lifts it once per request, so
    # a writer called directly needs this around it.
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    limit = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# Each writer returns the text of row n, in a stream of rows n >= 2 in
# ascending order, with whatever comes before it: the CSV header or the
# JSON opening when the row is the `first`, the JSON separator otherwise.
# n = None, with no counts, ends the stream: the JSON closing, or the
# empty table's form when `first` says that no row came.  `top` is the
# stream's largest n.
def _csv_row(n: int | None, row: Sequence[int], first: bool, top: int) -> str:
    head = "n,d,count\n" if first else ""
    return head + "".join([f"{n},{d},{c}\n" for d, c in enumerate(row)])


def _json_row(n: int | None, row: Sequence[int], first: bool, top: int) -> str:
    # The bytes of json.dumps({"rows": [{"n": n, "counts": [str(c), ...]},
    # ...]}, indent=2) + "\n", written directly: str(c) is made once per
    # count and needs no escaping.  Each row opens with the separator from
    # the row before it, so a row never waits for the next one.
    if n is None:
        return '{\n  "rows": []\n}\n' if first else "\n  ]\n}\n"
    digits = '",\n        "'.join(map(str, row))
    counts = f'[\n        "{digits}"\n      ]' if digits else "[]"
    head = '{\n  "rows": [\n' if first else ",\n"
    return f'{head}    {{\n      "n": {n},\n      "counts": {counts}\n    }}'


def _text_row(n: int | None, row: Sequence[int], first: bool, top: int) -> str:
    # one line per row: "n=  5: c0 + c1 v + c2 v^2", n as wide as top
    if n is None:
        return ""
    terms = (f"{c} v^{d}" if d > 1 else f"{c} v" if d else str(c) for d, c in enumerate(row))
    return f"n={n:>{len(str(top))}}: {' + '.join(terms)}\n"


_TABLE_FORMATTERS = {
    "csv": _csv_row,
    "json": _json_row,
    "text": _text_row,
}


@contextmanager
def _output(path: str | None) -> Iterator[Callable[[str], object]]:
    """Yield the write of stdout, or of PATH through a temporary file beside
    it, which replaces PATH on success and is removed on any failure.  A
    device, a pipe or a directory is opened as it is."""
    if path is None:
        yield sys.stdout.write
        return
    target = os.path.realpath(path)  # through a symlink, onto the file it names
    handle, pending, exists = None, None, os.path.exists(target)
    try:
        if exists and not os.path.isfile(target):
            handle = open(target, "w", encoding="utf-8")
        elif exists and not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        else:
            handle = open(f"{target}.{os.getpid()}.tmp", "x", encoding="utf-8")
            pending = handle.name
        with handle:
            yield handle.write
        if pending is not None:
            if exists:  # PATH keeps its permission bits
                os.chmod(pending, stat.S_IMODE(os.stat(target).st_mode))
            os.replace(pending, target)
            pending = None
    except OSError as exc:
        # the message names PATH, not the temporary file; a failure before
        # PATH is open is a usage error, one after it a failed write
        reason = f"[Errno {exc.errno}] {exc.strerror}: {path!r}" if exc.filename else exc
        raise (UsageError if handle is None else WriteError)(f"cannot write {path}: {reason}")
    finally:
        if pending is not None:
            os.unlink(pending)


def _cmd_table(args: SimpleNamespace) -> int:
    if args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    ceiling, lengths = _brute_ceiling(), range(2, args.max_n + 1)  # the series starts at n = 2
    # the domain is that of the rows asked for: --max-n 1 asks for none
    route = _route(args.method, args.max_n, 0, ceiling) if lengths else ROUTES[args.method]
    row_text = _TABLE_FORMATTERS[args.format]
    with _output(args.output) as write:
        # each row is written as soon as it is formatted: a gate that fires
        # at row k leaves rows 2..k-1 on stdout, and no file at PATH
        for n, row in route.pairs(lengths, 0, max_kinks(args.max_n)):
            write(row_text(n, row, n == lengths.start, args.max_n))
        write(row_text(None, (), not lengths, args.max_n))
    return 0


# ---------------------------------------------------------------------------
# enumerate


def _cmd_enumerate(args: SimpleNamespace) -> int:
    if args.limit is not None and args.limit < 0:
        raise UsageError("--limit must be nonnegative")
    _check_chain(args)
    if args.d > max_kinks(args.n):
        raise UsageError(f"--d must be at most {max_kinks(args.n)} for --n {args.n}")
    # Digits run together up to n = 9, comma-separated beyond.  The walk
    # hands over each head with the text of every completion of its state,
    # built once per memo entry with the separator leading each site, so a
    # line costs one concatenation inside one C-level join, and a write
    # holds one head's lines, at most 5! = 120.  Each site of a head is
    # made a string once, when the first group arrives, and --limit 0
    # starts no walk, so a stream of no words costs nothing at any n.
    from .oracle import _emit_groups

    sep, left, sites = "" if args.n <= 9 else ",", args.limit, None
    groups = _emit_groups(args.n, args.d, lambda s: sep + str(s), "") if left != 0 else ()
    for head, lines in groups:
        sites = sites or [str(s) for s in range(args.n + 1)]
        if left is not None:
            lines = lines[:left]
            left -= len(lines)
        lead = sep.join(map(sites.__getitem__, head))
        sys.stdout.write(lead + ("\n" + lead).join(lines) + "\n")  # redirect_stdout sees it
        if left == 0:
            break
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: SimpleNamespace) -> int:
    from .verify import run_verification

    if args.max_n_brute > (ceiling := _brute_ceiling()):
        raise UsageError(f"--max-n-brute must be at most {ENV_BRUTE_CEILING} = {ceiling}")
    scope = {name: value for name, value in vars(args).items() if name in VERIFY_DEFAULTS}
    results = run_verification(**scope)
    for result in results:
        print(f"PASS {result.name}" if result.passed else f"FAIL {result.name}: {result.detail}")
        # timings and traces go to stderr, so stdout stays byte-identical
        if args.timings:
            print(f"{result.name} {result.seconds:.6f}", file=sys.stderr)
        if result.traceback:
            print(result.traceback, end="", file=sys.stderr)
    failed = sum(not result.passed for result in results)
    print(f"{len(results)} checks, {len(results) - failed} passed, {failed} failed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# asym


def _cmd_asym(args: SimpleNamespace) -> int:
    with _output(args.output) as write:
        write(_asym_text(args))
    return 0


def _asym_text(args: SimpleNamespace) -> str:
    # the header, then one row of cells per n, rendered in the format asked
    from decimal import MIN_EMIN, Context, Decimal

    from .genfunc import convergence_report

    cells = [("n", "exact", "estimate", "deviation")]
    # convergence_report's own gate, naming the flags, ahead of that of the
    # table built for it
    if args.d < 0:
        raise UsageError("--d must be nonnegative")
    if args.max_n < 2 * args.d + 1:
        raise UsageError(f"--max-n must be at least {2 * args.d + 1}")
    six, tiny = Context(prec=6, Emin=MIN_EMIN), sys.float_info.min
    for r in convergence_report(args.d, args.max_n, table=dp_table(args.max_n, args.d)):
        # a float, save below the normal floats: there six digits of its exact value
        x = r.deviation
        x = six.normalize(six.divide(Decimal(x.numerator), x.denominator)) if 0 < x < tiny else float(x)
        cells.append((r.n, str(r.exact), str(int(r.estimate)), f"{x:.6g}"))
    if args.format == "csv":
        return "".join(",".join(map(str, c)) + "\n" for c in cells)
    if args.format == "json":
        import json  # imported by a JSON request only: start-up pays nothing
        payload = {"d": args.d, "rows": [dict(zip(cells[0], c)) for c in cells[1:]]}
        return json.dumps(payload, indent=2) + "\n"
    # n in at least four places, exact and estimate as wide as their widest cells
    place = max(4, len(str(args.max_n)))
    exact, estimate = (max(len(c[i]) for c in cells) for i in (1, 2))
    return "".join(f"{n:>{place}} {e:>{exact}} {s:>{estimate}} {dev}\n" for n, e, s, dev in cells)


# ---------------------------------------------------------------------------
# parser and entry points


class _Option(NamedTuple):
    """One option of a subcommand: what `build_parser` gives argparse's
    add_argument, and what `_parse_exact` reads.  `store_true` marks a
    flag, which takes no value and defaults to False."""

    flag: str
    type: Callable[[str], object] | None = None
    default: object = None
    required: bool = False
    choices: Iterable[str] | None = None
    help: str | None = None
    short: str | None = None
    metavar: str | None = None
    store_true: bool = False

    @property
    def dest(self) -> str:
        """The namespace attribute, as argparse derives it from the flag."""
        return self.flag[2:].replace("-", "_")


_OUTPUT = _Option("--output", short="-o", metavar="PATH", help="write here instead of stdout")

#: Every subcommand, named once: its line in the top-level help, the
#: function that runs it, and its options in the order its --help lists
#: them.  argparse and the exact form both read this table.
_COMMANDS: dict[str, tuple[str, Callable[[SimpleNamespace], int], tuple[_Option, ...]]] = {
    "count": ("exact count of histories at one (n, d)", _cmd_count, (
        _Option("--n", int, required=True, help="chain length"),
        _Option("--d", int, required=True, help="kink count"),
        _Option("--method", choices=ROUTES, default="dp"),
        _Option(
            "--all-methods",
            store_true=True,
            help="print one line per applicable method; exit 1 if they disagree",
        ),
    )),
    "table": ("export the count table for n = 2..max-n", _cmd_table, (
        _Option("--max-n", int, required=True),
        _Option("--method", choices=ROUTES, default="dp"),
        _Option("--format", choices=FORMATS, default="csv"),
        _OUTPUT,
    )),
    "enumerate": ("list the histories at one (n, d)", _cmd_enumerate, (
        _Option("--n", int, required=True),
        _Option("--d", int, required=True),
        _Option("--limit", int, help="stop after this many histories"),
    )),
    "verify": ("run the cross-validation suite", _cmd_verify, (
        *(
            _Option(f"--{flag}", int, default=VERIFY_DEFAULTS[flag.replace("-", "_")], help=bounds)
            for flag, bounds in (
                ("max-n-brute", "last n of the scan, the backtracking and (to 8) the rule check;"
                 f" at most {ENV_BRUTE_CEILING}"),
                ("max-n-dp", "last n of the recurrence, formula and label-tree rows, and of the growth checks"),
                ("t-order", "last n of the series rows, and the powers of s in exact_algebra"),
                ("v-order", "the order in w of exact_algebra, which no other check reads"),
            )
        ),
        _Option(
            "--timings",
            store_true=True,
            help="write one 'name seconds' line per check to stderr",
        ),
    )),
    "asym": ("exact counts against the growth estimate", _cmd_asym, (
        _Option("--d", int, required=True),
        _Option("--max-n", int, required=True),
        _Option("--format", choices=FORMATS, default="csv"),
        _OUTPUT,
    )),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `_COMMANDS`, built once per process."""
    import argparse  # only an argument list off the exact form needs it

    parser = argparse.ArgumentParser(
        prog="kinks",
        description="Exact counting and enumeration of chain flip histories by kink number.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for option in options:
            if option.store_true:
                command.add_argument(option.flag, action="store_true", help=option.help)
            else:
                command.add_argument(
                    *filter(None, (option.flag, option.short)),
                    type=option.type,
                    default=option.default,
                    required=option.required,
                    choices=option.choices,
                    help=option.help,
                    metavar=option.metavar,
                )
        command.set_defaults(func=func)
    return parser


@cache
def _exact_form(name: str) -> tuple[dict[str, _Option], dict[str, object], frozenset[str]]:
    # subcommand NAME's options by flag, the namespace of its defaults, and
    # the dests it requires
    _, func, options = _COMMANDS[name]
    defaults = {o.dest: False if o.store_true else o.default for o in options}
    return (
        {option.flag: option for option in options},
        defaults | {"command": name, "func": func},
        frozenset(option.dest for option in options if option.required),
    )


def _parse_exact(name: str, tokens: list[str]) -> SimpleNamespace | None:
    """The namespace that argparse gives subcommand NAME and TOKENS when
    each token is a whole long option string of the command, followed by
    one value that does not start with '-' unless the option is a flag,
    and every required option is given; None for anything else, which
    argparse then reads."""
    options, defaults, required = _exact_form(name)
    given: dict[str, object] = {}
    tokens_left = iter(tokens)
    for token in tokens_left:
        option = options.get(token)
        if option is None:
            return None
        if option.store_true:
            given[option.dest] = True
            continue
        raw = next(tokens_left, "-")  # a missing value falls back too
        if raw.startswith("-"):
            return None
        # type, then choices, as argparse applies them; a repeat overwrites
        try:
            value = raw if option.type is None else option.type(raw)
        except ValueError:
            return None
        if option.choices is not None and value not in option.choices:
            return None
        given[option.dest] = value
    if not required <= given.keys():
        return None
    return SimpleNamespace(**(defaults | given))


def _parse(argv: list[str]) -> SimpleNamespace:
    args = _parse_exact(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    if args is None:  # help, usage errors, abbreviations: argparse's own
        return build_parser().parse_args(argv, SimpleNamespace())
    return args


def main(argv: list[str] | None = None) -> int:
    """Run the CLI and return its exit code (0 ok, 1 mismatch or internal
    error, 2 usage).

    An argument list in a subcommand's exact form (see `_parse_exact`) is
    read without argparse's matcher; any other goes to
    `build_parser().parse_args`.  Both give the same namespace, output and
    exit code."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with _unlimited_int_digits():
            return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, WriteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # a reader that closed stdout (`| head -1`) needs no message; any
        # other failure to write it, such as a full disk, gets one line
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        # what is left goes to devnull, so that the flush at exit passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
