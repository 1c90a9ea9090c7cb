"""Command line front end: constants tables, per-domain certification,
property suites, and the empirical infimum probe.

Exit codes follow a fixed contract so suites can gate CI runs: 0 for a clean
pass, 2 when a pipeline check fails (the failing check is named on stderr),
64 for usage errors.  Identical invocations produce byte-identical output;
every JSON payload embeds the parsed run configuration and the tool version,
and reals are printed with 17 significant digits so each cell round-trips to
the exact double.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass

from . import __version__
from .bounds import certify, report_to_json
from .domains import contains, domain_from_json, translate
from .errors import DomainFormatError, SqueezeCertError
from .numerics import _pairs, constants_csv, constants_table
from .verify import (
    KAPPA_FAMILIES,
    NUMERIC_LIMIT,
    kappa_probe,
    suite_lemmas,
    suite_star,
    suite_strictness,
)

EXIT_OK = 0
EXIT_PIPELINE = 2
EXIT_USAGE = 64

SCHEMA = "squeeze-cert/cli-1"

SUITES = ("star", "lemmas", "strictness", "all")

# margin below which a certified report's own containment checks count as a
# pipeline failure; certify is stricter internally, this is the outer net
DEFAULT_TOL = 1e-10


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code of the contract instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depended on, embedded verbatim in its report."""

    command: str
    n: str | None = None
    spec: str | None = None
    convexity_class: str | None = None
    point: list | None = None
    suite: str | None = None
    family: str | None = None
    trials: int | None = None
    samples: int | None = None
    budget: int | None = None
    seed: int = 0
    tol: float = DEFAULT_TOL
    format: str = "json"
    out: str | None = None

    def as_dict(self) -> dict:
        return asdict(self)


# -- deterministic serialization ---------------------------------------------

def _emit_json(obj) -> str:
    """Compact JSON with sorted keys and 17-significant-digit reals."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(k))}: {_emit_json(obj[k])}" for k in sorted(obj, key=str))
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit_json(v) for v in obj) + "]"
    if hasattr(obj, "item"):  # numpy scalars
        return _emit_json(obj.item())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _payload(config: RunConfig, result) -> str:
    doc = {"schema": SCHEMA, "version": __version__,
           "config": config.as_dict(), "result": result}
    return _emit_json(doc) + "\n"


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_dims(text: str) -> tuple:
    """Dimension lists: a single value '3' or an inclusive range '2..5'."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError
            dims = tuple(range(lo, hi + 1))
        else:
            dims = (int(text),)
    except ValueError:
        raise UsageError(f"bad dimension range {text!r}; expected N or LO..HI")
    for n in dims:
        if n < 2 or n > NUMERIC_LIMIT:
            raise UsageError(f"dimensions must lie in 2..{NUMERIC_LIMIT}, got {n}")
    return dims


def _count(text: str, least=1) -> int:
    """argparse type of the sample, trial and budget counts: an integer >= 1
    (>= 0 for the seed)."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < least:
        kind = "non-negative" if least == 0 else "positive"
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return value


def _parse_point(text: str) -> list:
    try:
        return [complex(part.strip().replace(" ", "")) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"bad point {text!r}; expected comma-separated complex literals")


# -- subcommands --------------------------------------------------------------

def cmd_constants(args) -> int:
    if args.n_max < 2 or args.n_max > 64:
        raise UsageError(f"--n-max must lie in 2..64, got {args.n_max}")
    config = RunConfig(command="constants", n=str(args.n_max),
                       format=args.format, out=args.out)
    if args.format == "csv":
        header = f"# squeeze-cert {__version__} constants --n-max {args.n_max}\n"
        _write(header + constants_csv(args.n_max) + "\n", args.out)
    else:
        rows = [c.as_dict() for c in constants_table(args.n_max)]
        _write(_payload(config, rows), args.out)
    return EXIT_OK


def cmd_bound(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise UsageError(f"cannot read domain spec {args.spec!r}: {exc}")
    domain = domain_from_json(data)
    point = _parse_point(args.point) if args.point else None
    if point is not None:
        if len(point) != domain.n:
            raise UsageError(f"point has {len(point)} coordinates, domain needs {domain.n}")
        if not contains(domain, point):
            raise UsageError(f"point {args.point!r} does not lie inside the domain")
        domain = translate(domain, point)
    config = RunConfig(
        command="bound", spec=args.spec, convexity_class=args.convexity_class,
        point=None if point is None else _pairs(point),
        samples=args.samples, seed=args.seed, tol=args.tol, out=args.out)
    kwargs = {} if args.samples is None else {"samples": args.samples}
    report = certify(domain, convexity_class=args.convexity_class,
                     seed=args.seed, **kwargs)
    failing = [name for name, m in sorted(report.margins.items())
               if m.min_slack < -args.tol]
    _write(_payload(config, report_to_json(report)), args.out)
    if failing:
        print(f"pipeline check failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_PIPELINE
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; pick one of {SUITES}")
    dims = _parse_dims(args.n) if args.n else None
    config = RunConfig(command="verify", n=args.n, suite=args.suite,
                       trials=args.trials, samples=args.samples, seed=args.seed,
                       out=args.out)
    selected = ("star", "lemmas", "strictness") if args.suite == "all" else (args.suite,)
    reports = []
    for name in selected:
        kwargs = {"seed": args.seed}
        if name in ("star", "lemmas"):
            if dims is not None:
                kwargs["dims"] = dims
            if args.trials is not None:
                kwargs["trials"] = args.trials
        if name in ("lemmas", "strictness") and args.samples is not None:
            kwargs["samples"] = args.samples
        runner = {"star": suite_star, "lemmas": suite_lemmas,
                  "strictness": suite_strictness}[name]
        reports.append(runner(**kwargs).as_dict())
    violations = sum(r["violations"] for r in reports)
    _write(_payload(config, {"reports": reports, "violations": violations}), args.out)
    if violations:
        worst = min(reports, key=lambda r: r["worst_margin"])
        print(f"pipeline check failed: suite {worst['suite']} reported "
              f"{violations} violation(s), worst case {worst['worst_case']}",
              file=sys.stderr)
        return EXIT_PIPELINE
    return EXIT_OK


def cmd_probe_kappa(args) -> int:
    dims = _parse_dims(args.n)
    if len(dims) != 1:
        raise UsageError("probe-kappa runs one dimension at a time")
    config = RunConfig(command="probe-kappa", n=args.n, family=args.family,
                       convexity_class=args.convexity_class, budget=args.budget,
                       samples=args.samples, seed=args.seed, out=args.out)
    kwargs = {} if args.samples is None else {"samples": args.samples}
    report = kappa_probe(args.family, n=dims[0], budget=args.budget,
                         seed=args.seed, convexity_class=args.convexity_class,
                         **kwargs)
    _write(_payload(config, report.as_dict()), args.out)
    return EXIT_OK


# -- argument wiring ----------------------------------------------------------

# each subcommand declares the shared options it reads, and only those
_OPTIONS = {
    "seed": dict(type=functools.partial(_count, least=0), default=0,
                 help="run seed (default 0)"),
    "tol": dict(type=float, default=DEFAULT_TOL,
                help="containment slack below -tol fails the run"),
    "samples": dict(type=_count, default=None,
                    help="sample count override (default: module defaults)"),
    "format": dict(choices=("json", "csv"), default="json"),
    "out": dict(default=None, metavar="PATH",
                help="write the report here instead of stdout"),
}


def _add_options(sub, *names):
    for name in names:
        sub.add_argument(f"--{name}", **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="squeezecert",
                     description="Certified universal lower bounds for squeezing functions.")
    parser.add_argument("--version", action="version", version=f"squeezecert {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("constants", parents=[], help="universal constants table")
    p.add_argument("--n-max", type=int, default=10, help="largest dimension (2..64)")
    _add_options(p, "format", "out")
    p.set_defaults(func=cmd_constants)

    p = subs.add_parser("bound", help="certify one domain from a JSON spec")
    p.add_argument("spec", help="path to a domain spec JSON file")
    p.add_argument("--class", dest="convexity_class", choices=("convex", "cconvex"),
                   default=None, help="certification class (default: as declared)")
    p.add_argument("--point", default=None,
                   help="interior base point as comma-separated complex literals")
    _add_options(p, "seed", "tol", "samples", "out")
    p.set_defaults(func=cmd_bound)

    p = subs.add_parser("verify", help="run property suites")
    p.add_argument("--suite", default="all", help=f"one of {SUITES}")
    p.add_argument("--n", default=None, help="dimension or range LO..HI")
    p.add_argument("--trials", type=_count, default=None)
    _add_options(p, "seed", "samples", "out")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("probe-kappa", help="empirical infimum probe over one family")
    p.add_argument("--family", required=True, choices=KAPPA_FAMILIES)
    p.add_argument("--n", default="2", help="dimension")
    p.add_argument("--budget", type=_count, default=100, help="domains to sweep")
    p.add_argument("--class", dest="convexity_class", choices=("convex", "cconvex"),
                   default=None, help="certification class (default: family default)")
    _add_options(p, "seed", "samples", "out")
    p.set_defaults(func=cmd_probe_kappa)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, FileNotFoundError, DomainFormatError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SqueezeCertError as exc:
        print(f"pipeline check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
