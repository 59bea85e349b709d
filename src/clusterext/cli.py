"""Command-line frontend: counting, constants, fits, profiles, sampling, classes.

Exit codes: 0 success, 2 usage error, 3 resource limit, 4 internal
consistency failure.  Output formats: human table (default), csv, json.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import asymptotics, exact_counts, patterns, posets, profiles, sampling
from .errors import (DegenerateParameterError, DomainError,
                     InternalConsistencyError, InvalidInputError,
                     ResourceLimitError, require_at_most, require_int)

USAGE_ERROR = 2
RESOURCE_ERROR = 3
CONSISTENCY_ERROR = 4


def _fmt(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _records(header: Sequence[str], rows: Sequence[Sequence]) -> List[dict]:
    return [dict(zip(header, map(_json_safe, row))) for row in rows]


class _Result(NamedTuple):
    """What one subcommand prints, in every output format.

    ``document`` is the ``--format json`` value; ``header`` and ``rows`` are
    the csv lines and the table grid.  In table format, ``text`` replaces
    the grid when it is set.  ``summary`` holds (name, value) pairs that the
    document already carries: the table prints them as one ``name=value``
    line after the grid, csv as one ``name,value`` line each after the rows.
    """

    document: object
    header: Sequence[str]
    rows: Sequence[Sequence]
    text: Optional[str] = None
    summary: Sequence[Tuple[str, object]] = ()


def _emit(fmt: str, result: _Result, out) -> None:
    if fmt == "json":
        import json

        out.write(json.dumps(result.document) + "\n")
        return
    if fmt == "table" and result.text is not None:
        out.write(result.text)
        return
    lines = [list(result.header)] + [[_fmt(v) for v in row] for row in result.rows]
    summary = [[name, _fmt(value)] for name, value in result.summary]
    if fmt == "csv":
        out.writelines(",".join(line) + "\n" for line in lines + summary)
        return
    widths = [max(map(len, column)) for column in zip(*lines)]
    out.writelines("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
                   + "\n" for line in lines)
    if summary:
        out.write(" ".join("=".join(pair) for pair in summary) + "\n")


def _write_svg(path: str, curve: List[Tuple[float, float]],
               points: Sequence[Tuple[float, float]] = ()) -> None:
    """Static SVG: one polyline for the curve, circles for sample points.

    Called before anything reaches stdout, so an unwritable path is a usage
    error with no output.
    """
    width = height = 480
    pad = 40

    def sx(x: float) -> float:
        return pad + x * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - y * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
             f'height="{height - 2 * pad}" fill="none" stroke="black"/>']
    if curve:
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in curve)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="blue"/>')
    for x, y in points:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" '
                     f'fill="red"/>')
    parts.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise InvalidInputError(f"cannot write --svg file: {exc}") from exc


def _cmd_count(args) -> _Result:
    params = posets.ClusterParams(args.m, args.a, args.b, args.n)
    if args.method == "brute":
        size = params.p_size if args.variant == "p" else params.q_size
        # refuse before building the poset
        require_at_most("brute-force poset size", size, posets.MAX_BRUTEFORCE_ELEMENTS)
        poset = (posets.cluster_poset(params) if args.variant == "p"
                 else posets.modified_cluster_poset(params))
        count = posets.count_linear_extensions_bruteforce(poset)
    else:
        count = exact_counts.exact_count(params, args.variant)
    header = ("m", "a", "b", "n", "variant", "method", "count")
    row = (args.m, args.a, args.b, args.n, args.variant, args.method, count)
    return _Result(dict(zip(header, row)), header, [row], text=f"{count}\n")


def _cmd_constant(args) -> _Result:
    const = asymptotics.growth_constant(args.m, args.a, args.b)
    header = ("m", "a", "b", "leading", "c")  # the fields of const
    return _Result(dict(zip(header, const)), header, [const],
                   text=f"leading={const.leading} c={_fmt(const.value)}\n")


def _cmd_fit(args) -> _Result:
    require_int("--points", args.points, 0)
    const = asymptotics.growth_constant(args.m, args.a, args.b)
    n_values = list(range(1, args.n_max + 1))
    if args.points == 1:
        n_values = n_values[-1:]
    elif 1 < args.points < len(n_values):
        # evenly spaced subsample, always keeping n_max
        step = (args.n_max - 1) / (args.points - 1)
        n_values = sorted({1 + round(i * step) for i in range(args.points)})
    counts = exact_counts.exact_count_sweep(args.m, args.a, args.b,
                                            args.n_max, "p")
    rows = []
    for n in n_values:
        emp = asymptotics._linear_term(counts[n - 1], const.leading, n)
        rows.append((n, emp, const.value, abs(emp - const.value)))
    header = ("n", "empirical_c", "c", "abs_error")
    return _Result(_records(header, rows), header, rows)


def _cmd_compare(args) -> _Result:
    first, second, n0 = asymptotics.crossover_sweeps(
        args.m, args.a, args.b, args.a2, args.b2, args.n_max)
    rows = [(n, first[n - 1], second[n - 1], first[n - 1] < second[n - 1])
            for n in range(1, args.n_max + 1)]
    header = ("n", "count_1", "count_2", "ordered")
    return _Result({"n0": n0, "rows": _records(header, rows)}, header, rows,
                   summary=[("n0", "none" if n0 is None else n0)])


def _cmd_profile(args) -> _Result:
    table = profiles.profile_table(args.m, args.a, args.b, args.points)
    t, f, fprime = table.grid.tolist(), table.values.tolist(), table.slopes.tolist()
    if args.svg:
        _write_svg(args.svg, list(zip(t, f)))
    return _Result({"m": args.m, "a": args.a, "b": args.b,
                    "lambda": table.slope_minimum, "t": t, "f": f,
                    "fprime": [_json_safe(v) for v in fprime]},
                   ("t", "f", "fprime"), list(zip(t, f, fprime)),
                   summary=[("lambda", table.slope_minimum)])


def _cmd_sample(args) -> _Result:
    params = posets.ClusterParams(args.m, args.a, args.b, args.n)
    profile = sampling.height_profile(params, args.samples,
                                      burnin=args.burnin,
                                      thinning=args.thinning, seed=args.seed)
    report = sampling.concentration_report(profile)
    if args.svg:
        dense = [k / 200 for k in range(201)]
        curve = [(t, profiles.limit_profile(args.m, args.a, args.b, t))
                 for t in dense]
        pts = [((i + 1) / (args.n + 2), mh) for i, mh, _, _ in report.rows]
        _write_svg(args.svg, curve, pts)
    header = ("i", "mean_height", "reference_f", "abs_deviation")
    return _Result({"m": args.m, "a": args.a, "b": args.b, "n": args.n,
                    "samples": profile.samples, "burnin": profile.burnin,
                    "thinning": profile.thinning, "seed": profile.seed,
                    "max_deviation": report.max_deviation,
                    "mean_deviation": report.mean_deviation,
                    "rows": _records(header, report.rows)},
                   header, report.rows,
                   summary=[("max_deviation", report.max_deviation),
                            ("mean_deviation", report.mean_deviation)])


def _cmd_classify(args) -> _Result:
    digits = "%d" * args.m  # one format per pattern, not one str per entry
    classes = [[digits % p for p in cls]
               for cls in patterns.evidence_classes(args.m, args.n_max,
                                                    strong=not args.weak)]
    kind = "weak" if args.weak else "strong"
    text = "".join([f"{kind} evidence up to n={args.n_max} "
                    f"({len(classes)} classes)\n"]
                   + [f"class {ci}: {' '.join(cls)}\n"
                      for ci, cls in enumerate(classes, start=1)])
    return _Result({"m": args.m, "n_max": args.n_max, "evidence": kind,
                    "classes": classes},
                   ("class", "pattern"),
                   [(ci, p) for ci, cls in enumerate(classes, start=1) for p in cls],
                   text=text)


def _cmd_check(out) -> int:
    failures = 0

    def report(name: str, ok: bool) -> None:
        nonlocal failures
        out.write(f"{'ok  ' if ok else 'FAIL'}  {name}\n")
        if not ok:
            failures += 1

    for (m, a, b, n) in [(3, 1, 2, 2), (4, 1, 3, 2), (4, 2, 3, 2), (5, 2, 4, 1)]:
        params = posets.ClusterParams(m, a, b, n)
        ok = True
        for variant, build in (("p", posets.cluster_poset),
                               ("q", posets.modified_cluster_poset)):
            brute = posets.count_linear_extensions_bruteforce(build(params))
            ok = ok and brute == exact_counts.exact_count(params, variant)
        report(f"exact counts match brute force for (m,a,b,n)=({m},{a},{b},{n})", ok)

    report("padded-count sandwich holds for m<=4, n<=3",
           all(exact_counts.sandwich_check(posets.ClusterParams(m, a, b, n))
               for m in range(2, 5) for a in range(1, m)
               for b in range(a + 1, m + 1) for n in range(1, 4)))

    c312 = asymptotics.growth_constant(3, 1, 2).value
    report("growth constant (3,1,2) equals ln 2 - 1",
           abs(c312 - (math.log(2) - 1)) < 1e-9)
    c413 = asymptotics.growth_constant(4, 1, 3).value
    report("growth constant (4,1,3) equals ln 3 - 1",
           abs(c413 - (math.log(3) - 1)) < 1e-9)

    report("concavity witness negative on a grid",
           all(asymptotics.constant_concavity(t / 10, d) < 0
               for t in range(0, 201, 5) for d in range(2, 7)))

    ok = True
    for (m, a, b) in [(3, 1, 2), (8, 3, 5), (5, 2, 4)]:
        bval = profiles.beta_value(m, a, b)
        for k in range(1, 20):
            t = k / 20
            f = profiles.limit_profile(m, a, b, t)
            fp = profiles.limit_profile_slope(m, a, b, t)
            residual = abs(fp ** (b - a) * f ** (a - 1) * (1 - f) ** (m - b)
                           - bval ** (b - a))
            ok = ok and residual < 1e-8 and abs(
                profiles.weight_cdf(m, a, b, f) - t) < 1e-10
    report("profile identities (slope equation, inverse) hold", ok)

    out.write(("all checks passed\n" if failures == 0
               else f"{failures} check(s) failed\n"))
    return 0 if failures == 0 else CONSISTENCY_ERROR


def _add_mab(p, with_n=False):
    p.add_argument("--m", type=int, required=True, help="chain length m")
    p.add_argument("--a", type=int, required=True, help="lower glue position a")
    p.add_argument("--b", type=int, required=True, help="upper glue position b")
    if with_n:
        p.add_argument("--n", type=int, required=True, help="number of chains n")


def _count_args(p):
    _add_mab(p, with_n=True)
    p.add_argument("--variant", choices=("p", "q"), default="p",
                   help="plain (p) or boundary-padded (q) poset (default: p)")
    p.add_argument("--method", choices=("exact", "brute"), default="exact",
                   help="integral method or brute-force oracle (default: exact)")


def _fit_args(p):
    _add_mab(p)
    p.add_argument("--n-max", type=int, default=50, help="largest n (default: 50)")
    p.add_argument("--points", type=int, default=0,
                   help="subsample to this many evenly spaced n values, "
                        "always keeping n_max (default: 0, all)")


def _compare_args(p):
    _add_mab(p)
    p.add_argument("--a2", type=int, required=True, help="second pair's a")
    p.add_argument("--b2", type=int, required=True, help="second pair's b")
    p.add_argument("--n-max", type=int, default=50, help="largest n (default: 50)")


def _profile_args(p):
    _add_mab(p)
    p.add_argument("--points", type=int, default=1000,
                   help="grid size (default: 1000)")
    p.add_argument("--svg", metavar="PATH", help="write a static SVG plot")


def _sample_args(p):
    _add_mab(p, with_n=True)
    p.add_argument("--samples", type=int, default=200,
                   help="recorded draws (default: 200)")
    p.add_argument("--burnin", type=int, default=None,
                   help="burn-in steps (default: ceil(|P|^3 ln |P|))")
    p.add_argument("--thinning", type=int, default=None,
                   help="steps between draws (default: |P|^2)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    p.add_argument("--svg", metavar="PATH", help="write a static SVG plot")


def _classify_args(p):
    p.add_argument("--m", type=int, required=True, help="pattern length m")
    p.add_argument("--n-max", type=int, default=7,
                   help="evidence horizon (default: 7)")
    p.add_argument("--weak", action="store_true",
                   help="compare avoider counts only")


# name -> (help line, argument builder, handler) in help order; check has neither
_COMMANDS = {
    "count": ("number of linear extensions", _count_args, _cmd_count),
    "constant": ("asymptotic growth constant", _add_mab, _cmd_constant),
    "fit": ("empirical growth-constant estimates over n", _fit_args, _cmd_fit),
    "compare": ("crossover search between two parameter pairs", _compare_args,
                _cmd_compare),
    "profile": ("limit profile table (t, f, fprime)", _profile_args, _cmd_profile),
    "sample": ("MCMC mean heights of the glue elements", _sample_args, _cmd_sample),
    "classify": ("equivalence-evidence classes of S_m patterns", _classify_args,
                 _cmd_classify),
    "check": ("run the quick invariant suite", None, None),
}


def _command_parser(name: str, parser=None) -> argparse.ArgumentParser:
    """Subcommand ``name``'s arguments, and ``--format`` if it has a handler, on
    ``parser``: by default a new one with the full parser's prog for ``name``."""
    if parser is None:
        parser = argparse.ArgumentParser(prog=f"clusterext {name}")
    _, add_arguments, handler = _COMMANDS[name]
    if handler is not None:
        add_arguments(parser)
        parser.add_argument("--format", choices=("table", "csv", "json"),
                            default="table", help="output format (default: table)")
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser, with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="clusterext",
        description="Exact and asymptotic linear-extension counts for "
                    "glued-chain posets, limit profiles, MCMC height "
                    "experiments, and consecutive-pattern equivalence evidence.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _command_parser(name, sub.add_parser(name, help=help_line))
    return parser


def run(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``); return its exit code.

    A known subcommand's arguments go to its ``_command_parser`` alone; any
    other argv, or one with arguments left over, goes to the full
    ``build_parser()``, which prints its own usage error.  Output and
    ``--help`` go to ``out`` (default stdout), errors to stderr.  Exit codes:
    0 success, 2 usage error, 3 resource limit, 4 internal consistency failure.
    """
    out = out if out is not None else sys.stdout
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        with contextlib.redirect_stdout(out):  # --help goes to out
            if command is not None:
                args, extra = _command_parser(command).parse_known_args(argv[1:])
            if command is None or extra:
                args = build_parser().parse_args(argv)
                command = args.command
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    # counts are bounded by MAX_INTEGRAL_DEGREE, not by the str() digit limit
    max_digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        handler = _COMMANDS[command][2]
        if handler is None:
            return _cmd_check(out)
        _emit(args.format, handler(args), out)
        return 0
    except (InvalidInputError, DomainError, DegenerateParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return RESOURCE_ERROR
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return CONSISTENCY_ERROR
    finally:
        sys.set_int_max_str_digits(max_digits)


def main() -> None:
    sys.exit(run())
