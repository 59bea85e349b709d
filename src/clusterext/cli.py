"""Command-line frontend: counting, constants, fits, profiles, sampling, classes.

Exit codes: 0 success, 2 usage error, 3 resource limit, 4 internal
consistency failure.  Output formats: human table (default), csv, json.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional, Sequence, Tuple

from . import asymptotics, exact_counts, patterns, posets, profiles, sampling
from .errors import (DegenerateParameterError, DomainError,
                     InternalConsistencyError, InvalidInputError,
                     ResourceLimitError)

USAGE_ERROR = 2
RESOURCE_ERROR = 3
CONSISTENCY_ERROR = 4


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _emit_rows(fmt: str, header: Sequence[str], rows: Sequence[Sequence],
               out) -> None:
    if fmt == "json":
        data = [dict(zip(header, (_json_safe(v) for v in row))) for row in rows]
        out.write(json.dumps(data) + "\n")
        return
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                               for v in row) + "\n")
        return
    widths = [max(len(h), *(len(_fmt(r[i]) if isinstance(r[i], float)
                                else str(r[i])) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for row in rows:
        cells = [_fmt(v) if isinstance(v, float) else str(v) for v in row]
        out.write("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip() + "\n")


def _polyline_svg(curve: List[Tuple[float, float]],
                  points: Optional[List[Tuple[float, float]]] = None) -> str:
    """Static SVG: one polyline for the curve, circles for sample points."""
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
    for x, y in points or []:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" '
                     f'fill="red"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cluster_params(args) -> posets.ClusterParams:
    return posets.ClusterParams(args.m, args.a, args.b, args.n)


def _cmd_count(args, out) -> int:
    params = _cluster_params(args)
    if args.method == "brute":
        poset = (posets.cluster_poset(params) if args.variant == "p"
                 else posets.modified_cluster_poset(params))
        count = posets.count_linear_extensions_bruteforce(poset)
    else:
        count = exact_counts.exact_count(params, args.variant)
    if args.format == "json":
        out.write(json.dumps({"m": args.m, "a": args.a, "b": args.b,
                              "n": args.n, "variant": args.variant,
                              "method": args.method, "count": count}) + "\n")
    elif args.format == "csv":
        out.write("m,a,b,n,variant,method,count\n")
        out.write(f"{args.m},{args.a},{args.b},{args.n},{args.variant},"
                  f"{args.method},{count}\n")
    else:
        out.write(f"{count}\n")
    return 0


def _cmd_constant(args, out) -> int:
    const = asymptotics.growth_constant(args.m, args.a, args.b)
    if args.format == "json":
        out.write(json.dumps({"m": args.m, "a": args.a, "b": args.b,
                              "leading": const.leading,
                              "c": const.value}) + "\n")
    elif args.format == "csv":
        out.write("m,a,b,leading,c\n")
        out.write(f"{args.m},{args.a},{args.b},{const.leading},"
                  f"{_fmt(const.value)}\n")
    else:
        out.write(f"leading={const.leading} c={_fmt(const.value)}\n")
    return 0


def _cmd_fit(args, out) -> int:
    if args.points < 0:
        raise InvalidInputError("--points must be >= 0 (0 keeps every n)")
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
        emp = ((asymptotics.log_integer(counts[n - 1])
                - const.leading * n * math.log(n)) / n)
        rows.append((n, emp, const.value, abs(emp - const.value)))
    _emit_rows(args.format, ["n", "empirical_c", "c", "abs_error"], rows, out)
    return 0


def _cmd_compare(args, out) -> int:
    first, second, n0 = asymptotics.crossover_sweeps(
        args.m, args.a, args.b, args.a2, args.b2, args.n_max)
    rows = [(n, first[n - 1], second[n - 1], first[n - 1] < second[n - 1])
            for n in range(1, args.n_max + 1)]
    if args.format == "json":
        out.write(json.dumps({"n0": n0,
                              "rows": [{"n": r[0], "count_1": r[1],
                                        "count_2": r[2], "ordered": r[3]}
                                       for r in rows]}) + "\n")
    else:
        _emit_rows(args.format, ["n", "count_1", "count_2", "ordered"], rows, out)
        if args.format == "table":
            out.write(f"n0={'none' if n0 is None else n0}\n")
    return 0


def _cmd_profile(args, out) -> int:
    table = profiles.profile_table(args.m, args.a, args.b, args.points)
    if args.format == "json":
        out.write(json.dumps({
            "m": args.m, "a": args.a, "b": args.b,
            "lambda": table.slope_minimum,
            "t": [float(v) for v in table.grid],
            "f": [float(v) for v in table.values],
            "fprime": [_json_safe(float(v)) for v in table.slopes]}) + "\n")
    elif args.format == "csv":
        out.write(profiles.profile_csv(table))
    else:
        rows = [(float(t), float(f), float(fp))
                for t, f, fp in zip(table.grid, table.values, table.slopes)]
        _emit_rows("table", ["t", "f", "fprime"], rows, out)
        out.write(f"lambda={_fmt(table.slope_minimum)}\n")
    if args.svg:
        curve = [(float(t), float(f))
                 for t, f in zip(table.grid, table.values)]
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(_polyline_svg(curve))
    return 0


def _cmd_sample(args, out) -> int:
    params = _cluster_params(args)
    profile = sampling.height_profile(params, args.samples,
                                      burnin=args.burnin,
                                      thinning=args.thinning, seed=args.seed)
    report = sampling.concentration_report(profile)
    if args.format == "json":
        out.write(json.dumps({
            "m": args.m, "a": args.a, "b": args.b, "n": args.n,
            "samples": profile.samples, "burnin": profile.burnin,
            "thinning": profile.thinning, "seed": profile.seed,
            "max_deviation": report.max_deviation,
            "mean_deviation": report.mean_deviation,
            "rows": [{"i": i, "mean_height": mh, "reference_f": ref,
                      "abs_deviation": dev}
                     for i, mh, ref, dev in report.rows]}) + "\n")
    elif args.format == "csv":
        out.write(sampling.height_profile_csv(profile))
    else:
        _emit_rows("table", ["i", "mean_height", "reference_f", "abs_deviation"],
                   list(report.rows), out)
        out.write(f"max_deviation={_fmt(report.max_deviation)} "
                  f"mean_deviation={_fmt(report.mean_deviation)}\n")
    if args.svg:
        dense = [k / 200 for k in range(201)]
        curve = [(t, profiles.limit_profile(args.m, args.a, args.b, t))
                 for t in dense]
        pts = [((i + 1) / (args.n + 2), mh) for i, mh, _, _ in report.rows]
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(_polyline_svg(curve, pts))
    return 0


def _cmd_classify(args, out) -> int:
    classes = patterns.evidence_classes(args.m, args.n_max,
                                        strong=not args.weak)
    kind = "weak" if args.weak else "strong"
    if args.format == "json":
        out.write(json.dumps({
            "m": args.m, "n_max": args.n_max, "evidence": kind,
            "classes": [["".join(map(str, p)) for p in cls]
                        for cls in classes]}) + "\n")
    elif args.format == "csv":
        out.write("class,pattern\n")
        for ci, cls in enumerate(classes, start=1):
            for p in cls:
                out.write(f"{ci},{''.join(map(str, p))}\n")
    else:
        out.write(f"{kind} evidence up to n={args.n_max} "
                  f"({len(classes)} classes)\n")
        for ci, cls in enumerate(classes, start=1):
            out.write(f"class {ci}: "
                      + " ".join("".join(map(str, p)) for p in cls) + "\n")
    return 0


def _cmd_check(args, out) -> int:
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
           all(posets.sandwich_check(posets.ClusterParams(m, a, b, n))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterext",
        description="Exact and asymptotic linear-extension counts for "
                    "glued-chain posets, limit profiles, MCMC height "
                    "experiments, and consecutive-pattern equivalence evidence.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mab(p, with_n=False):
        p.add_argument("--m", type=int, required=True, help="chain length m")
        p.add_argument("--a", type=int, required=True, help="lower glue position a")
        p.add_argument("--b", type=int, required=True, help="upper glue position b")
        if with_n:
            p.add_argument("--n", type=int, required=True, help="number of chains n")

    def add_format(p):
        p.add_argument("--format", choices=("table", "csv", "json"),
                       default="table", help="output format (default: table)")

    p = sub.add_parser("count", help="number of linear extensions")
    add_mab(p, with_n=True)
    p.add_argument("--variant", choices=("p", "q"), default="p",
                   help="plain (p) or boundary-padded (q) poset (default: p)")
    p.add_argument("--method", choices=("exact", "brute"), default="exact",
                   help="integral method or brute-force oracle (default: exact)")
    add_format(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("constant", help="asymptotic growth constant")
    add_mab(p)
    add_format(p)
    p.set_defaults(func=_cmd_constant)

    p = sub.add_parser("fit", help="empirical growth-constant estimates over n")
    add_mab(p)
    p.add_argument("--n-max", type=int, default=50, help="largest n (default: 50)")
    p.add_argument("--points", type=int, default=0,
                   help="subsample to this many evenly spaced n values, "
                        "always keeping n_max (default: 0, all)")
    add_format(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("compare",
                       help="crossover search between two parameter pairs")
    add_mab(p)
    p.add_argument("--a2", type=int, required=True, help="second pair's a")
    p.add_argument("--b2", type=int, required=True, help="second pair's b")
    p.add_argument("--n-max", type=int, default=50, help="largest n (default: 50)")
    add_format(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("profile", help="limit profile table (t, f, fprime)")
    add_mab(p)
    p.add_argument("--points", type=int, default=1000,
                   help="grid size (default: 1000)")
    add_format(p)
    p.add_argument("--svg", metavar="PATH", help="write a static SVG plot")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("sample",
                       help="MCMC mean heights of the glue elements")
    add_mab(p, with_n=True)
    p.add_argument("--samples", type=int, default=200,
                   help="recorded draws (default: 200)")
    p.add_argument("--burnin", type=int, default=None,
                   help="burn-in steps (default: ceil(|P|^3 ln |P|))")
    p.add_argument("--thinning", type=int, default=None,
                   help="steps between draws (default: |P|^2)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    add_format(p)
    p.add_argument("--svg", metavar="PATH", help="write a static SVG plot")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("classify",
                       help="equivalence-evidence classes of S_m patterns")
    p.add_argument("--m", type=int, required=True, help="pattern length m")
    p.add_argument("--n-max", type=int, default=7,
                   help="evidence horizon (default: 7)")
    p.add_argument("--weak", action="store_true",
                   help="compare avoider counts only")
    add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("check", help="run the quick invariant suite")
    p.set_defaults(func=_cmd_check)

    return parser


def run(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    # counts are bounded by MAX_INTEGRAL_DEGREE, not by the str() digit limit
    max_digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args, out)
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


if __name__ == "__main__":
    main()
