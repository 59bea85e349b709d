#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the clusterext CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload count_exact --seed 0 --seconds 25 --trace 0

The round of requests for the workload is drawn from the seed (see
``workloads.py``) and sent one at a time through ``clusterext.cli.run(argv,
out=buffer)`` with ``--format json``: a closed loop with one client, in this
process and thread.  Whole rounds repeat, ending at the round boundary
nearest to ``--seconds``; every request starts with the package's functools
caches cleared, as a fresh CLI process would.  Outputs are checked after the
timed phase.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` one round runs untraced and then traced (see ``tracer.py``) and
the last line reports the per-layer metrics.  Earlier lines give the same
numbers under their per-kind names, with sample counts, failures and run
metadata.  The result is a JSON object with the keys correct, attempted,
failed and metrics; failed counts requests that raised, exited non-zero or
failed their check, and correct is false when any output was wrong or any
request failed other than by the known over-limit conversion error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "clusterext"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
OVER_LIMIT_ERROR = "Exceeds the limit"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402

#: The request kind whose latency and throughput each workload reports.
PRIMARY = {"count_exact": "count", "profile_grid": "profile",
           "sample_heights": "sample", "classify_patterns": "classify"}
LINE_FILES = ("cli", "exact_counts", "asymptotics", "profiles", "posets",
              "sampling", "patterns", "errors", "__init__")


class Outcome:
    """What one request did: latency, exit code, error and output.

    ``speed`` is the machine's speed while the request ran, relative to
    nominal (see ``reference_kernel``).
    """

    __slots__ = ("latency", "code", "error", "output", "speed")

    def __init__(self, latency: float, code, error: Optional[str], output: Optional[str]):
        self.latency = latency
        self.code = code
        self.error = error
        self.output = output
        self.speed = 1.0

    @property
    def normalized(self) -> float:
        """Latency at nominal machine speed."""
        return self.latency * self.speed


_BIG = 3 ** 20000
#: reference_kernel's duration at nominal speed: about its time on the
#: 2-core Xeon the benchmark was set up on, in a quiet phase.
REFERENCE_NOMINAL_S = 0.012


def reference_kernel() -> float:
    """Time a fixed mix of big-int, float, list and dict work; return seconds.

    On a shared 2-vCPU Xeon VM the CPU speed drifted by up to 35% over
    tens of seconds with the load on the host, and the program slowed with
    it.  This kernel is frozen benchmark code that tracks the drift; each
    request's latency is rescaled by the kernel's time around it, which
    cut the run-to-run spread of the latency medians there by about half.
    """
    start = time.perf_counter()
    acc = 0
    for k in range(1, 400):
        acc = ((acc * 7 + _BIG * k) * (k + 1)) >> 3
    total = 0.0
    for i in range(1, 4000):
        u = i * 2.5e-4
        total += math.exp(0.5 * math.log(u) + 1.5 * math.log1p(-u))
    order = list(range(300))
    position = list(range(300))
    for r in range(20000):
        j = (r * 7919) % 299
        u, v = order[j], order[j + 1]
        if (u ^ v) & 1:
            order[j], order[j + 1] = v, u
            position[u], position[v] = j + 1, j
    tally: Dict[tuple, int] = {}
    for i in range(20000):
        key = (i % 7, i % 11, i % 13)
        tally[key] = tally.get(key, 0) + 1
    return time.perf_counter() - start


def _package_caches():
    """The functools caches defined in clusterext modules."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("clusterext"):
            continue
        for obj in list(vars(module).values()):
            if callable(getattr(obj, "cache_info", None)) and \
                    getattr(obj, "__module__", None) == name:
                yield obj


def run_round(requests: Sequence[workloads.Request], on_request=None,
              reference: bool = False) -> List[Outcome]:
    """Send each request through cli.run; time it until it returns or raises.

    With ``reference``, reference_kernel runs between requests, outside the
    timed region, and sets each outcome's speed.
    """
    from clusterext import cli

    outcomes = []
    kernel = [reference_kernel()] if reference else []
    for i, req in enumerate(requests):
        for cache in _package_caches():
            cache.cache_clear()
        if on_request is not None:
            on_request(i)
        buf, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.run(list(req.argv), out=buf)
            except Exception as exc:  # a failed request is data, not a crash
                code = None
                error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
        if code not in (0, None) and error is None:
            error = f"exit {code}: {err.getvalue().strip()[:200]}"
        outcomes.append(Outcome(latency, code, error,
                                buf.getvalue() if code == 0 else None))
        if reference:
            kernel.append(reference_kernel())
            outcomes[-1].speed = 2 * REFERENCE_NOMINAL_S / (kernel[-2] + kernel[-1])
    return outcomes


def measure_setup(workload: str, seed: int) -> List[float]:
    """Wall time of fresh interpreters that import clusterext and generate the round.

    Unlike the request latencies these are not rescaled: process start-up
    does not follow reference_kernel's speed, and rescaling doubled the
    run-to-run spread.
    """
    probe = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
             f"import clusterext, clusterext.cli, workloads; "
             f"workloads.generate({workload!r}, {seed})")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", probe], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def _git_commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def line_counts() -> Dict[str, int]:
    counts = {}
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = len(path.read_text(encoding="utf-8").splitlines())
        total += n
        if path.stem in LINE_FILES:
            counts[f"{path.stem.strip('_')}.lines"] = n
    for stem in LINE_FILES:
        counts.setdefault(f"{stem.strip('_')}.lines", 0)
    counts["src.lines"] = total
    return counts


def run_metadata() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        src_hash.update(path.read_bytes())
    return {"git_commit": _git_commit(), "src_sha256": src_hash.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg_at_start": os.getloadavg(), "lines": line_counts()}


def _percentile_summary(values: Sequence[float]) -> str:
    """Median plus the highest of p75/p90/p95/p99 with >= 10 samples beyond it."""
    text = f"median {statistics.median(values):.6g}"
    if len(values) >= 20:
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        for p in (99, 95, 90, 75):
            if len(values) * (100 - p) / 100 >= 10:
                text += f", p{p} {cuts[p - 1]:.6g}"
                break
    return text + f" (n={len(values)})"


def _items(req: workloads.Request) -> int:
    """Units of work a successful request delivers, for the throughput metrics."""
    p = req.params
    return {"count": 1, "fit": p.get("n_max", 0), "compare": 2 * p.get("n_max", 0),
            "profile": p.get("points", 0) + 1, "sample": p.get("samples", 0),
            "classify": workloads.texts_needed(req)}[req.kind]


def judge(requests, rounds: List[List[Outcome]], expected: dict):
    """Check outputs; return (failure reason per attempt, wrong outputs, unexpected failures)."""
    import checks

    first = rounds[0]
    reasons = checks.check_round(requests, [o.output for o in first], expected)
    verdicts = []
    wrong = unexpected = 0
    for r, outcomes in enumerate(rounds):
        row = []
        for i, o in enumerate(outcomes):
            if o.error is not None:
                reason = o.error
                if not (requests[i].params.get("over_limit") and OVER_LIMIT_ERROR in o.error):
                    unexpected += 1
            elif reasons[i] is not None:
                reason = reasons[i]
                wrong += 1
            elif r > 0 and o.output != first[i].output:
                reason = "output differs from the first round"
                wrong += 1
            else:
                reason = None
            row.append(reason)
        verdicts.append(row)
    return verdicts, wrong, unexpected


def kind_report(requests, rounds, verdicts) -> Dict[str, dict]:
    """Per request kind: raw and normalized latency of every attempt, items delivered."""
    by_kind: Dict[str, dict] = {}
    for outcomes, row in zip(rounds, verdicts):
        for req, o, reason in zip(requests, outcomes, row):
            k = by_kind.setdefault(req.kind, {"raw": [], "latency": [], "items": 0})
            k["raw"].append(o.latency)
            k["latency"].append(o.normalized)
            if reason is None:
                k["items"] += _items(req)
    return by_kind


def print_failures(requests, verdicts) -> None:
    seen = set()
    for row in verdicts:
        for req, reason in zip(requests, row):
            if reason is not None and (req.key, reason) not in seen:
                seen.add((req.key, reason))
                print(f"failed: {req.key}: {reason}")


#: Per-kind names of the latency and throughput in the report lines.
KIND_NAMES = {"count": ("count_s", None), "fit": ("fit_s", None),
              "compare": ("compare_s", None),
              "profile": ("profile_s", "profile_points_per_s"),
              "sample": ("sample_s", "samples_per_s"),
              "classify": ("classify_s", "texts_per_s")}


def timed_run(args, requests, expected) -> dict:
    setup = measure_setup(args.workload, args.seed)
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rounds.append(run_round(requests, reference=True))
        now = time.perf_counter()
        wall = now - start
        # stop at the round boundary nearest to --seconds
        if wall + (now - round_start) / 2 >= args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts, wrong, unexpected = judge(requests, rounds, expected)
    kinds = kind_report(requests, rounds, verdicts)
    attempted = sum(len(r) for r in rounds)
    failed = sum(v is not None for row in verdicts for v in row)
    speeds = [o.speed for r in rounds for o in r]

    print(f"rounds {len(rounds)} of {len(requests)} requests; wall_s {wall:.6g} s")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    print(f"machine speed {_percentile_summary(speeds)} x nominal; times here "
          f"are at nominal speed, raw medians in brackets")
    print(f"setup_s {_percentile_summary(setup)} s, not rescaled")
    print(f"peak_rss_mib {peak_rss_mib:.6g} MiB")
    for kind, k in kinds.items():
        print(f"{KIND_NAMES[kind][0]} {_percentile_summary(k['latency'])} s "
              f"[{statistics.median(k['raw']):.6g} s]")
    rates = {}
    sweep = [kinds[k] for k in ("fit", "compare") if k in kinds]
    if sweep:
        rates["count"] = (sum(k["items"] for k in sweep)
                          / sum(sum(k["latency"]) for k in sweep))
        print(f"sweep_counts_per_s {rates['count']:.6g} 1/s over "
              f"{sum(len(k['latency']) for k in sweep)} fit and compare requests")
    for kind in ("profile", "sample", "classify"):
        if kind in kinds:
            k = kinds[kind]
            rates[kind] = k["items"] / sum(k["latency"])
            print(f"{KIND_NAMES[kind][1]} {rates[kind]:.6g} 1/s over "
                  f"{len(k['latency'])} requests")
    if "classify" in kinds:
        print("texts_per_s counts texts computed from the request arguments")
    print_failures(requests, verdicts)

    primary = PRIMARY[args.workload]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_s": (statistics.median(kinds[primary]["latency"]), "s"),
        "items_per_s": (rates[primary], "1/s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    return {"correct": wrong == 0 and unexpected == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def traced_run(args, requests, expected) -> dict:
    from tracer import LAYERS, Tracer

    # both walls are sums of request latencies at nominal machine speed, so
    # that a drift of the machine between the two rounds is not counted as
    # tracing overhead
    plain = run_round(requests, reference=True)
    untraced = sum(o.normalized for o in plain)

    tracer = Tracer()
    hits_before = sum(c.cache_info().hits for c in _package_caches())
    tracer.install()
    try:
        traced = run_round(requests, on_request=lambda i: setattr(tracer, "request", i),
                           reference=True)
    finally:
        tracer.uninstall()
    traced_wall = sum(o.normalized for o in traced)
    cache_hits = sum(c.cache_info().hits for c in _package_caches()) - hits_before

    verdicts, wrong, unexpected = judge(requests, [traced], expected)
    row = verdicts[0]
    for i, (a, b) in enumerate(zip(plain, traced)):
        if (a.output, a.error) != (b.output, b.error) and row[i] is None:
            row[i] = "traced output differs from the untraced output"
            wrong += 1
    print_failures(requests, verdicts)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    c, calls, t = tracer.counters, tracer.calls, tracer.time_s
    yielded = c["exact_counts.counts_yielded"]
    limit_calls = calls["profiles.limit_profile"]
    incbeta_calls = calls["profiles.regularized_incomplete_beta"]
    chain_time = t["sampling.ExtensionChain.run"]

    def module_calls(layer):
        return sum(n for name, n in calls.items()
                   if name.startswith(layer + ".") and not name.endswith(".resume"))

    metrics = {f"{layer}.self_s": (tracer.self_s[layer], "s") for layer in LAYERS}
    metrics.update({
        "cli.output_bytes": (sum(len(o.output.encode()) for o in traced if o.output), "bytes"),
        "exact_counts.calls": (module_calls("exact_counts"), "count"),
        "exact_counts.counts_yielded": (yielded, "count"),
        "exact_counts.counts_delivered": (c["exact_counts.counts_delivered"], "count"),
        "exact_counts.useful_ratio": (c["exact_counts.counts_delivered"] / yielded
                                      if yielded else 0.0, "ratio"),
        "exact_counts.degree_sum": (c["exact_counts.degree_sum"], "count"),
        "exact_counts.count_bits": (c["exact_counts.count_bits"], "bits"),
        "asymptotics.log_beta.calls": (calls["asymptotics.log_beta"], "count"),
        "asymptotics.log_integer.calls": (calls["asymptotics.log_integer"], "count"),
        "profiles.limit_profile.calls": (limit_calls, "count"),
        "profiles.incbeta.calls": (incbeta_calls, "count"),
        "profiles.incbeta_per_point": (incbeta_calls / limit_calls if limit_calls else 0.0,
                                       "ratio"),
        "posets.elements": (c["posets.elements"], "count"),
        "sampling.steps": (c["sampling.steps"], "count"),
        "sampling.steps_per_s": (c["sampling.steps"] / chain_time if chain_time else 0.0,
                                 "1/s"),
        "patterns.calls": (module_calls("patterns"), "count"),
        "patterns.texts": (sum(workloads.texts_needed(r) for r in requests), "count"),
        "patterns.cache_hits": (cache_hits, "count"),
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced, "s"),
    })
    metrics.update({name: (n, "lines") for name, n in line_counts().items()})
    print("patterns.texts is computed from the request arguments, not measured")
    print(f"tracing overhead {traced_wall - untraced:.6g} s "
          f"({traced_wall:.6g} s traced, {untraced:.6g} s untraced)")
    attempted = len(traced)
    failed = sum(v is not None for v in row)
    return {"correct": wrong == 0 and unexpected == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no clusterext package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import clusterext.cli  # noqa: F401  (the program under test)

    print("meta " + json.dumps(run_metadata()))
    requests = workloads.generate(args.workload, args.seed)
    with open(BENCH_DIR / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    result = (traced_run if args.trace else timed_run)(args, requests, expected)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
