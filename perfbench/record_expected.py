#!/usr/bin/env python3
"""Record the reference values the checks compare against.

Run from the root of a checkout of the code the values should come from:

    python3 perfbench/record_expected.py > perfbench/expected.json

It stores SHA-256 digests of the exact counts of every count and compare
request that count_exact draws for seeds 0..19 (over-limit counts come from
``exact_counts.exact_count`` directly, since the CLI cannot print them), and
the number of classes of every classify request classify_patterns can draw.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import workloads  # noqa: E402
from clusterext import cli, exact_counts, posets  # noqa: E402

SEEDS = range(20)


def _cli_json(argv):
    buf = io.StringIO()
    if cli.run(list(argv), out=buf) != 0:
        raise SystemExit(f"reference request failed: {' '.join(argv)}")
    return json.loads(buf.getvalue())


def main() -> None:
    digests = {}
    for seed in SEEDS:
        for req in workloads.generate("count_exact", seed):
            p = req.params
            if req.key in digests or req.kind not in ("count", "compare"):
                continue
            if req.kind == "count" and p["over_limit"]:
                params = posets.ClusterParams(p["m"], p["a"], p["b"], p["n"])
                counts = [exact_counts.exact_count(params, p["variant"])]
            elif req.kind == "count":
                counts = [_cli_json(req.argv)["count"]]
            else:
                counts = [c for row in _cli_json(req.argv)["rows"]
                          for c in (row["count_1"], row["count_2"])]
            digests[req.key] = checks.digest(counts)
    classes = {}
    for m, horizons in workloads.CLASSIFY_HORIZONS:
        for n_max in horizons:
            for kind in ("strong", "weak"):
                argv = ["classify", "--m", str(m), "--n-max", str(n_max), "--format", "json"]
                if kind == "weak":
                    argv.append("--weak")
                classes[f"{m}:{n_max}:{kind}"] = len(_cli_json(argv)["classes"])
    json.dump({"seeds": list(SEEDS), "digests": dict(sorted(digests.items())),
               "classes": classes}, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
