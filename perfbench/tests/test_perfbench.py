"""Tests of the benchmark itself: checks, tracing and the generator.

Run from the root of the repository:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Request  # noqa: E402

EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))


def _count(m, a, b, n, variant, over_limit=False):
    return Request("count", workloads._argv("count", "--m", m, "--a", a, "--b", b,
                                            "--n", n, "--variant", variant),
                   {"m": m, "a": a, "b": b, "n": n, "variant": variant,
                    "over_limit": over_limit})


SMALL_ROUND = [
    _count(5, 2, 4, 5, "p"),
    _count(5, 2, 4, 5, "q"),
    Request("fit", workloads._argv("fit", "--m", 6, "--a", 2, "--b", 5, "--n-max", 12),
            {"m": 6, "a": 2, "b": 5, "n_max": 12}),
    Request("compare", workloads._argv("compare", "--m", 6, "--a", 1, "--b", 3,
                                       "--a2", 2, "--b2", 4, "--n-max", 10),
            {"m": 6, "a": 1, "b": 3, "a2": 2, "b2": 4, "n_max": 10}),
    Request("profile", workloads._argv("profile", "--m", 9, "--a", 3, "--b", 7),
            {"m": 9, "a": 3, "b": 7, "points": 1000}),
    Request("sample", workloads._argv("sample", "--m", 4, "--a", 1, "--b", 3, "--n", 8,
                                      "--seed", 7),
            {"m": 4, "a": 1, "b": 3, "n": 8, "size": 25, "samples": 200, "seed": 7}),
    Request("classify", workloads._argv("classify", "--m", 4, "--n-max", 6),
            {"m": 4, "n_max": 6, "evidence": "strong"}),
]


@pytest.fixture(scope="module")
def small_outputs():
    outcomes = run.run_round(SMALL_ROUND)
    assert all(o.error is None for o in outcomes), [o.error for o in outcomes]
    return [o.output for o in outcomes]


def _reasons(requests, outputs):
    return checks.check_round(requests, outputs, EXPECTED)


def test_small_round_passes_every_check(small_outputs):
    assert _reasons(SMALL_ROUND, small_outputs) == [None] * len(SMALL_ROUND)


def _tamper(text, edit):
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


def test_count_plus_one_is_flagged_by_the_oracle(small_outputs):
    bad = list(small_outputs)
    bad[0] = _tamper(bad[0], lambda d: d.update(count=d["count"] + 1))
    reasons = _reasons(SMALL_ROUND, bad)
    assert reasons[0] is not None and "oracle" in reasons[0]


def test_count_plus_one_is_flagged_by_the_digest():
    req = next(r for r in workloads.generate("count_exact", 0)
               if r.kind == "count" and not r.params["over_limit"])
    assert req.key in EXPECTED["digests"]
    out = run.run_round([req])[0].output
    assert _reasons([req], [out]) == [None]
    bad = _tamper(out, lambda d: d.update(count=d["count"] + 1))
    assert "digest" in _reasons([req], [bad])[0]


def test_sandwich_violation_is_flagged():
    pair = [_count(6, 2, 4, 6, "p"), _count(6, 2, 4, 6, "q")]
    outputs = [o.output for o in run.run_round(pair)]
    assert checks.check_round(pair, outputs, {}) == [None, None]
    p_count = json.loads(outputs[0])["count"]
    outputs[1] = _tamper(outputs[1], lambda d: d.update(count=p_count - 1))
    reasons = checks.check_round(pair, outputs, {})
    assert "e_p <= e_q" in reasons[0] and reasons[1] is None


def test_compare_count_plus_one_is_flagged(small_outputs):
    bad = list(small_outputs)

    def edit(d):
        d["rows"][1]["count_1"] += 1

    bad[3] = _tamper(bad[3], edit)
    assert _reasons(SMALL_ROUND, bad)[3] is not None


def test_profile_point_moved_by_1e_6_is_flagged(small_outputs):
    bad = list(small_outputs)

    def edit(d):
        d["f"][500] += 1e-6

    bad[4] = _tamper(bad[4], edit)
    reason = _reasons(SMALL_ROUND, bad)[4]
    assert reason is not None and "betainc" in reason


def test_sample_heights_off_by_0_1_are_flagged(small_outputs):
    bad = list(small_outputs)

    def edit(d):
        for row in d["rows"]:
            row["mean_height"] += 0.1
            row["abs_deviation"] = abs(row["mean_height"] - row["reference_f"])
        d["max_deviation"] = max(r["abs_deviation"] for r in d["rows"])

    bad[5] = _tamper(bad[5], edit)
    reason = _reasons(SMALL_ROUND, bad)[5]
    assert reason is not None and "deviation" in reason


def test_split_class_is_flagged(small_outputs):
    bad = list(small_outputs)

    def edit(d):
        big = max(d["classes"], key=len)
        d["classes"].remove(big)
        d["classes"] += [big[:1], big[1:]]

    bad[6] = _tamper(bad[6], edit)
    assert _reasons(SMALL_ROUND, bad)[6] is not None


def test_traced_and_untraced_outputs_are_identical(small_outputs):
    from clusterext import profiles, sampling

    original = sampling.limit_profile
    tracer = Tracer()
    tracer.install()
    try:
        assert sampling.limit_profile is not original
        traced = run.run_round(SMALL_ROUND)
    finally:
        tracer.uninstall()
    assert sampling.limit_profile is original is profiles.limit_profile
    assert [o.output for o in traced] == small_outputs
    assert tracer.counters["exact_counts.counts_delivered"] == 2 + 12 + 4 * 10
    assert tracer.counters["sampling.steps"] == (
        sampling.default_burnin(25) + 200 * sampling.default_thinning(25))
    assert tracer.calls["profiles.limit_profile"] >= 2000
    assert tracer.spans and all(s[0] >= -1 for s in tracer.spans)


def test_over_limit_failure_is_expected_not_wrong():
    req = _count(20, 19, 20, 137, "p", over_limit=True)
    outcomes = run.run_round([req])
    assert outcomes[0].output is None and "Exceeds the limit" in outcomes[0].error
    verdicts, wrong, unexpected = run.judge([req], [outcomes], EXPECTED)
    assert verdicts[0][0] is not None and wrong == 0 and unexpected == 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(workload):
    first = workloads.generate(workload, 5)
    assert [r.argv for r in first] == [r.argv for r in workloads.generate(workload, 5)]
    assert [r.argv for r in first] != [r.argv for r in workloads.generate(workload, 6)]
    assert all(r.argv[-2:] == ("--format", "json") for r in first)


def test_over_limit_menu_exceeds_the_limit():
    from clusterext import exact_counts, posets

    for m, a, b, n in workloads.OVER_LIMIT_MENU:
        count = exact_counts.exact_count(posets.ClusterParams(m, a, b, round(n * 0.98)))
        assert count.bit_length() > workloads.LIMIT_BITS + 3, (m, a, b, n)


def test_recorded_digests_cover_the_recorded_seeds():
    for seed in EXPECTED["seeds"]:
        for req in workloads.generate("count_exact", seed):
            if req.kind in ("count", "compare"):
                assert req.key in EXPECTED["digests"]
