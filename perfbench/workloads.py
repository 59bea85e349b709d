"""Seeded request generator for the clusterext benchmark.

Each workload is a *round*: a list of CLI argument vectors drawn from the
workload seed.  The benchmark repeats the round until its time is up, so a
run always measures whole rounds and every request of the round equally
often.  The generator uses only the standard library; the program under test
receives nothing but the generated argv.

Sizes come from menus.  The n of each menu entry was calibrated once on the
seed code so that every request of a kind costs about the same there (a
count about 0.3 s, a compare about 1 s on a 2-core Xeon).  Costs at a fixed
degree differ by 50x between shapes, so free draws would make the median
latency of a round depend on the seed rather than on the program; with the
menus, a seed changes which shapes run, their order, the variants and a +-2%
jitter of single counts' n, but not the cost profile of the round.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Python refuses int -> str conversions above this many digits by default.
INT_STR_DIGITS = 4300
LIMIT_BITS = INT_STR_DIGITS * math.log2(10)

# (m, a, b, n): single counts of about 0.3 s each on the seed code, final
# degree (m-1)n from 663 to 2828, all below the 4300-digit limit.  The
# trivial corner a = 1, b = m (a total order, count 1) is left out.
SINGLE_MENU: Tuple[Tuple[int, int, int, int], ...] = (
    (6, 3, 6, 437), (6, 4, 5, 222), (7, 1, 2, 113), (7, 3, 6, 239),
    (7, 4, 6, 219), (7, 4, 7, 377), (7, 5, 6, 201), (8, 1, 6, 201),
    (8, 2, 8, 344), (10, 1, 3, 80), (10, 1, 5, 104), (12, 2, 3, 61),
    (12, 2, 7, 95), (12, 7, 9, 98), (12, 7, 11, 164), (13, 1, 12, 229),
    (13, 6, 10, 108), (13, 8, 10, 94), (13, 9, 11, 114), (13, 11, 12, 151),
    (14, 2, 3, 51), (14, 4, 9, 84), (15, 1, 14, 202), (16, 7, 9, 61),
    (16, 9, 11, 71), (17, 5, 12, 79), (18, 2, 15, 123), (20, 3, 12, 62),
)

# (m, a, b, n): counts with at least 1.2x the digits Python will print, at
# 0.1-0.2 s each on the seed code.  They exercise the known CLI defect.
OVER_LIMIT_MENU: Tuple[Tuple[int, int, int, int], ...] = (
    (9, 8, 9, 305), (11, 9, 11, 267), (12, 10, 12, 242), (14, 12, 14, 205),
    (15, 14, 15, 180), (16, 13, 16, 188), (17, 14, 17, 176),
    (18, 15, 18, 166), (19, 17, 19, 150), (20, 16, 20, 155),
    (20, 19, 20, 137),
)

# Sweep throughput is counts per second, so fit and compare requests hold
# both n_max and cost fixed: n_max is 100 (fit) or 90 (compare), and the
# shapes are those of 48 timed on the seed code whose fit cost about 0.27 s
# or whose compare cost about 1.1 s, within 5%.
FIT_N_MAX = 100
FIT_MENU: Tuple[Tuple[int, int, int], ...] = (
    (12, 8, 9), (15, 4, 11), (18, 7, 15),
)

COMPARE_N_MAX = 90
COMPARE_MENU: Tuple[Tuple[int, int, int, int, int], ...] = (
    (10, 2, 4, 3, 5), (11, 3, 5, 5, 7), (14, 2, 8, 3, 9), (18, 3, 13, 4, 14),
    (18, 4, 13, 5, 14),
)

# (m, a, b, n) by poset size |P| = (m-1)n + 1, at least 8 chains each.  At
# equal |P| the MCMC step rate differs by +-15% between shapes; the menu keeps
# those of 120 measured on the seed code whose rate was within 4% of the
# median.  The total order a = 1, b = m, where the chain never moves, is out.
SAMPLE_MENU: Dict[int, Tuple[Tuple[int, int, int, int], ...]] = {
    97: (
        (3, 1, 2, 48), (4, 2, 4, 32), (5, 2, 3, 24), (5, 2, 4, 24),
        (7, 5, 7, 16), (9, 1, 4, 12), (9, 1, 6, 12), (9, 2, 3, 12),
        (9, 4, 7, 12), (9, 5, 8, 12), (9, 5, 9, 12), (9, 6, 9, 12),
        (13, 1, 2, 8), (13, 2, 5, 8), (13, 4, 9, 8), (13, 5, 12, 8),
        (13, 8, 10, 8), (13, 8, 12, 8), (13, 9, 13, 8),
    ),
    121: (
        (5, 2, 4, 30), (6, 1, 4, 24), (7, 3, 5, 20), (9, 1, 8, 15),
        (9, 3, 6, 15), (9, 7, 8, 15), (11, 1, 4, 12), (11, 1, 7, 12),
        (11, 3, 5, 12), (13, 5, 9, 10), (13, 5, 11, 10), (13, 7, 8, 10),
        (13, 11, 13, 10), (16, 2, 9, 8), (16, 4, 5, 8), (16, 5, 10, 8),
        (16, 8, 14, 8), (16, 9, 13, 8), (16, 10, 13, 8),
    ),
    145: (
        (9, 5, 8, 18), (13, 4, 9, 12), (13, 5, 13, 12), (13, 8, 13, 12),
        (17, 5, 12, 9), (17, 8, 14, 9), (19, 5, 12, 8), (19, 7, 11, 8),
        (19, 8, 11, 8), (19, 9, 18, 8),
    ),
}

# (m, horizons): each m is classified once at each horizon n_max per round,
# with strong or weak evidence drawn from the seed.  Cost grows ninefold per
# horizon step; three steps per m put the round's median inside a cluster of
# similar costs instead of in the gap between two.
CLASSIFY_HORIZONS: Tuple[Tuple[int, Tuple[int, ...]], ...] = (
    (3, (6, 7, 8)), (4, (6, 7, 8)), (5, (6, 7, 8)), (6, (5, 6, 7)),
)

PROFILE_M_BUCKETS = ((3, 10), (11, 20), (21, 30), (31, 40))


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the parameters it was drawn with."""

    kind: str
    argv: Tuple[str, ...]
    params: Dict[str, object] = field(default_factory=dict, compare=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _argv(*parts: object) -> Tuple[str, ...]:
    return tuple(str(p) for p in parts) + ("--format", "json")


def _jitter(rng: random.Random, n: int) -> int:
    return max(1, round(n * rng.uniform(0.98, 1.02)))


def _count_pair(rng: random.Random, m: int, a: int, b: int, n: int,
                over_limit: bool) -> List[Request]:
    variants = ["p", "q"]
    rng.shuffle(variants)
    return [Request("count",
                    _argv("count", "--m", m, "--a", a, "--b", b, "--n", n,
                          "--variant", v),
                    {"m": m, "a": a, "b": b, "n": n, "variant": v,
                     "over_limit": over_limit})
            for v in variants]


def count_exact(seed: int) -> List[Request]:
    """Six p/q pairs of single counts, one over-limit pair, the three fits, one compare."""
    rng = random.Random(f"count_exact/{seed}")
    groups: List[List[Request]] = []
    for m, a, b, n in rng.sample(SINGLE_MENU, 6):
        groups.append(_count_pair(rng, m, a, b, _jitter(rng, n), False))
    m, a, b, n = rng.choice(OVER_LIMIT_MENU)
    groups.append(_count_pair(rng, m, a, b, _jitter(rng, n), True))
    for m, a, b in FIT_MENU:
        groups.append([Request(
            "fit", _argv("fit", "--m", m, "--a", a, "--b", b, "--n-max", FIT_N_MAX),
            {"m": m, "a": a, "b": b, "n_max": FIT_N_MAX})])
    m, a, b, a2, b2 = rng.choice(COMPARE_MENU)
    groups.append([Request(
        "compare", _argv("compare", "--m", m, "--a", a, "--b", b, "--a2", a2,
                         "--b2", b2, "--n-max", COMPARE_N_MAX),
        {"m": m, "a": a, "b": b, "a2": a2, "b2": b2, "n_max": COMPARE_N_MAX})])
    rng.shuffle(groups)
    return [r for g in groups for r in g]


def _profile_shape(rng: random.Random, lo: int, hi: int, corner: str):
    m = rng.randint(lo, hi)
    if corner == "a=1":
        return m, 1, rng.randint(2, m - 1)
    if corner == "b=m":
        return m, rng.randint(2, m - 1), m
    if corner == "a=1,b=m":
        return m, 1, m
    a = rng.randint(1, m - 1)
    return m, a, rng.randint(a + 1, m)


def profile_grid(seed: int) -> List[Request]:
    """32 default-grid profiles, eight per m bucket, half at a flat-endpoint corner.

    Exactly one request per round is the constant-slope corner a = 1, b = m,
    which costs a fifth of the others; drawing it freely would move the
    median with the seed.
    """
    rng = random.Random(f"profile_grid/{seed}")
    shapes = []
    for lo, hi in PROFILE_M_BUCKETS:
        for corner in ("a=1", "b=m", "free", "free") * 2:
            shapes.append(_profile_shape(rng, lo, hi, corner))
    shapes[0] = _profile_shape(rng, *PROFILE_M_BUCKETS[0], "a=1,b=m")
    rng.shuffle(shapes)
    return [Request("profile", _argv("profile", "--m", m, "--a", a, "--b", b),
                    {"m": m, "a": a, "b": b, "points": 1000})
            for m, a, b in shapes]


def sample_heights(seed: int) -> List[Request]:
    """Six default-budget MCMC height experiments: |P| = 97, 4 x 121 and 145.

    The round's median falls on the |P| = 121 requests; four shapes there
    average out what is left of the shape-to-shape rate differences.
    """
    rng = random.Random(f"sample_heights/{seed}")
    out = []
    for size, shapes in SAMPLE_MENU.items():
        for m, a, b, n in rng.sample(shapes, 4 if size == 121 else 1):
            chain_seed = rng.randrange(2 ** 31)
            out.append(Request("sample",
                               _argv("sample", "--m", m, "--a", a, "--b", b,
                                     "--n", n, "--seed", chain_seed),
                               {"m": m, "a": a, "b": b, "n": n, "size": size,
                                "samples": 200, "seed": chain_seed}))
    rng.shuffle(out)
    return out


def classify_patterns(seed: int) -> List[Request]:
    """Classification of S_m for m = 3..6 at three horizons each, strong or weak."""
    rng = random.Random(f"classify_patterns/{seed}")
    out = []
    for m, horizons in CLASSIFY_HORIZONS:
        for n_max in horizons:
            kind = rng.choice(("strong", "weak"))
            argv = ["classify", "--m", m, "--n-max", n_max]
            if kind == "weak":
                argv.append("--weak")
            out.append(Request("classify", _argv(*argv),
                               {"m": m, "n_max": n_max, "evidence": kind}))
    rng.shuffle(out)
    return out


WORKLOADS = {
    "count_exact": count_exact,
    "profile_grid": profile_grid,
    "sample_heights": sample_heights,
    "classify_patterns": classify_patterns,
}


def generate(workload: str, seed: int) -> List[Request]:
    """The round of requests for ``workload`` drawn from ``seed``."""
    try:
        make = WORKLOADS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}") from None
    return make(seed)


def texts_needed(request: Request) -> int:
    """Sum of n! over the (m, n) occurrence histograms a classify request needs."""
    if request.kind != "classify":
        return 0
    return sum(math.factorial(n) for n in range(1, request.params["n_max"] + 1))
