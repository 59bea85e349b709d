"""Output checks for each request kind, run outside the timed region.

``check_round`` returns one failure reason per request (None when the output
passed).  The checks use independent references where they exist: scipy's
``betainc`` for the profile, closed formulas for the sampler budgets and the
growth constant, the package's order-ideal oracle for posets of at most 24
elements, and digests and class counts recorded from the seed code.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import permutations
from typing import Dict, List, Optional, Sequence

import numpy as np

from workloads import Request

#: Largest poset the order-ideal oracle is asked to count.
BRUTE_MAX_ELEMENTS = 24
#: Criterion-7 tolerances of the acceptance suite.
INVERSE_TOL = 1e-10
SLOPE_TOL = 1e-8


def _big_int(digits: str) -> int:
    """int(digits) without the interpreter's 4300-digit conversion limit."""
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start:start + 1000].lstrip("-")
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if digits.startswith("-") else value


def _loads(text: str):
    return json.loads(text, parse_int=_big_int)


def digest(counts: Sequence[int]) -> str:
    """SHA-256 over the big-endian bytes of each count, length-prefixed."""
    h = hashlib.sha256()
    for c in counts:
        raw = c.to_bytes(max(1, (c.bit_length() + 7) // 8), "big")
        h.update(len(raw).to_bytes(8, "big") + raw)
    return h.hexdigest()


def growth_constant(m: int, a: int, b: int) -> float:
    """The constant c(m, a, b) of log e(P_n) = (m-b+a-1) n log n + c n + O(log n)."""
    d = b - a

    def log_beta(x: float, y: float) -> float:
        return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)

    return (d * log_beta((a - 1) / d + 1.0, (m - b) / d + 1.0)
            - log_beta(a, m - b + 1) - math.lgamma(m - b + a + 1)
            + (m - 1) * math.log(m - 1) - d * math.log(d) - m + b - a + 1)


def _brute(m: int, a: int, b: int, n: int, variant: str) -> Optional[int]:
    """Order-ideal count when the poset is small enough, else None."""
    from clusterext import posets

    size = (m - 1) * n + (1 if variant == "p" else m - b + a)
    if size > BRUTE_MAX_ELEMENTS:
        return None
    params = posets.ClusterParams(m, a, b, n)
    build = posets.cluster_poset if variant == "p" else posets.modified_cluster_poset
    return posets.count_linear_extensions_bruteforce(build(params))


def _check_count(req: Request, out: dict, expected: dict) -> Optional[str]:
    p = req.params
    for k in ("m", "a", "b", "n", "variant"):
        if out.get(k) != p[k]:
            return f"echoed {k}={out.get(k)!r}, asked {p[k]!r}"
    count = out.get("count")
    if not isinstance(count, int) or count < 1:
        return f"count {count!r} is not a positive integer"
    want = expected.get("digests", {}).get(req.key)
    if want is not None and digest([count]) != want:
        return "count differs from the digest recorded from the seed code"
    brute = _brute(p["m"], p["a"], p["b"], p["n"], p["variant"])
    if brute is not None and brute != count:
        return f"count {count} differs from the order-ideal oracle {brute}"
    return None


def _check_sandwich(p_req: Request, e_p: int, e_q: int) -> Optional[str]:
    m, a, b, n = (p_req.params[k] for k in ("m", "a", "b", "n"))
    q_size = (m - 1) * n + m - b + a
    if not e_p <= e_q <= q_size ** (m - b + a - 1) * e_p:
        return "padded count violates e_p <= e_q <= |Q|^(m-b+a-1) e_p"
    return None


def _check_fit(req: Request, rows: list) -> Optional[str]:
    m, a, b, n_max = (req.params[k] for k in ("m", "a", "b", "n_max"))
    if [r.get("n") for r in rows] != list(range(1, n_max + 1)):
        return "fit rows do not cover n = 1..n_max"
    c = growth_constant(m, a, b)
    lead = m - b + a - 1
    for r in rows:
        n, emp = r["n"], r["empirical_c"]
        if not (isinstance(emp, float) and math.isfinite(emp)):
            return f"empirical constant at n={n} is not finite"
        if abs(r["c"] - c) > 1e-9 * max(1.0, abs(c)):
            return f"growth constant {r['c']} differs from {c}"
        if abs(r["abs_error"] - abs(emp - r["c"])) > 1e-12 * max(1.0, abs(emp)):
            return f"abs_error at n={n} is not |empirical_c - c|"
        brute = _brute(m, a, b, n, "p")
        if brute is not None:
            ref = (math.log(brute) - lead * n * math.log(n)) / n
            if abs(emp - ref) > 1e-9 * max(1.0, abs(ref)):
                return f"empirical constant at n={n} disagrees with the oracle"
    return None


def _check_compare(req: Request, out: dict, expected: dict) -> Optional[str]:
    p = req.params
    rows = out.get("rows")
    if not isinstance(rows, list) or [r.get("n") for r in rows] != list(
            range(1, p["n_max"] + 1)):
        return "compare rows do not cover n = 1..n_max"
    counts = []
    for r in rows:
        c1, c2 = r["count_1"], r["count_2"]
        if not (isinstance(c1, int) and isinstance(c2, int) and c1 > 0 and c2 > 0):
            return f"non-positive or non-integer count at n={r['n']}"
        if r["ordered"] != (c1 < c2):
            return f"ordered flag wrong at n={r['n']}"
        for variant_a, variant_b, c in ((p["a"], p["b"], c1), (p["a2"], p["b2"], c2)):
            brute = _brute(p["m"], variant_a, variant_b, r["n"], "p")
            if brute is not None and brute != c:
                return f"count {c} at n={r['n']} differs from the oracle {brute}"
        counts += [c1, c2]
    ordered = [r["ordered"] for r in rows]
    n0 = None
    if ordered[-1]:
        n0 = len(ordered)
        while n0 > 1 and ordered[n0 - 2]:
            n0 -= 1
    if out.get("n0") != n0:
        return f"n0={out.get('n0')!r}, the rows give {n0!r}"
    want = expected.get("digests", {}).get(req.key)
    if want is not None and digest(counts) != want:
        return "counts differ from the digest recorded from the seed code"
    return None


def _shape(m: int, a: int, b: int):
    d = b - a
    return (a - 1) / d + 1.0, (m - b) / d + 1.0


def _check_profile(req: Request, out: dict) -> Optional[str]:
    from scipy.special import betainc

    m, a, b, points = (req.params[k] for k in ("m", "a", "b", "points"))
    t = np.asarray(out.get("t", []), dtype=float)
    if t.shape != (points + 1,) or not np.array_equal(t, np.linspace(0.0, 1.0, points + 1)):
        return "t is not the default grid"
    f = np.asarray(out["f"], dtype=float)
    if f.shape != t.shape or f[0] != 0.0 or f[-1] != 1.0 or np.any(np.diff(f) < 0):
        return "f is not a nondecreasing map of [0, 1] onto itself"
    alpha, beta = _shape(m, a, b)
    worst = float(np.max(np.abs(betainc(alpha, beta, f) - t)))
    if worst > INVERSE_TOL:
        return f"betainc(alpha, beta, f(t)) misses t by {worst:.3g}"
    # slope equation fp^(b-a) f^(a-1) (1-f)^(m-b) = B^(b-a), relative and in
    # logs: B^(b-a) spans hundreds of orders of magnitude for m up to 40.
    fp = np.array([math.nan if v is None else v for v in out["fprime"]])
    inner = (f > 0) & (f < 1) & np.isfinite(fp)
    if not np.all(np.isfinite(fp[1:-1])):
        return "slope is not finite inside (0, 1)"
    log_b = math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)
    with np.errstate(divide="ignore"):
        lhs = ((b - a) * (np.log(fp[inner]) - log_b) + (a - 1) * np.log(f[inner])
               + (m - b) * np.log1p(-f[inner]))
    worst = float(np.max(np.abs(np.expm1(lhs)))) if lhs.size else 0.0
    if worst > SLOPE_TOL:
        return f"slope-equation residual {worst:.3g}"
    return None


def sample_tolerance(m: int, a: int, b: int, n: int) -> np.ndarray:
    """Largest accepted |mean height - reference| for each glue element X_0..X_n.

    The reference is the n -> infinity profile f at t_i = (i+1)/(n+2).  At
    finite n a glue element may sit anywhere within one grid cell 1/(n+2) of
    t_i (for a = 1, b = m the heights are exactly i/n, one cell off), so the
    bias allowance is the change of f over one cell on either side, taken
    from scipy's ``betaincinv``.  On top comes 0.02 for sampling noise: four
    standard errors of a 200-draw mean of a height fraction whose standard
    deviation is at most 0.07.  The allowance is tight in the interior
    (0.03-0.06 for n = 8..60) and loose only at the steep flat-endpoint
    corners of f.
    """
    from scipy.special import betaincinv

    alpha, beta = _shape(m, a, b)
    cell = 1.0 / (n + 2)
    t = (np.arange(n + 1) + 1) * cell
    f = betaincinv(alpha, beta, t)
    below = f - betaincinv(alpha, beta, np.clip(t - cell, 0.0, 1.0))
    above = betaincinv(alpha, beta, np.clip(t + cell, 0.0, 1.0)) - f
    return np.maximum(below, above) + 0.02


def _check_sample(req: Request, out: dict) -> Optional[str]:
    from scipy.special import betainc

    p = req.params
    size = (p["m"] - 1) * p["n"] + 1
    burnin = math.ceil(size ** 3 * math.log(size))
    for key, want in (("burnin", burnin), ("thinning", size * size),
                      ("samples", p["samples"]), ("seed", p["seed"])):
        if out.get(key) != want:
            return f"{key}={out.get(key)!r}, expected {want}"
    rows = out.get("rows", [])
    if [r["i"] for r in rows] != list(range(p["n"] + 1)):
        return "rows do not cover the n+1 glue elements"
    heights = np.array([r["mean_height"] for r in rows])
    ref = np.array([r["reference_f"] for r in rows])
    if np.any(np.diff(heights) <= 0):
        return "mean heights do not strictly increase"
    alpha, beta = _shape(p["m"], p["a"], p["b"])
    at = (np.arange(p["n"] + 1) + 1) / (p["n"] + 2)
    if np.max(np.abs(betainc(alpha, beta, ref) - at)) > INVERSE_TOL:
        return "reference_f is not the limit profile at (i+1)/(n+2)"
    dev = np.abs(heights - ref)
    over = dev - sample_tolerance(p["m"], p["a"], p["b"], p["n"])
    if np.any(over > 0):
        i = int(np.argmax(over))
        return f"height deviation {dev[i]:.4f} of X_{i} exceeds {dev[i] - over[i]:.4f}"
    if abs(out["max_deviation"] - float(dev.max())) > 1e-12:
        return "max_deviation is not the largest row deviation"
    return None


def _check_classify(req: Request, out: dict, expected: dict) -> Optional[str]:
    m, n_max, kind = (req.params[k] for k in ("m", "n_max", "evidence"))
    if (out.get("m"), out.get("n_max"), out.get("evidence")) != (m, n_max, kind):
        return "echoed parameters differ from the request"
    classes = [[tuple(int(ch) for ch in p) for p in cls] for cls in out["classes"]]
    seen = sorted(p for cls in classes for p in cls)
    if seen != sorted(permutations(range(1, m + 1))):
        return "classes do not partition S_m"
    for cls in classes:
        members = set(cls)
        for p in cls:
            if p[::-1] not in members or tuple(m + 1 - v for v in p) not in members:
                return f"class of {''.join(map(str, p))} is not closed under reverse and complement"
    want = expected.get("classes", {}).get(f"{m}:{n_max}:{kind}")
    if want is not None and len(classes) != want:
        return f"{len(classes)} classes, the seed code gives {want}"
    return None


def check_round(requests: Sequence[Request], outputs: Sequence[Optional[str]],
                expected: Dict) -> List[Optional[str]]:
    """One failure reason (or None) per request whose output is not None."""
    reasons: List[Optional[str]] = [None] * len(requests)
    counts: Dict[tuple, int] = {}
    for i, (req, text) in enumerate(zip(requests, outputs)):
        if text is None:
            continue
        try:
            out = _loads(text)
            if req.kind == "count":
                reasons[i] = _check_count(req, out, expected)
                if reasons[i] is None:
                    p = req.params
                    counts[(p["m"], p["a"], p["b"], p["n"], p["variant"])] = out["count"]
            elif req.kind == "fit":
                reasons[i] = _check_fit(req, out)
            elif req.kind == "compare":
                reasons[i] = _check_compare(req, out, expected)
            elif req.kind == "profile":
                reasons[i] = _check_profile(req, out)
            elif req.kind == "sample":
                reasons[i] = _check_sample(req, out)
            elif req.kind == "classify":
                reasons[i] = _check_classify(req, out, expected)
            else:
                reasons[i] = f"no check for request kind {req.kind!r}"
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reasons[i] = f"malformed output: {exc!r}"
    for i, req in enumerate(requests):
        if req.kind != "count" or req.params["variant"] != "p" or reasons[i]:
            continue
        p = req.params
        key = (p["m"], p["a"], p["b"], p["n"])
        if key + ("p",) in counts and key + ("q",) in counts:
            reasons[i] = _check_sandwich(req, counts[key + ("p",)], counts[key + ("q",)])
    return reasons
