"""Growth constants for the extension counts, and the special functions behind them.

The number of linear extensions of the glued-chain poset grows like
exp((m-b+a-1) n log n + c n) with an explicit constant c built from log-gamma
and log-beta values.  This module evaluates that constant, checks the
strict ordering of constants along a fixed gap b - a against a float
rounding bound, and fits the constant empirically from exact integer counts.

log-gamma is the stdlib's math.lgamma.  The stdlib has no trigamma, so it
is implemented directly (argument shift plus an asymptotic tail); the tests
cross-check log_beta and trigamma against independent references.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Tuple

from .errors import DomainError, InternalConsistencyError, InvalidInputError, require_int
from .exact_counts import exact_count, exact_count_sweep
from .posets import ClusterParams

# Bernoulli numbers B_2k, k = 1..7, for the trigamma tail
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def log_beta(alpha: float, beta: float) -> float:
    """log B(alpha, beta) = log Gamma(alpha) + log Gamma(beta) - log Gamma(alpha+beta)."""
    if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
        raise DomainError("log_beta requires finite, strictly positive arguments")
    try:
        return math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)
    except OverflowError:
        raise DomainError(f"log_beta({alpha}, {beta}) is beyond the float range") from None


def _trigamma_rest(x: float) -> float:
    """R(x) = trigamma(x) - 1/x, from the shift to x >= 10 and the asymptotic
    tail.  R shifts by the terms 1/(x^2 (x+1)) = 1/x^2 - (1/x - 1/(x+1)),
    which telescope, so every term is positive and nothing cancels."""
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / (x * x * (x + 1.0))
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    for coeff in reversed(_TRIGAMMA_TAIL):
        tail = tail * inv2 + coeff
    return acc + 0.5 * inv2 + tail * inv2 * inv


def trigamma(x: float) -> float:
    """Sum of 1/(x+k)^2 over k >= 0, for x > 0.

    Returns 1/x + R(x), with R shifted above 10 by the recurrence and then
    read off the asymptotic tail 1/(2x^2) + sum B_2k / x^(2k+1).  Where x^2
    underflows to 0 the value is beyond the float range, and inf is returned.
    """
    if not x > 0:
        raise DomainError(f"trigamma requires x > 0, got {x}")
    if x * x == 0.0:
        return math.inf
    return 1.0 / x + _trigamma_rest(x)


class AsymptoticConstant(NamedTuple):
    """Leading coefficient and linear-term constant of log e(P_n) growth."""

    m: int
    a: int
    b: int
    leading: int
    value: float


def _constant_terms(m: int, a: int, b: int) -> Tuple[float, ...]:
    """The summands of c(m, a, b), in the order growth_constant adds them."""
    params = ClusterParams(m, a, b, 1)
    d = params.d
    try:
        return (d * log_beta(*params.shape), -log_beta(float(a), float(m - b + 1)),
                -math.lgamma(m - b + a + 1), (m - 1) * math.log(m - 1),
                -d * math.log(d), -m, b, -a, 1)
    except OverflowError:
        raise DomainError("the growth constant is beyond the float range") from None


def growth_constant(m: int, a: int, b: int) -> AsymptoticConstant:
    """The constant c(m, a, b) in log e(P_n) = (m-b+a-1) n log n + c n + O(log n).

    c = (b-a) log B(alpha, beta) - log B(a, m-b+1)
        - log Gamma(m-b+a+1) + (m-1) log(m-1) - (b-a) log(b-a) - m + b - a + 1

    with (alpha, beta) the weight shape ``ClusterParams.shape``.  The float
    sum's absolute error grows like eps m ln m: 1e-10 at m = 10^5, 2e-3 at 10^12.
    """
    value = 0.0
    for term in _constant_terms(m, a, b):  # left to right, as the formula reads
        value += term
    return AsymptoticConstant(m, a, b, m - b + a - 1, value)


def constant_concavity(t: float, d: int) -> float:
    """(1/d) trigamma(t/d + 1) - trigamma(t + 1); strictly negative for d >= 2.

    This is the second derivative in t of d log Gamma(t/d + 1) - log Gamma(t+1),
    the t-dependent part of the growth constant along fixed gap d, and its
    negativity is what makes the constant strictly concave in the glue position.
    With R(x) = trigamma(x) - 1/x it is evaluated as
    -(d-1)/((t+d)(t+1)) + R(t/d + 1)/d - R(t + 1), which does not cancel at
    large t, where the value is about -(d-1)/(2t^2).
    """
    if not 0 <= t < math.inf:
        raise DomainError(f"need a finite t >= 0, got {t}")
    require_int("d", d, 2)
    return (-(d - 1) / (t + d) / (t + 1.0)
            + _trigamma_rest(t / d + 1.0) / d - _trigamma_rest(t + 1.0))


def _check_gap_hypotheses(m: int, a: int, b: int, a2: int, b2: int) -> None:
    ClusterParams(m, a, b, 1)
    ClusterParams(m, a2, b2, 1)
    if b - a != b2 - a2:
        raise InvalidInputError("the two parameter pairs must have equal gap b - a")
    if b - a <= 1:
        raise InvalidInputError("the ordering statement requires gap b - a > 1")
    if not (a + b < a2 + b2 <= m + 1):
        raise InvalidInputError(
            f"need a + b < a2 + b2 <= m + 1, got {a + b}, {a2 + b2}, m + 1 = {m + 1}")


def constant_gap(m: int, a: int, b: int, a2: int, b2: int) -> float:
    """Positive gap c(m, a2, b2) - c(m, a, b) under the ordering hypotheses.

    Requires b - a = b2 - a2 > 1 and a + b < a2 + b2 <= m + 1.  A gap not
    above 8 eps times the summed magnitudes of both constants' terms, a float
    rounding bound and not an enclosure, raises InternalConsistencyError.
    """
    _check_gap_hypotheses(m, a, b, a2, b2)
    gap = growth_constant(m, a2, b2).value - growth_constant(m, a, b).value
    terms = _constant_terms(m, a, b) + _constant_terms(m, a2, b2)
    bound = 8 * math.ulp(1.0) * sum(abs(t) for t in terms)
    if not gap > bound:
        raise InternalConsistencyError(
            f"constant gap {gap} not certifiably positive (rounding bound "
            f"{bound:.3g}) for ({m},{a},{b}) vs ({m},{a2},{b2})")
    return gap


def log_integer(value: int) -> float:
    """Natural log of a positive arbitrary-precision integer.

    Extracts the binary exponent and converts the top 64 bits, so the result
    is accurate to relative 1e-12 regardless of magnitude.
    """
    require_int("value", value, 1)
    nbits = value.bit_length()
    if nbits <= 900:
        return math.log(value)
    shift = nbits - 64
    return math.log(value >> shift) + shift * math.log(2.0)


def _linear_term(count: int, leading: int, n: int) -> float:
    """(log count - leading n log n) / n, the estimate of c from one exact count."""
    return (log_integer(count) - leading * n * math.log(n)) / n


def empirical_constant(m: int, a: int, b: int, n: int) -> float:
    """(log e(P_n) - (m-b+a-1) n log n) / n, from the exact integer count."""
    params = ClusterParams(m, a, b, n)
    return _linear_term(exact_count(params, "p"), params.leading, n)


def crossover_sweeps(m: int, a: int, b: int, a2: int, b2: int,
                     n_max: int) -> Tuple[List[int], List[int], Optional[int]]:
    """The two count sweeps for n = 1..n_max and the crossover n0 they give.

    n0 is the smallest n with e(P_n^{m,a,b}) < e(P_n^{m,a2,b2}) for all
    n <= n_max from there on, or None when even n = n_max fails.  Hypotheses
    as in constant_gap.
    """
    _check_gap_hypotheses(m, a, b, a2, b2)
    first = exact_count_sweep(m, a, b, n_max, "p")
    second = exact_count_sweep(m, a2, b2, n_max, "p")
    n0 = None
    for n in range(n_max, 0, -1):
        if not first[n - 1] < second[n - 1]:
            break
        n0 = n
    return first, second, n0


def crossover_search(m: int, a: int, b: int, a2: int, b2: int,
                     n_max: int) -> Optional[int]:
    """Smallest n0 with e(P_n^{m,a,b}) < e(P_n^{m,a2,b2}) for all n0 <= n <= n_max.

    Returns None when even n = n_max fails.  Hypotheses as in constant_gap.
    """
    return crossover_sweeps(m, a, b, a2, b2, n_max)[2]
