"""The limit shape of glue-element heights and the general variational solver.

For parameters (m, a, b) the normalized weight u^((a-1)/(b-a)) (1-u)^((m-b)/(b-a))
integrates to a strictly increasing map of [0,1] onto itself (a regularized
incomplete beta function); its inverse is the limiting profile along which
the glue elements of a long glued-chain poset sit in a typical linear
extension.  The profile's slope satisfies

    slope(t)^(b-a) * value(t)^(a-1) * (1 - value(t))^(m-b) = B^(b-a)

with B the full beta value of the shape parameters, is positive on (0,1) and
unimodal, and attains its minimum where the weight density peaks.

The same construction solves the general problem: given any positive weight
h on [0,1] and exponent beta >= 0, the map j with h(j(t)) j'(t)^(beta+1)
constant and j(0)=0, j(1)=1 is the inverse of the normalized cumulative
integral of h^(1/(beta+1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

from .asymptotics import log_beta
from .errors import (DegenerateParameterError, DomainError,
                     InternalConsistencyError, InvalidInputError,
                     ResourceLimitError)
from .posets import ClusterParams

if TYPE_CHECKING:  # numpy is imported by the functions that use it
    import numpy as np

_CF_EPS = 1e-16
_CF_TINY = 1e-300
_CF_MAX_ITER = 600
_PROFILE_MAX_ITER = 80

#: Largest profile_table grid.  A point costs 0.04-0.21 ms on one core of a
#: 2-vCPU Xeon VM, depending on the shape, so the cap is at most about 20 s.
MAX_PROFILE_POINTS = 10 ** 5

#: Minimum tabulation size accepted for the general variational problem.
MIN_TABLE_POINTS = 1001


def _beta_cf(alpha: float, beta: float, x: float) -> float:
    """Continued fraction for the incomplete beta integral (modified Lentz)."""
    qab = alpha + beta
    qap = alpha + 1.0
    qam = alpha - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for mm in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * mm
        aa = mm * (beta - mm) * x / ((qam + m2) * (alpha + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(alpha + mm) * (qab + mm) * x / ((alpha + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise InternalConsistencyError(
        f"incomplete beta continued fraction did not converge in {_CF_MAX_ITER} "
        f"iterations (alpha={alpha}, beta={beta}, x={x})")


def regularized_incomplete_beta(alpha: float, beta: float, x: float) -> float:
    """I_x(alpha, beta), accurate to about 1e-13 absolute for moderate shapes."""
    if alpha <= 0 or beta <= 0:
        raise DomainError("shape parameters must be strictly positive")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(alpha * math.log(x) + beta * math.log1p(-x)
                     - log_beta(alpha, beta))
    if x < (alpha + 1.0) / (alpha + beta + 2.0):
        return front * _beta_cf(alpha, beta, x) / alpha
    return 1.0 - front * _beta_cf(beta, alpha, 1.0 - x) / beta


def _shape(m: int, a: int, b: int) -> Tuple[float, float]:
    ClusterParams(m, a, b, 1)
    d = b - a
    return (a - 1) / d + 1.0, (m - b) / d + 1.0


def beta_value(m: int, a: int, b: int) -> float:
    """The full beta value B((a-1)/(b-a)+1, (m-b)/(b-a)+1) of the weight shape."""
    alpha, beta = _shape(m, a, b)
    return math.exp(log_beta(alpha, beta))


def weight_cdf(m: int, a: int, b: int, t: float) -> float:
    """Normalized cumulative weight on [0,1]; strictly increasing, 0 at 0, 1 at 1."""
    alpha, beta = _shape(m, a, b)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    return regularized_incomplete_beta(alpha, beta, t)


def limit_profile(m: int, a: int, b: int, t: float) -> float:
    """Inverse of the weight cdf: the unique s in [0,1] with cdf(s) = t.

    Safeguarded Newton: every iterate stays inside the shrinking bisection
    bracket (a Newton proposal outside it falls back to the midpoint), so
    the method is as robust as bisection near the flat endpoints but
    converges quadratically once the density is healthy.
    """
    alpha, beta = _shape(m, a, b)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    if t == 0.0:
        return 0.0
    if t == 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    s = 0.5
    for _ in range(_PROFILE_MAX_ITER):
        g = regularized_incomplete_beta(alpha, beta, s)
        if g < t:
            lo = s
        else:
            hi = s
        if abs(g - t) <= 1e-15 or hi - lo <= 1e-13:
            return s
        density = _weight_density(m, a, b, s)
        step = (g - t) / density if density > 1e-12 else math.inf
        proposal = s - step
        if not lo < proposal < hi:
            proposal = 0.5 * (lo + hi)
        s = proposal
    raise InternalConsistencyError(
        f"limit profile did not converge in {_PROFILE_MAX_ITER} iterations "
        f"(m={m}, a={a}, b={b}, t={t})")


def _weight_density(m: int, a: int, b: int, u: float) -> float:
    alpha, beta = _shape(m, a, b)
    if u <= 0.0 or u >= 1.0:
        return 0.0
    return math.exp((alpha - 1.0) * math.log(u) + (beta - 1.0) * math.log1p(-u)
                    - log_beta(alpha, beta))


def limit_profile_slope(m: int, a: int, b: int, t: float) -> float:
    """Derivative of the limit profile; math.inf where it diverges.

    The slope solves slope^(b-a) value^(a-1) (1-value)^(m-b) = B^(b-a), i.e.
    slope(t) = B * value^(-(a-1)/(b-a)) * (1-value)^(-(m-b)/(b-a)); it
    diverges at t = 0 when a > 1 and at t = 1 when b < m.
    """
    bval = beta_value(m, a, b)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    d = b - a
    if t == 0.0:
        return bval if a == 1 else math.inf
    if t == 1.0:
        return bval if b == m else math.inf
    f = limit_profile(m, a, b, t)
    if f <= 0.0:
        return bval if a == 1 else math.inf
    if f >= 1.0:
        return bval if b == m else math.inf
    return bval * math.exp(-(a - 1) / d * math.log(f)
                           - (m - b) / d * math.log1p(-f))


def slope_argmin(m: int, a: int, b: int) -> float:
    """Location of the slope minimum: weight_cdf evaluated at (a-1)/(m-b+a-1).

    For a = 1 and b = m simultaneously the slope is constant and the argmin
    is undefined; that corner raises DegenerateParameterError.
    """
    params = ClusterParams(m, a, b, 1)
    if params.leading == 0:
        raise DegenerateParameterError(
            "slope is constant for a = 1, b = m; no interior minimum")
    return weight_cdf(m, a, b, (a - 1) / params.leading)


@dataclass(frozen=True)
class ProfileTable:
    """Sampled limit profile: values and slopes on an equally spaced grid.

    ``slope_minimum`` is the analytic argmin location (0.0 in the degenerate
    constant-slope corner a = 1, b = m).  Divergent endpoint slopes are
    stored as math.inf.
    """

    m: int
    a: int
    b: int
    grid: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    slope_minimum: float


def profile_table(m: int, a: int, b: int, grid_size: int = 1000) -> ProfileTable:
    """Tabulate the limit profile and its slope on grid_size + 1 points.

    A grid_size above MAX_PROFILE_POINTS raises ResourceLimitError before
    any point is evaluated.
    """
    if type(grid_size) is not int or grid_size < 2:  # also refuses bool
        raise InvalidInputError(f"grid_size must be an integer >= 2, got {grid_size!r}")
    if grid_size > MAX_PROFILE_POINTS:
        raise ResourceLimitError(f"grid_size {grid_size} exceeds the cap of "
                                 f"{MAX_PROFILE_POINTS} points")
    import numpy as np

    grid = np.linspace(0.0, 1.0, grid_size + 1)
    values = np.array([limit_profile(m, a, b, t) for t in grid])
    slopes = np.array([limit_profile_slope(m, a, b, t) for t in grid])
    try:
        lam = slope_argmin(m, a, b)
    except DegenerateParameterError:
        lam = 0.0
    return ProfileTable(m, a, b, grid, values, slopes, lam)


@dataclass(frozen=True)
class VariationalProblem:
    """A positive weight h tabulated on a uniform grid over [0,1], and beta >= 0.

    The tabulation must have at least MIN_TABLE_POINTS points; h may vanish
    at the two endpoints but must be positive at interior grid points.
    """

    weights: np.ndarray
    exponent: float

    def __post_init__(self) -> None:
        import numpy as np

        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or len(w) < MIN_TABLE_POINTS:
            raise InvalidInputError(
                f"weight tabulation needs >= {MIN_TABLE_POINTS} points")
        if np.any(w < 0) or np.any(w[1:-1] <= 0):
            raise DomainError("weight must be positive on the interior of [0, 1]")
        if not self.exponent >= 0:
            raise DomainError("exponent must be >= 0")


def variational_profile(problem: VariationalProblem,
                        grid_size: int = 1000) -> Tuple[np.ndarray, np.ndarray]:
    """Solve h(j(t)) j'(t)^(beta+1) = const with j(0) = 0, j(1) = 1.

    Returns (t, j) on an equally spaced output grid.  j is the inverse of
    the normalized cumulative integral of h^(1/(beta+1)), computed by
    trapezoidal accumulation on the tabulation grid and piecewise-linear
    inverse interpolation; accuracy therefore scales with the density of the
    supplied tabulation.
    """
    import numpy as np

    w = problem.weights ** (1.0 / (problem.exponent + 1.0))
    x = np.linspace(0.0, 1.0, len(w))
    dx = x[1] - x[0]
    cumulative = np.concatenate(
        ([0.0], np.cumsum(0.5 * dx * (w[1:] + w[:-1]))))
    cumulative /= cumulative[-1]
    t = np.linspace(0.0, 1.0, grid_size + 1)
    j = np.interp(t, cumulative, x)
    return t, j


def profile_increment_bounds(m: int, a: int, b: int,
                             sequences: Sequence[Sequence[float]],
                             slack: float = 1e-9) -> bool:
    """Check the two-sided product bound for each increasing sequence in (0,1).

    By the mean value theorem each increment value(y_{i+1}) - value(y_i)
    equals slope(u_i) (y_{i+1} - y_i) for some interior u_i, and the
    unimodality of the slope bounds the ratio prod slope(u_i) / prod slope(y_i)
    between s* / (slope(y_0) slope(y_n)) and 1/s*, where s* is the global
    minimum slope.  Multiplying through by the gaps gives, for y_0 < ... < y_n,

        s*/(slope(y_0) slope(y_n)) * prod_{i=0}^{n-1} (y_{i+1} - y_i)
          <=  prod (value(y_{i+1}) - value(y_i)) / prod slope(y_i)
          <=  (1/s*) * prod_{i=1}^{n-1} (y_{i+1} - y_i);

    the upper side may drop the first gap because every gap is below 1.
    (A lower bound with the first gap dropped as well would be false: take
    two points with y_1 - y_0 small.)  The comparison runs in log space
    (the products underflow for long sequences) with the given slack.
    """
    try:
        lam = slope_argmin(m, a, b)
    except DegenerateParameterError:
        lam = 0.0
    log_min_slope = math.log(limit_profile_slope(m, a, b, lam))
    for seq in sequences:
        y = [float(v) for v in seq]
        if len(y) < 2:
            raise InvalidInputError("each sequence needs at least two points")
        if y[0] <= 0.0 or y[-1] >= 1.0 or any(s >= t for s, t in zip(y, y[1:])):
            raise InvalidInputError(
                "sequences must be strictly increasing inside (0, 1)")
        values = [limit_profile(m, a, b, v) for v in y]
        log_slopes = [math.log(limit_profile_slope(m, a, b, v)) for v in y]
        log_gaps = [math.log(y[i + 1] - y[i]) for i in range(len(y) - 1)]
        mid = (sum(math.log(values[i + 1] - values[i])
                   for i in range(len(y) - 1))
               - sum(log_slopes))
        lower = (log_min_slope - log_slopes[0] - log_slopes[-1]
                 + sum(log_gaps))
        upper = -log_min_slope + sum(log_gaps[1:])
        if not (lower <= mid + slack and mid <= upper + slack):
            return False
    return True
