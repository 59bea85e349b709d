"""The limit shape of glue-element heights and the general variational solver.

For parameters (m, a, b) the normalized weight u^((a-1)/(b-a)) (1-u)^((m-b)/(b-a))
integrates to a strictly increasing map of [0,1] onto itself (a regularized
incomplete beta function); its inverse is the limiting profile along which
the glue elements of a long glued-chain poset sit in a typical linear
extension.  The profile's slope is the reciprocal of the normalized weight
density at the profile's value, taken in log space so that it cannot overflow:

    slope(t)^(b-a) * value(t)^(a-1) * (1 - value(t))^(m-b) = B^(b-a)

with B the full beta value of the shape parameters; it is positive on (0,1),
unimodal, and least where the weight density peaks.

One private kernel over the checked shape (alpha, beta, log B) of ``_kernel``,
``_cdf``, ``_log_density``, ``_invert`` and ``_slope``, serves them all: log B
is computed once per public call, and once per ``profile_table``.

The same construction solves the general problem: given any positive weight
h on [0,1] and exponent beta >= 0, the map j with h(j(t)) j'(t)^(beta+1)
constant and j(0)=0, j(1)=1 is the inverse of the normalized cumulative
integral of h^(1/(beta+1)).
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, Tuple

from .asymptotics import log_beta
from .errors import (DegenerateParameterError, DomainError,
                     InternalConsistencyError, InvalidInputError,
                     require_at_most, require_int)
from .posets import ClusterParams

if TYPE_CHECKING:  # numpy is imported by the functions that use it
    import numpy as np

_CF_EPS = 1e-16
_CF_TINY = 1e-300
_CF_MAX_ITER = 600
_PROFILE_MAX_ITER = 80
_BOUND_SLACK = 1e-9  # log-space tolerance of profile_increment_bounds

#: Largest output grid of profile_table and of variational_profile.  A
#: profile_table point costs 0.007-0.17 ms on one core of a 2-vCPU AMD EPYC
#: VM (3 <= m <= 40; cheapest at a = 1, b = m, dearest at b - a = 1), so the
#: cap is at most about 20 s; a variational_profile point is one
#: interpolation, and the cap bounds its output arrays.
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
        # one Lentz update for the even coefficient, then one for the odd
        for aa in (mm * (beta - mm) * x / ((qam + m2) * (alpha + m2)),
                   -(alpha + mm) * (qab + mm) * x / ((alpha + m2) * (qap + m2))):
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


def _cdf(alpha: float, beta: float, log_b: float, x: float) -> float:
    """I_x(alpha, beta) for a checked shape and x, with log_b = log B(alpha, beta)."""
    if x in (0.0, 1.0):
        return float(x == 1.0)
    front = math.exp(alpha * math.log(x) + beta * math.log1p(-x) - log_b)
    if x < (alpha + 1.0) / (alpha + beta + 2.0):
        return front * _beta_cf(alpha, beta, x) / alpha
    return 1.0 - front * _beta_cf(beta, alpha, 1.0 - x) / beta


def regularized_incomplete_beta(alpha: float, beta: float, x: float) -> float:
    """I_x(alpha, beta): about 1e-13 absolute for alpha + beta <= 300, 1e-12 at 1000,
    worse above; no convergence near the mean from alpha = beta ~ 1.5e6 (README)."""
    if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
        raise DomainError("shape parameters must be finite and strictly positive")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    return _cdf(alpha, beta, log_beta(alpha, beta), x)


def _kernel(m: int, a: int, b: int) -> Tuple[float, float, float]:
    """The kernel's (alpha, beta, log_b) for a checked shape ``ClusterParams.shape``."""
    alpha, beta = ClusterParams(m, a, b, 1).shape
    return alpha, beta, log_beta(alpha, beta)


def _checked(m: int, a: int, b: int, t: float) -> Tuple[float, float, float]:
    """``_kernel(m, a, b)``, once t in [0, 1] is checked as well."""
    kernel = _kernel(m, a, b)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    return kernel


def beta_value(m: int, a: int, b: int) -> float:
    """The full beta value B(alpha, beta) at the weight shape ``ClusterParams.shape``."""
    return math.exp(_kernel(m, a, b)[2])


def weight_cdf(m: int, a: int, b: int, t: float) -> float:
    """Normalized cumulative weight on [0,1]; strictly increasing, 0 at 0, 1 at 1."""
    return _cdf(*_checked(m, a, b, t), t)


def _log_density(alpha: float, beta: float, log_b: float, u: float) -> float:
    """log of the Beta(alpha, beta) density at u in [0, 1], for shapes >= 1.

    At an end of [0, 1] the density is 1/B where that end's shape is 1, else 0.
    """
    if 0.0 < u < 1.0:
        return (alpha - 1.0) * math.log(u) + (beta - 1.0) * math.log1p(-u) - log_b
    flat = (alpha if u <= 0.0 else beta) == 1.0
    return -log_b if flat else -math.inf


def _invert(alpha: float, beta: float, log_b: float, t: float) -> float:
    """The s in [0, 1] with I_s(alpha, beta) = t, for a checked shape and t.

    Safeguarded Newton: every iterate stays inside the shrinking bisection
    bracket (a Newton proposal outside it falls back to the midpoint), so
    the method is as robust as bisection near the flat endpoints but
    converges quadratically once the density is healthy.
    """
    if t in (0.0, 1.0):
        return float(t == 1.0)
    lo, hi = 0.0, 1.0
    s = 0.5
    for _ in range(_PROFILE_MAX_ITER):
        g = _cdf(alpha, beta, log_b, s)
        if g < t:
            lo = s
        else:
            hi = s
        if abs(g - t) <= 1e-15 or hi - lo <= 1e-13:
            return s
        density = math.exp(_log_density(alpha, beta, log_b, s))
        step = (g - t) / density if density > 1e-12 else math.inf
        proposal = s - step
        if not lo < proposal < hi:
            proposal = 0.5 * (lo + hi)
        s = proposal
    raise InternalConsistencyError(
        f"limit profile did not converge in {_PROFILE_MAX_ITER} iterations "
        f"(alpha={alpha}, beta={beta}, t={t})")


def _slope(alpha: float, beta: float, log_b: float, t: float) -> float:
    """The reciprocal density at _invert(alpha, beta, log_b, t): the profile's slope."""
    return math.exp(-_log_density(alpha, beta, log_b, _invert(alpha, beta, log_b, t)))


def limit_profile(m: int, a: int, b: int, t: float) -> float:
    """Inverse of the weight cdf: the unique s in [0,1] with cdf(s) = t."""
    return _invert(*_checked(m, a, b, t), t)


def limit_profile_slope(m: int, a: int, b: int, t: float) -> float:
    """Derivative of the limit profile; math.inf where it diverges.

    The slope is the reciprocal weight density at value(t), i.e.
    slope(t) = B * value^(-(a-1)/(b-a)) * (1-value)^(-(m-b)/(b-a)), taken in
    log space; it diverges at t = 0 when a > 1 and at t = 1 when b < m.
    """
    return _slope(*_checked(m, a, b, t), t)


def _density_peak(m: int, a: int, b: int) -> float:
    """Mode (a-1)/(m-b+a-1) of a checked shape's density; 0.0 where flat (a=1, b=m)."""
    leading = m - b + a - 1
    return (a - 1) / leading if leading else 0.0


def slope_argmin(m: int, a: int, b: int) -> float:
    """Location of the slope minimum: weight_cdf evaluated at (a-1)/(m-b+a-1).

    For a = 1 and b = m simultaneously the slope is constant and the argmin
    is undefined; that corner raises DegenerateParameterError.
    """
    kernel = _kernel(m, a, b)
    if a == 1 and b == m:
        raise DegenerateParameterError(
            "slope is constant for a = 1, b = m; no interior minimum")
    return _cdf(*kernel, _density_peak(m, a, b))


class ProfileTable(NamedTuple):
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
    any point is evaluated, once the shape, its log B and grid_size are valid.
    """
    require_int("grid_size", grid_size, 2)
    alpha, beta, log_b = _kernel(m, a, b)
    require_at_most("grid_size", grid_size, MAX_PROFILE_POINTS)
    import numpy as np

    grid = np.linspace(0.0, 1.0, grid_size + 1)
    values = np.array([_invert(alpha, beta, log_b, t) for t in grid])
    slopes = np.array([_slope(alpha, beta, log_b, t) for t in grid])
    return ProfileTable(m, a, b, grid, values, slopes,
                        _cdf(alpha, beta, log_b, _density_peak(m, a, b)))


class VariationalProblem(namedtuple("VariationalProblem", "weights exponent")):
    """A positive weight h tabulated on a uniform grid over [0,1], and beta >= 0.

    The tabulation must have at least MIN_TABLE_POINTS points; h may vanish
    at the two endpoints but must be positive at interior grid points.
    """

    __slots__ = ()

    def __new__(cls, weights: Sequence[float], exponent: float) -> VariationalProblem:
        import numpy as np

        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or len(w) < MIN_TABLE_POINTS:
            raise InvalidInputError(
                f"weight tabulation needs >= {MIN_TABLE_POINTS} points")
        if not (np.all(np.isfinite(w)) and np.all(w >= 0) and np.all(w[1:-1] > 0)):
            raise DomainError("weight must be finite, and positive on (0, 1)")
        if not exponent >= 0:
            raise DomainError("exponent must be >= 0")
        return super().__new__(cls, w, exponent)

    @classmethod
    def _make(cls, iterable: Iterable) -> VariationalProblem:
        return cls(*iterable)  # so that _replace validates too


def variational_profile(problem: VariationalProblem,
                        grid_size: int = 1000) -> Tuple[np.ndarray, np.ndarray]:
    """Solve h(j(t)) j'(t)^(beta+1) = const with j(0) = 0, j(1) = 1.

    Returns (t, j) on an equally spaced output grid.  j is the inverse of
    the normalized cumulative integral of h^(1/(beta+1)), computed by
    trapezoidal accumulation on the tabulation grid and piecewise-linear
    inverse interpolation; accuracy therefore scales with the density of the
    supplied tabulation.  A grid_size above MAX_PROFILE_POINTS raises
    ResourceLimitError before any array is allocated.
    """
    require_int("grid_size", grid_size, 2)
    require_at_most("grid_size", grid_size, MAX_PROFILE_POINTS)
    import numpy as np

    w = problem.weights ** (1.0 / (problem.exponent + 1.0))
    x = np.linspace(0.0, 1.0, len(w))
    dx = x[1] - x[0]
    cumulative = np.concatenate(
        ([0.0], np.cumsum(0.5 * dx * (w[1:] + w[:-1]))))
    if not 0.0 < cumulative[-1] < math.inf:
        raise DomainError(f"weight total {cumulative[-1]} is not finite and positive")
    cumulative /= cumulative[-1]
    t = np.linspace(0.0, 1.0, grid_size + 1)
    return t, np.interp(t, cumulative, x)


def profile_increment_bounds(m: int, a: int, b: int,
                             sequences: Sequence[Sequence[float]]) -> bool:
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
    (the products underflow for long sequences) with a slack of 1e-9.
    """
    alpha, beta, log_b = _kernel(m, a, b)
    log_min_slope = -_log_density(alpha, beta, log_b, _density_peak(m, a, b))
    for seq in sequences:
        y = [float(v) for v in seq]
        if len(y) < 2:
            raise InvalidInputError("each sequence needs at least two points")
        if not (0.0 < y[0] and y[-1] < 1.0 and all(s < t for s, t in zip(y, y[1:]))):
            raise InvalidInputError(
                "sequences must be strictly increasing inside (0, 1)")
        values = [_invert(alpha, beta, log_b, v) for v in y]
        log_slopes = [-_log_density(alpha, beta, log_b, f) for f in values]
        log_gaps = [math.log(v - u) for u, v in zip(y, y[1:])]
        mid = (sum(math.log(v - u) for u, v in zip(values, values[1:]))
               - sum(log_slopes))
        lower = (log_min_slope - log_slopes[0] - log_slopes[-1]
                 + sum(log_gaps))
        upper = -log_min_slope + sum(log_gaps[1:])
        if not (lower <= mid + _BOUND_SLACK and mid <= upper + _BOUND_SLACK):
            return False
    return True
