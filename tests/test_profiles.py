import math
import random

import numpy as np
import pytest
from scipy.special import betainc
from scipy.stats import beta as beta_dist

from clusterext import profiles
from clusterext.asymptotics import log_beta
from clusterext.errors import (DegenerateParameterError, DomainError,
                               InternalConsistencyError, InvalidInputError,
                               ResourceLimitError)
from clusterext.profiles import (ProfileTable, VariationalProblem, beta_value,
                                 limit_profile, limit_profile_slope,
                                 profile_increment_bounds,
                                 profile_table, regularized_incomplete_beta,
                                 slope_argmin, variational_profile, weight_cdf)

ALL_PARAMS_M8 = [(m, a, b) for m in range(2, 9) for a in range(1, m)
                 for b in range(a + 1, m + 1)]


def test_incomplete_beta_against_scipy():
    for alpha in (0.5, 1.0, 1.5, 2.0, 3.5, 8.0, 25.0):
        for beta in (0.5, 1.0, 1.5, 2.5, 8.0, 25.0):
            for x in np.linspace(0.0, 1.0, 81):
                mine = regularized_incomplete_beta(alpha, beta, float(x))
                assert mine == pytest.approx(float(betainc(alpha, beta, x)),
                                             abs=1e-12)


def test_incomplete_beta_large_shapes():
    for alpha in (50.0, 120.0, 200.0):
        for beta in (0.7, 50.0, 199.0):
            for x in np.linspace(0.0, 1.0, 101):
                mine = regularized_incomplete_beta(alpha, beta, float(x))
                assert mine == pytest.approx(float(betainc(alpha, beta, x)),
                                             abs=1e-12)


def test_limit_profile_near_endpoints():
    for (m, a, b) in ALL_PARAMS_M8:
        for t in (1e-12, 1e-9, 1e-4, 1 - 1e-4, 1 - 1e-9, 1 - 1e-12):
            f = limit_profile(m, a, b, t)
            assert 0.0 <= f <= 1.0
            assert abs(weight_cdf(m, a, b, f) - t) <= 1e-10


def test_continued_fraction_cap_is_loud(monkeypatch):
    assert 0.0 < regularized_incomplete_beta(5.0, 7.0, 0.3) < 1.0
    monkeypatch.setattr(profiles, "_CF_MAX_ITER", 2)
    with pytest.raises(InternalConsistencyError, match="did not converge"):
        regularized_incomplete_beta(5.0, 7.0, 0.3)


def test_limit_profile_cap_is_loud(monkeypatch):
    assert 0.0 < limit_profile(8, 3, 5, 0.3) < 1.0
    monkeypatch.setattr(profiles, "_PROFILE_MAX_ITER", 2)
    with pytest.raises(InternalConsistencyError, match="did not converge"):
        limit_profile(8, 3, 5, 0.3)


def test_incomplete_beta_domain():
    # NaN and infinite shapes fail the guard, not the continued fraction
    for alpha, beta, x in [(0.0, 1.0, 0.5), (1.0, 1.0, 1.5), (math.nan, 1.0, 0.5),
                           (1.0, math.nan, 0.5), (math.inf, 1.0, 0.5),
                           (1.0, math.inf, 0.0), (1.0, 1.0, math.nan)]:
        with pytest.raises(DomainError):
            regularized_incomplete_beta(alpha, beta, x)


def test_weight_cdf_endpoints_and_closed_form():
    for (m, a, b) in [(3, 1, 2), (8, 3, 5), (5, 2, 4)]:
        assert weight_cdf(m, a, b, 0.0) == 0.0
        assert weight_cdf(m, a, b, 1.0) == 1.0
    for t in np.linspace(0, 1, 41):
        assert weight_cdf(3, 1, 2, float(t)) == pytest.approx(1 - (1 - t) ** 2,
                                                              abs=1e-13)
    assert weight_cdf(8, 3, 5, 0.5) == pytest.approx(float(betainc(2.0, 2.5, 0.5)),
                                                     abs=1e-12)
    with pytest.raises(DomainError):
        weight_cdf(3, 1, 2, -0.1)


def test_limit_profile_closed_form_and_inverse():
    for t in np.linspace(0, 1, 41):
        assert limit_profile(3, 1, 2, float(t)) == pytest.approx(
            1 - math.sqrt(1 - t), abs=1e-12)
    assert limit_profile(8, 3, 5, 0.0) == 0.0
    assert limit_profile(8, 3, 5, 1.0) == 1.0
    for (m, a, b) in [(8, 3, 5), (5, 2, 4), (6, 1, 4)]:
        for t in (0.05, 0.37, 0.5, 0.88):
            f = limit_profile(m, a, b, t)
            assert weight_cdf(m, a, b, f) == pytest.approx(t, abs=1e-10)


def test_limit_profile_slope_closed_form():
    for t in np.linspace(0.01, 0.99, 30):
        assert limit_profile_slope(3, 1, 2, float(t)) == pytest.approx(
            1 / (2 * math.sqrt(1 - t)), abs=1e-10)


# balanced d = 1 shapes (alpha = beta up to 5e4), both flat corners and
# lopsided ones; the old B * exp(...) form overflowed from m = 1100, d = 1
REFERENCE_SHAPES = [(8, 3, 5), (5, 1, 3), (5, 3, 5), (5, 1, 5), (40, 20, 21),
                    (1100, 550, 551), (100000, 50000, 50001), (100000, 1, 2),
                    (100000, 99999, 100000), (100000, 10, 99000), (30000, 1, 30000)]


@pytest.mark.parametrize("m,a,b", REFERENCE_SHAPES)
def test_slope_is_the_reciprocal_scipy_beta_density(m, a, b):
    alpha, beta = (a - 1) / (b - a) + 1.0, (m - b) / (b - a) + 1.0
    for t in (1e-6, 0.01, 0.2, 0.5, 0.77, 0.99, 1 - 1e-6):
        f = limit_profile(m, a, b, t)
        slope = limit_profile_slope(m, a, b, t)
        assert slope == pytest.approx(1 / beta_dist.pdf(f, alpha, beta), rel=1e-9)


def test_slope_equation_residual():
    for (m, a, b) in ALL_PARAMS_M8:
        target = beta_value(m, a, b) ** (b - a)
        for t in (0.25, 0.61):
            f = limit_profile(m, a, b, t)
            fp = limit_profile_slope(m, a, b, t)
            residual = abs(fp ** (b - a) * f ** (a - 1) * (1 - f) ** (m - b)
                           - target)
            assert residual <= 1e-8, (m, a, b, t)


def test_slope_endpoint_divergences():
    # divergent iff a > 1 at the left end, b < m at the right end
    assert limit_profile_slope(8, 3, 5, 0.0) == math.inf
    assert limit_profile_slope(8, 3, 5, 1.0) == math.inf
    assert limit_profile_slope(3, 1, 2, 0.0) == pytest.approx(0.5)
    assert limit_profile_slope(3, 1, 2, 1.0) == math.inf
    assert limit_profile_slope(3, 2, 3, 1.0) == pytest.approx(0.5)
    assert limit_profile_slope(4, 1, 4, 0.0) == pytest.approx(1.0)
    assert limit_profile_slope(4, 1, 4, 1.0) == pytest.approx(1.0)
    for m, a, b in ALL_PARAMS_M8:
        bval = beta_value(m, a, b)
        assert limit_profile_slope(m, a, b, 0.0) == (bval if a == 1 else math.inf)
        assert limit_profile_slope(m, a, b, 1.0) == (bval if b == m else math.inf)


@pytest.mark.parametrize("t", [-0.1, 1.5, 2.0, math.nan])
def test_profile_and_slope_refuse_t_outside_the_unit_interval(t):
    # weight_cdf names its own argument, not regularized_incomplete_beta's x
    for fn in (limit_profile, limit_profile_slope, weight_cdf):
        with pytest.raises(DomainError, match=rf"^t must lie in \[0, 1\], got {t}$"):
            fn(5, 2, 4, t)


def test_shape_beyond_the_float_range_is_refused_at_every_t():
    # log B overflows; the endpoints, which need no evaluation, are refused too
    for fn in (limit_profile, limit_profile_slope, weight_cdf):
        for t in (0.0, 0.5, 1.0):
            with pytest.raises(DomainError, match="beyond the float range"):
                fn(10 ** 306, 1, 2, t)


def test_slope_argmin_values():
    assert slope_argmin(3, 1, 2) == 0.0
    assert slope_argmin(3, 2, 3) == 1.0
    # (a-1)/(m-b+a-1) = 2/5 for (8,3,5)
    assert slope_argmin(8, 3, 5) == pytest.approx(float(betainc(2.0, 2.5, 0.4)),
                                                  abs=1e-12)
    with pytest.raises(DegenerateParameterError):
        slope_argmin(5, 1, 5)


def test_profile_table_invariants():
    table = profile_table(8, 3, 5, 500)
    assert isinstance(table, ProfileTable)
    assert table.values[0] == 0.0 and table.values[-1] == 1.0
    assert np.all(np.diff(table.values) > 0)
    finite = table.slopes[1:-1]
    assert np.all(finite > 0)
    # unimodal: nonincreasing then nondecreasing around the argmin cell
    k = int(np.argmin(table.slopes))
    assert np.all(np.diff(table.slopes[1:k + 1]) <= 1e-12)
    assert np.all(np.diff(table.slopes[k:-1]) >= -1e-12)
    assert abs(table.grid[k] - table.slope_minimum) <= table.grid[1] - table.grid[0]


def test_profile_table_argmin_near_minimum_all_params():
    for (m, a, b) in ALL_PARAMS_M8:
        if a == 1 and b == m:
            continue  # constant slope, argmin undefined
        table = profile_table(m, a, b, 400)
        k = int(np.argmin(table.slopes))
        cell = table.grid[1] - table.grid[0]
        assert abs(table.grid[k] - table.slope_minimum) <= cell + 1e-12, (m, a, b)


TABLE_SHAPES = ALL_PARAMS_M8 + [(40, 1, 39), (40, 2, 40), (40, 1, 40)]


@pytest.mark.parametrize("m,a,b", TABLE_SHAPES)
def test_profile_table_equals_the_per_point_functions(m, a, b):
    # the table's shared shape constants change no bit of any value or slope
    table = profile_table(m, a, b, 200)
    assert table.values.tolist() == [limit_profile(m, a, b, t) for t in table.grid]
    assert table.slopes.tolist() == [limit_profile_slope(m, a, b, t) for t in table.grid]
    flat = a == 1 and b == m
    assert table.slope_minimum == (0.0 if flat else slope_argmin(m, a, b))


def test_profile_table_computes_log_beta_once(monkeypatch):
    calls = []

    def counting(alpha, beta):
        calls.append((alpha, beta))
        return log_beta(alpha, beta)

    monkeypatch.setattr(profiles, "log_beta", counting)
    profile_table(8, 3, 5, 1000)
    assert 1 <= len(calls) <= 3  # one per evaluation would be about 20,000


def test_profile_grid_over_cap_is_refused_before_any_point(monkeypatch):
    def fail(*args):
        raise AssertionError("a profile point was evaluated")

    monkeypatch.setattr(profiles, "_invert", fail)
    # just past the cap: without it, the first point fails, and nothing large runs
    with pytest.raises(ResourceLimitError):
        profile_table(8, 3, 5, profiles.MAX_PROFILE_POINTS + 1)
    for bad in (10.0, "10", True, None):
        with pytest.raises(InvalidInputError):
            profile_table(8, 3, 5, bad)


def test_variational_grid_over_cap_is_refused_before_any_array(monkeypatch):
    problem = VariationalProblem(np.ones(1001), 1.0)
    t, j = variational_profile(problem, profiles.MAX_PROFILE_POINTS)
    assert len(t) == len(j) == profiles.MAX_PROFILE_POINTS + 1

    def fail(*args, **kwargs):
        raise AssertionError("an output array was allocated")

    monkeypatch.setattr(np, "linspace", fail)
    with pytest.raises(ResourceLimitError):
        variational_profile(problem, profiles.MAX_PROFILE_POINTS + 1)


def test_variational_constant_weight_is_identity():
    t, j = variational_profile(VariationalProblem(np.ones(1001), 2.0), 1000)
    assert np.max(np.abs(j - t)) <= 1e-12


def test_variational_closed_form_exponential():
    u = np.linspace(0, 1, 200001)
    t, j = variational_profile(VariationalProblem(np.exp(u), 0.0), 1000)
    ref = np.log1p((math.e - 1) * t)
    assert np.max(np.abs(j - ref)) <= 1e-9


def test_variational_reproduces_limit_profile():
    for (m, a, b) in [(8, 3, 5), (5, 2, 4), (3, 1, 2), (4, 1, 3)]:
        u = np.linspace(0, 1, 2_000_001)
        h = u ** (a - 1) * (1 - u) ** (m - b)
        t, j = variational_profile(VariationalProblem(h, float(b - a - 1)), 1000)
        f = np.array([limit_profile(m, a, b, float(v)) for v in t])
        assert np.max(np.abs(j - f)) <= 1e-8, (m, a, b)


def test_variational_constancy_residual():
    # h(j(t)) j'(t)^(beta+1) constant, j' by five-point central differences
    u = np.linspace(0, 1, 200001)
    beta = 1.0

    def h_fn(x):
        return np.exp(-2.0 * x) + 0.3

    t, j = variational_profile(VariationalProblem(h_fn(u), beta), 2000)
    dt = t[1] - t[0]
    jp = (-j[4:] + 8 * j[3:-1] - 8 * j[1:-3] + j[:-4]) / (12 * dt)
    const = h_fn(j[2:-2]) * jp ** (beta + 1)
    interior = const[40:-40]
    assert np.max(np.abs(interior / np.median(interior) - 1)) <= 1e-6


@pytest.mark.parametrize("weight", [1e308, 5e-324])
def test_variational_total_out_of_float_range_is_refused(weight):
    # the trapezoid total overflows to inf (or underflows to 0), which would
    # make every j NaN; refuse instead
    problem = VariationalProblem(np.full(1001, weight), 0.0)
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="weight total"):
        variational_profile(problem, 10)


def test_variational_validation():
    with pytest.raises(InvalidInputError):
        VariationalProblem(np.ones(100), 1.0)  # too few points
    with pytest.raises(DomainError):
        VariationalProblem(-np.ones(1001), 1.0)
    bad = np.ones(1001)
    bad[500] = 0.0
    with pytest.raises(DomainError):
        VariationalProblem(bad, 1.0)
    with pytest.raises(DomainError):
        VariationalProblem(np.ones(1001), -0.5)
    with pytest.raises(DomainError, match="exponent must be >= 0"):
        VariationalProblem([1.0] * 1001, 1.0)._replace(exponent=-1.0)
    with pytest.raises(InvalidInputError):
        VariationalProblem._make((np.ones(100), 1.0))
    for value in (math.nan, math.inf):
        for index in (0, 500):
            bad = np.ones(1001)
            bad[index] = value
            with pytest.raises(DomainError):
                VariationalProblem(bad, 1.0)
    with pytest.raises(DomainError):
        VariationalProblem(np.ones(1001), math.nan)
    # endpoint zeros are fine (weights vanishing at 0 and 1)
    u = np.linspace(0, 1, 1001)
    VariationalProblem(u * (1 - u), 1.0)


def test_increment_bounds_examples():
    assert profile_increment_bounds(8, 3, 5, [[(i + 1) / 12 for i in range(11)]])
    assert profile_increment_bounds(8, 3, 5, [[0.3, 0.7]])  # single-gap case
    rng = random.Random(77)
    seqs = []
    for _ in range(100):
        k = rng.randint(2, 40)
        seqs.append(sorted(rng.uniform(1e-6, 1 - 1e-6) for _ in range(k)))
    assert profile_increment_bounds(5, 2, 4, seqs)
    assert profile_increment_bounds(8, 3, 5, seqs)
    assert profile_increment_bounds(4, 1, 4, seqs)  # degenerate corner, slope 1


def test_increment_bounds_invert_each_point_once(monkeypatch):
    calls = []
    invert = profiles._invert

    def counting(alpha, beta, log_b, t):
        calls.append(t)
        return invert(alpha, beta, log_b, t)

    monkeypatch.setattr(profiles, "_invert", counting)
    seqs = [[0.1, 0.4, 0.9], [(i + 1) / 12 for i in range(11)], [0.3, 0.31]]
    assert profile_increment_bounds(8, 3, 5, seqs)
    assert profile_increment_bounds(4, 1, 4, seqs)  # flat corner: no argmin inversion
    assert calls == [t for seq in seqs for t in seq] * 2


def test_increment_bounds_can_fail(monkeypatch):
    # profile values squeezed toward 1/2 make every increment too small
    invert = profiles._invert
    monkeypatch.setattr(profiles, "_invert", lambda alpha, beta, log_b, t:
                        0.5 + (invert(alpha, beta, log_b, t) - 0.5) * 1e-3)
    seqs = [[0.1, 0.4, 0.9]]
    for m, a, b in [(8, 3, 5), (5, 2, 4), (4, 1, 4)]:
        assert not profile_increment_bounds(m, a, b, seqs), (m, a, b)


def test_increment_bounds_compute_log_beta_once_per_call(monkeypatch):
    calls = []

    def counting(alpha, beta):
        calls.append((alpha, beta))
        return log_beta(alpha, beta)

    monkeypatch.setattr(profiles, "log_beta", counting)
    seqs = [[0.1, 0.4, 0.9], [0.2, 0.3, 0.5, 0.8]]
    for m, a, b in [(8, 3, 5), (4, 1, 4)]:
        calls.clear()
        assert profile_increment_bounds(m, a, b, seqs)
        assert len(calls) == 1  # one per point as well would make 8


def test_increment_bounds_need_all_gaps_on_lower_side():
    # dropping the first gap from the lower bound would make it false:
    # for two close points the increment ratio is ~ slope * gap, far below
    # the gap-free product of slope ratios
    m, a, b = 8, 3, 5
    lam = slope_argmin(m, a, b)
    s_min = limit_profile_slope(m, a, b, lam)
    y0, y1 = 0.3, 0.31
    mid = ((limit_profile(m, a, b, y1) - limit_profile(m, a, b, y0))
           / (limit_profile_slope(m, a, b, y0) * limit_profile_slope(m, a, b, y1)))
    gap_free_lower = s_min / (limit_profile_slope(m, a, b, y0)
                              * limit_profile_slope(m, a, b, y1))
    assert gap_free_lower > mid  # the displayed gap-free form fails
    assert gap_free_lower * (y1 - y0) <= mid  # the all-gaps form holds


def test_increment_bounds_validation():
    with pytest.raises(InvalidInputError):
        profile_increment_bounds(8, 3, 5, [[0.5]])
    with pytest.raises(InvalidInputError):
        profile_increment_bounds(8, 3, 5, [[0.7, 0.3]])
    with pytest.raises(InvalidInputError):
        profile_increment_bounds(8, 3, 5, [[0.0, 0.5]])
    for seq in ([math.nan, 0.5], [0.2, math.nan, 0.5], [0.2, math.nan]):
        with pytest.raises(InvalidInputError):
            profile_increment_bounds(8, 3, 5, [seq])


def test_polynomial_lower_bound_witness():
    # for each parameter set some integer N <= 64 has
    # 1/slope(t)^(b-a-1) >= t^N (1-t)^N on a fine grid
    grid = np.linspace(0.001, 0.999, 499)
    witnesses = {}
    for (m, a, b) in ALL_PARAMS_M8:
        slopes = np.array([limit_profile_slope(m, a, b, float(t)) for t in grid])
        lhs = slopes ** (-(b - a - 1))
        found = None
        for n_wit in range(0, 65):
            if np.all(lhs >= grid ** n_wit * (1 - grid) ** n_wit):
                found = n_wit
                break
        assert found is not None, (m, a, b)
        witnesses[(m, a, b)] = found
    assert max(witnesses.values()) <= 64


def test_inverse_identity_both_directions():
    for (m, a, b) in [(3, 1, 2), (8, 3, 5), (5, 2, 4), (6, 1, 4)]:
        for t in np.linspace(0.0, 1.0, 101):
            f = limit_profile(m, a, b, float(t))
            assert abs(weight_cdf(m, a, b, f) - t) <= 1e-10
            g = weight_cdf(m, a, b, float(t))
            assert abs(limit_profile(m, a, b, g) - t) <= 1e-10
