import math

import numpy as np
import pytest
from scipy.special import polygamma

from clusterext import asymptotics
from clusterext.errors import (DomainError, InternalConsistencyError,
                               InvalidInputError)
from clusterext.exact_counts import exact_count, exact_count_sweep
from clusterext.posets import ClusterParams


def test_log_beta_against_mpmath():
    # every argument pair log_beta gets from a shape with m <= 40: the weight
    # shape and growth_constant's (a, m - b + 1), against 200-bit loggamma
    import mpmath

    pairs = set()
    for m in range(2, 41):
        for a in range(1, m):
            for b in range(a + 1, m + 1):
                pairs.add(ClusterParams(m, a, b, 1).shape)
                pairs.add((float(a), float(m - b + 1)))
    with mpmath.workprec(200):
        for alpha, beta in sorted(pairs):
            x, y = mpmath.mpf(alpha), mpmath.mpf(beta)
            ref = float(mpmath.loggamma(x) + mpmath.loggamma(y)
                        - mpmath.loggamma(x + y))
            err = asymptotics.log_beta(alpha, beta) - ref
            assert abs(err) <= 1e-14 * max(1.0, abs(ref)), (alpha, beta, err)


def test_log_beta():
    assert asymptotics.log_beta(1.0, 1.5) == pytest.approx(math.log(2 / 3), abs=1e-13)
    for alpha, beta in [(0.5, 0.5), (1, 7), (2.5, 3.5), (10, 0.7)]:
        assert (asymptotics.log_beta(alpha, beta)
                == pytest.approx(asymptotics.log_beta(beta, alpha), abs=1e-13))
    for alpha, beta in [(0.0, 1.0), (1.0, 0.0), (-1.5, 2.0), (math.nan, 1.0),
                        (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
                        (-math.inf, 1.0)]:
        with pytest.raises(DomainError):
            asymptotics.log_beta(alpha, beta)


def test_log_beta_beyond_the_float_range_is_a_domain_error():
    # lgamma overflows for arguments near 1e306; no cap, just DomainError
    assert math.isfinite(asymptotics.log_beta(1.0, 1e305))
    for alpha, beta in [(1.0, 1e306), (1e307, 2.0), (1e308, 1e308)]:
        with pytest.raises(DomainError, match="beyond the float range"):
            asymptotics.log_beta(alpha, beta)


def test_trigamma_spot_values():
    assert asymptotics.trigamma(1.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-12)
    assert asymptotics.trigamma(2.0) == pytest.approx(math.pi ** 2 / 6 - 1, abs=1e-12)
    assert asymptotics.trigamma(1.5) == pytest.approx(math.pi ** 2 / 2 - 4, abs=1e-12)


def test_trigamma_against_scipy():
    for x in np.linspace(0.05, 60, 400):
        assert (asymptotics.trigamma(float(x))
                == pytest.approx(float(polygamma(1, float(x))), abs=1e-10))
    for x in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(DomainError):
            asymptotics.trigamma(x)
    assert asymptotics.trigamma(math.inf) == 0.0  # the true limit
    for x in (1e-200, 5e-324):  # x * x underflows: the value is beyond the float range
        assert asymptotics.trigamma(x) == math.inf


def test_growth_constant_hand_values():
    c312 = asymptotics.growth_constant(3, 1, 2)
    assert c312.leading == 1
    assert c312.value == pytest.approx(math.log(2) - 1, abs=1e-10)
    c413 = asymptotics.growth_constant(4, 1, 3)
    assert c413.leading == 1
    assert c413.value == pytest.approx(math.log(3) - 1, abs=1e-10)


@pytest.mark.parametrize("m,a,b", [(10 ** 306, 1, 2), (10 ** 309, 1, 10 ** 309),
                                   (10 ** 309, 2, 10 ** 309), (10 ** 400, 1, 2)],
                         ids=["1e306,1,2", "1e309,1,m", "1e309,2,m", "1e400,1,2"])
def test_growth_constant_beyond_the_float_range_is_a_domain_error(m, a, b):
    with pytest.raises(DomainError, match="beyond the float range"):
        asymptotics.growth_constant(m, a, b)


def test_growth_constant_against_high_precision():
    # independent 50-digit evaluation of the same closed form
    import mpmath

    mpmath.mp.dps = 50

    def log_beta_mp(x, y):
        return (mpmath.loggamma(x) + mpmath.loggamma(y)
                - mpmath.loggamma(x + y))

    for m in range(2, 9):
        for a in range(1, m):
            for b in range(a + 1, m + 1):
                d = b - a
                alpha = mpmath.mpf(a - 1) / d + 1
                beta = mpmath.mpf(m - b) / d + 1
                reference = (d * log_beta_mp(alpha, beta)
                             - log_beta_mp(mpmath.mpf(a), mpmath.mpf(m - b + 1))
                             - mpmath.loggamma(m - b + a + 1)
                             + (m - 1) * mpmath.log(m - 1)
                             - d * mpmath.log(d) - m + b - a + 1)
                mine = asymptotics.growth_constant(m, a, b).value
                assert abs(mine - float(reference)) <= 1e-10, (m, a, b)


def test_growth_constant_symmetry():
    for m in range(2, 9):
        for a in range(1, m):
            for b in range(a + 1, m + 1):
                lhs = asymptotics.growth_constant(m, a, b).value
                rhs = asymptotics.growth_constant(m, m + 1 - b, m + 1 - a).value
                assert lhs == pytest.approx(rhs, abs=1e-11)


def test_constant_concavity_values():
    assert asymptotics.constant_concavity(1.0, 2) == pytest.approx(
        math.pi ** 2 / 12 - 1, abs=1e-12)
    assert asymptotics.constant_concavity(0.0, 2) == pytest.approx(
        -math.pi ** 2 / 12, abs=1e-12)
    assert asymptotics.constant_concavity(5.0, 3) < 0
    with pytest.raises(InvalidInputError):
        asymptotics.constant_concavity(1.0, 1)
    for t in (-0.1, math.nan, math.inf):  # trigamma(inf) = 0 would give 0.0
        with pytest.raises(DomainError):
            asymptotics.constant_concavity(t, 2)


@pytest.mark.parametrize("d", [2, 3, 5, 10])
def test_constant_concavity_keeps_its_large_t_asymptote(d):
    # the difference of two trigamma values cancels once t is large; the
    # value is -(d-1)/(2t^2) up to a relative O(d/t)
    for e in range(8, 151, 2):
        t = 10.0 ** e
        want = -(d - 1) / (2 * t * t)
        got = asymptotics.constant_concavity(t, d)
        assert got == pytest.approx(want, rel=1e-6, abs=0), t


def test_constant_unimodal_in_glue_position():
    # along fixed gap d >= 2 the constant increases up to the symmetry point
    # (m - d + 1)/2 and mirrors around it; for d = 1 it is constant in t
    for m in range(4, 13):
        for d in range(2, m):
            ts = list(range(1, m - d + 1))
            if len(ts) < 2:
                continue
            values = [asymptotics.growth_constant(m, t, t + d).value for t in ts]
            mid = (m - d + 1) / 2
            for t, v_next in zip(ts, values[1:]):
                if t + 1 <= mid:
                    assert values[t - ts[0]] < v_next - 1e-12, (m, d, t)
            for t in ts:
                mirror = int(round(2 * mid - t))
                if ts[0] <= mirror <= ts[-1]:
                    assert values[t - ts[0]] == pytest.approx(
                        values[mirror - ts[0]], abs=1e-10)
        values_d1 = [asymptotics.growth_constant(m, t, t + 1).value
                     for t in range(1, m)]
        assert max(values_d1) - min(values_d1) < 1e-10


def test_constant_gap_examples():
    gap = asymptotics.constant_gap(6, 1, 3, 2, 4)  # rounding bound 1e-13
    assert gap == pytest.approx(math.log(4 / 3), rel=1e-12)
    assert gap == pytest.approx(
        asymptotics.growth_constant(6, 2, 4).value
        - asymptotics.growth_constant(6, 1, 3).value)
    # the true gap is 2.000004e-12 (60-digit mpmath), but the constants are
    # sums of terms near 1e7 that cancel; the float difference reads 1.86e-9
    with pytest.raises(InternalConsistencyError, match="not certifiably positive"):
        asymptotics.constant_gap(10 ** 6 + 1, 499999, 500001, 500000, 500002)
    with pytest.raises(InvalidInputError):
        asymptotics.constant_gap(8, 3, 5, 3, 5)  # sums not strictly ordered
    with pytest.raises(InvalidInputError):
        asymptotics.constant_gap(5, 1, 2, 2, 3)  # gap d = 1 not allowed
    with pytest.raises(InvalidInputError):
        asymptotics.constant_gap(6, 1, 3, 3, 5)  # a2 + b2 > m + 1


def test_log_integer():
    assert asymptotics.log_integer(1) == 0.0
    for k in (10, 100, 5000):
        v = 7 ** k
        assert asymptotics.log_integer(v) == pytest.approx(k * math.log(7),
                                                           rel=1e-12)
    with pytest.raises(InvalidInputError):
        asymptotics.log_integer(0)


def test_empirical_constant_examples():
    est = asymptotics.empirical_constant(3, 1, 2, 2)
    assert est == pytest.approx((math.log(3) - 2 * math.log(2)) / 2, abs=1e-12)
    for n in (1, 4, 9):
        assert asymptotics.empirical_constant(5, 1, 5, n) == pytest.approx(0.0,
                                                                           abs=1e-12)


def test_empirical_constant_converges_all_small_params():
    # the O(log n) remainder with fitted constant K = 5, all params with m <= 5
    from clusterext.exact_counts import exact_count_sweep

    for m in range(2, 6):
        for a in range(1, m):
            for b in range(a + 1, m + 1):
                c = asymptotics.growth_constant(m, a, b).value
                leading = m - b + a - 1
                counts = exact_count_sweep(m, a, b, 100, "p")
                errs = {}
                for n in range(10, 101):
                    emp = ((asymptotics.log_integer(counts[n - 1])
                            - leading * n * math.log(n)) / n)
                    errs[n] = abs(emp - c)
                    assert errs[n] <= 5 * math.log(n) / n, (m, a, b, n)
                assert errs[100] <= errs[10], (m, a, b)


def test_crossover_search():
    n0 = asymptotics.crossover_search(6, 1, 3, 2, 4, 50)
    assert n0 is not None and 1 <= n0 <= 50
    # frozen: counts are strictly ordered from n = 2 on (n = 1 is a tie)
    assert n0 == 2
    with pytest.raises(InvalidInputError):
        asymptotics.crossover_search(4, 1, 2, 2, 3, 10)  # d = 1 out of scope


def test_crossover_sweeps_returns_the_rows_it_judged():
    first, second, n0 = asymptotics.crossover_sweeps(6, 1, 3, 2, 4, 12)
    assert first == exact_count_sweep(6, 1, 3, 12, "p")
    assert second == exact_count_sweep(6, 2, 4, 12, "p")
    assert n0 == 2
    assert asymptotics.crossover_search(6, 1, 3, 2, 4, 1) is None  # n = 1 ties


def test_d1_inequality_reversed_at_n2():
    # with gap d = 1 the order at n = 2 goes the other way; frozen oracle values
    assert exact_count(ClusterParams(4, 1, 2, 2), "p") == 10
    assert exact_count(ClusterParams(4, 2, 3, 2), "p") == 9
