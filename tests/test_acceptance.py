"""Acceptance suite: every criterion at its stated tolerance.

Each test is one criterion; the conftest terminal hook prints a one-line
PASS/FAIL summary per criterion at the end of the run.
"""

import math
import random
from itertools import permutations

import numpy as np
import pytest

from clusterext import (asymptotics, exact_counts, patterns, posets, profiles,
                        sampling)
from clusterext.posets import ClusterParams
from oracle import enumerate_linear_extensions


def all_param_triples(m_max):
    return [(m, a, b) for m in range(2, m_max + 1) for a in range(1, m)
            for b in range(a + 1, m + 1)]


def test_criterion_01_oracle_equivalence():
    # every (m,a,b) with m <= 6 and every n with |Q_n| <= 17: both exact
    # counts equal the brute-force oracle exactly
    checked = 0
    for (m, a, b) in all_param_triples(6):
        n = 1
        while (m - 1) * n + m - b + a <= 17:
            params = ClusterParams(m, a, b, n)
            brute_p = posets.count_linear_extensions_bruteforce(
                posets.cluster_poset(params))
            brute_q = posets.count_linear_extensions_bruteforce(
                posets.modified_cluster_poset(params))
            assert exact_counts.exact_count(params, "p") == brute_p, (m, a, b, n)
            assert exact_counts.exact_count(params, "q") == brute_q, (m, a, b, n)
            checked += 1
            n += 1
    assert checked >= 100


def test_criterion_02_worked_values():
    for m in range(2, 11):
        for a in range(1, m):
            for b in range(a + 1, m + 1):
                assert exact_counts.exact_count(ClusterParams(m, a, b, 1), "p") == 1
    assert exact_counts.exact_count(ClusterParams(3, 1, 2, 2), "p") == 3
    assert exact_counts.exact_count(ClusterParams(3, 1, 2, 2), "q") == 15
    e412 = exact_counts.exact_count(ClusterParams(4, 1, 2, 2), "p")
    e423 = exact_counts.exact_count(ClusterParams(4, 2, 3, 2), "p")
    assert e412 == 10
    assert e423 == 9
    assert exact_counts.exact_count(ClusterParams(4, 1, 3, 2), "p") == 4
    assert e412 > e423  # the gap-one case reverses the order at n = 2


def test_criterion_03_sandwich_inequality():
    for (m, a, b) in all_param_triples(6):
        for n in range(1, 6):
            assert exact_counts.sandwich_check(ClusterParams(m, a, b, n)), (m, a, b, n)


def test_criterion_04_growth_constant_convergence():
    assert asymptotics.growth_constant(4, 1, 3).value == pytest.approx(
        math.log(3) - 1, abs=1e-9)
    assert asymptotics.growth_constant(3, 1, 2).value == pytest.approx(
        math.log(2) - 1, abs=1e-9)
    for (m, a, b) in [(3, 1, 2), (4, 1, 3), (5, 2, 4)]:
        c = asymptotics.growth_constant(m, a, b).value
        residuals = {}
        for n in (25, 50, 100):
            err = abs(asymptotics.empirical_constant(m, a, b, n) - c)
            assert err <= 5 * math.log(n) / n, (m, a, b, n, err)
            residuals[n] = err
        assert residuals[100] < residuals[25], (m, a, b)


def test_criterion_05_constant_ordering_and_crossover():
    gap = asymptotics.constant_gap(6, 1, 3, 2, 4)
    assert gap > 1e-9
    n0 = asymptotics.crossover_search(6, 1, 3, 2, 4, 50)
    assert n0 is not None and n0 <= 50
    first = exact_counts.exact_count_sweep(6, 1, 3, 50, "p")
    second = exact_counts.exact_count_sweep(6, 2, 4, 50, "p")
    for n in range(n0, 51):
        assert first[n - 1] < second[n - 1], n


def test_criterion_06_concavity():
    for d in range(2, 7):
        for k in range(0, 201):
            assert asymptotics.constant_concavity(k / 10, d) < 0, (k / 10, d)
    assert asymptotics.constant_concavity(1.0, 2) == pytest.approx(
        math.pi ** 2 / 12 - 1, abs=1e-9)


def test_criterion_07_profile_identities():
    rng = random.Random(2024)
    cell = 1 / 1000
    for (m, a, b) in all_param_triples(8):
        target = profiles.beta_value(m, a, b) ** (b - a)
        # slope equation residual on [0.01, 0.99]
        for t in np.linspace(0.01, 0.99, 50):
            f = profiles.limit_profile(m, a, b, float(t))
            fp = profiles.limit_profile_slope(m, a, b, float(t))
            residual = abs(fp ** (b - a) * f ** (a - 1) * (1 - f) ** (m - b)
                           - target)
            assert residual <= 1e-8, (m, a, b, t)
        # inverse identity on a 1001-point grid
        for t in np.linspace(0.0, 1.0, 1001):
            f = profiles.limit_profile(m, a, b, float(t))
            assert abs(profiles.weight_cdf(m, a, b, f) - t) <= 1e-10, (m, a, b, t)
        # slope argmin within one grid cell of the analytic location
        if not (a == 1 and b == m):
            table = profiles.profile_table(m, a, b, 1000)
            k = int(np.argmin(table.slopes))
            assert abs(table.grid[k] - table.slope_minimum) <= cell + 1e-12, (m, a, b)
        # two-sided increment bounds on 100 random increasing sequences
        seqs = []
        for _ in range(100):
            length = rng.randint(2, 25)
            seqs.append(sorted(rng.uniform(1e-6, 1 - 1e-6)
                               for _ in range(length)))
        assert profiles.profile_increment_bounds(m, a, b, seqs), (m, a, b)


def test_criterion_08_variational_solver():
    t, j = profiles.variational_profile(
        profiles.VariationalProblem(np.ones(1001), 1.5), 1000)
    assert np.max(np.abs(j - t)) <= 1e-12
    for (m, a, b) in [(8, 3, 5), (5, 2, 4), (3, 1, 2)]:
        u = np.linspace(0, 1, 2_000_001)
        h = u ** (a - 1) * (1 - u) ** (m - b)
        problem = profiles.VariationalProblem(h, float(b - a - 1))
        t, j = profiles.variational_profile(problem, 1000)
        f = np.array([profiles.limit_profile(m, a, b, float(v)) for v in t])
        assert np.max(np.abs(j - f)) <= 1e-8, (m, a, b)


def test_criterion_09_height_concentration():
    profile = sampling.height_profile(ClusterParams(8, 3, 5, 25),
                                      samples=200, seed=0)
    report = sampling.concentration_report(profile)
    assert report.max_deviation <= 0.05
    assert np.all(np.diff(profile.mean_heights) > 0)
    # sampler uniformity: TV < 0.05 on posets with at most 10 extensions
    small = [posets.FinitePoset(["x", "y"], []),
             posets.FinitePoset(["x", "y", "z"], []),
             posets.cluster_poset(ClusterParams(3, 1, 2, 2)),
             posets.cluster_poset(ClusterParams(4, 1, 3, 2)),
             posets.modified_cluster_poset(ClusterParams(3, 1, 2, 1))]
    for poset in small:
        extensions = enumerate_linear_extensions(poset)
        assert len(extensions) <= 10
        thinning = sampling.default_thinning(len(poset))
        counts = sampling.sample_distribution(poset, 10_000, thinning=thinning,
                                              burnin=10 * thinning, seed=5)
        tv = 0.5 * sum(abs(counts.get(e, 0) / 10_000 - 1 / len(extensions))
                       for e in extensions)
        assert tv < 0.05, poset.labels


def test_criterion_10_pattern_layer():
    for n in range(1, 9):
        assert (patterns.occurrence_histogram((1, 3, 4, 2), n).counts
                == patterns.occurrence_histogram((1, 4, 3, 2), n).counts), n
    for p in permutations(range(1, 5)):
        for n in range(1, 9):
            h = patterns.occurrence_histogram(p, n).counts
            assert h == patterns.occurrence_histogram(patterns.reverse(p),
                                                      n).counts, (p, n)
            assert h == patterns.occurrence_histogram(patterns.complement(p),
                                                      n).counts, (p, n)
    nonoverlapping = [p for p in permutations(range(1, 5))
                      if patterns.is_nonoverlapping(p)]
    pairs = [(p, q) for i, p in enumerate(nonoverlapping)
             for q in nonoverlapping[i + 1:]
             if (p[0], p[-1]) == (q[0], q[-1])]
    assert pairs  # the census is nonempty
    for p, q in pairs:
        assert patterns.cwilf_evidence(p, q, 8, strong=True), (p, q)
