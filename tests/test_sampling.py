import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterext import sampling
from clusterext.errors import InvalidInputError, ResourceLimitError
from clusterext.posets import (ClusterParams, FinitePoset, cluster_poset,
                               count_linear_extensions_bruteforce)
from clusterext.sampling import (ExtensionChain, concentration_report,
                                 default_burnin, default_thinning,
                                 height_profile, sample_distribution,
                                 sample_linear_extension)
from oracle import checked_chain, enumerate_linear_extensions


def chain_poset(k):
    return FinitePoset([f"e{i}" for i in range(k)],
                       [(i, i + 1) for i in range(k - 1)])


def antichain(k):
    return FinitePoset([f"e{i}" for i in range(k)], [])


def tv_from_uniform(poset, num_samples=10_000, seed=3):
    exts = enumerate_linear_extensions(poset)
    counts = sample_distribution(poset, num_samples,
                                 thinning=default_thinning(len(poset)),
                                 burnin=10 * default_thinning(len(poset)),
                                 seed=seed)
    assert all(state in exts for state in counts)  # never leaves the state space
    return 0.5 * sum(abs(counts.get(e, 0) / num_samples - 1 / len(exts))
                     for e in exts)


def test_chain_poset_has_unique_state():
    poset = chain_poset(6)
    for steps in (0, 1, 997):
        assert sample_linear_extension(poset, steps, seed=5) == (0, 1, 2, 3, 4, 5)


def test_determinism():
    poset = cluster_poset(ClusterParams(4, 1, 3, 3))
    a = sample_linear_extension(poset, 20_000, seed=123)
    b = sample_linear_extension(poset, 20_000, seed=123)
    c = sample_linear_extension(poset, 20_000, seed=124)
    assert a == b
    assert a != c  # overwhelmingly likely for this state space


def test_states_stay_valid_with_validation_on():
    # the oracle asserts the cover relations after every one of the 50,000 draws
    poset = cluster_poset(ClusterParams(4, 2, 3, 2))
    chain = ExtensionChain(poset, seed=9)
    chain.run(50_000)
    [(order, position)] = checked_chain(poset, 9, [50_000])
    assert chain.state() == order
    assert tuple(chain.position) == position


@st.composite
def small_shapes(draw):
    m = draw(st.integers(2, 6))
    a = draw(st.integers(1, m - 1))
    b = draw(st.integers(a + 1, m))
    return ClusterParams(m, a, b, draw(st.integers(1, 4)))


@settings(max_examples=40, deadline=None)
@given(params=small_shapes(), seed=st.integers(0, 2 ** 32 - 1),
       calls=st.lists(st.integers(0, 70_000), min_size=1, max_size=3))
@example(params=ClusterParams(4, 2, 3, 3), seed=1, calls=[32768, 1, 32769])
def test_validated_chain_follows_the_same_trajectory(params, seed, calls):
    poset = cluster_poset(params)
    fast = ExtensionChain(poset, seed)
    for steps, (order, position) in zip(calls, checked_chain(poset, seed, calls),
                                         strict=True):
        fast.run(steps)
        assert fast.state() == order
        assert tuple(fast.position) == position


def test_over_budget_requests_are_refused_before_sampling(monkeypatch):
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain was built for a refused request")

    monkeypatch.setattr(sampling, "ExtensionChain", no_chain)
    monkeypatch.setattr(sampling, "cluster_poset", no_chain)
    cap = sampling.MAX_CHAIN_STEPS
    # about 3e12 steps with the default burn-in
    with pytest.raises(ResourceLimitError):
        height_profile(ClusterParams(8, 3, 5, 1000), samples=200)
    with pytest.raises(ResourceLimitError):
        height_profile(ClusterParams(3, 1, 2, 2), samples=1, burnin=cap, thinning=1)
    with pytest.raises(ResourceLimitError):
        height_profile(ClusterParams(3, 1, 2, 2), samples=cap, burnin=0, thinning=2)
    with pytest.raises(ResourceLimitError):
        height_profile(ClusterParams(9, 1, 2, 10 ** 30), samples=1, burnin=0,
                       thinning=1)
    with pytest.raises(ResourceLimitError):
        sample_distribution(antichain(3), 10 ** 6, thinning=10 ** 3 + 1,
                            burnin=0, seed=0)
    with pytest.raises(ResourceLimitError):
        sample_distribution(antichain(sampling.MAX_CHAIN_ELEMENTS + 1), 1,
                            thinning=1, burnin=0, seed=0)
    with pytest.raises(InvalidInputError):  # bad input is reported first
        height_profile(ClusterParams(9, 1, 2, 10 ** 30), samples=1, burnin=-1)
    # non-int counts, bool included, are refused before the default budget runs
    for bad in ({"samples": 2.5}, {"samples": True}, {"samples": 1, "burnin": 10.0},
                {"samples": 1, "thinning": 3.0}, {"samples": 1, "burnin": False},
                {"samples": "2"}):
        with pytest.raises(InvalidInputError):
            height_profile(ClusterParams(5, 2, 4, 10), **bad)
    with pytest.raises(InvalidInputError):
        sample_distribution(antichain(3), 2.0, thinning=1, burnin=0, seed=0)


class _ChainBuilt(Exception):
    pass


def test_budget_at_the_cap_is_accepted(monkeypatch):
    def chain_built(*args, **kwargs):
        raise _ChainBuilt

    monkeypatch.setattr(sampling, "ExtensionChain", chain_built)
    cap = sampling.MAX_CHAIN_STEPS
    with pytest.raises(_ChainBuilt):
        sample_distribution(antichain(3), 1, thinning=1, burnin=cap - 1, seed=0)
    with pytest.raises(_ChainBuilt):
        height_profile(ClusterParams(8, 3, 5, 10), samples=200)  # the slow diagnostic


def test_enumerate_linear_extensions():
    assert len(enumerate_linear_extensions(antichain(3))) == 6
    assert enumerate_linear_extensions(chain_poset(4)) == [(0, 1, 2, 3)]
    p = cluster_poset(ClusterParams(3, 1, 2, 2))
    assert len(enumerate_linear_extensions(p)) == 3
    assert len(enumerate_linear_extensions(antichain(4), limit=10)) == 10


def test_enumerator_is_not_public():
    import clusterext

    assert not hasattr(clusterext, "enumerate_linear_extensions")
    assert not hasattr(sampling, "enumerate_linear_extensions")


@st.composite
def small_posets(draw):
    # covers x -> y with x < y only, so every draw is acyclic
    n = draw(st.integers(0, 7))
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    covers = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
    return FinitePoset([f"e{i}" for i in range(n)], covers)


@settings(max_examples=100, deadline=None)
@given(poset=small_posets(), k=st.integers(0, 12))
def test_enumerator_oracle_properties(poset, k):
    exts = enumerate_linear_extensions(poset)
    assert all(u < v for u, v in zip(exts, exts[1:]))  # strictly lexicographic
    for ext in exts:
        assert sorted(ext) == list(range(len(poset)))
        position = {x: i for i, x in enumerate(ext)}
        assert all(position[x] < position[y] for x, y in poset.covers)
    assert len(exts) == count_linear_extensions_bruteforce(poset)
    assert enumerate_linear_extensions(poset, limit=k) == exts[:k]


def test_two_element_antichain_frequencies():
    poset = antichain(2)
    counts = sample_distribution(poset, 10_000, thinning=4, burnin=100, seed=1)
    for state in ((0, 1), (1, 0)):
        assert abs(counts.get(state, 0) / 10_000 - 0.5) <= 0.02


def test_uniformity_small_posets():
    for poset in (antichain(2), antichain(3),
                  cluster_poset(ClusterParams(3, 1, 2, 2)),
                  cluster_poset(ClusterParams(4, 1, 3, 2))):
        assert tv_from_uniform(poset) < 0.05


def test_height_profile_chain_case_deterministic():
    # glued end-to-end the poset is a chain: heights are exact positions
    params = ClusterParams(4, 1, 4, 3)
    profile = height_profile(params, samples=5, burnin=50, thinning=7, seed=0)
    expected = np.array([0, 3, 6, 9]) / 9
    assert np.allclose(profile.mean_heights, expected)
    report = concentration_report(profile)
    assert report.max_deviation == pytest.approx(
        max(abs(e - r) for e, r in zip(expected, profile.reference)))


def test_height_profile_increasing():
    params = ClusterParams(3, 1, 2, 10)
    profile = height_profile(params, samples=50, burnin=40_000, thinning=500,
                             seed=2)
    assert np.all(np.diff(profile.mean_heights) > 0)
    assert np.all(profile.mean_heights >= 0) and np.all(profile.mean_heights <= 1)
    assert profile.mean_heights[0] < profile.mean_heights[-1]


def test_height_profile_reference_column():
    from clusterext.profiles import limit_profile

    params = ClusterParams(5, 2, 4, 6)
    profile = height_profile(params, samples=2, burnin=10, thinning=3, seed=0)
    for i in range(params.n + 1):
        assert profile.reference[i] == pytest.approx(
            limit_profile(5, 2, 4, (i + 1) / (params.n + 2)))


def test_height_profile_validation():
    params = ClusterParams(3, 1, 2, 2)
    with pytest.raises(InvalidInputError):
        height_profile(params, samples=0)
    with pytest.raises(InvalidInputError):
        height_profile(params, samples=1, burnin=-1)
    with pytest.raises(InvalidInputError):
        height_profile(params, samples=1, thinning=0)
    for bad in ({"samples": 2.5}, {"samples": True}, {"samples": 1, "burnin": 10.5},
                {"samples": 1, "thinning": 2.0}, {"samples": 1, "thinning": True},
                {"samples": 1, "burnin": "5"}):
        with pytest.raises(InvalidInputError):
            height_profile(params, **bad)


def test_run_refuses_non_int_steps():
    chain = ExtensionChain(cluster_poset(ClusterParams(3, 1, 2, 2)), seed=0)
    for bad in (-1, 2.0, 2.5, True, "3", None):
        with pytest.raises(InvalidInputError):
            chain.run(bad)


def test_default_budgets():
    assert default_burnin(1) == 0
    assert default_burnin(10) >= 1000
    assert default_thinning(13) == 169


@pytest.mark.slow
def test_deviation_shrinks_with_n():
    # properly mixed runs at growing n: the worst height deviation shrinks
    r10 = concentration_report(height_profile(ClusterParams(8, 3, 5, 10),
                                              samples=200, seed=1))
    r50 = concentration_report(height_profile(ClusterParams(8, 3, 5, 50),
                                              samples=300, burnin=80_000_000,
                                              thinning=100_000, seed=1))
    assert r50.max_deviation < r10.max_deviation
