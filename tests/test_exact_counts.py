import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterext import exact_counts
from clusterext.errors import InternalConsistencyError, InvalidInputError
from clusterext.exact_counts import (exact_count, exact_count_sweep, iterated_integral,
                                     sandwich_check)
from clusterext.posets import (ClusterParams, cluster_poset,
                               count_linear_extensions_bruteforce,
                               modified_cluster_poset)
from oracle import RationalPoly, glue_rank_counts, step_integral

F = Fraction


def unoriented(fn, *args):
    """fn(*args) with the mirror orientation off: the kernel runs (a, b) as given."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_counts, "_oriented", lambda m, a, b: (a, b))
        return fn(*args)


def assert_mirror_routes_agree(m, a, b, n, variant):
    """Both unoriented routes, the shape's and its mirror's, equal the oriented
    count and the oriented sweep."""
    count = exact_count(ClusterParams(m, a, b, n), variant)
    sweep = exact_count_sweep(m, a, b, n, variant)
    assert sweep[-1] == count, (m, a, b, n, variant)
    for shape in ((a, b), (m + 1 - b, m + 1 - a)):
        assert unoriented(exact_count, ClusterParams(m, *shape, n), variant) == count, \
            (m, shape, n, variant)
        assert unoriented(exact_count_sweep, m, *shape, n, variant) == sweep, \
            (m, shape, n, variant)


def reference_integral(params, variant):
    """Independent slow route: raw kernels and weights on RationalPoly.

    Builds the iterated integral directly from step_integral and polynomial
    products, with no factorial bookkeeping anywhere.
    """
    m, a, b, n = params.m, params.a, params.b, params.n
    e = b - a - 1

    def weight(x_exp, one_exp):
        poly = RationalPoly([1])
        poly = poly * RationalPoly([0] * x_exp + [1])
        onemx = RationalPoly([1, -1])
        for _ in range(one_exp):
            poly = poly * onemx
        return poly

    if variant == "q":
        current = weight(a - 1, m - b)
        for _ in range(n):
            current = step_integral(current, e) * weight(a - 1, m - b)
    else:
        current = weight(a - 1, 0)
        for k in range(1, n + 1):
            stepped = step_integral(current, e)
            current = stepped * (weight(0, m - b) if k == n
                                 else weight(a - 1, m - b))
    return current.integral_unit()


def test_rational_poly_basics():
    p = RationalPoly([1, 0, F(1, 2), 0])  # trailing zero trimmed
    assert p.degree == 2
    assert p.coefficients == (F(1), F(0), F(1, 2))
    q = RationalPoly([0, 1])
    assert (p + q).coefficients == (F(1), F(1), F(1, 2))
    assert (q * q).coefficients == (F(0), F(0), F(1))
    assert (2 * q).coefficients == (F(0), F(2))
    assert p.evaluate(F(2)) == F(1) + F(1, 2) * 4
    assert q.integral_unit() == F(1, 2)
    assert RationalPoly([]).degree == -1


def test_step_integral_examples():
    one = RationalPoly([1])
    t = RationalPoly([0, 1])
    assert step_integral(one, 0) == RationalPoly([0, 1])            # x
    assert step_integral(one, 1) == RationalPoly([0, 0, F(1, 2)])   # x^2/2
    assert step_integral(t, 1) == RationalPoly([0, 0, 0, F(1, 6)])  # x^3/6
    with pytest.raises(InvalidInputError):
        step_integral(one, -1)


def test_step_integral_degree_bump():
    g = RationalPoly([1, 2, 3])
    for e in range(4):
        assert step_integral(g, e).degree == g.degree + e + 1


def test_iterated_integral_examples():
    assert iterated_integral(ClusterParams(3, 1, 2, 1), "p") == F(1, 6)
    assert iterated_integral(ClusterParams(3, 1, 2, 2), "p") == F(1, 40)
    assert iterated_integral(ClusterParams(3, 1, 2, 1), "q") == F(1, 8)


def test_iterated_integral_matches_reference_route():
    for (m, a, b) in [(3, 1, 2), (4, 1, 3), (4, 2, 3), (5, 2, 4), (5, 1, 4),
                      (5, 1, 3), (6, 1, 4)]:
        for n in range(1, 4):
            params = ClusterParams(m, a, b, n)
            for variant in ("p", "q"):
                expected = reference_integral(params, variant)
                assert iterated_integral(params, variant) == expected, \
                    (m, a, b, n, variant)
                assert unoriented(iterated_integral, params, variant) == expected, \
                    (m, a, b, n, variant)


def test_iterated_integral_checks_integrality(monkeypatch):
    # the raw integral is read off the exact count, so a kernel fault that
    # leaves a non-integer count is refused, not returned as a fraction
    tail_sum = exact_counts._tail_sum
    monkeypatch.setattr(exact_counts, "_tail_sum", lambda lo, c: tail_sum(lo, c) + 1)
    with pytest.raises(InternalConsistencyError):
        iterated_integral(ClusterParams(8, 3, 5, 4), "p")


def test_exact_count_examples():
    assert exact_count(ClusterParams(3, 1, 2, 2), "p") == 3
    assert exact_count(ClusterParams(3, 1, 2, 2), "q") == 15
    for m in range(2, 8):
        for n in (1, 3, 9):
            assert exact_count(ClusterParams(m, 1, m, n), "p") == 1


def test_exact_count_worked_values():
    # frozen from the brute-force oracle
    assert exact_count(ClusterParams(4, 1, 2, 2), "p") == 10
    assert exact_count(ClusterParams(4, 2, 3, 2), "p") == 9
    assert exact_count(ClusterParams(4, 1, 3, 2), "p") == 4
    assert exact_count(ClusterParams(3, 1, 2, 4), "p") == 105
    assert exact_count(ClusterParams(4, 1, 3, 2), "q") == 28


def test_exact_count_matches_bruteforce_everywhere_small():
    # every parameter set with m <= 7 and every n keeping the padded poset
    # within 20 elements: both variants agree with the order-ideal oracle
    checked = 0
    for m in range(2, 8):
        for a in range(1, m):
            for b in range(a + 1, m + 1):
                n = 1
                while (m - 1) * n + m - b + a <= 20:
                    params = ClusterParams(m, a, b, n)
                    assert exact_count(params, "p") == \
                        count_linear_extensions_bruteforce(cluster_poset(params))
                    assert exact_count(params, "q") == \
                        count_linear_extensions_bruteforce(
                            modified_cluster_poset(params))
                    checked += 1
                    n += 1
    assert checked > 200


def test_exact_count_matches_glue_rank_oracle():
    # every shape with m <= 10 and n <= 10, both variants: a count that
    # agrees checks the reduction to an integral, not only its arithmetic
    for m in range(2, 11):
        for a in range(1, m):
            for b in range(a + 1, m + 1):
                for n in range(1, 11):
                    for variant in "pq":
                        case = (m, a, b, n, variant)
                        assert exact_count(ClusterParams(m, a, b, n), variant) \
                            == glue_rank_counts(*case), case


LARGE_SHAPES = [(8, 3, 5, 30), (12, 4, 9, 40), (20, 8, 12, 20)]


@pytest.mark.parametrize("variant", "pq")
@pytest.mark.parametrize("shape", LARGE_SHAPES)
def test_large_counts_match_glue_rank_oracle(shape, variant):
    # 211-441 elements, far past the order-ideal oracle's 24
    assert exact_count(ClusterParams(*shape), variant) == glue_rank_counts(*shape, variant)


@st.composite
def shapes_of_size(draw, size):
    """(m, a, b, n) whose padded poset, the larger variant, has at most size elements."""
    m = draw(st.integers(2, size // 2))
    a = draw(st.integers(1, m - 1))
    b = draw(st.integers(a + 1, m))
    return m, a, b, draw(st.integers(1, (size - (m - b + a)) // (m - 1)))


@settings(max_examples=40, deadline=None)
@given(shape=shapes_of_size(300), variant=st.sampled_from("pq"))
def test_glue_rank_oracle_property(shape, variant):
    assert exact_count(ClusterParams(*shape), variant) == glue_rank_counts(*shape, variant)


@pytest.mark.parametrize("variant", "pq")
@pytest.mark.parametrize("shape", LARGE_SHAPES)
def test_large_integrals_match_glue_rank_oracle(shape, variant):
    m, a, b, n = shape
    params = ClusterParams(*shape)
    padded = variant == "q"
    normalizers = (math.factorial(b - a - 1) ** n
                   * (math.factorial(a - 1) * math.factorial(m - b)) ** (n + padded))
    size = params.q_size if padded else params.p_size
    assert size > 24
    assert iterated_integral(params, variant) == F(
        glue_rank_counts(*shape, variant) * normalizers, math.factorial(size))


@pytest.mark.parametrize("shape", LARGE_SHAPES)
def test_large_sandwich_matches_glue_rank_oracle(shape):
    params = ClusterParams(*shape)
    e_p, e_q = glue_rank_counts(*shape, "p"), glue_rank_counts(*shape, "q")
    assert sandwich_check(params) is (e_p <= e_q <= params.q_size ** params.leading * e_p)


def test_count_equals_normalized_integral():
    # the documented bridge between the two public surfaces: the factorial
    # of the poset size times the raw integral, divided by the per-chain
    # weight and kernel factorials, is exactly the count
    for (m, a, b, n) in [(3, 1, 2, 3), (5, 2, 4, 2), (6, 2, 5, 2), (4, 1, 3, 4)]:
        params = ClusterParams(m, a, b, n)
        fa = math.factorial(a - 1)
        fb = math.factorial(m - b)
        fe = math.factorial(b - a - 1)
        value_q = (math.factorial(params.q_size) * iterated_integral(params, "q")
                   / (fa ** (n + 1) * fb ** (n + 1) * fe ** n))
        value_p = (math.factorial(params.p_size) * iterated_integral(params, "p")
                   / (fa ** n * fb ** n * fe ** n))
        assert value_q == exact_count(params, "q")
        assert value_p == exact_count(params, "p")


def test_exact_count_symmetry():
    for (m, a, b) in [(5, 1, 3), (6, 2, 4), (7, 2, 5), (8, 3, 5)]:
        for n in (1, 2, 5, 11):
            for variant in ("p", "q"):
                assert_mirror_routes_agree(m, a, b, n, variant)


def test_pass_count_is_the_smaller_exponent(monkeypatch):
    # the kernel runs min(a-1, m-b) passes of (1-x) per chain weight, for
    # single counts and sweeps alike
    passes = []
    kernel = exact_counts._times_one_minus_x

    def counted(lo, c, times):
        passes.append(times)
        kernel(lo, c, times)

    monkeypatch.setattr(exact_counts, "_times_one_minus_x", counted)

    def total(m, a, b, n, variant, sweep=False):
        passes.clear()
        if sweep:
            exact_count_sweep(m, a, b, n, variant)
        else:
            exact_count(ClusterParams(m, a, b, n), variant)
        return sum(passes)

    for n in (1, 4, 30):
        assert total(12, 2, 3, n, "p") == n  # runs as (12, 10, 11), not 9n
        assert total(12, 2, 3, n, "q") == n + 1
        assert total(6, 3, 6, n, "p") == total(6, 3, 6, n, "q") == 0
    assert total(12, 2, 3, 4, "p", sweep=True) == 4
    for m in range(2, 9):
        for a in range(1, m):
            for b in range(a + 1, m + 1):
                low = min(a - 1, m - b)
                for sweep in (False, True):
                    assert total(m, a, b, 3, "p", sweep) == 3 * low, (m, a, b, sweep)
                    assert total(m, a, b, 3, "q", sweep) == 4 * low, (m, a, b, sweep)


@st.composite
def shapes(draw, m_max=12, n_max=30):
    m = draw(st.integers(2, m_max))
    a = draw(st.integers(1, m - 1))
    b = draw(st.integers(a + 1, m))
    return m, a, b, draw(st.integers(1, n_max))


@settings(max_examples=60, deadline=None)
@given(shape=shapes(), variant=st.sampled_from("pq"))
def test_single_count_and_sweep_agree(shape, variant):
    m, a, b, n = shape
    count = exact_count(ClusterParams(m, a, b, n), variant)
    assert count == exact_count_sweep(m, a, b, n, variant)[n - 1]


@settings(max_examples=60, deadline=None)
@given(shape=shapes(), variant=st.sampled_from("pq"))
def test_mirror_symmetry_property(shape, variant):
    assert_mirror_routes_agree(*shape, variant)


def test_counts_nondecreasing_in_n():
    for (m, a, b) in [(3, 1, 2), (5, 2, 4), (6, 1, 4)]:
        counts = exact_count_sweep(m, a, b, 12, "p")
        assert all(x <= y for x, y in zip(counts, counts[1:]))


def test_sweep_matches_single_calls():
    sweep_p = exact_count_sweep(5, 2, 4, 6, "p")
    sweep_q = exact_count_sweep(5, 2, 4, 6, "q")
    for n in range(1, 7):
        assert sweep_p[n - 1] == exact_count(ClusterParams(5, 2, 4, n), "p")
        assert sweep_q[n - 1] == exact_count(ClusterParams(5, 2, 4, n), "q")


def test_count_generator_is_not_public():
    import clusterext

    assert not hasattr(clusterext, "iter_exact_counts")
    assert not hasattr(exact_counts, "iter_exact_counts")


def test_variant_validation():
    with pytest.raises(InvalidInputError):
        exact_count(ClusterParams(3, 1, 2, 1), "x")
    with pytest.raises(InvalidInputError):
        exact_count(ClusterParams(3, 1, 2, 1), "P")
    with pytest.raises(InvalidInputError):
        exact_count_sweep(3, 1, 2, 2, "Q")
    with pytest.raises(InvalidInputError):
        exact_count_sweep(3, 1, 2, 0, "p")


def test_degree_budget_raises_upfront(monkeypatch):
    from clusterext.errors import ResourceLimitError

    def no_kernel(*args):
        raise AssertionError("kernel ran for a refused request")

    monkeypatch.setattr(exact_counts, "_integrands", no_kernel)
    with pytest.raises(ResourceLimitError):
        exact_count(ClusterParams(8, 3, 5, 10_000), "p")
    with pytest.raises(ResourceLimitError):
        exact_count_sweep(8, 3, 5, 10_000, "q")
    with pytest.raises(ResourceLimitError):
        iterated_integral(ClusterParams(8, 3, 5, 10_000), "q")


def test_sweep_validates_shape_before_budget():
    from clusterext.errors import ResourceLimitError

    with pytest.raises(InvalidInputError):
        exact_count_sweep(5, 5, 3, 10 ** 6)  # a >= b: a broken shape, not a budget
    with pytest.raises(ResourceLimitError):
        exact_count_sweep(5, 3, 5, 10 ** 6)


def test_large_case_budget_and_symmetry():
    # degree ~ 707 at (8,3,5,100); the oriented sweep runs the mirror's 2
    # (1-x) passes per n, the unoriented shape runs 3
    for variant in ("p", "q"):
        counts = exact_count_sweep(8, 3, 5, 100, variant)
        assert unoriented(exact_count_sweep, 8, 3, 5, 100, variant) == counts
        assert unoriented(exact_count_sweep, 8, 4, 6, 100, variant) == counts
        assert counts[-1] == exact_count(ClusterParams(8, 3, 5, 100), variant)
        assert len(str(counts[-1])) > 900
