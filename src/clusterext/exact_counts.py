"""Exact linear-extension counts via iterated polynomial integration.

Writing the count of a glued-chain poset as the probability that a uniform
labeling is order-preserving turns it into an iterated integral over the
ordered values x_0 < ... < x_n at the glue elements: each chain contributes
a weight x^(a-1) below its first glue point, (1-x)^(m-b) above its second,
and a kernel (x_{i+1} - x_i)^(b-a-1) in between.  Integrating out one
variable at a time keeps a single univariate polynomial whose coefficients
stay exact rationals, so the final factorial-scaled value is an exact
integer for any n.

Everything here is exact; no floating point is used anywhere.  The working
representation stores integer coefficients c_k of x^k/k!, the
common-denominator layout with the per-degree factorials folded into the
basis.  Each kernel pass is then a pure index shift, multiplying by x^s
scales c_k by the binomial C(k+s, s) (the exact product divided by s!), and
multiplying by (1-x) is the one-term update c'_k = c_k - k c_{k-1}, so every
coefficient stays an integer; each chain weight then carries only the
(m-b)! normalizer.  The mirror shape (m, m+1-b, m+1-a) has the same integral
(substitute x -> 1-x and reverse the indices), so the kernel runs whichever
orientation needs fewer (1-x) passes: min(a-1, m-b) per n, with the cheap
x^s pass taking the larger exponent.  That choice is made in the one
generator that runs the integration for every public entry point, single
counts and sweeps alike, and a count is finalised only for the n a caller
keeps.  :func:`iterated_integral` is read off the count, so no other
function knows the orientation or the divisor.  The slow rational-polynomial
route lives in the tests as an oracle for this one.  :func:`sandwich_check`
compares the plain and padded counts: e(P) <= e(Q) <= |Q|^(m-b+a-1) e(P).
"""

from __future__ import annotations

import math
from itertools import islice
from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

from .errors import (InternalConsistencyError, InvalidInputError, require_at_most,
                     require_int)
from .posets import ClusterParams

if TYPE_CHECKING:
    from fractions import Fraction

#: Degree guard for the iterated integral (degree grows like (m-1)n); at the
#: cap a "p" count of the costliest shapes, a-1 = m-b, takes 10-11 s (fresh
#: process, 2-vCPU Xeon VM), and each doubling of the degree costs 8-12x.
MAX_INTEGRAL_DEGREE = 6000


def _times_x_power(lo: int, c: List[int], s: int) -> int:
    """Multiply by x^s/s! in place and return the new offset.

    (x^k/k!) * x^s/s! = C(k+s, s) * x^(k+s)/(k+s)!; the s! is left to the
    caller's normalizer.
    """
    if s:
        for j in range(len(c)):
            c[j] *= math.comb(lo + j + s, s)
    return lo + s


def _times_one_minus_x(lo: int, c: List[int], times: int) -> None:
    """Multiply by (1-x)^times in place, one factor per pass: c'_k = c_k - k c_{k-1}."""
    for _ in range(times):
        c.append(0)
        for j in range(len(c) - 1, 0, -1):
            c[j] -= (lo + j) * c[j - 1]


def _tail_sum(lo: int, c: Sequence[int]) -> int:
    """(K+1)! times the integral over [0, 1], K = lo + len(c) - 1.

    Horner form of the sum of c_k (K+1)!/(k+1)!: only big-by-small products.
    """
    acc = 0
    for k, ck in enumerate(c, lo + 1):
        acc = acc * k + ck
    return acc


def _checked_degree(m: int, a: int, b: int, n: int, v: str) -> int:
    """Degree of the n-th integrand, refused if it is over the cap or the
    variant is not 'p' or 'q'; the padded variant adds one chain weight."""
    if v not in ("p", "q"):
        raise InvalidInputError(f"variant must be 'p' or 'q', got {v!r}")
    degree = (m - 1) * n + ((a - 1) + (m - b) if v == "q" else 0)
    require_at_most("iterated integral degree", degree, MAX_INTEGRAL_DEGREE)
    return degree


def _oriented(m: int, a: int, b: int) -> Tuple[int, int]:
    """(a, b) of whichever mirror orientation has the fewer (1-x) passes."""
    return (m + 1 - b, m + 1 - a) if m - b > a - 1 else (a, b)


def _integrands(m: int, a: int, b: int, v: str) -> Iterator[Tuple[int, List[int], int]]:
    """Yield (lo, c, divisor) after n = 1, 2, ... kernel passes, end weight applied.

    The shape runs in its cheaper mirror orientation.  c[j] is the
    coefficient of x^(lo+j)/(lo+j)!; the low coefficients that the kernel
    shifts and x^(a-1) weights leave at zero are not stored.  The tail sum
    of the n-th polynomial divided by ``divisor``, the (m-b)! normalizers of
    the orientation run, is the count for that n.  c is updated in place
    when the generator resumes, and the plain variant multiplies by x^(a-1)
    only then, so stopping at n wastes no work.
    """
    a, b = _oriented(m, a, b)
    unit = math.factorial(m - b)
    divisor = unit if v == "q" else 1
    c = [1]
    if v == "q":
        _times_one_minus_x(0, c, m - b)
    lo = _times_x_power(0, c, a - 1)
    n = 0
    while True:
        n += 1
        expected = _checked_degree(m, a, b, n, v)
        lo += b - a
        _times_one_minus_x(lo, c, m - b)
        if v == "q":
            lo = _times_x_power(lo, c, a - 1)
        if c[-1] == 0 or lo + len(c) - 1 != expected:
            raise InternalConsistencyError(
                f"working polynomial does not have degree {expected}")
        divisor *= unit
        yield lo, c, divisor
        if v == "p":
            lo = _times_x_power(lo, c, a - 1)


def _finalize_count(lo: int, c: Sequence[int], divisor: int) -> int:
    count, rem = divmod(_tail_sum(lo, c), divisor)
    if rem != 0 or count < 0:
        raise InternalConsistencyError(
            "factorial-scaled integral is not a nonnegative integer")
    return count


def exact_count(params: ClusterParams, variant: str = "p") -> int:
    """Exact number of linear extensions of the chosen poset variant.

    The factorial-scaled iterated integral is divided by its weight
    normalizers; a non-integer result raises InternalConsistencyError.
    """
    m, a, b, n = params
    _checked_degree(m, a, b, n, variant)
    return _finalize_count(*next(islice(_integrands(m, a, b, variant), n - 1, None)))


def exact_count_sweep(m: int, a: int, b: int, n_max: int,
                      variant: str = "p") -> List[int]:
    """Exact counts for n = 1..n_max; sharing the integration state, they
    cost little more than the count for n_max alone.

    >>> exact_count_sweep(3, 1, 2, 4)
    [1, 3, 15, 105]
    """
    require_int("n_max", n_max, 1)
    ClusterParams(m, a, b, n_max)  # validate the shape before the degree budget
    _checked_degree(m, a, b, n_max, variant)
    integrands = islice(_integrands(m, a, b, variant), n_max)
    return [_finalize_count(*state) for state in integrands]


def iterated_integral(params: ClusterParams, variant: str = "p") -> Fraction:
    """The raw iterated integral (factorial normalizers excluded).

    For the padded variant this is the integral over x_0 < ... < x_n of
    prod x_i^(a-1) (1-x_i)^(m-b) * prod (x_{i+1}-x_i)^(b-a-1); the plain
    variant drops the (1-x)^(m-b) factor at index 0 and the x^(a-1) factor
    at index n.  It is computed as exact_count * normalizers / |P|!.
    """
    from fractions import Fraction

    count = exact_count(params, variant)  # refuses a bad variant or degree first
    m, a, b, n = params
    padded = variant == "q"
    normalizers = (math.factorial(b - a - 1) ** n
                   * (math.factorial(a - 1) * math.factorial(m - b)) ** (n + padded))
    size = params.q_size if padded else params.p_size
    return Fraction(count * normalizers, math.factorial(size))


def sandwich_check(params: ClusterParams) -> bool:
    """Exact-integer check that the padded count sits between the plain count
    and |Q|^(m-b+a-1) times it."""
    e_p = exact_count(params, "p")
    e_q = exact_count(params, "q")
    return e_p <= e_q <= params.q_size ** params.leading * e_p
