"""Slow exact-rational reference for the iterated integral.

The plain rational-polynomial form of the integration that
:mod:`clusterext.exact_counts` does in the integer x^k/k! basis; the tests
cross-check the fast path against it.
"""

import math
from fractions import Fraction
from typing import Iterable, Tuple

from clusterext.errors import InvalidInputError


class RationalPoly:
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Fraction | int] = ()):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients: Tuple[Fraction, ...] = tuple(coeffs)

    @classmethod
    def constant(cls, value: Fraction | int) -> "RationalPoly":
        return cls((value,))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalPoly) and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly(out)

    def __mul__(self, other: "RationalPoly | Fraction | int") -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            return RationalPoly(c * other for c in self.coefficients)
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients))
        for i, ci in enumerate(self.coefficients):
            if ci:
                for j, cj in enumerate(other.coefficients):
                    if cj:
                        out[i + j] += ci * cj
        return RationalPoly(out)

    __rmul__ = __mul__

    def evaluate(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def integral_unit(self) -> Fraction:
        """Exact definite integral over [0, 1]."""
        return sum((c / (k + 1) for k, c in enumerate(self.coefficients)),
                   Fraction(0))

    def __repr__(self) -> str:
        return f"RationalPoly({list(self.coefficients)!r})"


def step_integral(g: RationalPoly, kernel_exponent: int) -> RationalPoly:
    """H(x) = integral of (x - t)^e * g(t) dt from 0 to x, exactly.

    Monomial rule: t^k maps to k! e! / (k+e+1)! * x^(k+e+1), so the degree
    rises by e + 1.
    """
    e = kernel_exponent
    if e < 0:
        raise InvalidInputError("kernel exponent must be >= 0")
    fe = math.factorial(e)
    out = [Fraction(0)] * (len(g.coefficients) + e + 1)
    for k, c in enumerate(g.coefficients):
        if c:
            out[k + e + 1] = c * Fraction(math.factorial(k) * fe,
                                          math.factorial(k + e + 1))
    return RationalPoly(out)
