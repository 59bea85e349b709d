"""Slow references the tests cross-check the fast paths against.

* ``RationalPoly`` and ``step_integral``: the plain rational-polynomial form
  of the integration that :mod:`clusterext.exact_counts` does in the integer
  x^k/k! basis.
* ``glue_rank_counts``: the same counts from a forward pass over the rank
  of the current glue element, with binomials only; no integral and no
  code of :mod:`clusterext.exact_counts`.
* ``_histograms_for_length``: the per-length brute-force S_n sweep that
  :mod:`clusterext.patterns` replaced by the Goulden-Jackson cluster
  recurrence; it ranks every window of every text from scratch and tallies
  all m! patterns per text.
* ``cluster_numbers_by_texts``: the cluster numbers r_(L,k) counted on the
  texts of S_L, with no cluster poset and no linear extension.
* ``cluster_numbers_by_posets``: the same numbers from a walk that builds a
  :class:`clusterext.posets.FinitePoset` per shift sequence and counts it
  with ``count_linear_extensions_bruteforce``; ``patterns._clusters``
  carries the posets' upset bitmasks on its stack instead.
* ``evidence_classes_by_pattern``: S_m partitioned by those histograms with
  every pattern keyed on its own, the loop that
  :func:`clusterext.patterns.evidence_classes` replaced by one key per
  reverse/complement orbit.
* ``checked_chain``: the lazy adjacent-transposition chain applied one draw
  at a time in Python, with ``position`` kept current and the cover
  relations asserted after every draw; :class:`clusterext.sampling.ExtensionChain`
  filters the lazy coin in numpy and derives ``position`` from the order
  when it is read.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _permutations
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from clusterext import sampling
from clusterext.errors import InvalidInputError, require_at_most
from clusterext.patterns import MAX_TEXT_LENGTH, Pattern
from clusterext.posets import FinitePoset, count_linear_extensions_bruteforce


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


def glue_rank_counts(m: int, a: int, b: int, n: int, variant: str) -> int:
    """Linear extensions of the plain (``"p"``) or padded (``"q"``) glued-chain poset.

    V[r] counts the linear extensions of the elements placed so far in which
    the current glue element g has rank r among the N placed.  Each chain
    puts a - 1 new elements below g and m - a above it, the (b - a)-th of
    those the next glue; only g constrains them, so they interleave with the
    r - 1 old elements below g and the A = N - r above it binomially.  With
    the next glue at place p among all elements above g, its rank is
    r + a - 1 + p.  The plain poset starts from g = A(1, a) alone; the
    padded one adds chain 0's m - b elements above it and, at the end,
    chain n+1's a - 1 elements below the last glue.
    """
    padded = variant == "q"
    V, N = {1: 1}, 1 + (m - b if padded else 0)
    for _ in range(n):
        W: Dict[int, int] = {}
        for r, v in V.items():
            A, v = N - r, v * math.comb(r + a - 2, a - 1)
            for p in range(b - a, A + b - a + 1):
                ways = v * math.comb(p - 1, b - a - 1) * math.comb(A - p + m - a, m - b)
                W[r + a - 1 + p] = W.get(r + a - 1 + p, 0) + ways
        V, N = W, N + m - 1
    if padded:
        return sum(v * math.comb(r + a - 2, a - 1) for r, v in V.items())
    return sum(V.values())


def _window_pattern(window: Sequence[int]) -> Pattern:
    # rank-by-comparison; O(m^2) but branch-free and allocation-light
    return tuple(sum(1 for w in window if w < x) + 1 for x in window)


@lru_cache(maxsize=None)
def _histograms_for_length(m: int, n: int) -> Dict[Pattern, Dict[int, int]]:
    """Occurrence histograms of every length-m pattern over S_n, in one sweep."""
    require_at_most("text length", n, MAX_TEXT_LENGTH)
    hist: Dict[Pattern, Dict[int, int]] = {
        p: {} for p in _permutations(range(1, m + 1))
    }
    for text in _permutations(range(1, n + 1)):
        seen: Dict[Pattern, int] = {}
        for i in range(n - m + 1):
            w = _window_pattern(text[i:i + m])
            seen[w] = seen.get(w, 0) + 1
        for p, d in hist.items():
            k = seen.get(p, 0)
            d[k] = d.get(k, 0) + 1
    return hist


def cluster_numbers_by_texts(p: Pattern, L: int) -> Dict[int, int]:
    """{k: r_(L,k)}: over the texts of S_L, the chains of k marked
    occurrences of ``p`` that start at 1, end at L - m + 1 and step less
    than m."""
    m = len(p)
    r: Dict[int, int] = {}
    for text in _permutations(range(1, L + 1)):
        # ways[i]: chains by size from start 0 to the occurrence at i
        ways: Dict[int, Dict[int, int]] = {}
        for i in range(L - m + 1):
            if _window_pattern(text[i:i + m]) != p:
                continue
            here = {1: 1} if i == 0 else {}
            for j in range(max(0, i - m + 1), i):
                for k, w in ways.get(j, {}).items():
                    here[k + 1] = here.get(k + 1, 0) + w
            ways[i] = here
        for k, w in ways.get(L - m, {}).items():
            r[k] = r.get(k, 0) + w
    return r


def cluster_numbers_by_posets(p: Pattern, longest: int) -> Dict[Tuple[int, int], int]:
    """Cluster numbers r_(L,k) of ``p`` for every length L <= ``longest``.

    The k windows of a cluster start at 0 = i_1 < ... < i_k = L - m, each
    step i_(j+1) - i_j a self-overlap shift of p; its texts are the linear
    extensions of the L positions ordered by p's values within each window.
    """
    m = len(p)
    order = sorted(range(m), key=p.__getitem__)  # one window's chain
    # st(p[s:]) = st(p[:m-s]) when both ends list their positions alike
    shifts = [s for s in range(1, min(m, longest - m + 1))
              if [i - s for i in order if i >= s] == [i for i in order if i < m - s]]
    links = list(zip(order, order[1:]))
    r = {(m, 1): 1} if m <= longest else {}  # a single window is a chain
    stack = [(m, 1, links)]  # length, windows and covers of a shift sequence
    while stack:
        n, k, covers = stack.pop()
        for s in shifts:
            if n + s > longest:
                break
            start = n + s - m  # the first position of the new window
            step = covers + [(x + start, y + start) for x, y in links]
            key = (n + s, k + 1)
            r[key] = r.get(key, 0) + count_linear_extensions_bruteforce(
                FinitePoset([str(i) for i in range(n + s)], step))
            stack.append((n + s, k + 1, step))
    return r


def evidence_classes_by_pattern(m: int, n_max: int,
                                strong: bool = True) -> List[List[Pattern]]:
    """S_m grouped by the histograms (strong) or avoiders (weak) for n = 1..n_max."""
    groups: Dict[tuple, List[Pattern]] = {}
    for p in _permutations(range(1, m + 1)):
        hists = [_histograms_for_length(m, n)[p] for n in range(1, n_max + 1)]
        key = tuple(tuple(sorted(h.items())) if strong else h.get(0, 0)
                    for h in hists)
        groups.setdefault(key, []).append(p)
    return sorted(sorted(g) for g in groups.values())


def enumerate_linear_extensions(poset: FinitePoset,
                                limit: Optional[int] = None) -> List[Tuple[int, ...]]:
    """All linear extensions by backtracking; optional cap on the count."""
    n = len(poset)
    indeg = [0] * n
    children: List[List[int]] = [[] for _ in range(n)]
    for x, y in poset.covers:
        indeg[y] += 1
        children[x].append(y)
    out: List[Tuple[int, ...]] = []
    prefix: List[int] = []
    available = sorted(i for i in range(n) if indeg[i] == 0)

    def backtrack(avail: List[int]) -> bool:
        if limit is not None and len(out) >= limit:
            return False
        if len(prefix) == n:
            out.append(tuple(prefix))
            return limit is None or len(out) < limit
        for x in list(avail):
            nxt = [y for y in avail if y != x]
            opened = []
            for y in children[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    opened.append(y)
            prefix.append(x)
            keep_going = backtrack(sorted(nxt + opened))
            prefix.pop()
            for y in children[x]:
                indeg[y] += 1
            if not keep_going:
                return False
        return True

    backtrack(available)
    return out


def checked_chain(poset: FinitePoset, seed: int, calls: Iterable[int]
                  ) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Yield (order, position) after each call of ``steps`` chain moves.

    Draws the same PCG64 chunks as ``ExtensionChain.run`` and applies every
    draw on its own, so a trajectory must match the fast chain's at every
    call boundary.
    """
    rng = np.random.default_rng(seed)
    order = list(poset.topological_order())
    position = [0] * len(order)
    for i, x in enumerate(order):
        position[x] = i
    span = 2 * (len(order) - 1)
    covers = poset.covers  # a property that builds its tuple on every read
    for steps in calls:
        remaining = steps if len(order) >= 2 else 0
        while remaining > 0:
            chunk = min(remaining, sampling._CHUNK)
            remaining -= chunk
            for r in rng.integers(0, span, size=chunk).tolist():
                j = r >> 1
                if r & 1 and not poset.less(order[j], order[j + 1]):
                    order[j], order[j + 1] = order[j + 1], order[j]
                    position[order[j]] = j
                    position[order[j + 1]] = j + 1
                assert all(position[x] < position[y] for x, y in covers), \
                    "chain state is not a linear extension"
        yield tuple(order), tuple(position)
