"""Consecutive permutation patterns.

Permutations are plain tuples of the integers 1..m.  A pattern occurs in a
text permutation when some window of adjacent entries has the same relative
order as the pattern.  Besides the basic operators (standardization,
occurrence search, reverse/complement, the standard and non-overlapping
predicates) this module provides exact occurrence histograms over all of
S_n, which yield finite evidence for (strong) c-Wilf equivalence.

The histograms come from the cluster method of Goulden and Jackson (1979).
A cluster of p of length L with k marks is a text of S_L covered by k
marked windows that hold p, each overlapping the next; r_(L,k) counts them.
Marks start s apart for a self-overlap shift s of p, an s < m with
st(p[s:]) = st(p[:m-s]), and the texts with one shift sequence are the
linear extensions of its cluster poset (Elizalde and Noy 2012): its L
positions, each window a chain ordered by p's values.  ``_clusters`` walks
the shift sequences depth-first with each poset as one bitmask per
position, the positions above it in its windows, and counts it with the
order-ideal DP of :mod:`clusterext.posets`; it builds no
:class:`~clusterext.posets.FinitePoset`.  With
c_L(t) = sum_k r_(L,k) t^k, the texts of S_n with j occurrences are the
coefficients of u^j in

    f_n = n f_(n-1) + sum_(L=m..n) C(n, L) c_L(u - 1) f_(n-L),   f_0 = 1.

The term of L = n in f_n is c_n(u - 1), so the numbers r_(L,k) with
L <= n_max and the histograms over S_1..S_n_max fix each other, and so do
the sums c_L(-1) and the avoider counts.  Evidence is keyed on those
numbers, once per reverse/complement orbit.

The cost follows the number of shift sequences of total at most n_max - m,
each one poset of at most n_max elements: about 2^(n_max - m) for a
pattern with shift 1, and a few for most patterns, whose shortest shift is
near m.  On one core of a 2-vCPU Xeon VM (Python 3.11)
``classify --m 7 --n-max 10``, the largest request the caps allow, takes
18 ms in-process, and each histogram at n = 10 at most 0.5 ms.

Equivalence results obtained here are evidence up to a stated text length,
never proofs.
"""

from __future__ import annotations

import math
from itertools import permutations as _permutations
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .errors import InvalidInputError, require_at_most, require_int
from .posets import _count_ideals

Pattern = Tuple[int, ...]

#: Largest text length for histograms and evidence.  The cluster walk
#: about doubles per step of n for a pattern with shift 1: ``_clusters``
#: of 12345 takes 0.12 ms at n = 10 and 14 ms at n = 16 on one core of a
#: 2-vCPU AMD EPYC VM.
MAX_TEXT_LENGTH = 10
#: Largest pattern length for the m! non-overlap census: 6.4 min at the cap.
MAX_CENSUS_LENGTH = 11
#: Largest pattern length for whole-S_m classification.  On the VM above,
#: ``evidence_classes(8, 10)`` would take 0.05 s and (8, 12) 0.06 s at
#: 25 MiB peak RSS, one cluster walk per orbit, about m!/4 of them.
MAX_CLASSIFY_LENGTH = 7


def standardize(word: Sequence[int]) -> Pattern:
    """Relabel distinct values order-isomorphically onto 1..m.

    >>> standardize((5, 2, 8))
    (2, 1, 3)
    >>> standardize((9, 3, 7, 4))
    (4, 1, 3, 2)
    """
    if not word:
        raise InvalidInputError("cannot standardize an empty word")
    if len(set(word)) != len(word):
        raise InvalidInputError(f"entries must be distinct: {tuple(word)!r}")
    order = sorted(range(len(word)), key=word.__getitem__)
    ranks = [0] * len(word)
    for rank, idx in enumerate(order, start=1):
        ranks[idx] = rank
    return tuple(ranks)


def _alike(x: Sequence[int], y: Sequence[int]) -> bool:
    """st(x) = st(y): the distinct entries of both sit alike in value order."""
    return (sorted(range(len(x)), key=x.__getitem__)
            == sorted(range(len(y)), key=y.__getitem__))


def as_pattern(word: Sequence[int]) -> Pattern:
    """Validate that ``word`` is a permutation of 1..m and return it as a tuple."""
    p = tuple(word)
    for v in p:
        require_int("pattern entry", v, 1)
    if not p or sorted(p) != list(range(1, len(p) + 1)):
        raise InvalidInputError(f"not a permutation of 1..m: {p!r}")
    return p


def occurrences(pattern: Sequence[int], text: Sequence[int]) -> List[int]:
    """1-based start indices of the consecutive occurrences of ``pattern`` in ``text``.

    >>> occurrences((1, 3, 2), (1, 4, 2, 5, 3))
    [1, 3]
    >>> occurrences((1, 2, 3), (1, 2, 3, 4))
    [1, 2]
    """
    p = as_pattern(pattern)
    t = as_pattern(text)
    m, n = len(p), len(t)
    return [i + 1 for i in range(n - m + 1) if _alike(t[i:i + m], p)]


def reverse(pattern: Sequence[int]) -> Pattern:
    """Read the pattern right-to-left."""
    return as_pattern(pattern)[::-1]


def complement(pattern: Sequence[int]) -> Pattern:
    """Replace each value v by m+1-v."""
    p = as_pattern(pattern)
    m = len(p)
    return tuple(m + 1 - v for v in p)


def symmetry_class(pattern: Sequence[int]) -> Tuple[Pattern, ...]:
    """The (up to four distinct) trivially equivalent patterns p, pR, pC, pRC."""
    p = as_pattern(pattern)
    c = tuple(len(p) + 1 - v for v in p)
    return tuple(sorted({p, p[::-1], c, c[::-1]}))


def is_standard(pattern: Sequence[int]) -> bool:
    """True when the first entry is below the last and their sum is at most m+1."""
    p = as_pattern(pattern)
    return p[0] < p[-1] and p[0] + p[-1] <= len(p) + 1


def is_nonoverlapping(pattern: Sequence[int]) -> bool:
    """True when no proper prefix and suffix of equal length share a standardization.

    Only lengths 2..m-1 matter; length-1 ends always agree trivially.

    >>> is_nonoverlapping((1, 2, 3))
    False
    >>> is_nonoverlapping((1, 3, 2))
    True
    """
    p = as_pattern(pattern)
    m = len(p)
    if m < 2:
        raise InvalidInputError("non-overlap is defined for length >= 2")
    return not any(_alike(p[:i], p[m - i:]) for i in range(2, m))


def nonoverlapping_fraction(m: int) -> float:
    """Fraction of non-overlapping permutations in S_m (full enumeration).

    Each step in m costs about m times more.  On one core of a 2-vCPU Xeon
    VM (Python 3.11) it took 0.03 s at m = 7, 0.26 s at m = 8, 2.7 s at
    m = 9, 30 s at m = 10 and 6.4 minutes at the cap
    ``MAX_CENSUS_LENGTH`` = 11.
    """
    require_int("pattern length", m, 2)
    require_at_most("census pattern length", m, MAX_CENSUS_LENGTH)
    count = sum(1 for p in _permutations(range(1, m + 1)) if is_nonoverlapping(p))
    return count / math.factorial(m)


class OccurrenceHistogram(NamedTuple):
    """Distribution of consecutive-occurrence counts of one pattern over S_n.

    ``counts[k]`` is the number of permutations in S_n with exactly k
    occurrences; the values sum to n!.
    """

    n: int
    counts: Dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def avoiders(self) -> int:
        return self.counts.get(0, 0)


def _clusters(p: Pattern, longest: int) -> Dict[Tuple[int, int], int]:
    """Cluster numbers r_(L,k) of ``p`` for every length L <= ``longest``.

    The k windows of a cluster start at 0 = i_1 < ... < i_k = L - m, each
    step i_(j+1) - i_j a self-overlap shift of p; its texts are the linear
    extensions of the L positions ordered by p's values within each window.
    The walk keeps, per position, the bitmask of the positions above it in
    some window: every cover of the poset lies in one window, and the ideal
    DP needs no more.
    """
    m = len(p)
    shifts = [s for s in range(1, min(m, longest - m + 1)) if _alike(p[s:], p[:m - s])]
    r = {(m, 1): 1} if m <= longest else {}  # a single window is a chain
    if not shifts:
        return r
    # per position of one window, the mask of the positions above it
    chain = [sum(1 << j for j in range(m) if p[j] > v) for v in p]
    stack = [(m, 1, chain)]  # length, windows and masks of a shift sequence
    while stack:
        n, k, up = stack.pop()
        for s in shifts:
            length = n + s
            if length > longest:
                break
            start = length - m  # the first position of the new window
            step = up + [0] * s
            for i, above in enumerate(chain, start):
                step[i] |= above << start
            key = (length, k + 1)
            r[key] = r.get(key, 0) + _count_ideals(step, (1 << length) - 1, {0: 1})
            stack.append((length, k + 1, step))
    return r


def _key(p: Pattern, n_max: int, strong: bool) -> tuple:
    """A key that fixes the histograms (strong) or the avoiders (weak) of
    ``p`` over S_1..S_n_max: every r_(L,k), or c_L(-1) per L."""
    r = _clusters(p, n_max)
    if strong:
        return tuple(sorted(r.items()))
    weak = [0] * (n_max + 1)
    for (n, k), count in r.items():
        weak[n] += -count if k % 2 else count
    return tuple(weak)


def occurrence_histogram(pattern: Sequence[int], n: int) -> OccurrenceHistogram:
    """Histogram of occurrence counts of ``pattern`` over all of S_n.

    >>> occurrence_histogram((1, 2, 3), 3).counts == {0: 5, 1: 1}
    True
    """
    p = as_pattern(pattern)
    require_int("text length", n, 1)
    require_at_most("text length", n, MAX_TEXT_LENGTH)
    # c_L(u - 1) = sum_k r_(L,k) (u - 1)^k, as coefficients of u
    c: Dict[int, List[int]] = {}
    for (length, k), r in _clusters(p, n).items():
        poly = c.setdefault(length, [0] * (length + 1))
        for j in range(k + 1):
            poly[j] += (-1) ** (k - j) * math.comb(k, j) * r
    f = [[1]]  # f[i][j]: the texts of S_i with j occurrences
    for i in range(1, n + 1):
        row = [i * x for x in f[-1]] + [0]
        for length, poly in c.items():
            if length <= i:
                w, rest = math.comb(i, length), f[i - length]
                for a, x in enumerate(poly):
                    for b, y in enumerate(rest):
                        row[a + b] += w * x * y
        f.append(row)
    return OccurrenceHistogram(n, {k: v for k, v in enumerate(f[n]) if v})


def cwilf_evidence(p: Sequence[int], q: Sequence[int], n_max: int,
                   strong: bool = True) -> bool:
    """Bounded-evidence comparison of two same-length patterns.

    With ``strong`` the full occurrence histograms must agree for every
    n = 1..n_max; otherwise only the avoider counts (k = 0) are compared.
    A True result is evidence up to n_max, not a proof of equivalence.
    """
    pp, qq = as_pattern(p), as_pattern(q)
    if len(pp) != len(qq):
        raise InvalidInputError("patterns must have the same length")
    require_int("text length", n_max, 1)
    require_at_most("text length", n_max, MAX_TEXT_LENGTH)
    return _key(pp, n_max, strong) == _key(qq, n_max, strong)


def evidence_classes(m: int, n_max: int, strong: bool = True) -> List[List[Pattern]]:
    """Partition S_m by histogram evidence up to text length ``n_max``.

    Classes are keyed on the full sequence of histograms (strong) or the
    avoider counts (weak) for n = 1..n_max, then sorted lexicographically.
    """
    require_int("pattern length", m, 1)
    require_int("text length", n_max, 1)
    require_at_most("text length", n_max, MAX_TEXT_LENGTH)
    require_at_most("classified pattern length", m, MAX_CLASSIFY_LENGTH)
    if n_max <= m:  # each pattern of S_m occurs in one text of S_m, itself
        return [list(_permutations(range(1, m + 1)))]
    # reverse and complement keep every histogram: key one pattern per orbit
    keys: Dict[Pattern, tuple] = {}
    groups: Dict[tuple, List[Pattern]] = {}
    for p in _permutations(range(1, m + 1)):
        key = keys.get(p)
        if key is None:
            c = tuple(m + 1 - v for v in p)
            key = _key(p, n_max, strong)
            keys.update(dict.fromkeys((p[::-1], c, c[::-1]), key))
        # patterns arrive in lex order, so the classes come out sorted
        groups.setdefault(key, []).append(p)
    return list(groups.values())
