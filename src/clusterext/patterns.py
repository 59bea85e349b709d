"""Consecutive permutation patterns.

Permutations are plain tuples of the integers 1..m.  A pattern occurs in a
text permutation when some window of adjacent entries has the same relative
order as the pattern.  Besides the basic operators (standardization,
occurrence search, reverse/complement, the standard and non-overlapping
predicates) this module provides exact occurrence histograms over all of
S_n, which yield finite evidence for (strong) c-Wilf equivalence.

The histograms for every horizon n = m..n_max come from one depth-first
sweep of S_n_max (a shorter text holds no occurrence).  A node of depth d
is a permutation of S_d; its children append an entry of rank r = 1..d+1
(entries at or above r move up by one), so every permutation of every S_n
is visited once and adds exactly one new window.  That window's pattern
comes from a table indexed by the pattern of the last m-1 entries and the
number j of them below r.  All ranks with the same j make the same window,
so a node handles its children in m groups.  The last two levels are never
visited: a node of depth n_max - 2 tallies its children and their leaves
in closed form, since the children of one group share their window, their
tail pattern and their counts, and only the two leaf gaps next to the new
entry depend on it, linearly.

Reverse and complement keep every histogram.  Complement maps the subtree
under a node of depth m-1 onto the subtree under its complement, and no
permutation of S_k with k >= 2 is its own complement, so for m >= 3 the
sweep walks only the roots whose first entry is below their second, and
each orbit {p, pR, pC, pRC} takes the tallies of its first pattern p and of
pC.  The orbits are numbered before the walk, so every window whose orbit
takes its tallies counts straight into that orbit's row, and the walk
tallies no other window (pR and pRC, and pC at m = 2): about half of them.
A list along the current branch holds each such window's next slot in its
row, and one flat list per depth d counts the depth-d nodes that make each
slot's occurrence.  Each depth-(n-1) node has n children that inherit its
counts, so the number of texts in S_n with at least c occurrences is n
times that number in S_(n-1) plus the new ones, one running list for all
rows.  At n_max = m there is no walk: each pattern of S_m occurs in one
text of S_m, itself.

The cost is about (n_max - 2)!/2 calls with m group steps and about m^2/2
leaf products each, plus O(m) per node of lower depth, a few list steps per
pattern of S_m for the tables and orbits, and one list step per slot,
about (m!/4)(n_max - m + 2), per level; there is no per-text factor of m!.
``classify --m 7 --n-max 10``, the largest request the caps allow, takes
about 0.48 s on one core of a 2-vCPU Xeon VM, and ``_sweep(7, 10)``
0.22-0.32 s of it.

Equivalence results obtained here are evidence up to a stated text length,
never proofs.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations as _permutations
from operator import itemgetter
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .errors import InvalidInputError, require_at_most, require_int

Pattern = Tuple[int, ...]

#: Largest text length for the n! occurrence enumerations.
MAX_TEXT_LENGTH = 10
#: Largest pattern length for the m! non-overlap census.
MAX_CENSUS_LENGTH = 11
#: Largest pattern length for whole-S_m classification, and for any sweep
#: that reaches a text of length m: its tables have m! entries and each
#: level m!/4 orbit rows.  At m = 8 the tables take 6-13 ms,
#: ``evidence_classes(8, 8)`` 26-55 ms and ``_sweep(8, 10)`` 0.46-0.53 s
#: at 24 MiB peak RSS on one core of a 2-vCPU Xeon VM.
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
    return [i + 1 for i in range(n - m + 1) if standardize(t[i:i + m]) == p]


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
    for i in range(2, m):
        if standardize(p[:i]) == standardize(p[m - i:]):
            return False
    return True


def nonoverlapping_fraction(m: int) -> float:
    """Fraction of non-overlapping permutations in S_m (full enumeration).

    Each step in m costs about m times more.  On one core of a 2-vCPU Xeon
    VM (Python 3.11) it took 0.05 s at m = 7, 0.43 s at m = 8 and 4.1 s at
    m = 9, so several minutes (about 7 by extrapolation) at the cap
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


def _window_tables(m: int) -> Tuple[List[int], List[int], List[int]]:
    """Index tables over S_m, built from those over S_(m-1) by list slices.

    Window w = s*m + j is the pattern whose first m-1 entries have the
    pattern of lex rank s in S_(m-1) and whose last entry lies above j of
    them.  lex[w] is its lex rank, suffix[w] the lex rank of the pattern of
    its last m-1 entries, and rev[x] the lex rank of the reverse of the
    pattern of lex rank x.  The pattern of lex rank (p1-1)*(m-1)! + y
    starts with p1, and y ranks the pattern of the rest, a window of
    S_(m-1); reversed, it is the window with tail rev(y) and j = p1 - 1.
    """
    lex, rev = [0], [0]  # S_1, whose one window has an empty tail
    for k in range(2, m + 1):
        block, size = math.factorial(k - 2) * k, math.factorial(k - 1)
        suffix, tab = [0] * (k * size), [0] * (k * size)
        for t1 in range(1, k):  # the first entry of the tail
            stop = t1 * block
            for j in range(k):
                # the windows with tail (t1, ...) and j sit at stop - block + j,
                # step k; their suffixes are the windows of S_(k-1) whose
                # tail is the rest of the tail, above j or j - 1 entries
                col = lex[j - (t1 <= j)::k - 1]
                suffix[stop - block + j:stop:k] = col
                low = (t1 - 1 + (t1 > j)) * size  # lex rank of the first entry
                tab[stop - block + j:stop:k] = [low + y for y in col]
        rev = [tab[r * k + j] for j in range(k) for r in rev]
        lex = tab
    return lex, suffix, rev


@lru_cache(maxsize=None)
def _sweep(m: int, n_max: int) -> Tuple[List[int], Tuple[List[List[int]], ...]]:
    """Occurrence counts of the length-m patterns over S_m, ..., S_n_max.

    Returns ``orbit``, which maps the lex rank of each pattern of S_m to its
    reverse/complement orbit, and one level per n = m..n_max.  Orbits are
    numbered in lex order of their first patterns.  Level n - m holds one
    row per orbit: row[c-1] is the number of texts in S_n with at least c
    occurrences of any one of the orbit's patterns (see ``_histogram``).
    A caller must not change a row.  Texts shorter than m have no
    occurrence, so n_max must be at least m.  A sweep with m >
    MAX_CLASSIFY_LENGTH raises ResourceLimitError before it builds any table.

    ``visit`` calls itself down to depth n_max - 2, about (n_max - 2)!/2
    calls, and each of those tallies its m groups of children and, in each
    group, the summed leaf gap of each window whose orbit takes its tallies,
    one product each, about m^2/2 a call.  ``_sweep(7, 10)`` takes
    0.22-0.32 s on one core of a 2-vCPU Xeon VM.
    """
    if m == 1:  # every entry is an occurrence of the one pattern
        return [0], tuple([[math.factorial(n)] * n] for n in range(1, n_max + 1))
    require_at_most("swept pattern length", m, MAX_CLASSIFY_LENGTH)
    lex, suffix, rev = _window_tables(m)
    size = len(lex)
    # number the orbits {x, xC, xR, xRC} in lex order (complement maps lex
    # rank x to m! - 1 - x) and credit each one's row with the tallies of
    # its first pattern and, for half the roots, of that pattern's complement
    half = m >= 3
    orbit, credit = [-1] * size, [None] * size
    rows: List[List[int]] = []
    for x in range(size):
        if orbit[x] < 0:
            r = rev[x]
            orbit[x] = orbit[size - 1 - x] = orbit[r] = orbit[size - 1 - r] = len(rows)
            credit[x] = credit[size - 1 - x if half else x] = len(rows)
            rows.append([1])  # the one text of S_m that holds x is x itself
    if n_max == m:  # no walk: those rows are the one level
        return orbit, (rows,)
    # a window occurs at most n_max - m + 1 times in a text of S_n_max, so
    # slot o*K + c of a flat tally holds the c-th occurrences credited to
    # row o; a window without credit has no slot, and nxt 0
    K = n_max - m + 2
    nxt = [0 if credit[x] is None else K * credit[x] + 1 for x in lex]
    # the j's of the windows with credit, per tail pattern
    taken = [tuple(j for j in range(m) if nxt[s * m + j])
             for s in range(size // m)]
    # first[d - m]: the depth-d nodes whose new window makes the occurrence
    # of each slot; no window is complete below depth m
    first = [[0] * (K * len(rows) + 1) for _ in range(m, n_max + 1)]

    def visit(d: int, tail: Pattern, s: int) -> None:
        # tail: the last m-1 entries of a permutation in S_d; s: its pattern
        cuts = (0, *sorted(tail), d + 1)
        base, tally = s * m, first[d + 1 - m]
        rest = tail[1:]
        last = d + 2 == n_max  # tally the children's leaves here too
        if last:
            # a child with new entry r keeps the rest of the tail, the values
            # above r moved up by one, so its leaf gaps are those of rcuts
            # with the gap around r split in two
            rcuts = (0, *sorted(rest), d + 1)
            gaps = [b - a for a, b in zip(rcuts, rcuts[1:])]
            leaves, low = first[-1], cuts.index(tail[0])
        for j in range(m):
            lo, hi = cuts[j], cuts[j + 1]
            g, w = hi - lo, base + j
            i = nxt[w]  # 0 when w's orbit does not take its tallies
            if i:
                tally[i] += g
                nxt[w] = i + 1
            if last:
                # r runs over (lo, hi], inside gap k of rcuts; summed over r,
                # leaf gap t is g*gaps[t] below k and g*gaps[t-1] above k+1,
                # gap k (below r) is below, and gaps k and k+1 g*(gaps[k]+1)
                k = j - (low <= j)
                below = g * (lo - rcuts[k]) + g * (g + 1) // 2
                u = suffix[w]  # the tail pattern of the leaves' windows
                y = u * m
                for t in taken[u]:
                    leaves[nxt[y + t]] += (g * gaps[t] if t < k else below if t == k
                                           else g * (gaps[k] + 1) - below if t == k + 1
                                           else g * gaps[t - 1])
            else:
                # the ranks r in (lo, hi] sit above exactly j tail entries
                for r in range(lo + 1, hi + 1):
                    visit(d + 1, tuple([v + (v >= r) for v in rest]) + (r,), suffix[w])
            if i:
                nxt[w] = i

    # half the roots (see the module docstring); the complement of window w
    # is m! - 1 - w, since complement reverses the lex order of the tails
    # and maps j to m - 1 - j
    for s, tail in enumerate(_permutations(range(1, m))):
        if not half or tail[0] < tail[1]:
            visit(m - 1, tail, s)
    del visit  # it refers to itself: free the branch tables now, not at a full gc
    levels, acc = [], [0] * len(first[0])
    for n, tally in enumerate(first, start=m):
        # each depth-(n-1) node has n children, which inherit its counts
        acc = [n * g + t for g, t in zip(acc, tally)]
        # at-least-c counts fall as c grows, and slot 0 of every row, like
        # the one slot after the last row, stays 0, so each row ends at its
        # first zero
        levels.append([acc[i:acc.index(0, i)] for i in range(1, K * len(rows), K)])
    return orbit, tuple(levels)


def _histogram(row: List[int], n: int) -> Dict[int, int]:
    """Histogram over S_n from the texts with at least c = 1, 2, ... occurrences."""
    g = [math.factorial(n), *row, 0]
    return {k: g[k] - g[k + 1] for k in range(len(row) + 1) if g[k] != g[k + 1]}


def _rank(p: Pattern) -> int:
    """Lex rank of ``p`` among the permutations of its length."""
    r = 0
    for i, v in enumerate(p):
        r = r * (len(p) - i) + sum(u < v for u in p[i + 1:])
    return r


def _orbit_rows(p: Pattern, n_max: int) -> List[List[int]]:
    """The rows of ``p``'s orbit for n = m..n_max, read from the cached sweep."""
    if n_max < len(p):  # no text is long enough to hold p: no table needed
        return []
    orbit, levels = _sweep(len(p), n_max)
    o = orbit[_rank(p)]
    return [rows[o] for rows in levels]


def _evidence(strong: bool):
    """What evidence keeps of a row: all of it, which fixes the histogram
    (strong), or its first entry, n! minus the avoiders (weak)."""
    return tuple if strong else itemgetter(0)


def occurrence_histogram(pattern: Sequence[int], n: int) -> OccurrenceHistogram:
    """Histogram of occurrence counts of ``pattern`` over all of S_n.

    >>> occurrence_histogram((1, 2, 3), 3).counts == {0: 5, 1: 1}
    True
    """
    p = as_pattern(pattern)
    require_int("text length", n, 1)
    require_at_most("text length", n, MAX_TEXT_LENGTH)
    if n < len(p):  # no text is long enough to hold p
        return OccurrenceHistogram(n, {0: math.factorial(n)})
    return OccurrenceHistogram(n, _histogram(_orbit_rows(p, n)[-1], n))


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
    pick = _evidence(strong)
    return (list(map(pick, _orbit_rows(pp, n_max)))
            == list(map(pick, _orbit_rows(qq, n_max))))


def evidence_classes(m: int, n_max: int, strong: bool = True) -> List[List[Pattern]]:
    """Partition S_m by histogram evidence up to text length ``n_max``.

    Classes are keyed on the full sequence of histograms (strong) or the
    avoider counts (weak) for n = 1..n_max, then sorted lexicographically.
    """
    require_int("pattern length", m, 1)
    require_int("text length", n_max, 1)
    require_at_most("text length", n_max, MAX_TEXT_LENGTH)
    require_at_most("classified pattern length", m, MAX_CLASSIFY_LENGTH)
    if n_max < m:  # every histogram is {0: n!}
        return [list(_permutations(range(1, m + 1)))]
    # reverse and complement keep every histogram: key one row per orbit,
    # and skip the levels n < m, which are the same for every pattern
    orbit, levels = _sweep(m, n_max)
    pick = _evidence(strong)
    groups: Dict[tuple, List[Pattern]] = {}
    members = [groups.setdefault(key, [])
               for key in zip(*[list(map(pick, rows)) for rows in levels])]
    # patterns arrive in lex order and orbits are numbered in lex order of
    # their first patterns, so the classes come out sorted
    for p, o in zip(_permutations(range(1, m + 1)), orbit):
        members[o].append(p)
    return list(groups.values())
