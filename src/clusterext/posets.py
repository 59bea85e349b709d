"""Finite posets built from glued chains, and an exact brute-force extension counter.

The family studied here glues n chains of length m so that the b-th element
of each chain is the a-th element of the next.  A modified variant pads the
first and last chain with short boundary chains so that every glue element
carries the same weight profile.  Both are ordinary finite posets, kept as
their covers; no |P|^2 order table is built.  The brute-force counter below
works for any poset of at most 24 elements and is the independent oracle for
the integral-based counts in :mod:`clusterext.exact_counts`.  Its order-ideal
DP, ``_count_ideals``, reads one bitmask of covers per element, so it also
counts the cluster posets of :mod:`clusterext.patterns`.  This module is the
bottom layer: it imports nothing from the package but its exceptions.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import (DomainError, InternalConsistencyError, InvalidInputError,
                     require_at_most, require_int)

#: Cap for the order-ideal DP.  An antichain (2^|P| ideals) of 22 elements takes
#: 15 s at 447 MiB peak RSS (2-vCPU Xeon VM); 24, not run, near 75 s and 1.7 GiB.
MAX_BRUTEFORCE_ELEMENTS = 24
#: Cap on the size of a built glued-chain poset: 10^6 elements take 5.7 s
#: and 540 MiB peak RSS, about linear in the size (2-vCPU Xeon VM).
MAX_GLUED_ELEMENTS = 10 ** 6


class ClusterParams(namedtuple("ClusterParams", "m a b n")):
    """Parameters (m, a, b, n) of a glued-chain poset, with 1 <= a < b <= m, n >= 1."""

    __slots__ = ()

    def __new__(cls, m: int, a: int, b: int, n: int) -> ClusterParams:
        for name, value in zip(cls._fields, (m, a, b, n)):
            require_int(name, value, 1)
        if not a < b <= m:
            raise InvalidInputError(f"need 1 <= a < b <= m, got a={a}, b={b}, m={m}")
        return super().__new__(cls, m, a, b, n)

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> ClusterParams:
        return cls(*iterable)  # so that _replace validates too

    @property
    def d(self) -> int:
        """Gap b - a between the two glue positions."""
        return self.b - self.a

    @property
    def leading(self) -> int:
        """Exponent m - b + a - 1 of the leading n log n growth term."""
        return self.m - self.b + self.a - 1

    @property
    def shape(self) -> Tuple[float, float]:
        """Beta shape ((a-1)/(b-a)+1, (m-b)/(b-a)+1) of one glue element's weight."""
        try:
            return (self.a - 1) / self.d + 1.0, (self.m - self.b) / self.d + 1.0
        except OverflowError:
            raise DomainError("the Beta shape is beyond the float range") from None

    @property
    def p_size(self) -> int:
        return (self.m - 1) * self.n + 1

    @property
    def q_size(self) -> int:
        return (self.m - 1) * self.n + self.m - self.b + self.a


class FinitePoset:
    """Immutable finite poset given by labeled elements and cover relations.

    Covers are pairs of int element indices (x, y) meaning x is covered by y;
    ``upper_covers[x]`` lists the y of every such pair, in increasing order.
    Construction validates acyclicity.  The order is kept as its covers
    alone: ``less`` searches them, and the extension counter reads them.
    """

    __slots__ = ("labels", "covers", "upper_covers", "_index", "_order")

    def __init__(self, labels: Sequence[str], covers: Iterable[Tuple[int, int]]):
        self.labels: Tuple[str, ...] = tuple(labels)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise InvalidInputError("element labels must be distinct")
        cov = set()
        for x, y in covers:
            require_int("cover index", x, 0)
            require_int("cover index", y, 0)
            if not (x < n and y < n):
                raise InvalidInputError(f"cover ({x},{y}) out of range")
            if x == y:
                raise InvalidInputError(f"self-loop at element {x}")
            cov.add((x, y))
        self.covers: Tuple[Tuple[int, int], ...] = tuple(sorted(cov))
        above: List[List[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for x, y in self.covers:
            above[x].append(y)
            indeg[y] += 1
        self.upper_covers: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, above))
        self._index: Dict[str, int] = {lab: i for i, lab in enumerate(self.labels)}
        # Kahn's algorithm, smallest index first; it also rejects cycles
        import heapq

        heap = [i for i in range(n) if indeg[i] == 0]
        heapq.heapify(heap)
        order: List[int] = []
        while heap:
            x = heapq.heappop(heap)
            order.append(x)
            for y in above[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    heapq.heappush(heap, y)
        if len(order) != n:
            raise InvalidInputError("cover relations contain a cycle")
        self._order: Tuple[int, ...] = tuple(order)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise InvalidInputError(f"unknown element label {label!r}") from None

    def topological_order(self) -> Tuple[int, ...]:
        """Deterministic linear extension: Kahn's algorithm, smallest index first."""
        return self._order

    def less(self, x: int, y: int) -> bool:
        """Strict comparison of two element indices: a search up the covers from x."""
        require_int("element index", x, 0)
        require_int("element index", y, 0)
        if not (x < len(self.labels) and y < len(self.labels)):
            raise InvalidInputError(f"element pair ({x},{y}) out of range")
        seen, stack = set(), [x]
        while stack:
            for z in self.upper_covers[stack.pop()]:
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
        return y in seen


def _glued_chains(params: ClusterParams, padded: bool) -> FinitePoset:
    """Chains 1..n of length m, the a-th element of chain i+1 being the b-th of
    chain i; ``padded`` adds chain 0 (positions b..m, its b-th element the
    a-th of chain 1) and chain n+1 (positions 1..a, its a-th element the b-th
    of chain n).  Elements are numbered in the order the chains are listed.
    """
    size = params.q_size if padded else params.p_size
    require_at_most("glued-chain poset size", size, MAX_GLUED_ELEMENTS)
    m, a, b, n = params
    labels: List[str] = []
    covers: List[Tuple[int, int]] = []

    def chain(i: int, first: int, last: int, glue_at: int = 0,
              glue: int = -1) -> List[int]:
        # A(i,first..last); position glue_at is the existing element glue
        idx = []
        for j in range(first, last + 1):
            if j == glue_at:
                idx.append(glue)
            else:
                idx.append(len(labels))
                labels.append(f"A({i},{j})")
        covers.extend(zip(idx, idx[1:]))
        return idx

    first = last = chain(1, 1, m)
    for i in range(2, n + 1):
        last = chain(i, 1, m, a, last[b - 1])
    if padded:
        chain(0, b, m, b, first[a - 1])
        chain(n + 1, 1, a, a, last[b - 1])
    poset = FinitePoset(labels, covers)
    if len(poset) != size:
        raise InternalConsistencyError(f"glued-chain poset has {len(poset)} elements")
    return poset


def cluster_poset(params: ClusterParams) -> FinitePoset:
    """The poset of n length-m chains glued at positions b -> a.

    Elements are A(i,j) for 1 <= i <= n, 1 <= j <= m with A(i,b) = A(i+1,a);
    relations are generated by A(i,1) <= ... <= A(i,m).  Size (m-1)n + 1.
    """
    return _glued_chains(params, padded=False)


def modified_cluster_poset(params: ClusterParams) -> FinitePoset:
    """The padded variant: adds a chain A(0,b+1..m) above the first glue element
    and a chain A(n+1,1..a-1) below the last one.  Size (m-1)n + m - b + a.
    """
    return _glued_chains(params, padded=True)


def glue_labels(params: ClusterParams) -> List[str]:
    """Labels of the glue elements X_0..X_n (X_0 = A(1,a), X_i = A(i,b) for i >= 1)."""
    return [f"A(1,{params.a})"] + [f"A({i},{params.b})"
                                   for i in range(1, params.n + 1)]


def _count_ideals(up: Sequence[int], mask: int, memo: Dict[int, int]) -> int:
    """Linear extensions of the order ideal ``mask``, memoized in ``memo`` on
    the ideal bitmask (start it as {0: 1}).  ``up[x]`` masks the covers of
    x; extra elements above x change nothing, as the DP visits only down-sets,
    where x is maximal exactly when none of its covers is in the set."""
    cached = memo.get(mask)
    if cached is not None:
        return cached
    total = 0
    mm = mask
    while mm:
        low = mm & -mm
        mm ^= low
        if up[low.bit_length() - 1] & mask == 0:  # maximal in the ideal
            total += _count_ideals(up, mask ^ low, memo)
    memo[mask] = total
    return total


def count_linear_extensions_bruteforce(poset: FinitePoset) -> int:
    """Exact number of linear extensions via dynamic programming over down-sets.

    Counts maximal chains in the lattice of order ideals; memoized on the
    ideal bitmask, from the covers alone.  Limited to MAX_BRUTEFORCE_ELEMENTS.
    """
    n = len(poset)
    require_at_most("brute-force poset size", n, MAX_BRUTEFORCE_ELEMENTS)
    up = [sum(1 << y for y in above) for above in poset.upper_covers]
    return _count_ideals(up, (1 << n) - 1, {0: 1})


_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOT_KEYWORDS = {"digraph", "edge", "graph", "node", "strict", "subgraph"}


def poset_to_dot(poset: FinitePoset, name: str = "poset") -> str:
    """Hasse diagram as DOT text (edges point from lower to upper covers).

    ``name`` must be a plain DOT identifier, ``[A-Za-z_][A-Za-z0-9_]*`` and
    not a DOT keyword, or InvalidInputError is raised; labels are quoted
    with ``\\`` and ``"`` escaped.
    """
    if (not (isinstance(name, str) and _DOT_ID.fullmatch(name))
            or name.lower() in _DOT_KEYWORDS):
        raise InvalidInputError(
            f"graph name must be a plain DOT identifier, got {name!r}")
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, lab in enumerate(poset.labels):
        quoted = str(lab).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{quoted}"];')
    for x, y in poset.covers:
        lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"
