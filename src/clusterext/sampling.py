"""Uniform random linear extensions via lazy adjacent transpositions.

One chain step picks a position uniformly and, with probability 1/2, swaps
the adjacent pair there when the two elements are incomparable.  The walk is
lazy (aperiodic), irreducible on the set of linear extensions, and symmetric,
so its stationary distribution is uniform.  Mixing is governed by the known
cubic bound for this chain, hence the default burn-in of |P|^3 ln |P| steps
and thinning of |P|^2 steps between recorded samples.  A
:func:`height_profile` or :func:`sample_distribution` request over
``MAX_CHAIN_STEPS`` steps or ``MAX_CHAIN_ELEMENTS`` elements raises
:class:`ResourceLimitError` before any chain is built.

Each step takes one integer from a PCG64 stream, drawn in chunks of at most
2^15 per :meth:`ExtensionChain.run` call; its low bit is the lazy coin.  The
coin is filtered in numpy, so Python only loops over the proposals that
win it.  A trajectory therefore depends only on the poset, the seed and
the sequence of step counts passed to ``run``.

The height experiment records, for each glue element X_i of a glued-chain
poset, the fraction of the other elements that precede it; for large n these
fractions concentrate around the limit profile of
:mod:`clusterext.profiles` evaluated at (i+1)/(n+2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .errors import InvalidInputError, ResourceLimitError
from .posets import ClusterParams, FinitePoset, cluster_poset, glue_labels
from .profiles import limit_profile

if TYPE_CHECKING:  # numpy is imported by the functions that use it
    import numpy as np

_CHUNK = 1 << 15

#: Step budget of one sampling request: burn-in plus samples times thinning.
MAX_CHAIN_STEPS = 10 ** 9

#: Size cap of a sampled poset; the chain's order table takes |P|^2 bytes.
MAX_CHAIN_ELEMENTS = 4096


def default_burnin(size: int) -> int:
    """ceil(|P|^3 ln |P|), the default number of discarded initial steps."""
    if size <= 1:
        return 0
    return math.ceil(size ** 3 * math.log(size))


def default_thinning(size: int) -> int:
    """|P|^2 steps between recorded samples."""
    return max(1, size * size)


def _budget(size: int, samples: int, burnin: Optional[int],
            thinning: Optional[int]) -> Tuple[int, int]:
    """Validate a sampling request, fill in the default (burnin, thinning)
    and refuse it, before any chain is built, if it is over the caps."""
    for name, v in (("samples", samples), ("burnin", burnin), ("thinning", thinning)):
        if v is not None and type(v) is not int:  # also refuses bool
            raise InvalidInputError(f"{name} must be an integer, got {v!r}")
    if samples < 1 or (burnin is not None and burnin < 0) or \
            (thinning is not None and thinning < 1):
        raise InvalidInputError("need samples >= 1, burnin >= 0 and thinning >= 1")
    if size > MAX_CHAIN_ELEMENTS:
        raise ResourceLimitError(
            f"sampling supports posets of at most {MAX_CHAIN_ELEMENTS} elements")
    if burnin is None:
        burnin = default_burnin(size)
    if thinning is None:
        thinning = default_thinning(size)
    if burnin + samples * thinning > MAX_CHAIN_STEPS:
        raise ResourceLimitError(
            f"burn-in + samples * thinning exceeds the cap of {MAX_CHAIN_STEPS} "
            f"chain steps")
    return burnin, thinning


class ExtensionChain:
    """Mutable Markov-chain state over the linear extensions of a poset.

    Deterministic given the poset, the seed and the step counts of the
    successive :meth:`run` calls: one PCG64 stream drives every step.
    ``position`` (element -> index in ``order``) is rebuilt at the end of
    each :meth:`run` call.
    """

    def __init__(self, poset: FinitePoset, seed: int):
        import numpy as np

        self.order: List[int] = list(poset.topological_order())
        self.position: List[int] = [0] * len(poset)
        self._sync_position()
        self._less = poset.less_matrix()
        self._rng = np.random.default_rng(seed)

    def run(self, steps: int) -> None:
        """Advance the chain by ``steps`` lazy adjacent-transposition moves."""
        if type(steps) is not int or steps < 0:  # also refuses bool
            raise InvalidInputError(f"steps must be an integer >= 0, got {steps!r}")
        size = len(self.order)
        if size < 2:
            return
        order = self.order
        less = self._less
        integers = self._rng.integers
        span = 2 * (size - 1)  # position choice and lazy coin drawn together
        remaining = steps
        while remaining > 0:
            # the draw size per call fixes how the bounded generator uses the stream
            chunk = min(remaining, _CHUNK)
            draws = integers(0, span, size=chunk)
            remaining -= chunk
            # only the draws that win the lazy coin can move
            for j in (draws[(draws & 1) == 1] >> 1).tolist():
                u = order[j]
                v = order[j + 1]
                if not less[u][v]:
                    order[j] = v
                    order[j + 1] = u
        self._sync_position()

    def _sync_position(self) -> None:
        position = self.position
        for idx, elem in enumerate(self.order):
            position[elem] = idx

    def state(self) -> Tuple[int, ...]:
        return tuple(self.order)


def sample_linear_extension(poset: FinitePoset, steps: int,
                            seed: int) -> Tuple[int, ...]:
    """Final state after ``steps`` chain moves from the canonical start order.

    Returns element indices in order; deterministic given (poset, steps, seed).
    """
    chain = ExtensionChain(poset, seed)
    chain.run(steps)
    return chain.state()


def sample_distribution(poset: FinitePoset, num_samples: int, thinning: int,
                        burnin: int, seed: int) -> Dict[Tuple[int, ...], int]:
    """Empirical distribution over extensions from one thinned chain."""
    _budget(len(poset), num_samples, burnin, thinning)
    chain = ExtensionChain(poset, seed)
    chain.run(burnin)
    counts: Dict[Tuple[int, ...], int] = {}
    for _ in range(num_samples):
        chain.run(thinning)
        state = chain.state()
        counts[state] = counts.get(state, 0) + 1
    return counts


@dataclass(frozen=True)
class HeightProfile:
    """Mean normalized heights of the glue elements, with the limit reference.

    mean_heights[i] is the sample mean over the recorded draws of the
    fraction of the other elements preceding X_i; reference[i] is the limit
    profile at (i+1)/(n+2).
    """

    params: ClusterParams
    mean_heights: np.ndarray
    reference: np.ndarray
    samples: int
    burnin: int
    thinning: int
    seed: int


def height_profile(params: ClusterParams, samples: int,
                   burnin: Optional[int] = None,
                   thinning: Optional[int] = None,
                   seed: int = 0) -> HeightProfile:
    """Estimate the mean normalized height of each glue element by MCMC."""
    import numpy as np

    size = params.p_size
    burnin, thinning = _budget(size, samples, burnin, thinning)
    poset = cluster_poset(params)
    glue = [poset.index(lab) for lab in glue_labels(params)]

    chain = ExtensionChain(poset, seed)
    chain.run(burnin)
    totals = np.zeros(len(glue), dtype=float)
    for _ in range(samples):
        chain.run(thinning)
        totals += [chain.position[x] for x in glue]
    mean_heights = totals / (samples * (size - 1))
    n = params.n
    reference = np.array([limit_profile(params.m, params.a, params.b,
                                        (i + 1) / (n + 2))
                          for i in range(n + 1)])
    return HeightProfile(params, mean_heights, reference,
                         samples, burnin, thinning, seed)


@dataclass(frozen=True)
class ConcentrationReport:
    """Per-element deviations of the sampled heights from the limit profile."""

    params: ClusterParams
    rows: Tuple[Tuple[int, float, float, float], ...]
    max_deviation: float
    mean_deviation: float


def concentration_report(profile: HeightProfile) -> ConcentrationReport:
    """Aggregate a height profile into per-index and summary deviations."""
    rows = []
    for i, (mh, ref) in enumerate(zip(profile.mean_heights, profile.reference)):
        rows.append((i, float(mh), float(ref), abs(float(mh) - float(ref))))
    deviations = [r[3] for r in rows]
    return ConcentrationReport(profile.params, tuple(rows),
                               max(deviations), sum(deviations) / len(deviations))
