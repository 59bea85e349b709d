"""Per-layer tracing of clusterext from outside the package.

``Tracer.install`` replaces every public function and public method of the
layer modules with a timing wrapper, in every clusterext module namespace
that holds it (so ``clusterext.sampling.limit_profile`` is wrapped as well as
``clusterext.profiles.limit_profile``); ``uninstall`` puts the originals
back.  Nothing under ``src/`` changes.

Each wrapped call is a frame on one stack.  A frame's self time is its
duration minus that of the wrapped calls it made, and is added to its layer.
Calls outside the hot set below become spans (request, name, start, end,
parent), kept in memory and written out at the end.  Hot functions run
about 10^5 times per profile request, so they only get a call count and
accumulated time, as do the resumptions of generator functions.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

LAYERS = ("cli", "exact_counts", "asymptotics", "profiles", "posets",
          "sampling", "patterns")

HOT = frozenset({
    "profiles.limit_profile", "profiles.limit_profile_slope",
    "profiles.regularized_incomplete_beta", "profiles.weight_cdf",
    "profiles.beta_value", "asymptotics.log_beta", "asymptotics.log_gamma",
    "asymptotics.trigamma", "asymptotics.log_integer",
    "posets.FinitePoset.index", "posets.FinitePoset.less",
    "sampling.ExtensionChain.state",
})


class _Frame:
    __slots__ = ("name", "layer", "child", "span_id", "parent_id", "scope_id")

    def __init__(self, name, layer, span_id, parent_id):
        self.name = name
        self.layer = layer
        self.child = 0.0
        self.span_id = span_id
        self.parent_id = parent_id
        self.scope_id = parent_id if span_id is None else span_id


class Tracer:
    """Spans, per-layer self time and counters for calls into clusterext."""

    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        self.spans: List[tuple] = []
        self.request = -1
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.time_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._restore: List[tuple] = []

    # -- frames ---------------------------------------------------------

    def _push(self, name: str, layer: str, hot: bool) -> _Frame:
        # parent_id: the innermost enclosing frame that records a span
        parent_id = self.stack[-1].scope_id if self.stack else None
        span_id = None
        if not hot:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(name, layer, span_id, parent_id)
        self.stack.append(frame)
        return frame

    def _pop(self, frame: _Frame, start: float, end: float) -> None:
        self.stack.pop()
        duration = end - start
        self.self_s[frame.layer] += duration - frame.child
        self.time_s[frame.name] += duration
        if self.stack:
            self.stack[-1].child += duration
        if frame.span_id is not None:
            self.spans.append((self.request, frame.span_id, frame.parent_id,
                               frame.name, start, end))

    def _caller_layer(self) -> Optional[str]:
        return self.stack[-1].layer if self.stack else None

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        hot = name in HOT
        observe = _OBSERVERS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, layer, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = tracer._caller_layer() != layer
            tracer.calls[name] += 1
            frame = tracer._push(name, layer, hot)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame, start, time.perf_counter())
            if observe is not None:
                observe(tracer, entry, inspect.signature(fn).bind(*args, **kwargs).arguments,
                        result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, layer: str, fn):
        tracer = self
        resume = name + ".resume"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                entry = tracer._caller_layer() != layer
                frame = tracer._push(resume, layer, hot=True)
                start = time.perf_counter()
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._pop(frame, start, time.perf_counter())
                tracer.calls[resume] += 1
                if name == "exact_counts.iter_exact_counts":
                    tracer.counters["exact_counts.counts_yielded"] += 1
                    if entry:
                        _deliver(tracer, [value], 0)
                yield value

        return wrapper

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"clusterext.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", layer, obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            wrapped = self._wrap(f"{layer}.{attr}.{meth}", layer, fn)
                            setattr(obj, meth, wrapped)
                            self._restore.append((obj, meth, fn))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "clusterext" or modname.startswith("clusterext.")):
                continue
            for attr, obj in list(vars(module).items()):
                pair = originals.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(module, attr, pair[1])
                    self._restore.append((module, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_spans(self, path) -> None:
        """One JSON object per span: request, id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for req, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"request": req, "id": span_id,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _deliver(tracer: Tracer, counts, degree: int) -> None:
    tracer.counters["exact_counts.counts_delivered"] += len(counts)
    tracer.counters["exact_counts.count_bits"] += sum(c.bit_length() for c in counts)
    tracer.counters["exact_counts.degree_sum"] += degree


def _observe_exact_count(tracer, entry, args, result):
    if entry:
        params = args["params"]
        _deliver(tracer, [result], (params.m - 1) * params.n)


def _observe_sweep(tracer, entry, args, result):
    if entry:
        _deliver(tracer, result, (args["m"] - 1) * args["n_max"])


def _observe_poset(tracer, entry, args, result):
    if entry:
        tracer.counters["posets.elements"] += len(result)


def _observe_chain_run(tracer, entry, args, result):
    tracer.counters["sampling.steps"] += args["steps"]


_OBSERVERS = {
    "exact_counts.exact_count": _observe_exact_count,
    "exact_counts.exact_count_sweep": _observe_sweep,
    "posets.cluster_poset": _observe_poset,
    "posets.modified_cluster_poset": _observe_poset,
    "sampling.ExtensionChain.run": _observe_chain_run,
}
