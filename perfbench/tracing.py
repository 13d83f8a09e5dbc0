"""In-memory spans around the public layers of ``repro``, recorded from outside.

:func:`install` wraps functions and methods of ``repro.api``,
``repro.exec``, ``repro.sim``, ``repro.explore`` and ``repro.robust`` so
that each call opens a span (name, start, end, parent).  Nothing under
``src/`` changes: the wrappers replace attributes at run time, and they
pass straight through while :attr:`Tracer.active` is false.

Spans are kept in a list and reduced when the run ends.  A span's self
time is its duration minus the part of it that its child spans cover.
Spans opened on pool threads with no open span of their own take the
innermost open span of the main thread as parent: the main thread is
blocked inside ``run_pending`` while the pool works.
"""

import collections
import threading
import time
from functools import wraps

_clock = time.perf_counter


class Tracer:
    """Span and counter store of one traced phase."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.counts = collections.Counter()
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        record = [name, _clock(), None, parent]
        self.spans.append(record)
        stack.append(record)
        return record

    def close(self, record):
        record[2] = _clock()
        self._stack().pop()

    def call(self, span_name, fn, /, *args, **kwargs):
        """Run ``fn`` inside a span named ``span_name`` (when active)."""
        if not self.active:
            return fn(*args, **kwargs)
        record = self.open(span_name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(record)

    def self_times(self, root=None):
        """``{name: (total self seconds, span count, total duration)}``.

        With ``root``, only spans under a top-level span of that name.
        """
        children = collections.defaultdict(list)
        for record in self.spans:
            if record[3] is not None and record[2] is not None:
                children[id(record[3])].append((record[1], record[2]))
        totals = {}
        for record in self.spans:
            name, start, end, _ = record
            if end is None or (root is not None
                               and _root(record)[0] != root):
                continue
            covered = _union_length(children.get(id(record), ()), start, end)
            self_s, count, duration = totals.get(name, (0.0, 0, 0.0))
            totals[name] = (self_s + (end - start) - covered, count + 1,
                            duration + end - start)
        return totals


def _root(record):
    while record[3] is not None:
        record = record[3]
    return record


def _union_length(intervals, start, end):
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def _span(tracer, name, fn, count=None):
    """``fn`` wrapped in a span; ``count(args)`` adds to ``name``'s counter."""
    @wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if count is not None:
            tracer.counts[name] += count(args)
        record = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(record)
    return wrapper


def install(tracer):
    """Wrap the layer boundaries of ``repro`` with spans of ``tracer``."""
    import repro.explore.engine as engine
    import repro.explore.space as space
    import repro.explore.vector as vector
    import repro.robust
    import repro.robust.ensemble as ensemble
    import repro.sim.simulator as sim
    from repro.api.design import Design
    from repro.api.simulator import Simulator
    from repro.exec.local import InlineExecutor, ThreadExecutor
    from repro.explore.engine import ExplorationResult
    from repro.robust.variation import VariationModel

    # api: decode, content hash, batch entry, both cache tiers.
    decode = Design.from_dict.__func__
    Design.from_dict = classmethod(
        _span(tracer, "api.design_decode", decode))
    hash_getter = Design.content_hash.fget

    def content_hash(self):
        if tracer.active and self._hash_cache is None:
            return tracer.call("api.content_hash", hash_getter, self)
        return hash_getter(self)
    Design.content_hash = property(content_hash)

    Simulator.run_many = _span(tracer, "api.run_many", Simulator.run_many)
    Simulator._probe_cache = _span(tracer, "api.cache_probe",
                                   Simulator._probe_cache, lambda a: 1)
    Simulator.probe_results = _span(tracer, "api.cache_probe",
                                    Simulator.probe_results,
                                    lambda a: len(a[1]))
    Simulator._store = _span(tracer, "api.cache_offer", Simulator._store,
                             lambda a: 1)
    Simulator.offer_result = _span(tracer, "api.cache_offer",
                                   Simulator.offer_result, lambda a: 1)
    Simulator.offer_results = _span(tracer, "api.cache_offer",
                                    Simulator.offer_results,
                                    lambda a: len(a[1]))

    # exec: the hand-off from run_many to the backend.
    for backend in (InlineExecutor, ThreadExecutor):
        backend.run_pending = _span(tracer, "exec.run_pending",
                                    backend.run_pending,
                                    lambda a: len(a[2]))

    # sim: the scalar engine's pass dispatcher.  Only real executions
    # (memo misses and option-dependent passes) open a span.
    run_pass = sim._run_pass
    design_only = {spec.name for spec in sim.SIM_PASSES if spec.design_only}

    def traced_run_pass(name, memo, counters, compute):
        if not tracer.active:
            return run_pass(name, memo, counters, compute)
        if memo is not None and name in design_only:
            tracer.counts["sim.memo_lookups"] += 1
        return run_pass(name, memo, counters,
                        lambda: tracer.call("sim.pass." + name, compute))
    sim._run_pass = traced_run_pass

    # explore: enumeration, the engine body, the vector path, the document.
    product_iter = space.ProductSpace.__iter__

    def iterate(self):
        if not tracer.active:
            return product_iter(self)
        return iter(tracer.call("explore.space_iter",
                                lambda: list(product_iter(self))))
    space.ProductSpace.__iter__ = iterate

    explore_stream = engine.explore_stream

    def traced_explore_stream(*args, **kwargs):
        result = tracer.call("explore.explore", explore_stream,
                             *args, **kwargs)
        if tracer.active:
            tracer.counts["explore.points"] += len(result.points)
            tracer.counts["explore.vectorized"] += \
                result.engines.get("vectorized", 0)
        return result
    engine.explore_stream = traced_explore_stream
    vector.evaluate_group = _span(tracer, "explore.vector_eval",
                                  vector.evaluate_group)
    for method, name in (("frontier_indices", "explore.frontier"),
                         ("dominance_ranks", "explore.ranks"),
                         ("to_dict", "explore.to_dict"),
                         ("to_json", "explore.to_json")):
        setattr(ExplorationResult, method,
                _span(tracer, name, getattr(ExplorationResult, method)))

    # robust: draws, perturbation, and the study body (the reduction).
    VariationModel.factors = _span(tracer, "robust.draw",
                                   VariationModel.factors)
    ensemble.perturb_design = _span(tracer, "robust.perturb",
                                    ensemble.perturb_design)
    repro.robust.monte_carlo = _span(tracer, "robust.monte_carlo",
                                     ensemble.monte_carlo)
