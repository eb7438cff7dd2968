"""Layer tracing from outside the program: spans and counters.

A traced run replaces module attributes at each layer boundary with
wrappers that record a span (name, start, end, parent, instance id) or
bump a counter, and puts the originals back afterwards.  Spans stay in
memory and are written out when the run ends.  The wrapped names are the
ones the program looks up at call time, so e.g. ``gen_instance`` calling
``mallows_sample`` goes through the wrapper installed on
``sibmatch.market``.

Span names are ``<layer>.<part>``.  The layer is the text before the
first dot; ``bench.*`` spans belong to the benchmark itself.  The two
``select`` functions run millions of times per n=3000 market, so they
only count calls.  The solver's leaf scan runs about 1.5 million times
on ``oracle-small``, so it is rolled up: its calls and time are summed,
and the time is charged to the enclosing span as ``inner`` time instead
of being recorded as spans of its own.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

import sibmatch._kernels
import sibmatch.algorithms
import sibmatch.experiment
import sibmatch.market
import sibmatch.solver
import sibmatch.stability

ALGORITHM_SPANS = {"run_esda": "algorithms.esda", "run_sc": "algorithms.sc", "run_sda": "algorithms.sda"}


DA_PROBES = 3


def da_pass_seconds(instance) -> float:
    """Median time of one singleton DA pass on the instance.

    A median of a few, because a full garbage collection landing in one
    run (likely right after a large ESDA trace) can triple it.
    """
    samples = []
    for _ in range(DA_PROBES):
        start = time.perf_counter()
        sibmatch.algorithms.run_da(instance)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    instance: int
    inner: float = 0.0  # time spent in rolled-up calls made directly from this span


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part child spans and rolled-up calls cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children[span.id], key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = (span.end - span.start) - covered - span.inner
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_times(spans, rollups=None) -> dict[str, float]:
    """Self time summed per layer; ``rollups`` maps name -> (calls, seconds)."""
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[layer_of(span.name)] += selfs[span.id]
    for name, (_, seconds) in (rollups or {}).items():
        totals[layer_of(name)] += seconds
    return dict(totals)


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.rollups: dict[str, list] = {}  # name -> [calls, seconds]
        self.esda_runs: list[tuple[float, int, float]] = []  # (esda_s, attempts, da_pass_s)
        self.instance = 0
        self._stack: list[int] = []
        self._inner: list[float] = []
        self._patches: list[tuple[object, str, object]] = []  # module, attr, original

    @contextmanager
    def span(self, name: str):
        """Record one span around the block; yields its id."""
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id so children can point at it
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self._inner.append(0.0)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            inner = self._inner.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, self.instance, inner)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        market, experiment, solver = sibmatch.market, sibmatch.experiment, sibmatch.solver
        self._wrap_span(experiment, "run_sweep", "experiment.sweep")
        self._wrap_span(experiment, "render_report", "experiment.render")
        self._wrap_span(experiment, "_run_trial", "experiment.trial")
        for module in (market, experiment):
            self._wrap_span(module, "gen_instance", "market.gen", new_instance=True)
        self._wrap_span(market, "mallows_sample", "market.mallows")
        self._wrap_span(market, "gen_individual_prefs", "market.prefs")
        self._wrap_span(market, "gen_family_prefs", "market.prefs")
        self._wrap_span(market, "Instance", "model.instance_build")
        self._wrap_decode(sibmatch._kernels)
        for module in (sibmatch.algorithms, experiment):
            for attr, name in ALGORITHM_SPANS.items():
                self._wrap_algorithm(module, attr, name)
        for module in (sibmatch.stability, experiment):
            self._wrap_span(module, "is_stable", "stability.verify")
        self._wrap_solver(solver)
        self._wrap_rollup(solver, "scan_blocking", "solver.leaf_scan")
        self._wrap_counter(sibmatch.algorithms, "select", "algorithms.select_calls")
        self._wrap_counter(sibmatch.stability, "select", "stability.select_calls")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def paused(self):
        """Benchmark-side work inside a traced pass, kept out of every layer."""
        with self.span("bench.pause"):
            # restore exactly what was there: the benchmark may have wrapped a wrapper
            current = [(module, attr, getattr(module, attr)) for module, attr, _ in self._patches]
            for module, attr, original in self._patches:
                setattr(module, attr, original)
            try:
                yield
            finally:
                for module, attr, value in current:
                    setattr(module, attr, value)

    # -- wrappers ---------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _wrap_span(self, module, attr: str, name: str, new_instance: bool = False) -> None:
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if new_instance:
                self.instance += 1
            with self.span(name):
                return original(*args, **kwargs)

        self._patch(module, attr, wrapper)

    def _wrap_counter(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(module, attr, wrapper)

    def _wrap_rollup(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        totals = self.rollups.setdefault(name, [0, 0.0])
        inner = self._inner

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                totals[0] += 1
                totals[1] += elapsed
                if inner:
                    inner[-1] += elapsed

        self._patch(module, attr, wrapper)

    def _wrap_decode(self, module) -> None:
        original = module.decode_insertions

        def wrapper(displacements):
            self.counts["kernels.decode_items"] += len(displacements)
            with self.span("kernels.decode"):
                return original(displacements)

        self._patch(module, "decode_insertions", wrapper)

    def _wrap_algorithm(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)

        def wrapper(instance, *args, **kwargs):
            with self.span(name) as sid:
                outcome = original(instance, *args, **kwargs)
            span = self.spans[sid]
            with self.paused():
                attempts = self.count_trace(outcome.trace)
                if name == "algorithms.esda":
                    self.esda_runs.append((span.end - span.start, attempts, da_pass_seconds(instance)))
            return outcome

        self._patch(module, attr, wrapper)

    def _wrap_solver(self, module) -> None:
        original = module.find_stable

        def wrapper(*args, **kwargs):
            with self.span("solver.solve"):
                result = original(*args, **kwargs)
            self.counts["solver.nodes"] += result.nodes
            self.counts["solver.budget_exceeded"] += result.status == "budget-exceeded"
            return result

        self._patch(module, "find_stable", wrapper)

    def count_trace(self, trace) -> int:
        """Add a returned execution trace's event counts; returns its attempts."""
        kinds: dict[str, int] = defaultdict(int)
        evictions = 0
        for event in trace:
            kind = event["kind"]
            kinds[kind] += 1
            if kind == "place":
                evictions += len(event["evicted"])
        counts = self.counts
        counts["trace.events"] += len(trace)
        counts["algorithms.runs"] += 1
        counts["algorithms.attempts"] += kinds["attempt"]
        counts["algorithms.restarts"] += kinds["restart"]
        counts["algorithms.proposals"] += kinds["place"] + kinds["reject"]
        counts["algorithms.rejections"] += kinds["reject"]
        counts["algorithms.evictions"] += evictions
        return kinds["attempt"]
