"""Per-layer tracing from the benchmark side.

The benchmark wraps public entry points of each layer of ``repro`` with
timing spans, from this file only: nothing under ``src/`` changes.  A
span records its name, start, end and parent (the span open on the same
thread when it began).  Spans stay in memory while the traced passes run
and are written out once, at the end.  A layer's *self* time is its
spans' duration minus the time their child spans cover, so a cache read
that triggers a backend read is charged for the decode only.

Each wrapped entry names its *home* workloads: the ones that must call
through it.  A traced run in which a home entry records zero calls
fails, which catches wrapping a ``from x import f`` binding that the
code never looks up at call time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from repro.cache import keys as cache_keys
from repro.cache.backend import DirBackend
from repro.cache.store import RunCache
from repro.checkpoint.journal import JournalWriter
from repro.core.base import GeneratorPopulation, TunerDriver
from repro.core.cd_tuner import CdPopulation
from repro.experiments import batch as exp_batch
from repro.experiments import campaign as exp_campaign
from repro.service.fleet import FleetService
from repro.service.http import FleetClient
from repro.sim import engine as sim_engine
from repro.sim.batch import BatchEngine


@dataclass
class Entry:
    """One wrapped callable: ``owner.attr`` reported as ``name``."""

    name: str
    owner: object
    attr: str
    homes: tuple[str, ...]
    #: ``(args, kwargs, result, span) -> None``: annotate the span with
    #: work counts taken at the same boundary.
    counts: Callable | None = None
    #: ``(args, kwargs) -> dict``: counts read before the call.
    before: Callable | None = None


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _traces_steps(traces) -> int:
    return sum(len(t.steps) for t in traces)


def _count_batch_run(args, kwargs, result, span):
    traces = [t for lane in result for t in lane.values()]
    span.counts["lanes"] = len(result)
    span.counts["lane_steps"] = _traces_steps(traces)
    span.counts["lane_epochs"] = sum(len(t.epochs) for t in traces)


def _count_engine_run(args, kwargs, result, span):
    span.counts["steps"] = _traces_steps(result.values())


def _count_observe_batch(args, kwargs, result, span):
    span.counts["proposals"] = len(result)


def _count_get_traces_many(args, kwargs, result, span):
    traces = [t for doc in result.values() for t in doc.values()]
    span.counts["traces"] = len(traces)
    span.counts["steps"] = _traces_steps(traces)


def _count_get_traces(args, kwargs, result, span):
    traces = list(result.values()) if result else []
    span.counts["traces"] = len(traces)
    span.counts["steps"] = _traces_steps(traces)


def _count_put_traces(args, kwargs, result, span):
    span.counts["traces"] = len(args[2] if len(args) > 2 else kwargs["traces"])


def _pump_before(args, kwargs):
    return {"queued": args[0].admission.queued()}


def entries() -> list[Entry]:
    """Every wrapped entry point, grouped by layer."""
    return [
        # repro.experiments
        Entry("experiments.run_campaign", exp_campaign, "run_campaign",
              ("campaign",)),
        Entry("experiments.run_batch", exp_batch, "run_batch",
              ("replicates", "campaign")),
        # repro.sim.batch
        Entry("sim.batch.run", BatchEngine, "run",
              ("replicates", "campaign"), _count_batch_run),
        # repro.sim.engine and the two allocation layers beneath it,
        # wrapped where the engine looks them up.
        Entry("sim.engine.run", sim_engine.Engine, "run",
              ("campaign",), _count_engine_run),
        Entry("net.fairshare.max_min_fair_allocation", sim_engine,
              "max_min_fair_allocation", ("replicates", "campaign",
                                          "fleet")),
        Entry("endpoint.cpu.fair_shares", sim_engine, "fair_shares",
              ("replicates", "campaign", "fleet")),
        # repro.core
        Entry("core.scalar.observe", TunerDriver, "observe",
              ("campaign", "fleet")),
        Entry("core.population.cd", CdPopulation, "observe_batch",
              ("replicates",), _count_observe_batch),
        Entry("core.population.generator", GeneratorPopulation,
              "observe_batch", ("campaign",), _count_observe_batch),
        # repro.cache
        Entry("cache.keys.run_key", cache_keys, "run_key",
              ("campaign",)),
        Entry("cache.keys.single_run_components", cache_keys,
              "single_run_components", ("campaign",)),
        Entry("cache.keys.pair_run_components", cache_keys,
              "pair_run_components", ("campaign",)),
        Entry("cache.get_traces_many", RunCache, "get_traces_many",
              ("campaign",), _count_get_traces_many),
        Entry("cache.get_traces", RunCache, "get_traces",
              ("campaign",), _count_get_traces),
        Entry("cache.put_traces", RunCache, "put_traces",
              ("campaign",), _count_put_traces),
        Entry("cache.backend.get", DirBackend, "get",
              ("campaign",)),
        Entry("cache.backend.put", DirBackend, "put", ("campaign",)),
        # repro.checkpoint
        Entry("checkpoint.journal.write", JournalWriter, "write",
              ("campaign", "fleet")),
        # repro.service and its HTTP front end
        Entry("service.pump", FleetService, "pump", ("fleet",),
              None, _pump_before),
        Entry("service.submit", FleetService, "submit", ("fleet",)),
        Entry("service.http.submit", FleetClient, "submit", ("fleet",)),
        Entry("service.http.observe", FleetClient, "observe", ("fleet",)),
    ]


class Tracer:
    """Installs the wrappers, records spans, and restores on exit."""

    def __init__(self) -> None:
        self.entries = entries()
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, entry: Entry, fn: Callable) -> Callable:
        spans = self.spans
        lock = self._lock
        stack_of = self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            span = Span(entry.name, 0.0, parent=stack[-1] if stack else -1)
            if entry.before is not None:
                span.counts.update(entry.before(args, kwargs))
            with lock:
                idx = len(spans)
                spans.append(span)
            stack.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
            if entry.counts is not None:
                entry.counts(args, kwargs, result, span)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        for entry in self.entries:
            fn = getattr(entry.owner, entry.attr)
            self._saved.append((entry.owner, entry.attr,
                                entry.owner.__dict__[entry.attr]))
            setattr(entry.owner, entry.attr, self._wrap(entry, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- aggregation ------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per entry: calls, inclusive and self seconds, summed counts."""
        out: dict[str, dict] = {
            e.name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
            for e in self.entries
        }
        for span in self.spans:
            agg = out[span.name]
            agg["calls"] += 1
            agg["total_s"] += span.dur
            agg["self_s"] += span.self_s
            for key, value in span.counts.items():
                # A queue depth read before each pump: keep the deepest.
                if key == "queued":
                    agg["counts"]["queued_max"] = max(
                        agg["counts"].get("queued_max", 0), value)
                else:
                    agg["counts"][key] = agg["counts"].get(key, 0) + value
        return out

    def uncovered(self, workload: str) -> list[str]:
        """Entries whose home is ``workload`` but that saw no call."""
        totals = self.totals()
        return [e.name for e in self.entries
                if workload in e.homes and totals[e.name]["calls"] == 0]

    def dump(self) -> dict:
        """All spans as columns (name table + index arrays)."""
        names = sorted({s.name for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "names": names,
            "name": [ids[s.name] for s in self.spans],
            "start_us": [round((s.start - t0) * 1e6, 1) for s in self.spans],
            "end_us": [round((s.end - t0) * 1e6, 1) for s in self.spans],
            "parent": [s.parent for s in self.spans],
        }
