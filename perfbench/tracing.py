"""In-memory spans around the carbonstop functions the workloads reach.

Each function is replaced where its caller looks it up: the calling
module's global (``carbonstop.solver.immediate_value`` is what
``solve_backward`` calls) or a class attribute (``Seed.stream``,
``Boundary.to_csv``).  Coarse calls become stored spans (name, start, end,
parent).  Hot leaf calls (about 50,000 ``immediate_value`` calls in one
table-1 solve) are aggregated instead: a count and a total time per name,
and their time is added to the enclosing span's child time, so that self
time is a span's duration minus the time its children took.
"""
from __future__ import annotations

import functools
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass

import carbonstop.cli as cli
import carbonstop.scenario as scenario
import carbonstop.solver as solver
from carbonstop.gbm import Seed


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    peak_bytes: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class _TimedGenerator:
    """A numpy Generator whose normal draws are timed as a leaf."""

    def __init__(self, generator, tracer: "Tracer"):
        self._generator = generator
        self.standard_normal = tracer.leaf(generator.standard_normal, "gbm.draw")

    def __getattr__(self, name):
        return getattr(self._generator, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.leaf_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._open: list[Span] = []
        self._patches: list = []
        # tracemalloc slows every Python allocation (immediate_value's time
        # grows about sixfold), so it runs only while this is set.
        self.track_alloc = False

    def clear(self) -> None:
        self.spans, self.calls, self.counts = [], Counter(), Counter()
        self.leaf_s = defaultdict(float)

    def span(self, fn, name, count=None, on_result=None, alloc=False):
        """Wrap `fn` so that each call is recorded as a span named `name`.

        `count` names a counter bumped per call; `on_result(tracer, result)`
        may add counts from the return value; `alloc` records the
        tracemalloc peak of the call while `track_alloc` is set.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            rec = Span(name, parent)
            self._open.append(rec)
            if count:
                self.counts[count] += 1
            tracked = alloc and self.track_alloc
            if tracked:
                tracemalloc.start()
            rec.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = time.perf_counter()
                if tracked:
                    rec.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._open.pop()
                if parent is not None:
                    parent.child_s += rec.seconds
                self.spans.append(rec)
            if on_result:
                on_result(self, result)
            return result

        return wrapper

    def leaf(self, fn, name):
        """Wrap `fn` so that each call only adds to a count and a total time."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                self.calls[name] += 1
                self.leaf_s[name] += seconds
                if self._open:
                    self._open[-1].child_s += seconds

        return wrapper

    def _patch(self, owner, attr, wrapper_for) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_for(original))

    def install(self) -> None:
        """Wrap every carbonstop function the workloads reach."""
        def rows(tracer, series):
            tracer.counts["market_data.rows"] += len(series)

        for owner, attr, name in (
            (cli, "apply_upgrade", "scenario.apply_upgrade"),
            (cli, "surface", "scenario.surface"),
            (cli, "monitor", "scenario.monitor"),
            (cli, "min_survival_p", "scenario.min_survival_p"),
            (scenario, "monitor", "scenario.monitor"),
            (scenario.SurfaceGrid, "to_long_csv", "scenario.write"),
            (scenario.SurfaceGrid, "to_json", "scenario.write"),
            (cli, "solve_boundary", "solver.solve_boundary"),
            (solver, "solve_boundary", "solver.solve_boundary"),
            (solver, "extract_boundary", "solver.extract_boundary"),
            (solver.Boundary, "to_csv", "solver.write"),
            (cli, "split_at", "market_data.estimate"),
            (cli, "log_returns", "market_data.estimate"),
            (cli, "estimate_gbm", "market_data.estimate"),
        ):
            self._patch(owner, attr, lambda fn, name=name: self.span(fn, name))
        self._patch(scenario, "solve_boundary", lambda fn: self.span(
            fn, "solver.solve_boundary", count="scenario.solve_calls"))
        self._patch(solver, "solve_backward", lambda fn: self.span(
            fn, "solver.solve_backward", alloc=True))
        self._patch(cli, "load_price_csv", lambda fn: self.span(
            fn, "market_data.load", on_result=rows))
        self._patch(solver, "immediate_value", lambda fn: self.leaf(fn, "plant.immediate_value"))
        self._patch(solver, "lower_bound", lambda fn: self.leaf(fn, "plant.lower_bound"))

        def timed_stream(stream):
            def wrapper(seed, *indices):
                return _TimedGenerator(stream(seed, *indices), self)
            return self.leaf(wrapper, "gbm.stream")

        self._patch(Seed, "stream", timed_stream)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since `clear`."""
        def total(name):
            return sum(s.seconds for s in self.spans if s.name == name)

        def self_time(prefix):
            return sum(s.self_s for s in self.spans if s.name.startswith(prefix))

        backward = [s for s in self.spans if s.name == "solver.solve_backward"]
        return {
            "solver.backward_self_s": sum(s.self_s for s in backward),
            "solver.solves": len(backward),
            "solver.extract_s": total("solver.extract_boundary"),
            "solver.write_s": total("solver.write"),
            "solver.peak_alloc_mb": max((s.peak_bytes for s in backward), default=0) / 2**20,
            "plant.immediate_value_calls": self.calls["plant.immediate_value"],
            "plant.immediate_value_s": self.leaf_s["plant.immediate_value"],
            "plant.lower_bound_calls": self.calls["plant.lower_bound"],
            "gbm.streams": self.calls["gbm.stream"],
            "gbm.draws_s": self.leaf_s["gbm.stream"] + self.leaf_s["gbm.draw"],
            "scenario.solve_calls": self.counts["scenario.solve_calls"],
            "scenario.self_s": self_time("scenario."),
            "scenario.monitor_s": total("scenario.monitor"),
            "market_data.load_s": total("market_data.load"),
            "market_data.rows": self.counts["market_data.rows"],
            "market_data.estimate_s": total("market_data.estimate"),
            "cli.self_s": self_time("cli"),
            "cli.bytes_written": self.counts["cli.bytes_written"],
        }

    def span_records(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": index.get(id(s.parent)), "child_s": s.child_s}
            for s in self.spans
        ]
