"""Span recorder for the traced benchmark run.

Spans are opened in the benchmark's own code around calls into the
program's public functions; nothing inside `src/` is changed:

* algorithms and adversaries built from the registry are wrapped in timing
  proxies (the built-in names are registered again with builders that wrap
  what the original builder returns), giving `estimators.next_query`,
  `estimators.observe`, `estimators.snapshot`, `adversaries.next_sample`
  and `adversaries.fast_samples`;
* `arena.run_game`, `arena.monte_carlo`, `arena.estimate_query_complexity`,
  `arena._chunk_worker`, `cli.main` and `estimators.stochastic_cdf` are
  replaced at module level by wrappers that open one span per call, and the
  CLI's sink is wrapped by the `arena.monte_carlo` wrapper (`arena.export`).

Only the outermost algorithm or adversary of a game is wrapped: objects that
a wrapper builds for itself (boosted copies, the quantile wrapper's inner
estimator, the amplifier's segment adversaries) run inside their owner's
span, so `calls` counts protocol calls made by the game loop.

Self time is a span's duration minus the durations of its direct children,
so the self times of one process add up to the duration of its root span.
Pool workers are forked from the benchmark process and inherit the
wrappers; each chunk a worker runs writes its span totals to a JSON file in
the trace directory, which the benchmark merges after the operation.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
import tracemalloc
from pathlib import Path

perf = time.perf_counter

# Spans kept individually in the span dump; every other span is only summed.
DUMPED = frozenset(
    {
        "bench.round",
        "bench.op",
        "cli.main",
        "arena.monte_carlo",
        "arena.complexity",
        "arena.chunk",
        "arena.run_game",
        "estimators.stochastic_cdf",
    }
)
_LAYER_PREFIXES = ("estimators.", "adversaries.")


class Tracer:
    """Span stack, per-name totals and counters of one process."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.main_pid = os.getpid()
        self.alloc = False  # measure tracemalloc peaks around monte_carlo
        self.building = 0
        self.dumps = 0
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []
        self.totals: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self.records: list[list] = []  # [name, parent, start, end, pid]

    def enter(self, name: str) -> None:
        rec = None
        if name in DUMPED:
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            rec = len(self.records)
            self.records.append([name, parent, perf(), None, os.getpid()])
        self.stack.append([name, perf(), 0.0, rec])

    def exit(self) -> float:
        name, start, child, rec = self.stack.pop()
        end = perf()
        dur = end - start
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dur - child
        tot[2] += dur
        if self.stack:
            self.stack[-1][2] += dur
        if rec is not None:
            self.records[rec][3] = end
        return dur

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0.0), value)

    def in_layer(self) -> bool:
        return any(f[0].startswith(_LAYER_PREFIXES) for f in self.stack)

    def timed(self, name: str, fn):
        """fn wrapped in a span; keeps fn's name so it pickles as fn."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    # -- worker spool ------------------------------------------------------

    def dump_worker(self) -> None:
        self.dumps += 1
        payload = {
            "totals": self.totals,
            "counts": self.counts,
            "peaks": self.peaks,
            "records": self.records,
        }
        path = self.spool / f"{os.getpid()}-{self.dumps}.json"
        path.write_text(json.dumps(payload))

    def merge_workers(self) -> float:
        """Fold the worker files into this tracer; returns worker busy time."""
        busy = 0.0
        for path in sorted(self.spool.glob("*.json")):
            payload = json.loads(path.read_text())
            path.unlink()
            for name, (calls, self_s, total_s) in payload["totals"].items():
                tot = self.totals.setdefault(name, [0, 0.0, 0.0])
                tot[0] += calls
                tot[1] += self_s
                tot[2] += total_s
                if name == "arena.chunk":
                    busy += total_s
            for name, value in payload["counts"].items():
                self.add(name, value)
            for name, value in payload["peaks"].items():
                self.peak(name, value)
            self.records.extend(payload["records"])
        return busy


class _Algorithm:
    __slots__ = ("_inner", "_tr")

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tr = tracer

    def next_query(self, rng):
        tr = self._tr
        tr.enter("estimators.next_query")
        try:
            return self._inner.next_query(rng)
        finally:
            tr.exit()

    def observe(self, feedback):
        tr = self._tr
        tr.enter("estimators.observe")
        try:
            return self._inner.observe(feedback)
        finally:
            tr.exit()

    def snapshot(self):
        tr = self._tr
        tr.enter("estimators.snapshot")
        try:
            return self._inner.snapshot()
        finally:
            tr.exit()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Adversary:
    __slots__ = ("_inner", "_tr")

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tr = tracer

    def next_sample(self, history):
        tr = self._tr
        tr.enter("adversaries.next_sample")
        try:
            return self._inner.next_sample(history)
        finally:
            tr.exit()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _proxy_build(tracer: Tracer, build, proxy):
    def traced_build(params, n, horizon, rng):
        outermost = tracer.building == 0 and not tracer.in_layer()
        tracer.building += 1
        try:
            built = build(params, n, horizon, rng)
        finally:
            tracer.building -= 1
        return proxy(built, tracer) if outermost else built

    return traced_build


def install(tracer: Tracer, arena, cli, estimators) -> None:
    """Wrap the program's layer boundaries; lasts for the rest of the process."""
    for name, entry in list(getattr(arena, "_ALGORITHMS", {}).items()):
        arena.register_algorithm(
            name,
            _proxy_build(tracer, entry.build, _Algorithm),
            entry.kind,
            deterministic=entry.deterministic,
        )
    for name, entry in list(getattr(arena, "_ADVERSARIES", {}).items()):
        fast = getattr(entry, "fast_samples", None)
        arena.register_adversary(
            name,
            _proxy_build(tracer, entry.build, _Adversary),
            fast_samples=None if fast is None else tracer.timed("adversaries.fast_samples", fast),
        )

    arena.run_game = tracer.timed("arena.run_game", arena.run_game)
    arena.estimate_query_complexity = tracer.timed(
        "arena.complexity", arena.estimate_query_complexity
    )
    cli.main = tracer.timed("cli.main", cli.main)
    estimators.stochastic_cdf = tracer.timed(
        "estimators.stochastic_cdf", estimators.stochastic_cdf
    )

    monte_carlo = arena.monte_carlo
    signature = inspect.signature(monte_carlo)

    def export(sink):
        def traced_sink(run_id, trajectory):
            tracer.add("arena.export.rows", len(trajectory.errors))
            tracer.enter("arena.export")
            try:
                return sink(run_id, trajectory)
            finally:
                tracer.exit()

        return traced_sink

    @functools.wraps(monte_carlo)
    def traced_monte_carlo(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        config, runs = bound.arguments["config"], bound.arguments["runs"]
        rounds = runs * config.horizon
        tracer.add("arena.monte_carlo.rounds", rounds)
        if tracer.stack and tracer.stack[-1][0] == "arena.complexity":
            tracer.add("arena.complexity.probes", 1)
            tracer.add("arena.complexity.rounds", rounds)
        if bound.arguments.get("sink") is not None:
            bound.arguments["sink"] = export(bound.arguments["sink"])
        if tracer.alloc:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        tracer.enter("arena.monte_carlo")
        try:
            return monte_carlo(*bound.args, **bound.kwargs)
        finally:
            tracer.exit()
            if tracer.alloc:
                used = tracemalloc.get_traced_memory()[1] - base
                tracer.peak("arena.monte_carlo.peak_alloc_mib", used / 2**20)

    arena.monte_carlo = traced_monte_carlo

    chunk_worker = getattr(arena, "_chunk_worker", None)
    if chunk_worker is None:
        return

    # functools.wraps gives the wrapper the original's module and name, so a
    # pool pickles it as `arena._chunk_worker`, which now resolves to it.
    @functools.wraps(chunk_worker)
    def traced_chunk(job):
        in_worker = os.getpid() != tracer.main_pid
        if in_worker:
            tracer.reset()  # drop the parent's open spans copied by fork
            if tracer.alloc:
                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
        tracer.enter("arena.chunk")
        try:
            return chunk_worker(job)
        finally:
            tracer.exit()
            if in_worker:
                if tracer.alloc:
                    used = tracemalloc.get_traced_memory()[1] - base
                    tracer.peak("arena.monte_carlo.peak_alloc_mib", used / 2**20)
                tracer.dump_worker()

    arena._chunk_worker = traced_chunk
