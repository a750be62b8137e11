"""Per-layer tracing from outside the program.

:class:`LayerTrace` attributes one traced pass's wall time to the program's
layers by *self time*: a layer's time minus the part of it spent in nested
layers.  It builds one stack of frames from two sources:

* wrappers the benchmark installs around public entry points
  (``build_system``, ``ShardPartition.from_arrays``, the kernel's
  ``climb_weights_with``, the solvers handed out by ``get_solver``, ...);
* spans the program already emits (``mcs.solve``, ``mcs.retire``,
  ``shard.merge``, ``shard.refresh``, ``pool.dispatch``), read from the
  event stream while the trace is installed as the recorder.

The whole pass runs inside a root frame whose self time is
``unattributed_s``, so the self times always sum to the traced wall.

Counts come from the same event stream (solver calls, candidate sets,
distsim rounds, shard merges, pool dispatches, fault events) and from the
wrappers (kernel climbs, grid queries, systems built).  Events relayed
from pool workers are counted, and their solver seconds are reported as
``pool.worker_solve_s``, which overlaps the parent's ``pool.collect_s``
and is therefore outside the sum.  Wrapper frames entered inside a pool
worker are not seen.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List

from repro.obs import events as ev

#: Every per-layer metric, with its unit, in report order.
PER_LAYER: Dict[str, str] = {
    "ptas.solve_s": "s",
    "ptas.sets_evaluated": "count",
    "neighborhood.solve_s": "s",
    "distributed.solve_s": "s",
    "distsim.rounds": "count",
    "distsim.messages": "count",
    "colorwave.schedule_s": "s",
    "perf.climb_s": "s",
    "perf.climb_calls": "count",
    "perf.climb_candidates": "count",
    "hillclimb.solve_s": "s",
    "hillclimb.solver_calls": "count",
    "model.build_system_s": "s",
    "model.build_system_calls": "count",
    "model.tags_built": "count",
    "shard.partition_s": "s",
    "shard.cells": "count",
    "shard.halo_readers": "count",
    "shard.solve_slot_s": "s",
    "shard.reconcile_s": "s",
    "shard.boundary_repairs": "count",
    "shard.retire_s": "s",
    "scale.driver_s": "s",
    "shard.refresh_s": "s",
    "shard.refresh_calls": "count",
    "faults.readers_failed": "count",
    "faults.reads_missed": "count",
    "faults.degradations": "count",
    "mcs.zero_progress_slots": "count",
    "geometry.grid_s": "s",
    "geometry.grid_queries": "count",
    "pool.dispatch_s": "s",
    "pool.collect_s": "s",
    "pool.tasks": "count",
    "pool.payload_bytes": "bytes",
    "pool.spawns": "count",
    "pool.respawns": "count",
    "pool.worker_solve_s": "s",
    "mcs.solve_s": "s",
    "mcs.retire_s": "s",
    "mcs.driver_s": "s",
    "unattributed_s": "s",
    "obs.traced_wall_s": "s",
    "obs.trace_overhead_frac": "ratio",
}

#: Per-layer time metrics that partition the traced wall.
SELF_TIMES = tuple(
    name for name, unit in PER_LAYER.items()
    if unit == "s" and name not in ("pool.worker_solve_s", "obs.traced_wall_s")
)

#: Program spans that open a frame, by layer.
SPAN_LAYERS = {
    "mcs.solve": "mcs.solve",
    "mcs.retire": "mcs.retire",
    "shard.merge": "shard.reconcile",
    "shard.refresh": "shard.refresh",
    "pool.dispatch": "pool.dispatch",
}

#: Solver registry name -> layer of its solve frame.
SOLVER_LAYERS = {
    "ptas": "ptas.solve",
    "centralized": "neighborhood.solve",
    "distributed": "distributed.solve",
    "ghc": "hillclimb.solve",
    "ghc_naive": "hillclimb.solve",
}


class LayerTrace(ev.Recorder):
    """Self times and counts of one traced pass (see the module docstring).

    Create it, :meth:`install` the wrappers before the program hands out any
    solver, then time each traced pass with :meth:`measure`.
    """

    enabled = True

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        self._span_frames: List[int] = []
        self._pid = os.getpid()
        self._active = False
        self._replaying = 0
        self._foreign = False
        self._collect_s = 0.0
        self._undo: List[Callable[[], None]] = []
        self.wall_s = 0.0

    # -- frames ------------------------------------------------------------
    def _live(self) -> bool:
        return self._active and os.getpid() == self._pid

    def _push(self, layer: str, t: float) -> None:
        self._stack.append([layer, t, 0.0])

    def _pop(self, t: float) -> None:
        layer, t0, child = self._stack.pop()
        dur = t - t0
        self.self_s[layer] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def _innermost(self) -> str:
        return self._stack[-1][0] if self._stack else ""

    def frame(self, fn: Callable, layer: str, count=None) -> Callable:
        """*fn* wrapped in a *layer* frame.  ``count(args, kwargs)`` runs on
        outermost entries of the layer (a layer re-entering itself, like a
        kernel deferring to its parent class, is counted once)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._live():
                return fn(*args, **kwargs)
            if count is not None and self._innermost() != layer:
                count(args, kwargs)
            self._push(layer, time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop(time.perf_counter())

        return wrapper

    @contextmanager
    def measure(self):
        """Trace the enclosed pass: installs this trace as the program's
        recorder and times it in the root frame.  Only this process's
        frames count: pool workers it forks are not traced."""
        self._pid = os.getpid()
        self._active = True
        with ev.recording(self):
            t0 = time.perf_counter()
            self._push("unattributed", t0)
            try:
                yield self
            finally:
                t1 = time.perf_counter()
                while len(self._stack) > 1:
                    self._pop(t1)
                self._pop(t1)
                self.wall_s += t1 - t0
                self._active = False

    # -- event stream --------------------------------------------------------
    def emit(self, event) -> None:
        if not self._live():
            return
        if isinstance(event, ev.SpanStart):
            layer = SPAN_LAYERS.get(event.name)
            if layer is not None and not self._replaying:
                self._push(layer, event.t)
                self._span_frames.append(event.span_id)
                if layer == "shard.refresh":
                    self.counts["shard.refresh_calls"] += 1
        elif isinstance(event, ev.SpanEnd):
            if self._span_frames and self._span_frames[-1] == event.span_id:
                self._span_frames.pop()
                self._pop(event.t)
        elif isinstance(event, ev.SolverCall):
            if SOLVER_LAYERS.get(event.solver) == "hillclimb.solve":
                self.counts["hillclimb.solver_calls"] += 1
            if self._replaying and self._foreign:
                self.counts["pool.worker_solve_s"] += event.seconds
        elif isinstance(event, ev.CandidateEvaluation):
            if event.context.startswith("ptas"):
                self.counts["ptas.sets_evaluated"] += event.count
        elif isinstance(event, ev.DistsimRound):
            self.counts["distsim.rounds"] += 1
            self.counts["distsim.messages"] += event.sent
        elif isinstance(event, ev.ShardMerge):
            self.counts["shard.cells"] += event.cells_solved
            self.counts["shard.halo_readers"] += event.halo_readers
            self.counts["shard.boundary_repairs"] += event.boundary_repairs
        elif isinstance(event, ev.PoolDispatch):
            self.counts["pool.tasks"] += event.tasks
            self.counts["pool.payload_bytes"] += event.payload_bytes
            self.counts["pool.spawns"] += event.spawned
            self._collect_s += event.collect_s
        elif isinstance(event, ev.PoolRecovery):
            self.counts["pool.respawns"] += int(event.respawned)
        elif isinstance(event, ev.ReaderFailed):
            self.counts["faults.readers_failed"] += 1
        elif isinstance(event, ev.ReadMissed):
            self.counts["faults.reads_missed"] += event.tags_missed
        elif isinstance(event, ev.ScheduleDegraded):
            self.counts["faults.degradations"] += 1
        elif isinstance(event, ev.SlotEnd):
            if event.tags_read == 0:
                self.counts["mcs.zero_progress_slots"] += 1

    # -- wrappers ------------------------------------------------------------
    def _replay(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(payload, *args, **kwargs):
            self._replaying += 1
            self._foreign = payload is not None and payload[2] != os.getpid()
            try:
                return fn(payload, *args, **kwargs)
            finally:
                self._replaying -= 1
                self._foreign = False

        return wrapper

    def _solvers(self, get_solver: Callable) -> Callable:
        @functools.wraps(get_solver)
        def wrapper(name, **kwargs):
            solver = get_solver(name, **kwargs)
            layer = SOLVER_LAYERS.get(name)
            return solver if layer is None else self.frame(solver, layer)

        return wrapper

    def _tally(self, key: str, size_key: str = "", arg: int = -1) -> Callable:
        """A frame ``count`` hook: one *key* per call and, with *size_key*,
        the length of positional argument *arg*."""
        def count(args, kwargs):
            self.counts[key] += 1
            if size_key:
                self.counts[size_key] += len(args[arg])

        return count

    def install(self) -> None:
        """Wrap the program's entry points; :meth:`uninstall` restores them.
        Must run before the program hands out its first solver."""
        from repro.baselines import colorwave
        from repro.core import mcs, oneshot
        from repro.geometry.grid import SpatialHashGrid
        from repro.model import system
        from repro.obs import relay
        from repro.perf import pool
        from repro.perf.backends.numpy_batched import NumpyKernel
        from repro.perf.backends.pure import PureKernel
        from repro.shard import partition, runtime, scale

        self._rebind(oneshot, "get_solver", self._solvers(oneshot.get_solver))
        self._rebind(relay, "replay_events", self._replay(relay.replay_events))
        self._rebind(system, "build_system", self.frame(
            system.build_system, "model.build_system",
            self._tally("model.build_system_calls", "model.tags_built", 3),
        ))
        self._rebind(mcs, "greedy_covering_schedule",
                     self.frame(mcs.greedy_covering_schedule, "mcs.driver"))
        self._rebind(scale, "run_scale_schedule",
                     self.frame(scale.run_scale_schedule, "scale.driver"))
        self._rebind(colorwave, "colorwave_covering_schedule", self.frame(
            colorwave.colorwave_covering_schedule, "colorwave.schedule"))

        self._patch(partition.ShardPartition, "from_arrays", "shard.partition",
                    classmethod_=True)
        self._patch(runtime.ShardRuntime, "solve_slot", "shard.solve_slot")
        self._patch(runtime.ShardRuntime, "retire", "shard.retire")
        climbs = self._tally("perf.climb_calls", "perf.climb_candidates", 6)
        for kernel in (PureKernel, NumpyKernel):
            self._patch(kernel, "climb_weights_with", "perf.climb", climbs)
        self._patch(SpatialHashGrid, "__init__", "geometry.grid")
        queries = self._tally("geometry.grid_queries")
        for name in ("query_radius", "count_in_radius", "pairs_within"):
            self._patch(SpatialHashGrid, name, "geometry.grid", queries)
        self._patch(pool.WorkerPool, "start", "pool.dispatch")
        self._patch(pool.WorkerPool, "close", "pool.dispatch")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _rebind(self, module, name: str, new: Callable) -> None:
        """Point every ``repro`` module binding of ``module.name`` at *new*."""
        old = getattr(module, name)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, key, new)
                    self._undo.append(functools.partial(setattr, mod, key, old))

    def _patch(self, cls, name: str, layer: str, count=None,
               classmethod_: bool = False) -> None:
        # a method the program no longer defines leaves its layer at 0
        if name not in vars(cls):
            return
        old = vars(cls)[name]
        fn = old.__func__ if classmethod_ else old
        new = self.frame(fn, layer, count)
        setattr(cls, name, classmethod(new) if classmethod_ else new)
        self._undo.append(functools.partial(setattr, cls, name, old))

    # -- report --------------------------------------------------------------
    def metrics(self, untraced_wall_s: float) -> Dict[str, dict]:
        """Every :data:`PER_LAYER` metric for the traced passes so far."""
        values: Dict[str, float] = {k: 0.0 for k in PER_LAYER}
        values.update(self.counts)
        for layer, seconds in self.self_s.items():
            if layer != "pool.dispatch":
                values[layer + "_s"] = seconds
        pool_self = self.self_s.get("pool.dispatch", 0.0)
        collect = min(self._collect_s, pool_self)
        values["pool.collect_s"] = collect
        values["pool.dispatch_s"] = pool_self - collect
        values["obs.traced_wall_s"] = self.wall_s
        values["obs.trace_overhead_frac"] = (
            (self.wall_s - untraced_wall_s) / untraced_wall_s
        )
        return {
            k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()
        }
