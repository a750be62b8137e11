"""Array-first covering-schedule driver for paper-overflowing deployments.

The MCS driver (:func:`repro.core.mcs.greedy_covering_schedule`) builds a
full :class:`~repro.model.system.RFIDSystem` — dense coverage and conflict
matrices — which is the right tool up to a few thousand readers.  The
10⁴-reader / 10⁶-tag scale tier cannot afford ``n × n`` and ``m × n`` dense
global state, so :func:`run_scale_schedule` runs the same slot loop
(:func:`repro.core.slotloop.run_slots`) over a *sparse world*:

* the deployment is partitioned by :class:`~repro.shard.partition.
  ShardPartition` straight from coordinate/radius arrays — only the
  per-cell subsystems are ever materialised densely, and each is small by
  the interaction-radius sizing rule;
* each slot's active set comes from :class:`~repro.shard.runtime.
  ShardRuntime` (cell solves plus boundary reconciliation), exactly as in
  the sharded MCS driver, and the singleton fallback is the runtime's best
  owned reader;
* the global well-covered verification (Definition 1) is computed sparsely:
  per-active-reader tag lookups through a
  :class:`~repro.geometry.grid.SpatialHashGrid` give exact coverage counts,
  and RTc suppression is a dense check only over the *active* readers;
* retirement updates the per-cell contexts through
  :meth:`~repro.shard.runtime.ShardRuntime.retire` — one searchsorted per
  live owner cell, never a scan of the 10⁶-tag population per cell.

Because the loop is shared, a scale run emits the same driver events,
stage timings and ``mcs.*`` spans as an MCS run, composes with
``faults=FaultPlan(...)`` through the same fault wrapper
(``docs/robustness.md``), and stops when the partition holds no unread
tag a live reader covers.  ``BENCH_scale.json`` records validate against
the ordinary schema (family ``scale``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.slotloop import SlotFaults, run_slots
from repro.deployment.generators import uniform_deployment
from repro.deployment.radii import sample_radii
from repro.faults import FaultPlan, FaultPolicy
from repro.geometry.grid import SpatialHashGrid
from repro.obs.events import get_recorder
from repro.perf.slotdelta import accepts_context
from repro.shard.partition import ShardPartition
from repro.shard.runtime import ShardRuntime
from repro.shard.spec import ShardSpec
from repro.util.rng import RngLike, as_rng


@dataclass(frozen=True)
class ScaleDeployment:
    """Parameters of a pinned-seed uniform scale deployment.

    Mirrors :class:`~repro.deployment.scenario.Scenario`'s fields but
    materialises raw arrays instead of an :class:`~repro.model.system.
    RFIDSystem` — the scale tier never builds the global dense matrices.
    """

    num_readers: int
    num_tags: int
    side: float
    lambda_interference: float = 10.0
    lambda_interrogation: float = 5.0
    seed: int = 0

    def materialize(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Draw the deployment: ``(reader_positions, interference_radii,
        interrogation_radii, tag_positions)``.  One seeded stream drives
        positions then radii, so equal parameters give equal arrays."""
        rng = as_rng(self.seed)
        placement = uniform_deployment(
            self.num_readers, self.num_tags, side=self.side, seed=rng
        )
        interference, interrogation = sample_radii(
            self.num_readers,
            self.lambda_interference,
            self.lambda_interrogation,
            seed=rng,
        )
        return (
            placement.reader_positions,
            interference,
            interrogation,
            placement.tag_positions,
        )


@dataclass(frozen=True)
class ScaleSlotRecord:
    """One slot of a scale schedule (ids elided — at 10⁶ tags the schedule
    history keeps counts, not per-tag arrays)."""

    slot: int
    active_readers: int
    tags_read: int
    cells_solved: int
    boundary_repairs: int


@dataclass(frozen=True)
class ScaleScheduleResult:
    """Outcome of :func:`run_scale_schedule`.

    ``outcome`` is ``"complete"`` / ``"exhausted"`` / ``"stalled"``
    (mirroring :class:`~repro.core.mcs.ScheduleOutcome`, kept a plain
    string here so the scale tier stays import-free of the dense driver);
    it defaults to ``None`` so pre-fault constructors stay valid, and
    :func:`run_scale_schedule` always fills it.
    """

    slots: List[ScaleSlotRecord]
    tags_read_total: int
    complete: bool
    num_cells: int
    uncoverable_tags: int
    outcome: Optional[str] = None

    @property
    def size(self) -> int:
        """Number of time-slots executed."""
        return len(self.slots)


class _ArrayWorld:
    """The slot loop's world over a partition, verified sparsely (the world
    interface is described in :mod:`repro.core.slotloop`)."""

    linklayer = None

    def __init__(self, runtime: ShardRuntime, solver, arrays) -> None:
        self.runtime = runtime
        self.solver = solver
        self.rec = get_recorder()
        self.rpos, self.interference, self.interrogation, tpos = arrays
        self.num_readers = len(self.rpos)
        m = len(tpos)
        self.unread = runtime.partition.owner_of_tag >= 0
        self._counts = np.zeros(m, dtype=np.int32)
        self._owner = np.zeros(m, dtype=np.int64)
        self._grid = SpatialHashGrid(
            tpos, cell_size=max(float(self.interrogation.max()), 1.0)
        )
        self._tally = (0, 0)
        self.retired_readers = runtime.retired_readers
        self.refresh = runtime.refresh

    @property
    def num_unread(self) -> int:
        return self.runtime.num_unread

    @property
    def complete(self) -> bool:
        return not bool(self.unread.any())

    def propose(self, slot: int, rng, suspected):
        return self.runtime.solve_slot(
            slot, self.solver, rng, self.rec, suspected=suspected
        )

    def verify(self, active: np.ndarray) -> np.ndarray:
        """Exact well-covered tags of *active* (Definition 1), sparsely:
        per-active-reader grid lookups for coverage, a dense directed RTc
        check over just the active set.  Keeps the slot's collision
        tallies for :meth:`collisions`."""
        self._tally = (0, 0)
        if not len(active):
            return np.empty(0, dtype=np.int64)
        pos = self.rpos[active]
        diff = pos[:, None, :] - pos[None, :, :]
        in_range = (diff * diff).sum(axis=-1) <= self.interference[active] ** 2
        np.fill_diagonal(in_range, False)
        suffering = in_range.any(axis=1)
        counts, owner = self._counts, self._owner  # scratch over all tags
        touched_parts: List[np.ndarray] = []
        for i, a in enumerate(active):
            hits = self._grid.query_radius(
                self.rpos[a], float(self.interrogation[a])
            )
            if hits.size:
                counts[hits] += 1
                owner[hits] = i  # local index into the active set
                touched_parts.append(hits)
        rtc = int(suffering.sum())
        self._tally = (0, rtc)
        if not touched_parts:
            return np.empty(0, dtype=np.int64)
        touched = np.unique(np.concatenate(touched_parts))
        t_counts = counts[touched]
        t_unread = self.unread[touched]
        counts[touched] = 0  # reset scratch for the next slot
        well = touched[t_unread & (t_counts == 1) & ~suffering[owner[touched]]]
        self._tally = (int((t_unread & (t_counts >= 2)).sum()), rtc)
        return well

    def singleton(self, suspected) -> Optional[int]:
        return self.runtime.best_singleton(suspected=suspected)

    def collisions(self, active: np.ndarray) -> Tuple[int, int]:
        # the tallies of the last verify(), which saw exactly *active*
        return self._tally

    def retire(self, confirmed: np.ndarray, active: np.ndarray) -> None:
        self.runtime.retire(confirmed)
        self.unread[confirmed] = False

    def record(self, slot, active, well, confirmed, meta, inventory):
        return ScaleSlotRecord(
            slot=slot, active_readers=int(len(active)),
            tags_read=int(len(confirmed)), cells_solved=int(meta["cells_solved"]),
            boundary_repairs=int(meta["boundary_repairs"]),
        )


def run_scale_schedule(
    deployment: ScaleDeployment,
    spec: ShardSpec,
    solver: str = "ghc",
    seed: RngLike = None,
    max_slots: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    policy: Optional[FaultPolicy] = None,
    max_stall_slots: Optional[int] = None,
) -> ScaleScheduleResult:
    """Run the sparse greedy covering schedule over a scale deployment.

    *solver* is a registry name resolved via
    :func:`repro.core.oneshot.get_solver` and applied per cell.  *spec*
    must yield a non-trivial partition — a deployment that collapses to
    one cell belongs in :func:`repro.core.mcs.greedy_covering_schedule`,
    which this function refuses to duplicate.

    Termination is the shared loop's: a slot that would read nothing
    activates the best owned singleton
    (:meth:`~repro.shard.runtime.ShardRuntime.best_singleton`), which
    always makes positive progress, so a fault-free run ends at full
    coverage or the ``max_slots`` cap (default ``4·n + 64``).

    *faults* engages the deterministic fault world (see the module
    docstring): suspicion-aware solves and fallbacks, confirmed-only
    retirement, partition refresh for confirmed permanent crashes, and
    the stall guard (*max_stall_slots* defaults to
    ``policy.max_stall_slots``; a plan-less *policy* engages the fault
    path with an empty :class:`~repro.faults.FaultPlan`, as in the MCS
    driver).  A permanently crashed sole owner of a tag makes that tag
    unreachable; once the partition holds no other unread tag the run
    ends with ``outcome="stalled"``.
    """
    from repro.core.oneshot import get_solver  # deferred: core imports shard

    arrays = deployment.materialize()
    partition = ShardPartition.from_arrays(*arrays, spec)
    if partition.is_trivial:
        raise ValueError(
            "deployment collapses to a single cell; use "
            "greedy_covering_schedule (optionally with shard=) instead"
        )
    fault_layer = None
    if faults is not None or policy is not None:
        fault_layer = SlotFaults(
            faults, policy, deployment.num_readers, len(arrays[3])
        )
    runtime = ShardRuntime(partition, incremental=True)
    uncoverable = int((partition.owner_of_tag < 0).sum())  # before refreshes
    solver_fn = get_solver(solver)
    world = _ArrayWorld(runtime, solver_fn, arrays)
    # one persistent worker pool for the whole schedule (serial at one
    # worker; see ShardRuntime.pool_scope)
    with runtime.pool_scope(solver_fn, accepts_context(solver_fn), world.rec):
        slots, total_read, complete, outcome = run_slots(
            world, as_rng(seed), max_slots, fault_layer, max_stall_slots
        )
    return ScaleScheduleResult(
        slots=slots,
        tags_read_total=total_read,
        complete=complete,
        num_cells=partition.num_cells,
        uncoverable_tags=uncoverable,
        outcome=outcome,
    )
