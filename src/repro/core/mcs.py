"""Greedy covering-schedule driver (Section III, Definitions 4–5).

The backbone of the paper's scheduling scheme: at every time-slot pick a
(near-)maximum weighted feasible scheduling set via the plugged-in one-shot
solver, serve its well-covered tags, retire them, repeat until no unread
*coverable* tag remains.  Theorem 1: with an exact MWFS per slot this greedy
loop is a ``log n``-approximation of the minimum covering schedule.

Tags outside every interrogation region (outside the monitored region M of
Definition 4) can never be read by any schedule; they are reported in
``uncovered_tags`` and do not block termination.

Termination is guaranteed: any unread coverable tag admits a positive-weight
singleton set, so if the solver returns a zero-weight set while coverable
tags remain (heuristics can), the driver activates the best singleton
instead — this never changes what an exact solver would do and keeps every
heuristic comparable on the same footing.

``read_mode``:
    ``"all"``    — a slot serves every well-covered tag of its active set
                   (the paper's weight semantics; used for Figures 6–7);
    ``"single"`` — each operational reader serves at most one tag per slot
                   (the strict "able to read at least one tag" slot sizing).

Fault tolerance (``docs/robustness.md``): passing ``faults=FaultPlan(...)``
(and optionally ``policy=FaultPolicy(...)``) hardens the loop against the
non-ideal world — reader crashes and flaky activations applied at the slot
boundary, false-negative reads retried via ACK-based retirement, heartbeat
suspicion excluding down readers from candidate sets, per-slot solver
deadlines degrading to cheaper policies instead of stalling, and a stall
guard terminating with :attr:`ScheduleOutcome.stalled` when no progress is
possible.  With ``faults=None`` the loop is bit-identical to the historical
default path.

Faults compose with the scale tier: passing both ``faults=`` and ``shard=``
runs the fault world through the sharded engine — per-cell degraded
subsystems over unsuspected readers, suspicion masks shipped inside the
deterministic per-cell payloads (worker count still cannot change results),
and confirmed permanent crashes applied as an incremental partition refresh
(``shard.refresh`` span) that re-buckets orphaned tags and rebuilds only
the dirtied cells.  Trivial partitions route through the unsharded fault
branch, keeping ``cells == 1`` bit-identical to ``shard=None``.
"""

from __future__ import annotations

import inspect
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from repro.core.oneshot import OneShotResult, OneShotSolver
from repro.faults import FaultInjector, FaultPlan, FaultPolicy
from repro.linklayer.session import InventoryResult, run_inventory_session
from repro.model.collisions import rrc_blocked_tags, rtc_victims
from repro.model.state import ReadState
from repro.model.system import RFIDSystem, build_system
from repro.obs.events import (
    CollisionTally,
    ReaderFailed,
    ReadMissed,
    ScheduleDegraded,
    ScheduleDone,
    SlotEnd,
    SlotStart,
    SolverDeadline,
    StageTiming,
    get_recorder,
)
from repro.obs.spans import span
from repro.perf.backends import kernel_for
from repro.perf.slotdelta import ScheduleContext
from repro.shard.partition import ShardPartition
from repro.shard.runtime import ShardRuntime
from repro.shard.spec import ShardSpec
from repro.util.rng import RngLike, as_rng


@dataclass(frozen=True)
class SlotRecord:
    """What happened in one time-slot."""

    slot: int
    active: np.ndarray
    tags_read: np.ndarray
    weight: int
    solver_meta: dict = field(default_factory=dict)
    inventory: Optional[InventoryResult] = None

    def __post_init__(self) -> None:
        # Schedule history is shared with analysis code; freeze the arrays
        # so nothing can mutate it through the dataclass.
        for name in ("active", "tags_read"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            if arr.flags.writeable:
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_read(self) -> int:
        """Tags served in this slot."""
        return int(len(self.tags_read))


class ScheduleOutcome(str, Enum):
    """How a covering schedule run terminated.

    ``complete``  — every coverable tag was read (the only outcome the ideal
    fault-free world can produce before the slot cap);
    ``exhausted`` — the ``max_slots`` cap fired with coverable tags unread;
    ``stalled``   — the stall guard fired: ``max_stall_slots`` consecutive
    slots confirmed zero reads, so under the current fault regime no further
    progress was possible (e.g. the only covering reader crashed
    permanently, or every read is being lost).
    """

    complete = "complete"
    exhausted = "exhausted"
    stalled = "stalled"


@dataclass(frozen=True)
class ScheduleResult:
    """A complete covering schedule.

    ``outcome`` defaults from ``complete`` when not supplied (``complete`` →
    :attr:`ScheduleOutcome.complete`, else :attr:`ScheduleOutcome.exhausted`)
    so baseline drivers that predate the fault layer keep constructing
    results unchanged.  ``fault_trace`` carries the injector's deterministic
    trace fingerprint when a :class:`~repro.faults.FaultPlan` was active,
    else ``None``.
    """

    slots: List[SlotRecord]
    tags_read_total: int
    uncovered_tags: np.ndarray
    complete: bool
    outcome: Optional[ScheduleOutcome] = None
    fault_trace: Optional[Tuple] = None

    def __post_init__(self) -> None:
        if self.outcome is None:
            derived = (
                ScheduleOutcome.complete if self.complete
                else ScheduleOutcome.exhausted
            )
            object.__setattr__(self, "outcome", derived)

    @property
    def size(self) -> int:
        """Size of the covering schedule — number of time-slots
        (Definition 4)."""
        return len(self.slots)

    @property
    def total_micro_slots(self) -> int:
        """Total link-layer duration (max-per-slot summed), when inventory
        sessions were simulated."""
        return sum(s.inventory.duration for s in self.slots if s.inventory)

    def reads_per_slot(self) -> List[int]:
        """Tags served per slot, in slot order."""
        return [s.num_read for s in self.slots]


def _best_singleton(
    system: RFIDSystem,
    unread: np.ndarray,
    context: Optional[ScheduleContext] = None,
) -> Optional[int]:
    """Reader covering the most unread tags, or None if nothing is covered.
    Popcounts over the packed coverage words replace the ``(m, n)`` mask
    product; ties break to the lowest reader id, as before.  An incremental
    context already maintains exactly these counts, so they are read off for
    free.  The cold path goes through the ambient
    :class:`~repro.perf.backends.WeightKernel` (both backends share the
    same vectorised packed scan, so the counts are backend-invariant)."""
    if context is not None:
        counts = context.remaining_counts
    else:
        counts = kernel_for(system).covered_counts(unread)
    if counts.size == 0 or counts.max() == 0:
        return None
    return int(np.argmax(counts))


class _FaultRuntime:
    """Mutable per-schedule state of the fault-tolerant driver.

    Owns the :class:`~repro.faults.FaultInjector` (the deterministic fault
    world), heartbeat suspicion, the cached reduced candidate systems, and
    the solver-deadline degradation ladder.  Lives entirely on the
    ``faults is not None`` branch of :func:`greedy_covering_schedule`; the
    default path never constructs one.
    """

    def __init__(
        self,
        system: RFIDSystem,
        faults: FaultPlan,
        policy: FaultPolicy,
        solver: OneShotSolver,
    ) -> None:
        self.system = system
        self.policy = policy
        self.injector = FaultInjector(faults, system.num_readers, system.num_tags)
        self._consec = np.zeros(system.num_readers, dtype=np.int64)
        self.suspected = np.zeros(system.num_readers, dtype=bool)
        self._failed = np.zeros(system.num_readers, dtype=bool)
        self._subsystems: dict = {}
        # degradation ladder: primary -> optional fallback -> singleton
        self._ladder = ["primary"]
        if policy.fallback_solver is not None:
            self._ladder.append("fallback")
        self._ladder.append("singleton")
        self._level = 0
        self._deadline_misses = 0
        self._fallback: Optional[OneShotSolver] = None
        fb = policy.fallback_solver
        self._names = {
            "primary": getattr(solver, "__name__", "primary"),
            "fallback": fb if isinstance(fb, str)
            else getattr(fb, "__name__", "fallback"),
            "singleton": "singleton",
        }

    # -- slot boundary -------------------------------------------------
    def begin_slot(self, slot: int, rec) -> np.ndarray:
        """Draw the slot's failure mask, advance heartbeat suspicion, emit
        ``ReaderFailed`` on each rising edge; returns the failed mask."""
        failed = self.injector.failed_mask(slot)
        self._failed = failed
        self._consec = np.where(failed, self._consec + 1, 0)
        now = self._consec >= self.policy.heartbeat_timeout
        if rec.enabled:
            newly = now & ~self.suspected
            if newly.any():
                for r in np.flatnonzero(newly):
                    rec.emit(
                        ReaderFailed(
                            slot=slot,
                            reader=int(r),
                            missed_heartbeats=int(self._consec[r]),
                        )
                    )
        self.suspected = now
        return failed

    def drop_failed(self, active: np.ndarray) -> np.ndarray:
        """Remove readers whose activation failed this slot (crash or flaky
        activation) from the proposed active set."""
        active = np.asarray(active, dtype=np.int64)
        if active.size == 0:
            return active
        return active[~self._failed[active]]

    # -- candidate view ------------------------------------------------
    def candidate_view(self):
        """The system the solver should see: the full system when nothing
        is suspected, else a reduced system rebuilt over the live readers
        (cached per suspicion pattern).  Returns ``(system, live_ids)``
        where ``live_ids`` is ``None`` for the full system and the reduced
        system is ``None`` when every reader is suspected."""
        if not self.suspected.any():
            return self.system, None
        key = self.suspected.tobytes()
        entry = self._subsystems.get(key)
        if entry is None:
            live = np.flatnonzero(~self.suspected)
            if live.size == 0:
                entry = (None, live)
            else:
                sub = build_system(
                    self.system.reader_positions[live],
                    self.system.interference_radii[live],
                    self.system.interrogation_radii[live],
                    self.system.tag_positions,
                )
                entry = (sub, live)
            self._subsystems[key] = entry
        return entry

    def best_singleton(self, unread, context) -> Optional[int]:
        """Suspicion-aware singleton: the live reader covering the most
        unread tags, or None when no live reader covers anything."""
        if context is not None:
            counts = np.array(context.remaining_counts, dtype=np.int64, copy=True)
        else:
            counts = np.asarray(
                kernel_for(self.system).covered_counts(unread), dtype=np.int64
            ).copy()
        if counts.size == 0:
            return None
        counts[self.suspected] = 0
        if counts.max() == 0:
            return None
        return int(np.argmax(counts))

    def confirmed_permanent(
        self, slot: int, exclude: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Ids of readers both heartbeat-*suspected* and inside a begun
        :class:`~repro.faults.plan.PermanentCrash` — membership changes the
        sharded driver may commit to a partition refresh.  *exclude* masks
        readers an earlier refresh already retired."""
        mask = self.injector.permanent_down_mask(slot) & self.suspected
        if exclude is not None:
            mask = mask & ~np.asarray(exclude, dtype=bool)
        return np.flatnonzero(mask)

    # -- degradation ladder --------------------------------------------
    @property
    def use_singleton(self) -> bool:
        """True once the ladder has degraded to the greedy-singleton rung."""
        return self._ladder[self._level] == "singleton"

    def _resolve_fallback(self) -> OneShotSolver:
        if self._fallback is None:
            fb = self.policy.fallback_solver
            if callable(fb):
                self._fallback = fb
            else:
                from repro.core.oneshot import get_solver

                self._fallback = get_solver(fb)
        return self._fallback

    def note_solver_time(self, slot: int, seconds: float, rec) -> None:
        """Check *seconds* against the current exponential-backoff budget;
        on a miss emit ``SolverDeadline``, and after ``deadline_retries``
        consecutive misses step one rung down the ladder (emitting
        ``ScheduleDegraded``).  Late results are still used for their own
        slot — only future slots solve cheaper."""
        deadline = self.policy.solver_deadline_s
        if deadline is None:
            return
        budget = deadline * (self.policy.backoff_factor ** self._deadline_misses)
        if seconds <= budget:
            self._deadline_misses = 0
            return
        if rec.enabled:
            rec.emit(
                SolverDeadline(
                    slot=slot,
                    solver=self._names[self._ladder[self._level]],
                    seconds=float(seconds),
                    budget_s=float(budget),
                )
            )
        self._deadline_misses += 1
        if (
            self._deadline_misses > self.policy.deadline_retries
            and self._level < len(self._ladder) - 1
        ):
            frm = self._ladder[self._level]
            self._level += 1
            self._deadline_misses = 0
            if rec.enabled:
                rec.emit(
                    ScheduleDegraded(
                        slot=slot,
                        from_policy=self._names[frm],
                        to_policy=self._names[self._ladder[self._level]],
                    )
                )

    # -- slot solve ----------------------------------------------------
    def propose_active(
        self,
        slot: int,
        solver: OneShotSolver,
        takes_context: bool,
        unread: np.ndarray,
        rng,
        context,
        rec,
    ):
        """One fault-aware solve: pick the active set for *slot* through the
        current ladder rung over the live candidate view.  Returns
        ``(active, meta)`` with ``active`` in full-system reader ids."""
        if self.use_singleton:
            best = self.best_singleton(unread, context)
            if best is None:
                return np.empty(0, dtype=np.int64), {"solver": "singleton"}
            return (
                np.asarray([best], dtype=np.int64),
                {"solver": "singleton"},
            )
        solve_sys, live = self.candidate_view()
        if solve_sys is None:  # every reader currently suspected
            return np.empty(0, dtype=np.int64), {"solver": "none"}
        rung = self._ladder[self._level]
        lsolver = solver if rung == "primary" else self._resolve_fallback()
        t0 = time.perf_counter()
        if rung == "primary" and takes_context and live is None:
            result = lsolver(solve_sys, unread, rng, context=context)
        else:
            result = lsolver(solve_sys, unread, rng)
        self.note_solver_time(slot, time.perf_counter() - t0, rec)
        active = result.active if live is None else live[result.active]
        meta = dict(result.meta)
        if rung != "primary":
            meta["ladder"] = rung
        return np.asarray(active, dtype=np.int64), meta


def greedy_covering_schedule(
    system: RFIDSystem,
    solver: OneShotSolver,
    state: Optional[ReadState] = None,
    max_slots: Optional[int] = None,
    read_mode: str = "all",
    linklayer: Optional[str] = None,
    seed: RngLike = None,
    incremental: bool = False,
    faults: Optional[FaultPlan] = None,
    policy: Optional[FaultPolicy] = None,
    max_stall_slots: Optional[int] = None,
    shard: Optional[ShardSpec] = None,
) -> ScheduleResult:
    """Run the greedy covering-schedule loop with the given one-shot solver.

    Parameters
    ----------
    solver:
        Any :data:`~repro.core.oneshot.OneShotSolver` (from
        :func:`~repro.core.oneshot.get_solver` or custom).
    state:
        Optional pre-existing :class:`ReadState` (e.g. to resume a partially
        served population); mutated in place.
    max_slots:
        Safety cap; default ``4·n + 64`` slots.
    read_mode:
        ``"all"`` or ``"single"`` (see module docstring).
    linklayer:
        ``None`` (no micro-slot accounting), ``"aloha"`` or ``"treewalk"``.
    incremental:
        Opt into the cross-slot pruning tier: a
        :class:`~repro.perf.slotdelta.ScheduleContext` maintains the unread
        mask and per-reader remaining counts across slots and is passed to
        solvers that accept a ``context`` keyword, which may then drop
        retired readers from their candidate pools and warm-start from the
        previous slot.  Per-slot weights and tags-read sequences are
        identical to the default path; work counters (``sets_evaluated``)
        and wall-clock may shrink (``docs/performance.md``).
    faults:
        Optional :class:`~repro.faults.FaultPlan` — a seeded, deterministic
        fault world (reader crashes, flaky activations, imperfect reads)
        applied at the slot boundary.  Engages ACK-based retirement (a tag
        is retired only when its read is confirmed; missed reads are retried
        in later slots), heartbeat suspicion (readers failing
        ``policy.heartbeat_timeout`` consecutive slots are excluded from
        candidate sets until they recover), and the stall guard.  With
        ``faults=None`` the loop is bit-identical to the historical default
        path.  See ``docs/robustness.md``.
    policy:
        Optional :class:`~repro.faults.FaultPolicy` tuning the tolerance
        machinery (heartbeat timeout, per-slot solver deadline with
        exponential backoff and the primary → fallback → singleton
        degradation ladder, stall limit).  Passing a policy without a plan
        engages the fault path with an empty :class:`FaultPlan` — useful for
        deadline/stall enforcement in a fault-free world.
    max_stall_slots:
        Terminate with :attr:`ScheduleOutcome.stalled` after this many
        consecutive slots confirming zero reads.  Defaults to
        ``policy.max_stall_slots`` when the fault path is engaged, else off.
    shard:
        Optional :class:`~repro.shard.spec.ShardSpec` engaging the scale
        tier (``docs/scale.md``): the system is partitioned into spatial
        cells with one-ring halos, each slot solves the live cells
        independently (concurrently when ``spec.workers`` asks for it) and
        merges their owned activations through the deterministic
        boundary-reconciliation pass.  ``ShardSpec(cells=1)`` (or any
        deployment collapsing to one cell) is bit-identical to the
        unsharded driver.  Well-covered extraction, the singleton fallback
        and retirement still run on the full system, so coverage guarantees
        are unchanged.  Composes with ``faults``/``policy``: affected cells
        solve degraded subsystems over their unsuspected local readers, and
        confirmed permanent crashes trigger an incremental partition
        refresh when ``policy.partition_refresh`` is on (``docs/scale.md``
        and ``docs/robustness.md``).
    """
    if read_mode not in ("all", "single"):
        raise ValueError(f"read_mode must be 'all' or 'single', got {read_mode!r}")
    rng = as_rng(seed)
    if policy is not None and faults is None:
        faults = FaultPlan()
    fault_rt: Optional[_FaultRuntime] = None
    if faults is not None:
        fault_rt = _FaultRuntime(
            system, faults, policy if policy is not None else FaultPolicy(), solver
        )
    stall_limit = max_stall_slots
    if stall_limit is None and fault_rt is not None:
        stall_limit = fault_rt.policy.max_stall_slots
    if state is None:
        state = ReadState(system.num_tags)
    coverable = system.covered_by_any()
    uncovered = np.flatnonzero(~coverable & state.unread_mask)
    cap = max_slots if max_slots is not None else 4 * system.num_readers + 64

    shard_rt: Optional[ShardRuntime] = None
    if shard is not None:
        shard_rt = ShardRuntime(
            ShardPartition.from_system(system, shard),
            initial_unread=state.unread_mask & coverable,
            incremental=incremental,
        )

    context: Optional[ScheduleContext] = None
    solver_takes_context = False
    if incremental:
        context = ScheduleContext(system, state.unread_mask & coverable)
    if incremental or shard is not None:
        try:
            solver_takes_context = (
                "context" in inspect.signature(solver).parameters
            )
        except (TypeError, ValueError):  # builtins / exotic callables
            solver_takes_context = False

    rec = get_recorder()
    slots: List[SlotRecord] = []
    total_read = 0
    stall_run = 0
    # combined tier: fault world executed through the sharded engine; a
    # trivial partition instead routes through the unsharded fault branch
    # below, keeping cells == 1 bit-identical to shard=None
    shard_fault = (
        fault_rt is not None
        and shard_rt is not None
        and not shard_rt.partition.is_trivial
    )
    outcome: Optional[ScheduleOutcome] = None
    # one persistent worker pool for every slot of a sharded run (serial at
    # one worker, absent for trivial partitions; see ShardRuntime.pool_scope)
    pool_cm = (
        shard_rt.pool_scope(solver, solver_takes_context, rec)
        if shard_rt is not None
        else nullcontext()
    )
    with pool_cm, span(
        "mcs.run",
        solver=getattr(solver, "__name__", "solver"),
        faults=fault_rt is not None,
        incremental=incremental,
    ):
        while len(slots) < cap:
            if context is not None:
                if context.num_unread == 0:
                    break
                unread = context.unread
                unread_count = context.num_unread
            else:
                unread = state.unread_mask & coverable
                if not unread.any():
                    break
                unread_count = None
            with span("mcs.slot", slot=len(slots)):
                if rec.enabled:
                    if unread_count is None:
                        unread_count = int(unread.sum())
                    rec.emit(SlotStart(slot=len(slots), unread_tags=unread_count))
                    t_stage = time.perf_counter()
                with span("mcs.solve", slot=len(slots)):
                    if fault_rt is not None:
                        fault_rt.begin_slot(len(slots), rec)
                        if shard_fault:
                            if fault_rt.policy.partition_refresh:
                                dead = fault_rt.confirmed_permanent(
                                    len(slots),
                                    exclude=shard_rt.retired_readers,
                                )
                                if len(dead):
                                    with span(
                                        "shard.refresh",
                                        slot=len(slots),
                                        readers=int(len(dead)),
                                    ):
                                        shard_rt.refresh(dead)
                            active, solver_meta = shard_rt.solve_slot(
                                len(slots), solver, rng, rec,
                                takes_context=solver_takes_context,
                                context=context, unread=unread,
                                suspected=fault_rt.suspected,
                            )
                        else:
                            active, solver_meta = fault_rt.propose_active(
                                len(slots), solver, solver_takes_context,
                                unread, rng, context, rec
                            )
                        active = fault_rt.drop_failed(active)
                        well = system.well_covered_tags(active, unread)
                        if len(well) == 0:
                            # the chosen set reads nothing (all its readers
                            # down, or the solver whiffed) — fall back to the
                            # best live singleton; its activation may itself
                            # fail, yielding a zero-progress slot bounded by
                            # the stall guard.
                            fb = fault_rt.best_singleton(unread, context)
                            if fb is not None:
                                active = fault_rt.drop_failed(
                                    np.asarray([fb], dtype=np.int64)
                                )
                                well = system.well_covered_tags(active, unread)
                            else:
                                active = np.empty(0, dtype=np.int64)
                    else:
                        if shard_rt is not None:
                            active, solver_meta = shard_rt.solve_slot(
                                len(slots), solver, rng, rec,
                                takes_context=solver_takes_context,
                                context=context, unread=unread,
                            )
                        else:
                            if solver_takes_context:
                                result: OneShotResult = solver(
                                    system, unread, rng, context=context
                                )
                            else:
                                result = solver(system, unread, rng)
                            active = result.active
                            solver_meta = dict(result.meta)
                        well = system.well_covered_tags(active, unread)
                        if len(well) == 0:
                            fallback = _best_singleton(system, unread, context)
                            if fallback is None:
                                break  # nothing coverable remains (cannot happen with unread.any())
                            active = np.asarray([fallback], dtype=np.int64)
                            well = system.well_covered_tags(active, unread)

                    if read_mode == "single" and len(well):
                        # keep at most one tag per operational reader
                        cov = system.coverage[np.ix_(well, active)]
                        owner = active[np.argmax(cov, axis=1)]
                        keep = []
                        seen = set()
                        for t, rd in zip(well, owner):
                            if int(rd) not in seen:
                                seen.add(int(rd))
                                keep.append(int(t))
                        well = np.asarray(keep, dtype=np.int64)

                if rec.enabled:
                    rec.emit(
                        StageTiming(
                            slot=len(slots),
                            stage="solve",
                            seconds=time.perf_counter() - t_stage,
                        )
                    )
                    t_stage = time.perf_counter()

                if fault_rt is not None:
                    missed = fault_rt.injector.missed_tags(len(slots), well)
                    if rec.enabled and len(missed):
                        rec.emit(
                            ReadMissed(
                                slot=len(slots), tags_missed=int(len(missed))
                            )
                        )
                    confirmed = (
                        well[~np.isin(well, missed)] if len(missed) else well
                    )
                else:
                    confirmed = well

                inventory = None
                if linklayer is not None:
                    with span("mcs.inventory", slot=len(slots)):
                        if fault_rt is not None:
                            inventory = run_inventory_session(
                                system, active, unread, protocol=linklayer,
                                seed=rng, miss_tags=missed,
                            )
                        else:
                            inventory = run_inventory_session(
                                system, active, unread, protocol=linklayer,
                                seed=rng
                            )
                    if rec.enabled:
                        rec.emit(
                            StageTiming(
                                slot=len(slots),
                                stage="inventory",
                                seconds=time.perf_counter() - t_stage,
                            )
                        )

                if rec.enabled:
                    rec.emit(
                        CollisionTally(
                            slot=len(slots),
                            rrc_blocked=int(
                                len(rrc_blocked_tags(system, active, unread))
                            ),
                            rtc_silenced=int(len(rtc_victims(system, active))),
                        )
                    )
                    t_stage = time.perf_counter()

                with span("mcs.retire", slot=len(slots)):
                    state.mark_read(confirmed.tolist())
                    if context is not None:
                        context.retire_tags(confirmed)
                        context.note_active(active)
                    if shard_rt is not None:
                        shard_rt.retire(confirmed)
                if rec.enabled:
                    rec.emit(
                        StageTiming(
                            slot=len(slots),
                            stage="retire",
                            seconds=time.perf_counter() - t_stage,
                        )
                    )
                total_read += int(len(confirmed))
                if rec.enabled:
                    rec.emit(
                        SlotEnd(
                            slot=len(slots),
                            tags_read=int(len(confirmed)),
                            weight=int(len(well)),
                            active_readers=int(len(active)),
                        )
                    )
                slots.append(
                    SlotRecord(
                        slot=len(slots),
                        active=active,
                        tags_read=confirmed,
                        weight=int(len(well)),
                        solver_meta=solver_meta,
                        inventory=inventory,
                    )
                )
            if stall_limit is not None:
                stall_run = stall_run + 1 if len(confirmed) == 0 else 0
                if stall_run >= stall_limit:
                    outcome = ScheduleOutcome.stalled
                    break

        remaining = state.unread_mask & coverable
        complete = not bool(remaining.any())
        if outcome is None:
            outcome = (
                ScheduleOutcome.complete if complete else ScheduleOutcome.exhausted
            )
        if rec.enabled:
            rec.emit(
                ScheduleDone(
                    slots=len(slots), tags_read=total_read, complete=complete
                )
            )
    return ScheduleResult(
        slots=slots,
        tags_read_total=total_read,
        uncovered_tags=uncovered,
        complete=complete,
        outcome=outcome,
        fault_trace=fault_rt.injector.trace_fingerprint() if fault_rt else None,
    )
