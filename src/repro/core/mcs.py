"""Greedy covering-schedule driver over a dense system (Section III,
Definitions 4–5).

The backbone of the paper's scheduling scheme: at every time-slot pick a
(near-)maximum weighted feasible scheduling set via the plugged-in one-shot
solver, serve its well-covered tags, retire them, repeat until no unread
*coverable* tag remains.  Theorem 1: with an exact MWFS per slot this greedy
loop is a ``log n``-approximation of the minimum covering schedule.

The loop itself is :func:`repro.core.slotloop.run_slots`, shared with the
array-first scale driver; this module supplies its dense *world* — an
:class:`~repro.model.system.RFIDSystem` and its :class:`ReadState` — and
the adapter :func:`greedy_covering_schedule`.

Tags outside every interrogation region (outside the monitored region M of
Definition 4) can never be read by any schedule; they are reported in
``uncovered_tags`` and do not block termination.

Termination is guaranteed: any unread coverable tag admits a positive-weight
singleton set, so if the solver returns a set that reads nothing while
coverable tags remain (heuristics can), the loop activates the best
singleton instead — this never changes what an exact solver would do and
keeps every heuristic comparable on the same footing.

``read_mode``:
    ``"all"``    — a slot serves every well-covered tag of its active set
                   (the paper's weight semantics; used for Figures 6–7);
    ``"single"`` — each operational reader serves at most one tag per slot
                   (the strict "able to read at least one tag" slot sizing).

Fault tolerance (``docs/robustness.md``): ``faults=FaultPlan(...)`` (and
optionally ``policy=FaultPolicy(...)``) wraps the loop in
:class:`~repro.core.slotloop.SlotFaults` — crashes and flaky activations at
the slot boundary, ACK-based retirement, heartbeat suspicion, the stall
guard — and the dense world adds the suspicion-reduced candidate system and
the solver-deadline degradation ladder.  With ``faults=None`` the loop is
bit-identical to the historical default path.

Sharding (``docs/scale.md``): a non-trivial ``shard=`` partition makes the
world propose through a :class:`~repro.shard.runtime.ShardRuntime`
(per-cell solves plus boundary reconciliation, suspicion masks inside the
per-cell payloads, partition refresh on confirmed permanent crashes) while
well-covered extraction, the singleton fallback and retirement stay on the
full system.  A partition that collapses to one cell is dropped, so
``cells == 1`` is the unsharded run.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from repro.core.oneshot import OneShotSolver, get_solver
from repro.core.slotloop import SlotFaults, run_slots
from repro.faults import FaultPlan, FaultPolicy
from repro.linklayer.session import InventoryResult, run_inventory_session
from repro.model.collisions import rrc_blocked_tags, rtc_victims
from repro.model.state import ReadState
from repro.model.system import RFIDSystem, build_system
from repro.obs.events import ScheduleDegraded, SolverDeadline, get_recorder
from repro.obs.spans import span
from repro.perf.backends import kernel_for
from repro.perf.slotdelta import ScheduleContext, accepts_context
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
    suspected: Optional[np.ndarray] = None,
) -> Optional[int]:
    """Reader covering the most unread tags, or None if nothing is covered.
    Popcounts over the packed coverage words replace the ``(m, n)`` mask
    product; ties break to the lowest reader id.  An incremental context
    already maintains exactly these counts, so they are read off for free.
    The cold path goes through the ambient
    :class:`~repro.perf.backends.WeightKernel` (both backends share the
    same vectorised packed scan, so the counts are backend-invariant).
    *suspected* readers (heartbeat suspicion) are never chosen."""
    if context is not None:
        counts = context.remaining_counts
    else:
        counts = kernel_for(system).covered_counts(unread)
    if suspected is not None:
        counts = np.where(suspected, 0, counts)
    if counts.size == 0 or counts.max() == 0:
        return None
    return int(np.argmax(counts))


class _Ladder:
    """The fault policy's solver-deadline degradation ladder: primary →
    optional ``fallback_solver`` → greedy singleton.  A solve slower than
    its exponentially backed-off budget emits ``SolverDeadline``; after
    ``deadline_retries`` consecutive misses the ladder steps one rung down
    (``ScheduleDegraded``).  Late results are still used for their own
    slot — only future slots solve cheaper."""

    def __init__(self, solver: OneShotSolver, policy: FaultPolicy) -> None:
        self.policy = policy
        fb = policy.fallback_solver
        # (rung, name reported in events)
        self._rungs = [("primary", getattr(solver, "__name__", "primary"))]
        if fb is not None:
            name = fb if isinstance(fb, str) else getattr(fb, "__name__", "fallback")
            self._rungs.append(("fallback", name))
        self._rungs.append(("singleton", "singleton"))
        self._level = 0
        self._misses = 0
        self._fallback: Optional[OneShotSolver] = None

    @property
    def rung(self) -> str:
        """The current rung: ``primary``, ``fallback`` or ``singleton``."""
        return self._rungs[self._level][0]

    def fallback(self) -> OneShotSolver:
        """The fallback solver, resolved from the registry on first use."""
        if self._fallback is None:
            fb = self.policy.fallback_solver
            if not callable(fb):
                fb = get_solver(fb)
            self._fallback = fb
        return self._fallback

    def note(self, slot: int, seconds: float, rec) -> None:
        """Check one solve's *seconds* against the current budget."""
        deadline = self.policy.solver_deadline_s
        if deadline is None:
            return
        budget = deadline * (self.policy.backoff_factor ** self._misses)
        if seconds <= budget:
            self._misses = 0
            return
        name = self._rungs[self._level][1]
        if rec.enabled:
            rec.emit(
                SolverDeadline(
                    slot=slot, solver=name, seconds=float(seconds),
                    budget_s=float(budget),
                )
            )
        self._misses += 1
        if (
            self._misses > self.policy.deadline_retries
            and self._level < len(self._rungs) - 1
        ):
            self._level += 1
            self._misses = 0
            if rec.enabled:
                rec.emit(
                    ScheduleDegraded(
                        slot=slot, from_policy=name,
                        to_policy=self._rungs[self._level][1],
                    )
                )


class _DenseWorld:
    """The slot loop's world over a dense :class:`RFIDSystem` (the world
    interface is described in :mod:`repro.core.slotloop`).

    Proposes through a direct solver call, the degradation *ladder* (fault
    runs) or the *shard* runtime; verifies, falls back and retires on the
    full system.  The slot's unread mask is computed once per slot.
    """

    def __init__(
        self,
        system: RFIDSystem,
        solver: OneShotSolver,
        state: ReadState,
        coverable: np.ndarray,
        read_mode: str,
        linklayer: Optional[str],
        incremental: bool,
        shard: Optional[ShardRuntime],
        ladder: Optional[_Ladder],
    ) -> None:
        self.system = system
        self.num_readers = system.num_readers
        self.solver = solver
        self.state = state
        self.coverable = coverable
        self.read_mode = read_mode
        self.linklayer = linklayer
        self.context: Optional[ScheduleContext] = None
        self.takes_context = False
        if incremental:
            self.context = ScheduleContext(system, state.unread_mask & coverable)
            self.takes_context = accepts_context(solver)
        self.shard = shard
        self.retired_readers = None if shard is None else shard.retired_readers
        self.refresh = None if shard is None else shard.refresh
        self.ladder = ladder
        self.rec = get_recorder()
        # reduced candidate systems over the unsuspected readers, keyed by
        # suspicion pattern (fault runs only)
        self._subsystems: dict = {}
        self._unread: Optional[np.ndarray] = None

    @property
    def unread(self) -> np.ndarray:
        """This slot's coverable unread mask."""
        if self._unread is None:
            self._unread = (
                self.context.unread if self.context is not None
                else self.state.unread_mask & self.coverable
            )
        return self._unread

    @property
    def num_unread(self) -> int:
        if self.shard is not None:
            return self.shard.num_unread
        if self.context is not None:
            return self.context.num_unread
        return int(np.count_nonzero(self.unread))

    @property
    def complete(self) -> bool:
        return not bool((self.state.unread_mask & self.coverable).any())

    def _candidates(self, suspected):
        """``(system, live_ids)`` the solver should see: the full system
        (``live_ids`` None) when nothing is suspected, else a reduced
        system over the live readers (``None`` when every reader is
        suspected)."""
        if suspected is None or not suspected.any():
            return self.system, None
        key = suspected.tobytes()
        if key not in self._subsystems:
            live = np.flatnonzero(~suspected)
            s = self.system
            self._subsystems[key] = (
                build_system(
                    s.reader_positions[live], s.interference_radii[live],
                    s.interrogation_radii[live], s.tag_positions,
                ) if live.size else None,
                live,
            )
        return self._subsystems[key]

    def propose(self, slot: int, rng, suspected) -> Tuple[np.ndarray, dict]:
        if self.shard is not None:
            return self.shard.solve_slot(
                slot, self.solver, rng, self.rec, suspected=suspected
            )
        rung = "primary" if self.ladder is None else self.ladder.rung
        if rung == "singleton":
            best = self.singleton(suspected)
            active = [] if best is None else [best]
            return np.asarray(active, dtype=np.int64), {"solver": "singleton"}
        system, live = self._candidates(suspected)
        if system is None:  # every reader currently suspected
            return np.empty(0, dtype=np.int64), {"solver": "none"}
        solver, kwargs = self.solver, {}
        if rung == "fallback":
            solver = self.ladder.fallback()
        elif self.takes_context and live is None:
            kwargs["context"] = self.context
        t0 = time.perf_counter()
        result = solver(system, self.unread, rng, **kwargs)
        if self.ladder is not None:
            self.ladder.note(slot, time.perf_counter() - t0, self.rec)
        active = np.asarray(result.active, dtype=np.int64)
        meta = dict(result.meta)
        if rung != "primary":
            meta["ladder"] = rung
        return (active if live is None else live[active]), meta

    def verify(self, active: np.ndarray) -> np.ndarray:
        well = self.system.well_covered_tags(active, self.unread)
        if self.read_mode == "single" and len(well):
            # keep each operational reader's first (lowest-id) tag
            cov = self.system.coverage[np.ix_(well, active)]
            owner = active[np.argmax(cov, axis=1)]
            well = well[np.sort(np.unique(owner, return_index=True)[1])]
        return well

    def singleton(self, suspected) -> Optional[int]:
        return _best_singleton(self.system, self.unread, self.context, suspected)

    def collisions(self, active: np.ndarray) -> Tuple[int, int]:
        return (
            len(rrc_blocked_tags(self.system, active, self.unread)),
            len(rtc_victims(self.system, active)),
        )

    def inventory(self, active, missed, rng) -> InventoryResult:
        return run_inventory_session(
            self.system, active, self.unread, protocol=self.linklayer,
            seed=rng, miss_tags=missed,
        )

    def retire(self, confirmed: np.ndarray, active: np.ndarray) -> None:
        self.state.mark_read(confirmed.tolist())
        if self.context is not None:
            self.context.retire_tags(confirmed)
            self.context.note_active(active)
        if self.shard is not None:
            self.shard.retire(confirmed)
        self._unread = None

    def record(self, slot, active, well, confirmed, meta, inventory):
        return SlotRecord(
            slot=slot, active=active, tags_read=confirmed,
            weight=int(len(well)), solver_meta=meta, inventory=inventory,
        )


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
        refresh when ``policy.partition_refresh`` is on; the run stops as
        ``stalled`` once the partition drains with tags no live reader
        covers (``docs/scale.md`` and ``docs/robustness.md``).
    """
    if read_mode not in ("all", "single"):
        raise ValueError(f"read_mode must be 'all' or 'single', got {read_mode!r}")
    rng = as_rng(seed)
    fault_layer = None
    if faults is not None or policy is not None:
        fault_layer = SlotFaults(
            faults, policy, system.num_readers, system.num_tags
        )
    if state is None:
        state = ReadState(system.num_tags)
    coverable = system.covered_by_any()
    uncovered = np.flatnonzero(~coverable & state.unread_mask)
    shard_rt: Optional[ShardRuntime] = None
    if shard is not None:
        partition = ShardPartition.from_system(system, shard)
        if not partition.is_trivial:
            shard_rt = ShardRuntime(
                partition,
                initial_unread=state.unread_mask & coverable,
                incremental=incremental,
            )
    ladder = None
    if fault_layer is not None and shard_rt is None:
        ladder = _Ladder(solver, fault_layer.policy)
    world = _DenseWorld(
        system, solver, state, coverable, read_mode, linklayer, incremental,
        shard_rt, ladder,
    )
    # one persistent worker pool for every slot of a sharded run (serial
    # at one worker; see ShardRuntime.pool_scope)
    pool = (
        shard_rt.pool_scope(solver, world.takes_context, world.rec)
        if shard_rt is not None
        else nullcontext()
    )
    with pool, span(
        "mcs.run",
        solver=getattr(solver, "__name__", "solver"),
        faults=fault_layer is not None,
        incremental=incremental,
    ):
        slots, total_read, complete, outcome = run_slots(
            world, rng, max_slots, fault_layer, max_stall_slots
        )
    return ScheduleResult(
        slots=slots,
        tags_read_total=total_read,
        uncovered_tags=uncovered,
        complete=complete,
        outcome=ScheduleOutcome(outcome),
        fault_trace=(
            fault_layer.injector.trace_fingerprint() if fault_layer else None
        ),
    )
