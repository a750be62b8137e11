"""The greedy covering-schedule slot loop (Section III, Definitions 4–5).

Every slot proposes a (near-)maximum weighted feasible scheduling set,
verifies the tags it well-covers, falls back to the best singleton when it
covers none, serves and retires those tags, and the loop repeats until no
reachable unread tag is left (Theorem 1).  The drivers differ only in the
*world* the loop runs over — the dense system of
:func:`repro.core.mcs.greedy_covering_schedule` or the sparse partition of
:func:`repro.shard.scale.run_scale_schedule`.  A world exposes
``num_readers``, ``num_unread`` (reachable unread tags), ``complete``,
``retired_readers`` (``None`` when it cannot refresh), ``linklayer`` and
the slot steps ``propose``, ``verify``, ``singleton``, ``collisions``,
``inventory``, ``retire``, ``refresh`` and ``record``.

Faults are one wrapper, :class:`SlotFaults`; the stall guard, the outcome
rule, every driver event (``SlotStart`` / ``SlotEnd`` / ``CollisionTally``
/ ``StageTiming`` / ``ScheduleDone``) and the ``mcs.slot`` / ``mcs.solve``
/ ``mcs.inventory`` / ``mcs.retire`` spans live here too.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.faults import FaultInjector, FaultPlan, FaultPolicy, HeartbeatMonitor
from repro.obs.events import (
    CollisionTally,
    ReaderFailed,
    ReadMissed,
    ScheduleDone,
    SlotEnd,
    SlotStart,
    StageTiming,
    get_recorder,
)
from repro.obs.spans import span


class SlotFaults:
    """The deterministic fault world around the slot loop: heartbeat
    suspicion (:class:`~repro.faults.HeartbeatMonitor`), dropping readers
    whose activation failed, ACK confirmation of reads, and partition
    refresh on confirmed permanent crashes.  A fault-free run has none; a
    plan-less *policy* engages an empty :class:`FaultPlan` (deadline and
    stall enforcement in a fault-free world)."""

    def __init__(
        self,
        plan: Optional[FaultPlan],
        policy: Optional[FaultPolicy],
        num_readers: int,
        num_tags: int,
    ) -> None:
        self.policy = policy if policy is not None else FaultPolicy()
        self.injector = FaultInjector(
            plan if plan is not None else FaultPlan(), num_readers, num_tags
        )
        self.monitor = HeartbeatMonitor(
            self.injector, self.policy.heartbeat_timeout
        )

    def begin_slot(self, slot: int, world, rec) -> bool:
        """Fold *slot*'s failure draw into suspicion (emitting
        ``ReaderFailed`` per newly suspected reader), then refresh the
        world's partition for confirmed permanent crashes.  Returns whether
        a refresh ran."""
        _, newly = self.monitor.begin_slot(slot)
        if rec.enabled:
            for r in newly:
                rec.emit(
                    ReaderFailed(
                        slot=slot,
                        reader=int(r),
                        missed_heartbeats=int(self.monitor.consecutive_misses[r]),
                    )
                )
        if not self.policy.partition_refresh or world.retired_readers is None:
            return False
        dead = self.monitor.confirmed_permanent(slot, exclude=world.retired_readers)
        if not len(dead):
            return False
        with span("shard.refresh", slot=slot, readers=int(len(dead))):
            world.refresh(dead)
        return True

    def drop_failed(self, active: np.ndarray) -> np.ndarray:
        """*active* without the readers whose activation failed this slot."""
        return active[~self.monitor.failed[active]]

    def confirm(
        self, slot: int, well: np.ndarray, rec
    ) -> Tuple[np.ndarray, np.ndarray]:
        """ACK confirmation: ``(confirmed, missed)`` split of the served
        tags; missed reads stay unread and are retried in later slots."""
        missed = self.injector.missed_tags(slot, well)
        if not len(missed):
            return well, missed
        if rec.enabled:
            rec.emit(ReadMissed(slot=slot, tags_missed=int(len(missed))))
        return well[~np.isin(well, missed)], missed


def _stage_done(rec, slot: int, stage: str, t0: float) -> float:
    """Emit the ``StageTiming`` of *stage* begun at *t0*; returns now."""
    now = time.perf_counter()
    rec.emit(StageTiming(slot=slot, stage=stage, seconds=now - t0))
    return now


def run_slots(
    world,
    rng,
    max_slots: Optional[int] = None,
    faults: Optional[SlotFaults] = None,
    max_stall_slots: Optional[int] = None,
) -> Tuple[List[Any], int, bool, str]:
    """Run the greedy covering-schedule loop over *world*; returns ``(slot
    records, tags read, complete, outcome)``.

    *max_slots* caps the run (default ``4·n + 64``); *max_stall_slots*
    ends it as ``stalled`` after that many consecutive slots confirming no
    read (default ``faults.policy.max_stall_slots``, off without faults).
    The outcome is ``complete``, ``exhausted`` (slot cap) or ``stalled``.
    """
    rec = get_recorder()
    cap = max_slots if max_slots is not None else 4 * world.num_readers + 64
    stall_limit = max_stall_slots
    if stall_limit is None and faults is not None:
        stall_limit = faults.policy.max_stall_slots
    slots: List[Any] = []
    total_read = 0
    stall_run = 0
    stalled = False
    while len(slots) < cap:
        slot = len(slots)
        unread = world.num_unread
        if not unread:
            break
        suspected = None
        with span("mcs.slot", slot=slot):
            if rec.enabled:
                t_stage = time.perf_counter()
            with span("mcs.solve", slot=slot):
                if faults is not None:
                    if faults.begin_slot(slot, world, rec):
                        unread = world.num_unread
                        if not unread:
                            # the refresh orphaned every remaining tag:
                            # no live reader can read on, so the slot
                            # never starts
                            break
                    suspected = faults.monitor.suspected
                if rec.enabled:
                    rec.emit(SlotStart(slot=slot, unread_tags=int(unread)))
                active, meta = world.propose(slot, rng, suspected)
                if faults is not None:
                    active = faults.drop_failed(active)
                well = world.verify(active)
                if not len(well):
                    # the set reads nothing (the solver whiffed, or every
                    # reader in it is down): activate the best live
                    # singleton.  Fault-free it always reads a tag; under
                    # faults it may itself fail, a zero-progress slot that
                    # the stall guard bounds.
                    best = world.singleton(suspected)
                    active = np.asarray(
                        [] if best is None else [best], dtype=np.int64
                    )
                    if faults is not None:
                        active = faults.drop_failed(active)
                    well = world.verify(active)
            if rec.enabled:
                t_stage = _stage_done(rec, slot, "solve", t_stage)
            confirmed, missed = well, None
            if faults is not None:
                confirmed, missed = faults.confirm(slot, well, rec)
            inventory = None
            if world.linklayer is not None:
                with span("mcs.inventory", slot=slot):
                    inventory = world.inventory(active, missed, rng)
                if rec.enabled:
                    _stage_done(rec, slot, "inventory", t_stage)
            if rec.enabled:
                rrc, rtc = world.collisions(active)
                rec.emit(
                    CollisionTally(
                        slot=slot, rrc_blocked=int(rrc), rtc_silenced=int(rtc)
                    )
                )
                t_stage = time.perf_counter()
            with span("mcs.retire", slot=slot):
                world.retire(confirmed, active)
            total_read += int(len(confirmed))
            if rec.enabled:
                _stage_done(rec, slot, "retire", t_stage)
                rec.emit(
                    SlotEnd(
                        slot=slot,
                        tags_read=int(len(confirmed)),
                        weight=int(len(well)),
                        active_readers=int(len(active)),
                    )
                )
            slots.append(world.record(slot, active, well, confirmed, meta, inventory))
        if stall_limit is not None:
            stall_run = stall_run + 1 if len(confirmed) == 0 else 0
            if stall_run >= stall_limit:
                stalled = True
                break
    complete = world.complete
    if rec.enabled:
        rec.emit(
            ScheduleDone(slots=len(slots), tags_read=total_read, complete=complete)
        )
    # stalled: the guard fired, or the world drained with tags unread that
    # no live reader covers
    outcome = "stalled"
    if not stalled and complete:
        outcome = "complete"
    elif not stalled and len(slots) >= cap:
        outcome = "exhausted"
    return slots, total_read, complete, outcome
