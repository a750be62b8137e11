"""Slot-boundary realisation of a :class:`~repro.faults.plan.FaultPlan`.

The injector is the single source of truth for "what actually broke": which
readers are down in slot *t* and which individual tag reads are lost.  Its
draws are a pure function of ``(plan.seed, slot)`` — each slot derives a
fresh generator from a :class:`numpy.random.SeedSequence` keyed by the slot
index, never touching the schedule's own RNG stream — which gives the two
properties the robustness layer is built on:

* **solver independence** — every one-shot solver sees the same degraded
  world at slot *t*, because the failure mask depends only on the slot
  index and a tag's miss draw depends only on ``(slot, tag)``;
* **replayability** — two runs with equal plans produce byte-identical
  fault traces (:meth:`FaultInjector.trace_fingerprint`), which the tests
  pin across all six solvers.

Layering: imports only NumPy and :mod:`repro.faults.plan`, so it sits below
the model layer and the MCS driver can use it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.plan import FaultPlan, FlakyActivation, PermanentCrash


@dataclass(frozen=True)
class SlotFaultRecord:
    """One slot's realised faults: readers down and tag reads lost."""

    slot: int
    failed_readers: Tuple[int, ...]
    missed_tags: Tuple[int, ...]


class FaultInjector:
    """Deterministic runtime for one fault plan over one system size.

    Parameters
    ----------
    plan:
        The validated :class:`~repro.faults.plan.FaultPlan`.
    num_readers, num_tags:
        Population sizes; reader ids referenced by the plan must fit.
    """

    def __init__(self, plan: FaultPlan, num_readers: int, num_tags: int):
        if plan.max_reader() >= num_readers:
            raise ValueError(
                f"fault plan references reader {plan.max_reader()} but the "
                f"system has only {num_readers} readers"
            )
        self._plan = plan
        self._n = int(num_readers)
        self._m = int(num_tags)
        self._flaky = np.zeros(self._n, dtype=np.float64)
        for f in plan.reader_faults:
            if isinstance(f, FlakyActivation):
                # several flaky entries on one reader: failure if any fires
                self._flaky[f.reader] = 1.0 - (1.0 - self._flaky[f.reader]) * (
                    1.0 - f.p_fail
                )
        self._deterministic = tuple(
            f for f in plan.reader_faults if not isinstance(f, FlakyActivation)
        )
        self._has_flaky = bool((self._flaky > 0.0).any())
        self._slot_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._trace: Dict[int, SlotFaultRecord] = {}

    @property
    def plan(self) -> FaultPlan:
        """The plan this injector realises."""
        return self._plan

    # -- per-slot draws -----------------------------------------------------
    def _slot_draws(self, slot: int) -> Tuple[np.ndarray, np.ndarray]:
        """(failed reader mask, per-tag miss uniforms) for *slot*, cached.

        The generator is keyed by ``(plan.seed, slot)`` only; draw order is
        fixed (readers first, then tags) so both arrays are reproducible.
        """
        cached = self._slot_cache.get(slot)
        if cached is not None:
            return cached
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self._plan.seed, spawn_key=(slot,))
        )
        failed = np.zeros(self._n, dtype=bool)
        for f in self._deterministic:
            if f.is_down(slot):
                failed[f.reader] = True
        if self._has_flaky:
            failed |= rng.random(self._n) < self._flaky
        if self._plan.miss_rate > 0.0:
            miss_u = rng.random(self._m)
        else:
            miss_u = np.ones(self._m, dtype=np.float64)
        failed.setflags(write=False)
        miss_u.setflags(write=False)
        self._slot_cache[slot] = (failed, miss_u)
        return failed, miss_u

    def failed_mask(self, slot: int) -> np.ndarray:
        """Read-only boolean mask of readers down during *slot* (crashes,
        transient outages and flaky activations combined)."""
        failed, _ = self._slot_draws(slot)
        self._note(slot, failed_readers=tuple(np.flatnonzero(failed).tolist()))
        return failed

    def permanent_down_mask(self, slot: int) -> np.ndarray:
        """Read-only mask of readers inside a :class:`PermanentCrash` that
        has begun by *slot* — the subset of :meth:`failed_mask` that can
        never recover.  A pure function of the plan (no draws), used by the
        sharded driver to *confirm* a suspected crash before committing to
        an incremental partition refresh: transient and flaky outages must
        keep their cells, permanent ones must hand their orphaned tags to a
        surviving owner."""
        mask = np.zeros(self._n, dtype=bool)
        for f in self._deterministic:
            if isinstance(f, PermanentCrash) and f.is_down(slot):
                mask[f.reader] = True
        mask.setflags(write=False)
        return mask

    def missed_tags(self, slot: int, tags) -> np.ndarray:
        """The subset of *tags* whose reads are lost in *slot*.

        A tag's outcome depends only on ``(plan.seed, slot, tag)``, so the
        same tag served at the same slot misses identically no matter which
        solver proposed the serving set.
        """
        tags = np.asarray(tags, dtype=np.int64).ravel()
        if tags.size == 0 or self._plan.miss_rate <= 0.0:
            missed = tags[:0]
        else:
            _, miss_u = self._slot_draws(slot)
            missed = tags[miss_u[tags] < self._plan.miss_rate]
        self._note(slot, missed_tags=tuple(missed.tolist()))
        return missed

    # -- trace --------------------------------------------------------------
    def _note(self, slot, failed_readers=None, missed_tags=None) -> None:
        prev = self._trace.get(slot)
        record = SlotFaultRecord(
            slot=slot,
            failed_readers=(
                failed_readers
                if failed_readers is not None
                else (prev.failed_readers if prev else ())
            ),
            missed_tags=(
                missed_tags
                if missed_tags is not None
                else (prev.missed_tags if prev else ())
            ),
        )
        self._trace[slot] = record

    @property
    def trace(self) -> List[SlotFaultRecord]:
        """Realised fault records for every slot queried so far, in slot
        order."""
        return [self._trace[s] for s in sorted(self._trace)]

    def trace_fingerprint(self) -> Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...]], ...]:
        """Hashable, byte-comparable rendering of :attr:`trace` — equal
        plans and equal query sequences yield equal fingerprints."""
        return tuple(
            (r.slot, r.failed_readers, r.missed_tags) for r in self.trace
        )


class HeartbeatMonitor:
    """Heartbeat suspicion over an injector's per-slot failure draws.

    A reader that fails ``heartbeat_timeout`` consecutive slots becomes
    *suspected* and should be excluded from candidate sets; suspicion lifts
    the first slot the reader answers again.  This is the only suspicion
    bookkeeping — held by the slot loop's fault wrapper
    (:class:`repro.core.slotloop.SlotFaults`) for both covering-schedule
    drivers — pure state over the injector's draws, no event emission
    (keeping this module below the observability layer); the wrapper emits
    :class:`~repro.obs.events.ReaderFailed` for the newly-suspected ids
    returned from :meth:`begin_slot`.

    Attributes
    ----------
    failed:
        This slot's read-only failure mask (set by :meth:`begin_slot`).
    suspected:
        Current suspicion mask — ``consecutive_misses >= heartbeat_timeout``.
    """

    def __init__(self, injector: FaultInjector, heartbeat_timeout: int) -> None:
        if heartbeat_timeout < 1:
            raise ValueError(
                f"heartbeat_timeout must be >= 1, got {heartbeat_timeout}"
            )
        self.injector = injector
        self.timeout = int(heartbeat_timeout)
        n = injector._n
        self._consec = np.zeros(n, dtype=np.int64)
        self.suspected = np.zeros(n, dtype=bool)
        self.failed = np.zeros(n, dtype=bool)

    @property
    def consecutive_misses(self) -> np.ndarray:
        """Per-reader count of consecutive failed slots (0 = answering)."""
        return self._consec

    def begin_slot(self, slot: int) -> Tuple[np.ndarray, np.ndarray]:
        """Fold *slot*'s failure draw into the suspicion state.

        Returns ``(failed, newly_suspected)``: the slot's failure mask and
        the ids whose suspicion *started* this slot (for event emission).
        """
        failed = self.injector.failed_mask(slot)
        self.failed = failed
        self._consec = np.where(failed, self._consec + 1, 0)
        suspected_now = self._consec >= self.timeout
        newly = np.flatnonzero(suspected_now & ~self.suspected)
        self.suspected = suspected_now
        return failed, newly

    def confirmed_permanent(
        self, slot: int, exclude: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Ids of readers both *suspected* (heartbeat-confirmed) and inside
        a begun :class:`~repro.faults.plan.PermanentCrash` — the membership
        changes that justify a partition refresh.  *exclude* masks readers
        already retired by an earlier refresh."""
        mask = self.injector.permanent_down_mask(slot) & self.suspected
        if exclude is not None:
            mask = mask & ~np.asarray(exclude, dtype=bool)
        return np.flatnonzero(mask)
