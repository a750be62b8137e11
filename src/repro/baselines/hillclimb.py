"""Greedy Hill-Climbing (GHC) baseline, as specified in Section VI.

"At each step, we select a reader to add to current active reader set, in
order to maximize the incremental weight together with other active readers
at this time-slot.  Then we keep adding the reader to the active set one by
one recursively until the weight starts to decrease (the incremental weight
becomes negative) due to various collisions."

GHC does **not** enforce feasibility — it may activate readers that put
others into RTc; the generalised weight oracle (operational-reader rule of
Definition 1) charges it for that, which is the intended handicap of this
baseline.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.oneshot import OneShotResult, make_result
from repro.model.system import RFIDSystem
from repro.perf.backends import kernel_for
from repro.perf.incremental import GeneralizedWeightClimber
from repro.util.rng import RngLike


def greedy_hill_climbing(
    system: RFIDSystem,
    unread: Optional[np.ndarray] = None,
    seed: RngLike = None,  # accepted for interface uniformity; deterministic
    require_feasible: bool = False,
    gain_mode: str = "weight",
    context=None,
    backend: Optional[str] = None,
) -> OneShotResult:
    """One-shot GHC: grow the active set by best incremental gain.

    Parameters
    ----------
    require_feasible:
        When True, only readers independent from the current set are
        eligible (a stricter variant used in ablations); the paper's GHC
        uses False.
    gain_mode:
        ``"weight"`` (default) scores a candidate by the true incremental
        weight ``w(X ∪ {r}) − w(X)`` — the paper's wording, and a strong
        heuristic because the weight oracle already charges for RTc/RRc.
        ``"coverage"`` scores by the candidate's raw new-coverage count and
        only *stops* on an actual weight decrease — a collision-naive
        climber that blunders into interference, closer to how far below
        the proposed algorithms the paper plots GHC.  Kept as an ablation
        (see EXPERIMENTS.md).
    context:
        Optional :class:`~repro.perf.slotdelta.ScheduleContext`.  Retired
        readers are skipped in each scan: a reader covering no unread tag
        adds only interference, so its weight gain is ≤ 0 and its coverage
        gain is 0 — never above the positive-only ``best_gain`` threshold —
        and the climb path is unchanged.
    backend:
        Solver-kernel backend name (``'auto'``/``'pure'``/``'numpy'``;
        ``None`` follows the process selection).  Each scan evaluates the
        whole candidate frontier through the selected
        :class:`~repro.perf.backends.WeightKernel`; taking the first
        maximum (lowest reader id) of the batched gains reproduces the
        strict-improvement scalar scan exactly, so the climb path is
        bit-identical across backends (``docs/backends.md``).
    """
    if gain_mode not in ("weight", "coverage"):
        raise ValueError(f"gain_mode must be 'weight' or 'coverage', got {gain_mode!r}")
    n = system.num_readers
    # The climber carries the once/multi coverage masks and the operational
    # (RTc) state across the whole climb, so each candidate evaluation is a
    # few big-int operations; weight_with(r) is bit-identical to
    # system.weight(active + [r], unread).
    if context is not None:
        climber = GeneralizedWeightClimber(system, unread_bits=context.unread_bits)
    else:
        climber = GeneralizedWeightClimber(system, unread)
    kernel = kernel_for(system, backend)
    current_w = 0
    # Eligible readers: not yet active and (with a context) still live.
    # Ascending ids keep the first-argmax tie-break below.
    eligible = np.ones(n, dtype=bool)
    if context is not None:
        eligible &= context.remaining_counts > 0

    while True:
        cands = np.flatnonzero(eligible).tolist()
        if require_feasible and climber.active:
            cands = kernel.filter_compatible(cands, climber.active)
        if not cands:
            break
        if gain_mode == "weight":
            ws = climber.weights_with_many(cands, kernel)
            gains = ws - current_w
        else:
            gains = climber.new_coverage_many(cands, kernel)
        # First maximum in ascending-id order == the scalar scan's strict
        # (">") improvement winner.
        idx = int(np.argmax(gains))
        best_gain = int(gains[idx])
        if best_gain <= 0:
            break
        best_reader = cands[idx]
        best_weight = int(ws[idx]) if gain_mode == "weight" else None
        if gain_mode == "coverage":
            # Collision-naive: only an actual weight drop stops the climb.
            w_after = climber.weight_with(best_reader)
            if w_after < current_w:
                break
            best_weight = w_after
        climber.add(best_reader)
        eligible[best_reader] = False
        current_w = best_weight

    return make_result(
        system,
        climber.active,
        unread,
        context=context,
        solver="ghc",
        require_feasible=require_feasible,
        gain_mode=gain_mode,
    )
