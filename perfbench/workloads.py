"""The benchmark's workloads: seeded inputs, one timed pass, its certificate.

Every workload draws its deployments (and solver seeds and fault plan) from
the workload seed with numpy: positions uniform in a square,
``R ~ Poisson(lambda_R)`` and ``gamma ~ Poisson(lambda_r)``, both floored
at 1, and ``gamma`` clipped to ``R``.  The program receives only these
arrays.

A *pass* runs the workload once, from arrays to finished schedules, and is
what the runner times, on a clock from :mod:`perfbench.refclock`.  Program
entry points are looked up on their modules at call time, so the tracer's
wrappers (:mod:`perfbench.tracer`) see them.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench import certify
from perfbench.refclock import RefClock
from repro.baselines import colorwave
from repro.core import mcs, oneshot
from repro.experiments.figures import SOLVER_KWARGS
from repro.faults import FaultPlan
from repro.faults.plan import FlakyActivation, PermanentCrash
from repro.model import system as model
from repro.shard import scale
from repro.shard.spec import ShardSpec

Arrays = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def draw_deployment(
    rng: np.random.Generator,
    readers: int,
    tags: int,
    side: float,
    lambda_R: float = 10.0,
    lambda_r: float = 5.0,
) -> Arrays:
    """``(reader_pos, R, gamma, tag_pos)`` drawn from *rng*."""
    reader_pos = rng.uniform(0.0, side, size=(readers, 2))
    tag_pos = rng.uniform(0.0, side, size=(tags, 2))
    R = np.maximum(rng.poisson(lambda_R, size=readers), 1).astype(np.float64)
    gamma = np.maximum(rng.poisson(lambda_r, size=readers), 1).astype(np.float64)
    return reader_pos, R, np.minimum(gamma, R), tag_pos


@dataclass
class Instance:
    """One deployment, its certificate data, and what runs on it."""

    arrays: Arrays
    jobs: List[Tuple[str, int]]  # (scheduler name, solver seed)
    crashes: Optional[Dict[int, int]] = None
    plan: object = None
    dep: certify.Deployment = field(init=False)
    coverable: int = field(init=False)

    def __post_init__(self) -> None:
        self.dep = certify.deployment(*self.arrays)
        self.coverable = int(self.dep.coverable().sum())


@dataclass
class Outcome:
    """One finished schedule: its time, size, reads, and what to check."""

    elapsed: float  # on the pass's clock
    slots: int
    tags_read: int
    coverable: int
    check: Callable[[], None]
    signature: tuple


@dataclass
class Pass:
    """One timed pass over a workload's instances."""

    wall_s: float  # wall seconds
    wall: float = 0.0  # on the pass's clock
    outcomes: List[Outcome] = field(default_factory=list)
    errors: int = 0
    instance_t: List[float] = field(default_factory=list)  # on the clock

    @property
    def slots(self) -> int:
        return sum(o.slots for o in self.outcomes)

    @property
    def tags_read(self) -> int:
        return sum(o.tags_read for o in self.outcomes)

    @property
    def coverable(self) -> int:
        return sum(o.coverable for o in self.outcomes)


class ArrayDeployment:
    """Hands pre-drawn arrays to ``run_scale_schedule``."""

    def __init__(self, arrays: Arrays) -> None:
        self.arrays = arrays
        self.num_readers = len(arrays[0])

    def materialize(self) -> Arrays:
        return self.arrays


def _seeds(seed: int, count: int) -> List[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _schedule_outcome(elapsed, result, inst, solver) -> Outcome:
    return Outcome(
        elapsed=elapsed,
        slots=result.size,
        tags_read=int(result.tags_read_total),
        coverable=inst.coverable,
        check=lambda: certify.certify_schedule(inst.dep, result, solver,
                                               inst.crashes),
        signature=(solver, tuple(result.reads_per_slot()),
                   str(getattr(result.outcome, "value", result.outcome))),
    )


class Workload:
    """Base: subclasses set the sizes and implement :meth:`instances` and
    :meth:`run_instance`."""

    name = ""

    def __init__(self, scale: float = 1.0) -> None:
        # *scale* shrinks every size for the benchmark's own tests
        self.scale = scale
        self.clock = RefClock()

    def size(self, n: int) -> int:
        return max(4, int(round(n * self.scale)))

    def instances(self, seed: int) -> List[Instance]:
        raise NotImplementedError

    def run_instance(self, inst: Instance) -> List[Outcome]:
        raise NotImplementedError

    def workers(self) -> int:
        return 1

    def run_pass(self, instances: List[Instance], clock=None) -> Pass:
        """Time one pass on *clock* (default: a fresh, untimered
        :class:`RefClock`); failures are counted, not raised."""
        self.clock = clock or RefClock()
        t0, u0 = time.perf_counter(), self.clock.now()
        out = Pass(wall_s=0.0)
        for inst in instances:
            self.clock.sample()
            u1 = self.clock.now()
            try:
                out.outcomes.extend(self.run_instance(inst))
            except Exception:  # a raising schedule is a failure, not a crash
                traceback.print_exc(file=sys.stderr)
                out.errors += len(inst.jobs)
            out.instance_t.append(self.clock.now() - u1)
        out.wall = self.clock.now() - u0
        out.wall_s = time.perf_counter() - t0
        return out


class PaperFig67(Workload):
    """Figures 6 and 7 of the paper: every sweep point, every scheduler."""

    name = "paper_fig67"
    POINTS = [(lR, 5.0) for lR in (6.0, 8.0, 10.0, 12.0, 14.0)] + [
        (10.0, lr) for lr in (2.0, 4.0, 6.0, 8.0, 10.0)
    ]
    SCHEDULERS = ("ptas", "centralized", "distributed", "colorwave", "ghc",
                  "ghc_naive")
    REPLICAS = 6  # 10 points x 6 x 6 schedulers = 360 schedules per pass

    def instances(self, seed):
        rng = np.random.default_rng(seed)
        out = []
        for lam_R, lam_r in self.POINTS:
            for _ in range(self.REPLICAS):
                arrays = draw_deployment(rng, self.size(50), self.size(1200),
                                         100.0, lam_R, lam_r)
                base = int(rng.integers(2 ** 31))
                jobs = [(s, base ^ zlib.crc32(s.encode())) for s in self.SCHEDULERS]
                out.append(Instance(arrays, jobs))
        return out

    def run_instance(self, inst):
        sys_ = model.build_system(*inst.arrays)
        out = []
        for name, seed in inst.jobs:
            t0 = self.clock.now()
            if name == "colorwave":
                result = colorwave.colorwave_covering_schedule(sys_, seed=seed)
            else:
                solver = oneshot.get_solver(name, **SOLVER_KWARGS[name])
                result = mcs.greedy_covering_schedule(sys_, solver, seed=seed)
            out.append(_schedule_outcome(self.clock.now() - t0, result,
                                         inst, name))
        return out


class GhcDense(Workload):
    """Unsharded GHC schedules on dense 500-reader deployments."""

    name = "ghc_dense"
    DEPLOYMENTS = 3

    def instances(self, seed):
        rng = np.random.default_rng(seed)
        out = []
        for solver_seed in _seeds(seed, self.DEPLOYMENTS):
            arrays = draw_deployment(rng, self.size(500), self.size(12500),
                                     316.0 * np.sqrt(self.scale))
            out.append(Instance(arrays, [("ghc", solver_seed)]))
        return out

    def run_instance(self, inst):
        sys_ = model.build_system(*inst.arrays)
        (name, seed), = inst.jobs
        t0 = self.clock.now()
        result = mcs.greedy_covering_schedule(sys_, oneshot.get_solver(name),
                                              seed=seed)
        return [_schedule_outcome(self.clock.now() - t0, result, inst, name)]


class ScaleArray(Workload):
    """The array-first scale driver, GHC per auto-sized cell, on the pool."""

    name = "scale_array"
    DEPLOYMENTS = 6  # independent 1250-reader deployments per pass

    def workers(self):
        return min(2, os.cpu_count() or 1)

    def instances(self, seed):
        rng = np.random.default_rng(seed)
        out = []
        for solver_seed in _seeds(seed, self.DEPLOYMENTS):
            arrays = draw_deployment(rng, self.size(1250), self.size(62500),
                                     500.0 * np.sqrt(self.scale))
            out.append(Instance(arrays, [("ghc", solver_seed)]))
        return out

    def run_instance(self, inst):
        (name, seed), = inst.jobs
        t0 = self.clock.now()
        result = scale.run_scale_schedule(
            ArrayDeployment(inst.arrays), ShardSpec(workers=self.workers()),
            solver=name, seed=seed,
        )
        return [Outcome(
            elapsed=self.clock.now() - t0,
            slots=result.size,
            tags_read=int(result.tags_read_total),
            coverable=inst.coverable,
            check=lambda: certify.certify_scale(inst.coverable, result),
            signature=(name, tuple(s.tags_read for s in result.slots),
                       result.outcome),
        )]


class ShardFaults(Workload):
    """A sharded, incremental GHC schedule under an injected fault plan."""

    name = "shard_faults"
    CRASH_SHARE = 0.02
    P_FAIL = 0.1
    MISS_RATE = 0.1

    def instances(self, seed):
        rng = np.random.default_rng(seed)
        n = self.size(2000)
        arrays = draw_deployment(rng, n, self.size(50000),
                                 640.0 * np.sqrt(self.scale))
        dead = rng.choice(n, size=max(1, int(n * self.CRASH_SHARE)),
                          replace=False)
        crashes = {int(r): int(at) for r, at in
                   zip(dead, rng.integers(1, 4, size=len(dead)))}
        faults = tuple(PermanentCrash(r, at) for r, at in sorted(crashes.items()))
        faults += tuple(FlakyActivation(int(r), self.P_FAIL)
                        for r in range(n) if r not in crashes)
        plan_seed, solver_seed = _seeds(seed, 2)
        plan = FaultPlan(reader_faults=faults, miss_rate=self.MISS_RATE,
                         seed=plan_seed % 2 ** 31)
        return [Instance(arrays, [("ghc", solver_seed)], crashes=crashes,
                         plan=plan)]

    def run_instance(self, inst):
        sys_ = model.build_system(*inst.arrays)
        (name, seed), = inst.jobs
        t0 = self.clock.now()
        result = mcs.greedy_covering_schedule(
            sys_, oneshot.get_solver(name), seed=seed,
            shard=ShardSpec(cells=256), faults=inst.plan, incremental=True,
        )
        return [_schedule_outcome(self.clock.now() - t0, result, inst, name)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (PaperFig67(), GhcDense(), ScaleArray(), ShardFaults())
}
