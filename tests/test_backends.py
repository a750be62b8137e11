"""Contract tests for the solver-kernel backend layer (``docs/backends.md``).

Three layers of the bit-identity contract are pinned here:

* **kernel equivalence** — every :class:`WeightKernel` method of the
  ``numpy`` backend returns the same integers as the ``pure`` reference on
  random mask states, including the edges the batching must not mishandle
  (empty frontiers, all-zero unread masks, word-boundary tag counts,
  frontiers straddling ``BATCH_MIN``);
* **selection** — the flag > process-default > environment > auto
  precedence chain, the warn-once auto fallback, and the error contract
  for unknown/unavailable names;
* **solver equivalence** — every solver path that consumes a kernel
  (exact, ptas, centralized, localsearch, ghc in both gain modes, and the
  MCS driver in plain / incremental / fault-injected runs) produces the
  same schedules and the same work counters under both backends.
"""

import gc
import warnings
import weakref

import numpy as np
import pytest

from repro.core.mcs import greedy_covering_schedule
from repro.core.oneshot import get_solver
from repro.faults import FaultPlan, PermanentCrash
from repro.model.system import build_system
from repro.model.weights import BitsetWeightOracle
from repro.obs.collectors import RunCollector
from repro.obs.events import recording
from repro.perf.backends import (
    BACKEND_ENV_VAR,
    KERNEL_METHODS,
    BackendUnavailableError,
    NumpyKernel,
    PureKernel,
    WeightKernel,
    available_backends,
    backend_available,
    get_default_backend,
    kernel_for,
    resolve_backend,
    set_default_backend,
    use_backend,
    _reset_selection_for_tests,
)
from repro.perf.backends import numpy_batched
from repro.perf.backends.numpy_batched import BATCH_MIN
from repro.perf.incremental import GeneralizedWeightClimber
from tests.conftest import make_random_system


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    """Isolate every test from ambient selection state."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    _reset_selection_for_tests()
    yield
    _reset_selection_for_tests()


# ---------------------------------------------------------------------------
# kernel equivalence on random mask states
# ---------------------------------------------------------------------------
def _random_state(system, rng, *, zero_unread=False):
    """A coherent (climber, oracle, unread) state: a random reader subset
    committed through both engines, over a random (or all-zero) unread
    mask."""
    n, m = system.num_readers, system.num_tags
    if zero_unread:
        unread = np.zeros(m, dtype=bool)
    else:
        unread = rng.random(m) < 0.7 if m else np.zeros(0, dtype=bool)
    climber = GeneralizedWeightClimber(system, unread)
    oracle = BitsetWeightOracle(system, unread)
    k = int(rng.integers(0, max(n // 2, 1) + 1))
    for r in rng.choice(n, size=k, replace=False) if k else []:
        climber.add(int(r))
        oracle.push(int(r))  # oracle allows infeasible pushes; fine for math
    return climber, oracle, unread


# Tag counts straddle the 64-bit word boundary (tags drive word width);
# reader counts straddle BATCH_MIN (the scalar-delegation cutoff).
SCENARIOS = [
    (6, 20, 30.0, 551),     # tiny: everything below BATCH_MIN
    (20, 64, 40.0, 552),    # exactly one word of tags
    (24, 65, 40.0, 553),    # word boundary +1
    (40, 200, 60.0, 554),   # multi-word, frontier well above BATCH_MIN
]


@pytest.mark.parametrize("n,m,side,seed", SCENARIOS)
class TestKernelEquivalence:
    def _kernels(self, n, m, side, seed):
        system = make_random_system(n, m, side, 9.0, 5.0, seed)
        return system, PureKernel(system), NumpyKernel(system)

    def test_solo_and_coverage_batches(self, n, m, side, seed):
        system, pure, fast = self._kernels(n, m, side, seed)
        rng = np.random.default_rng(seed)
        for zero_unread in (False, True):
            climber, _oracle, _unread = _random_state(
                system, rng, zero_unread=zero_unread
            )
            u = climber.unread_mask
            once, multi = climber._once, climber._multi
            for cands in ([], [0], list(range(n)), list(range(0, n, 3))):
                assert np.array_equal(
                    pure.solo_weights(u, cands), fast.solo_weights(u, cands)
                )
                assert np.array_equal(
                    pure.new_coverage_counts(once, multi, u, cands),
                    fast.new_coverage_counts(once, multi, u, cands),
                )

    def test_oracle_weights_with(self, n, m, side, seed):
        system, pure, fast = self._kernels(n, m, side, seed)
        rng = np.random.default_rng(seed + 1)
        for zero_unread in (False, True):
            _climber, oracle, _unread = _random_state(
                system, rng, zero_unread=zero_unread
            )
            once, multi, u = oracle._once, oracle._multi, oracle.unread_mask
            for cands in ([], list(range(n)), list(range(n - 1, -1, -2))):
                got_pure = pure.oracle_weights_with(once, multi, u, cands)
                got_fast = fast.oracle_weights_with(once, multi, u, cands)
                assert np.array_equal(got_pure, got_fast)
                expect = [oracle.weight_with(c) for c in cands]
                assert got_pure.tolist() == expect

    def test_climb_weights_with(self, n, m, side, seed):
        system, pure, fast = self._kernels(n, m, side, seed)
        rng = np.random.default_rng(seed + 2)
        for trial in range(4):
            climber, _oracle, _unread = _random_state(
                system, rng, zero_unread=(trial == 3)
            )
            once, multi = climber._once, climber._multi
            active, bits = climber.active, climber._active_bits
            u = climber.unread_mask
            for cands in ([], list(range(n)), list(range(min(n, BATCH_MIN + 4)))):
                got_pure = pure.climb_weights_with(once, multi, active, bits, u, cands)
                got_fast = fast.climb_weights_with(once, multi, active, bits, u, cands)
                assert np.array_equal(got_pure, got_fast)
                expect = [climber.weight_with(c) for c in cands]
                assert got_pure.tolist() == expect

    def test_covered_counts_and_filter(self, n, m, side, seed):
        system, pure, fast = self._kernels(n, m, side, seed)
        rng = np.random.default_rng(seed + 3)
        unread = rng.random(m) < 0.5 if m else None
        assert np.array_equal(pure.covered_counts(unread), fast.covered_counts(unread))
        assert np.array_equal(pure.covered_counts(None), fast.covered_counts(None))
        for blocked in ([], [0], list(rng.choice(n, size=min(n, 4), replace=False))):
            for cands in ([], list(range(n)), list(range(n - 1, -1, -1))):
                assert pure.filter_compatible(cands, blocked) == (
                    fast.filter_compatible(cands, blocked)
                )


def test_batch_min_cutoff_is_wallclock_only():
    """Frontiers straddling BATCH_MIN return identical integers on both
    sides of the scalar-delegation cutoff."""
    system = make_random_system(BATCH_MIN + 8, 100, 50.0, 9.0, 5.0, 77)
    pure, fast = PureKernel(system), NumpyKernel(system)
    u = system.packed_coverage.full_mask
    for size in (BATCH_MIN - 1, BATCH_MIN, BATCH_MIN + 1):
        cands = list(range(size))
        assert np.array_equal(
            pure.solo_weights(u, cands), fast.solo_weights(u, cands)
        )


# ---------------------------------------------------------------------------
# adversarial climb equivalence
# ---------------------------------------------------------------------------
def _adversarial_system(kind, seed, n=80, m=700):
    """Geometries the owned-tag identity of the climb kernels must survive:
    readers stacked on a few shared sites (every site silences itself),
    interrogation radius equal to the interference radius, and a dense
    square where one candidate silences several operational readers."""
    rng = np.random.default_rng(seed)
    side = 60.0
    if kind == "colocated":
        sites = rng.uniform(0.0, side, size=(8, 2))
        pos = sites[rng.integers(0, len(sites), size=n)]
        R = rng.integers(4, 14, size=n).astype(float)
        gamma = np.minimum(rng.integers(3, 10, size=n), R).astype(float)
    elif kind == "r_equals_gamma":
        pos = rng.uniform(0.0, side, size=(n, 2))
        R = rng.integers(4, 14, size=n).astype(float)
        gamma = R.copy()
    else:  # dense: many small readers under a quarter of wide blasters
        pos = rng.uniform(0.0, side, size=(n, 2))
        R = np.where(rng.random(n) < 0.25, rng.uniform(15.0, 30.0, n),
                     rng.uniform(3.0, 6.0, n))
        gamma = np.minimum(rng.uniform(3.0, 8.0, size=n), R)
    tags = rng.uniform(0.0, side, size=(m, 2))
    return build_system(pos, R, gamma, tags)


@pytest.mark.parametrize("kind", ["colocated", "r_equals_gamma", "dense"])
@pytest.mark.parametrize("seed", [601, 602])
def test_climb_weights_adversarial(kind, seed):
    """pure == numpy == climber.weight_with == system.weight on every
    candidate, for active sets grown past BATCH_MIN and frontiers that
    include the already-active readers."""
    system = _adversarial_system(kind, seed)
    n = system.num_readers
    pure, fast = PureKernel(system), NumpyKernel(system)
    rng = np.random.default_rng(seed)
    unread = rng.random(system.num_tags) < 0.8
    climber = GeneralizedWeightClimber(system, unread)
    sil = system.in_interference_range
    order = rng.permutation(n)
    if kind == "dense":
        # Grow the small readers first so the blasters stay candidates.
        blaster = system.interference_radii[order] > 10.0
        order = order[np.argsort(blaster, kind="stable")]
    order = order[: BATCH_MIN + 16]
    checkpoints = {1, 5, BATCH_MIN - 1, BATCH_MIN + 1, len(order)}
    multi_silenced = 0
    for step, r in enumerate(order, start=1):
        climber.add(int(r))
        if step not in checkpoints:
            continue
        active = climber.active
        operational = system.operational_readers(active)
        silenced = sil[operational].sum(axis=0)
        silenced[active] = 0
        multi_silenced += int((silenced >= 2).sum())
        args = (
            climber._once,
            climber._multi,
            active,
            climber._active_bits,
            climber.unread_mask,
        )
        for cands in (list(range(n)), list(range(n - 1, -1, -1)), active):
            got_pure = pure.climb_weights_with(*args, cands)
            got_fast = fast.climb_weights_with(*args, cands)
            expect = [climber.weight_with(c) for c in cands]
            assert got_pure.tolist() == expect
            assert got_fast.tolist() == expect
        # system.weight deduplicates its argument, so it is the reference
        # only for candidates outside the active set.
        in_set = set(active)
        for c in range(n):
            if c not in in_set:
                assert climber.weight_with(c) == system.weight(active + [c], unread)
    if kind == "dense":
        assert multi_silenced > 0


# ---------------------------------------------------------------------------
# selection layer
# ---------------------------------------------------------------------------
class TestSelection:
    def test_registry_lists_both_backends(self):
        assert available_backends() == ["numpy", "pure"]
        assert backend_available("pure")
        assert backend_available("numpy")  # numpy is importable in the suite

    def test_auto_resolves_to_numpy_when_available(self):
        assert resolve_backend(None) == "numpy"
        assert resolve_backend("auto") == "numpy"

    def test_explicit_argument_beats_everything(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        set_default_backend("numpy")
        assert resolve_backend("pure") == "pure"

    def test_process_default_beats_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        set_default_backend("pure")
        assert resolve_backend(None) == "pure"

    def test_environment_beats_auto(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "pure")
        assert resolve_backend(None) == "pure"

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="numpy"):
            resolve_backend("cuda")
        with pytest.raises(ValueError):
            set_default_backend("cuda")

    def test_explicit_unavailable_raises(self, monkeypatch):
        monkeypatch.setattr(numpy_batched, "_NUMPY_OK", False)
        with pytest.raises(BackendUnavailableError):
            resolve_backend("numpy")

    def test_auto_falls_back_with_single_warning(self, monkeypatch):
        monkeypatch.setattr(numpy_batched, "_NUMPY_OK", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_backend(None) == "pure"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend(None) == "pure"  # warn-once: now silent

    def test_use_backend_scopes_and_restores(self):
        set_default_backend("numpy")
        with use_backend("pure"):
            assert get_default_backend() == "pure"
            assert resolve_backend(None) == "pure"
        assert get_default_backend() == "numpy"

    def test_kernel_for_memoises_per_backend(self, small_system):
        k1 = kernel_for(small_system, "pure")
        k2 = kernel_for(small_system, "pure")
        k3 = kernel_for(small_system, "numpy")
        assert k1 is k2
        assert k1 is not k3
        assert k1.name == "pure" and k3.name == "numpy"

    @pytest.mark.parametrize("backend", ["pure", "numpy"])
    def test_kernel_memo_releases_system(self, backend):
        system = make_random_system(12, 80, 30.0, 9.0, 5.0, 95)
        kernel_for(system, backend)
        ref = weakref.ref(system)
        del system
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("backend", ["pure", "numpy"])
    def test_ptas_memo_releases_system(self, backend):
        system = make_random_system(12, 80, 30.0, 9.0, 5.0, 96)
        with use_backend(backend):
            get_solver("ptas", k=2)(system, None, 3)
        ref = weakref.ref(system)
        del system
        gc.collect()
        assert ref() is None

    def test_kernel_methods_match_interface(self):
        abstract = {
            name
            for name in KERNEL_METHODS
            if callable(getattr(WeightKernel, name, None))
        }
        assert abstract == set(KERNEL_METHODS)
        assert set(WeightKernel.__abstractmethods__) == set(KERNEL_METHODS)


# ---------------------------------------------------------------------------
# solver-path equivalence: same schedules, same work counters
# ---------------------------------------------------------------------------
def _counters(collector):
    return {
        k: v
        for k, v in collector.summary().items()
        if "wall_clock" not in k
        and not k.endswith("_seconds_by_name")
        and k != "histograms"  # wall-clock distributions, machine-local
    }


def _oneshot(solver_name, system, seed, backend, **kw):
    solver = get_solver(solver_name, **kw)
    collector = RunCollector()
    with use_backend(backend), recording(collector):
        result = solver(system, None, seed)
    return result, _counters(collector)


ONESHOT_PATHS = [
    ("exact", {}),
    ("ptas", {"k": 2}),
    ("centralized", {}),
    ("localsearch", {"iterations": 300, "restarts": 2}),
    ("ghc", {}),
    ("ghc", {"gain_mode": "coverage"}),
]


class TestSolverEquivalence:
    @pytest.mark.parametrize("solver_name,kw", ONESHOT_PATHS,
                             ids=lambda v: v if isinstance(v, str) else str(v))
    def test_oneshot_paths_bit_identical(self, solver_name, kw):
        system = make_random_system(18, 160, 45.0, 9.0, 5.0, 91)
        a, ca = _oneshot(solver_name, system, 5, "pure", **kw)
        b, cb = _oneshot(solver_name, system, 5, "numpy", **kw)
        assert a.active.tolist() == b.active.tolist()
        assert a.weight == b.weight
        assert a.feasible == b.feasible
        assert ca == cb

    @pytest.mark.parametrize("incremental", [False, True])
    def test_mcs_schedule_bit_identical(self, incremental):
        system = make_random_system(14, 120, 40.0, 9.0, 5.0, 92)
        runs = {}
        for backend in ("pure", "numpy"):
            solver = get_solver("ptas", k=2)
            collector = RunCollector()
            with use_backend(backend), recording(collector):
                schedule = greedy_covering_schedule(
                    system, solver, seed=8, incremental=incremental
                )
            runs[backend] = (
                [s.active.tolist() for s in schedule.slots],
                schedule.reads_per_slot(),
                schedule.complete,
                _counters(collector),
            )
        assert runs["pure"] == runs["numpy"]

    def test_dense_ghc_schedule_bit_identical(self):
        """GHC on a ~300-reader dense deployment: the climb kernels agree
        on every slot's active set and read count."""
        rng = np.random.default_rng(97)
        n, m, side = 300, 3000, 140.0
        R = np.maximum(rng.poisson(10.0, size=n), 1).astype(float)
        system = build_system(
            rng.uniform(0.0, side, size=(n, 2)),
            R,
            np.minimum(np.maximum(rng.poisson(5.0, size=n), 1), R),
            rng.uniform(0.0, side, size=(m, 2)),
        )
        runs = {}
        for backend in ("pure", "numpy"):
            with use_backend(backend):
                schedule = greedy_covering_schedule(system, get_solver("ghc"), seed=5)
            runs[backend] = (
                [s.active.tolist() for s in schedule.slots],
                schedule.reads_per_slot(),
            )
        assert runs["pure"] == runs["numpy"]
        assert sum(runs["numpy"][1]) == int(system.covered_by_any().sum())

    def test_mcs_fault_world_bit_identical(self):
        system = make_random_system(12, 90, 35.0, 9.0, 5.0, 93)
        plan = FaultPlan(
            reader_faults=(PermanentCrash(reader=1, at_slot=0),),
            miss_rate=0.2,
            seed=4,
        )
        runs = {}
        for backend in ("pure", "numpy"):
            solver = get_solver("ptas", k=2)
            collector = RunCollector()
            with use_backend(backend), recording(collector):
                schedule = greedy_covering_schedule(
                    system, solver, seed=9, faults=plan, max_slots=64
                )
            runs[backend] = (
                [s.active.tolist() for s in schedule.slots],
                schedule.reads_per_slot(),
                _counters(collector),
            )
        assert runs["pure"] == runs["numpy"]

    def test_backend_kwarg_reaches_solver_directly(self):
        from repro.core.exact import exact_mwfs

        system = make_random_system(10, 80, 35.0, 9.0, 5.0, 94)
        a = exact_mwfs(system, backend="pure")
        b = exact_mwfs(system, backend="numpy")
        assert a.active.tolist() == b.active.tolist()
        assert a.weight == b.weight
