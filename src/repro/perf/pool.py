"""Process parallelism: one persistent, deterministic worker pool.

:class:`WorkerPool` maps a callable over a payload list and returns the
results **in payload order** — callers merge exactly as they would
serially, so parallel output is byte-identical to serial output whenever
the callable is deterministic per payload.  The pool holds its workers for
the life of a run (a sharded covering schedule dispatches once per slot),
so the fork is paid once and every later dispatch ships only small deltas
(per-cell seeds, retired-tag suffixes, returned activation sets).  It is
the repo's only process- or thread-starting module.

How heavy state reaches the workers
-----------------------------------

Workers are created with the ``fork`` start method, so they inherit the
parent's entire heap — partitions, halo subsystems, packed coverage words —
as copy-on-write pages at fork time, for free.  Because the pool outlives
many dispatches, callables that close over the heavy state must be
**registered before the pool starts** (:meth:`WorkerPool.register`,
implicit on the first :meth:`WorkerPool.map`) so the fork snapshot contains
them.  Module-level functions pickle by reference and may be dispatched at
any time without registration.  Any other callable arriving after the fork
raises :class:`RuntimeError`, exactly as :meth:`WorkerPool.register` does.

Mutable cross-slot state stays in the parent; callers broadcast compact
delta arrays through the payloads and workers catch up locally (see
:meth:`repro.shard.runtime.ShardRuntime.pool_scope` for the canonical
pattern).  ``multiprocessing.shared_memory`` views were considered and
rejected: fork inheritance already shares the immutable gigabytes with zero
code, while shared-memory segments would add lifecycle management for the
small mutable part that pickles in microseconds.

Degradation: ``workers<=1`` runs every map serially in-process (no pool,
no events); fork-less platforms (Windows, spawn-only interpreters) run a
persistent thread pool after a once-per-process :class:`RuntimeWarning`.
Threads share the process-wide recorder, so ambient events from concurrent
payloads interleave into the caller's recorder under that fallback.  A
pool constructed inside a pool worker runs serially — daemonic workers
cannot fork children — counted in :data:`nested_serial_calls` and warned
once per process.  Every path preserves the payload-order merge, so worker
count and pool mode never change results.

Supervision
-----------

A forked worker that is SIGKILLed (OOM killer, operator error) or wedges
forever would otherwise hang the dispatch: ``multiprocessing.Pool`` quietly
respawns the worker but the in-flight chunk is lost and ``get()`` never
returns.  Fork-mode dispatches are therefore *supervised*: the result wait
polls, reaping worker exitcodes (and pid churn from the pool's own
maintenance thread) and enforcing an optional per-dispatch deadline
(``REPRO_POOL_DEADLINE`` seconds, see :func:`dispatch_deadline`).  On a
detected death or deadline hit the broken workers are torn down and the
whole payload slice is retried on a freshly forked pool — bounded by
:data:`MAX_RESPAWNS` with exponential backoff from
:data:`RESPAWN_BACKOFF_S` — and once the respawn budget is spent, replayed
serially in the parent as a last resort.  Either way the dispatch returns
the same payload-order results (cell solves are deterministic functions of
their payloads), so a crashed worker degrades a run instead of hanging or
failing it.  Thread and serial maps run in the parent and are not
supervised.

Telemetry: every non-serial dispatch runs under a ``pool.dispatch`` span
and emits one :class:`~repro.obs.events.PoolDispatch` event
(``pool_spawns`` / ``pool_tasks`` / ``pool_payload_bytes`` counters plus
``pool.dispatch`` / ``pool.collect`` stage timings in the exported
metrics); a persistent pool shows ``pool_spawns == 1`` per run.  Every
supervised recovery additionally emits a
:class:`~repro.obs.events.PoolRecovery` event (``pool_respawns`` /
``pool_deadline_hits`` counters).  When the parent's recorder is enabled
at dispatch time, fork-mode workers additionally run the cross-process
trace relay (:mod:`repro.obs.relay`): their events are buffered (bounded),
shipped back on the result payloads and replayed — span ids rebased, roots
re-parented — under the dispatch's ``pool.dispatch`` span, so
``--workers N`` traces stay one coherent tree.  Serial maps emit nothing,
so serial records keep their historical shape.  See
``docs/performance.md`` and ``docs/observability.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Set

from repro.obs.events import PoolDispatch, PoolRecovery, get_recorder
from repro.obs.relay import capture_relay, replay_events
from repro.obs.spans import span
from repro.util.validation import check_workers

#: Total fresh pools the supervisor may fork over one pool's life before it
#: degrades to serial maps permanently.
MAX_RESPAWNS = 2

#: Base of the exponential backoff slept before each respawn, seconds.
RESPAWN_BACKOFF_S = 0.05

#: Result-wait poll granularity of the supervised fork dispatch, seconds.
#: Coarse enough to be free (one ``Condition.wait`` wake-up per interval),
#: fine enough that a dead worker is noticed promptly.
_SUPERVISE_POLL_S = 0.1

#: Worker-side registry: the owning pool points this at its registered
#: callables immediately before forking, so children inherit the list (and
#: every closure in it) in their copy-on-write heap.  Parent-side mutations
#: after the fork are invisible to the children — which is exactly the
#: register-before-start contract.
_WORKER_TASKS: Optional[List[Callable[[Any], Any]]] = None

#: True inside a forked :class:`WorkerPool` worker (set by the pool's
#: initializer).  Parent processes never set it.
_IN_POOL_WORKER = False

#: Set after the first thread-pool degradation warning; the fallback is a
#: property of the platform, so it is reported once per process.
_THREAD_FALLBACK_WARNED = False

#: Pools constructed inside a pool worker and hence run serially, counted
#: in *this* process (worker processes count their own occurrences; the
#: tallies die with them).
nested_serial_calls = 0

_NESTED_WARNED = False


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return (
        hasattr(os, "fork")
        and "fork" in multiprocessing.get_all_start_methods()
    )


def in_pool_worker() -> bool:
    """True when the calling process is a forked pool worker (a
    :class:`WorkerPool` child or any daemonic ``multiprocessing`` worker).
    Thread-mode and serial dispatches run in the parent, where this stays
    False."""
    return _IN_POOL_WORKER or multiprocessing.current_process().daemon


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` argument: ``None``/``0`` → 1 (serial),
    negative → CPU count."""
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return os.cpu_count() or 1
    return int(workers)


def env_default_workers(cli_value: Optional[int] = None) -> Optional[int]:
    """The effective worker count under the ``REPRO_WORKERS`` environment
    default: an explicit *cli_value* always wins, else the environment
    variable (validated), else ``None`` (serial).  Precedence CLI > env >
    serial — every ``--workers`` CLI flag routes through here."""
    if cli_value is not None:
        return cli_value
    raw = os.environ.get("REPRO_WORKERS")
    if raw is None or not raw.strip():
        return None
    return check_workers("REPRO_WORKERS", raw)


def dispatch_deadline() -> Optional[float]:
    """Per-dispatch deadline of supervised fork maps from
    ``REPRO_POOL_DEADLINE`` (seconds); ``None`` when unset or blank — the
    supervisor then watches worker health only.  A non-numeric or
    non-positive value raises :class:`ValueError` naming the variable."""
    raw = os.environ.get("REPRO_POOL_DEADLINE")
    if raw is None or not raw.strip():
        return None
    try:
        value = float(raw)
    except ValueError:
        value = 0.0
    if not value > 0:  # also rejects "nan"
        raise ValueError(
            f"REPRO_POOL_DEADLINE must be a positive number of seconds, "
            f"got {raw!r}"
        )
    return value


def reset_inherited_signal_handlers() -> None:
    """Restore default ``SIGTERM``/``SIGINT`` dispositions in a forked
    pool worker.

    Children inherit whatever handlers the parent installed — notably the
    CLI's graceful-shutdown trap, which turns both signals into a Python
    exception.  Inside a pool worker that inheritance is fatal: stdlib
    ``Pool._terminate_pool`` SIGTERMs straggling workers *after*
    permanently seizing the task-queue read lock, and the worker loop's
    broad ``except Exception`` around its result ``put`` can swallow the
    raised interrupt — the worker survives its own termination, loops back
    to ``get()`` and deadlocks against the parent's held lock (the parent
    then hangs forever in ``join``).  Resetting to ``SIG_DFL`` keeps
    ``terminate()`` lethal, which pool teardown depends on.
    """
    if threading.current_thread() is not threading.main_thread():
        return  # pragma: no cover - initializers run on the worker main thread
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass


def _note_nested_serial() -> None:
    """Record one pool degraded to serial inside a pool worker."""
    global nested_serial_calls, _NESTED_WARNED
    nested_serial_calls += 1
    if not _NESTED_WARNED:
        _NESTED_WARNED = True
        warnings.warn(
            "nested parallel dispatch: already running inside a pool "
            "worker, so this WorkerPool runs serially (counted in "
            "repro.perf.pool.nested_serial_calls; see docs/performance.md)",
            RuntimeWarning,
            stacklevel=3,
        )


def _warn_thread_fallback() -> None:
    """Emit the once-per-process thread-degradation warning."""
    global _THREAD_FALLBACK_WARNED
    if not _THREAD_FALLBACK_WARNED:
        _THREAD_FALLBACK_WARNED = True
        warnings.warn(
            "os.fork unavailable on this platform; falling back to a "
            "thread pool (results identical, telemetry events from "
            "concurrent payloads interleave)",
            RuntimeWarning,
            stacklevel=3,
        )


def _pool_worker_init() -> None:
    """Runs once in each forked child: mark the process as a pool worker so
    nested pools degrade serially (recorded, not crashed — daemonic
    workers cannot fork children), and restore default signal dispositions
    so ``terminate()`` stays lethal
    (:func:`reset_inherited_signal_handlers`)."""
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True
    reset_inherited_signal_handlers()


def _pool_invoke(task: tuple) -> tuple:
    index, handle, fn, payload, relay = task
    target = _WORKER_TASKS[handle] if handle >= 0 else fn
    if not relay:
        return index, target(payload), None
    # Cross-process trace relay: buffer the worker's events (bounded) and
    # ship them back on the result; the parent replays them under its
    # pool.dispatch span.  Requested per task, so it is exactly as stale as
    # the parent's recorder state at dispatch time — never the fork time.
    result, relayed = capture_relay(target, payload)
    return index, result, relayed


class _DispatchFailure(Exception):
    """Internal: a supervised dispatch lost its workers or its deadline."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _ref_picklable(fn: Callable) -> bool:
    """True when *fn* pickles by reference (a module-level function), so it
    can be shipped to already-forked workers without registration."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", "")
    if module is None or not qualname or "." in qualname:
        return False
    mod = sys.modules.get(module)
    return mod is not None and getattr(mod, qualname, None) is fn


class WorkerPool:
    """A persistent, deterministic worker pool (see module docstring).

    Parameters
    ----------
    workers:
        Worker count, in the :func:`resolve_workers` convention
        (``None``/``0`` serial, negative = CPU count).  Resolved once at
        construction; ``<= 1`` makes every :meth:`map` a plain in-process
        loop and never starts anything.  The supervision deadline is read
        here too (:func:`dispatch_deadline`).

    Usage::

        with WorkerPool(workers) as pool:
            pool.register(bound_method)        # before the first map
            for slot in range(n_slots):
                results = pool.map(bound_method, payloads)

    The pool is reusable across arbitrarily many :meth:`map` calls until
    :meth:`close` (or context-manager exit); closing terminates and joins
    the workers, so solver exceptions can never leak children.
    """

    def __init__(self, workers: Optional[int]) -> None:
        self._workers = resolve_workers(workers)
        self._mode = (
            "serial"
            if self._workers <= 1 or in_pool_worker()
            else ("fork" if fork_available() else "thread")
        )
        if self._workers > 1 and in_pool_worker():
            # a pool inside a pool worker cannot fork; run its maps serially
            _note_nested_serial()
        self._registry: List[Callable[[Any], Any]] = []
        self._procs = None
        self._threads: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self._spawn_pending = 0
        self._spawn_seconds = 0.0
        self._deadline_s = dispatch_deadline()
        self._worker_pids: Set[int] = set()
        #: Fresh pools forked by the supervisor after a worker death or
        #: deadline hit (bounded by :data:`MAX_RESPAWNS`).
        self.respawns = 0
        #: Supervised dispatches that exceeded the deadline.
        self.deadline_hits = 0
        #: True once the respawn budget is spent: every later map runs
        #: serially in the parent (deterministic, just no longer parallel).
        self._broken = False

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """``"fork"``, ``"thread"`` or ``"serial"`` (fixed per pool)."""
        return self._mode

    @property
    def started(self) -> bool:
        """True once worker processes/threads exist."""
        return self._procs is not None or self._threads is not None

    def register(self, fn: Callable[[Any], Any]) -> int:
        """Register *fn* for dispatch before the workers fork; returns its
        handle.  Idempotent per callable (bound methods compare by value,
        so re-accessing ``obj.method`` re-registers nothing).  Required for
        closures and bound methods; module-level functions need no
        registration."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        handle = self._handle_of(fn)
        if handle is not None:
            return handle
        if self.started and self._mode == "fork":
            raise RuntimeError(
                "WorkerPool workers already forked; register callables "
                "before the first map (see docs/performance.md)"
            )
        self._registry.append(fn)
        return len(self._registry) - 1

    def _handle_of(self, fn: Callable) -> Optional[int]:
        for i, registered in enumerate(self._registry):
            if registered == fn:
                return i
        return None

    def start(self) -> None:
        """Bring the workers up now (otherwise the first :meth:`map` does).

        For fork mode this pins the inheritance snapshot: everything the
        registered callables close over must be in its run-start state when
        this is called."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if self.started or self._mode == "serial":
            return
        t0 = time.perf_counter()
        if self._mode == "thread":
            _warn_thread_fallback()
            self._threads = ThreadPoolExecutor(max_workers=self._workers)
        else:
            global _WORKER_TASKS
            ctx = multiprocessing.get_context("fork")
            _WORKER_TASKS = self._registry
            try:
                self._procs = ctx.Pool(
                    processes=self._workers, initializer=_pool_worker_init
                )
            finally:
                _WORKER_TASKS = None
            procs = getattr(self._procs, "_pool", None) or ()
            self._worker_pids = {p.pid for p in procs}
        self._spawn_pending += 1
        self._spawn_seconds += time.perf_counter() - t0

    # ------------------------------------------------------------------
    def map(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> List[Any]:
        """Map *fn* over *payloads* on the persistent workers; results come
        back in payload order, exactly as from ``[fn(p) for p in
        payloads]``.  In fork mode *fn* must be registered before the
        workers fork or be picklable by reference; any other callable
        raises :class:`RuntimeError` (:meth:`register`)."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        payloads = list(payloads)
        if not payloads:
            return []
        if self._mode == "serial" or self._broken:
            return [fn(p) for p in payloads]
        handle = self._handle_of(fn)
        if (
            handle is None
            and self._mode == "fork"
            and not (self.started and _ref_picklable(fn))
        ):
            # join the fork snapshot; once forked, register() raises
            handle = self.register(fn)
        self.start()
        rec = get_recorder()
        if self._mode == "thread":
            spawned, spawn_s = self._spawn_pending, self._spawn_seconds
            self._spawn_pending, self._spawn_seconds = 0, 0.0
            with span("pool.dispatch", mode="thread", tasks=len(payloads)):
                t0 = time.perf_counter()
                futures = [self._threads.submit(fn, p) for p in payloads]
                t1 = time.perf_counter()
                results = [f.result() for f in futures]
                t2 = time.perf_counter()
            if rec.enabled:
                rec.emit(
                    PoolDispatch(
                        mode="thread",
                        tasks=len(payloads),
                        payload_bytes=0,  # threads never pickle payloads
                        spawned=spawned,
                        dispatch_s=spawn_s + (t1 - t0),
                        collect_s=t2 - t1,
                    )
                )
            return results
        relay = rec.enabled
        tasks = [
            (i, -1 if handle is None else handle,
             fn if handle is None else None, p, relay)
            for i, p in enumerate(payloads)
        ]
        payload_bytes = (
            len(pickle.dumps(tasks, protocol=pickle.HIGHEST_PROTOCOL))
            if rec.enabled
            else 0
        )
        with span("pool.dispatch", mode="fork", tasks=len(payloads)):
            while True:
                t0 = time.perf_counter()
                pending = self._procs.map_async(_pool_invoke, tasks)
                t1 = time.perf_counter()
                try:
                    indexed = self._supervised_get(pending)
                    t2 = time.perf_counter()
                    break
                except _DispatchFailure as failure:
                    if failure.reason == "deadline":
                        self.deadline_hits += 1
                    self._teardown_workers()
                    respawned = self._try_respawn()
                    if rec.enabled:
                        rec.emit(
                            PoolRecovery(
                                mode="fork",
                                reason=failure.reason,
                                respawned=respawned,
                                serial_replay=not respawned,
                                tasks=len(tasks),
                            )
                        )
                    if respawned:
                        continue
                    # Respawn budget spent: deterministic serial replay of
                    # the failed payload slice, and serial maps from now on.
                    self._broken = True
                    return [fn(p) for p in payloads]
            indexed.sort(key=lambda triple: triple[0])
            if relay:
                # cross-process trace relay: replay each worker's shipped
                # events (payload order) under this pool.dispatch span
                for _, _, relayed in indexed:
                    replay_events(relayed, rec)
        spawned, spawn_s = self._spawn_pending, self._spawn_seconds
        self._spawn_pending, self._spawn_seconds = 0, 0.0
        if rec.enabled:
            # dispatch_s carries the (amortised) spawn plus submission;
            # collect_s is the wait for payload-ordered results.
            rec.emit(
                PoolDispatch(
                    mode="fork",
                    tasks=len(tasks),
                    payload_bytes=payload_bytes,
                    spawned=spawned,
                    dispatch_s=spawn_s + (t1 - t0),
                    collect_s=t2 - t1,
                )
            )
        return [result for _, result, _ in indexed]

    # ------------------------------------------------------------------
    def _supervised_get(self, pending) -> List[tuple]:
        """Wait for *pending* while watching worker health and the
        per-dispatch deadline; raises :class:`_DispatchFailure` instead of
        hanging on a lost chunk.  Exceptions raised by the mapped callable
        itself propagate unchanged (the pre-supervision contract)."""
        started = time.monotonic()
        while True:
            try:
                return pending.get(timeout=_SUPERVISE_POLL_S)
            except multiprocessing.TimeoutError:
                if self._workers_died():
                    raise _DispatchFailure("worker-death") from None
                if (
                    self._deadline_s is not None
                    and time.monotonic() - started > self._deadline_s
                ):
                    raise _DispatchFailure("deadline") from None

    def _workers_died(self) -> bool:
        """True when any forked worker exited (exitcode reaped) or was
        replaced by the pool's maintenance thread (pid churn) — either way
        the in-flight chunk it held is lost and the dispatch would hang."""
        procs = getattr(self._procs, "_pool", None)
        if procs is None:
            return True
        if any(p.exitcode is not None for p in procs):
            return True
        return {p.pid for p in procs} != self._worker_pids

    def _teardown_workers(self) -> None:
        """Terminate and join the (broken) forked workers, leaving the pool
        stopped but reusable by :meth:`start`."""
        procs, self._procs = self._procs, None
        self._worker_pids = set()
        if procs is not None:
            try:
                procs.terminate()
                procs.join()
            except Exception:
                pass

    def _try_respawn(self) -> bool:
        """Fork a fresh worker pool if the respawn budget allows, sleeping
        the exponential backoff first; False once the budget is spent."""
        if self.respawns >= MAX_RESPAWNS:
            return False
        if RESPAWN_BACKOFF_S > 0:
            time.sleep(RESPAWN_BACKOFF_S * (2 ** self.respawns))
        self.respawns += 1
        self.start()
        return True

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Terminate and join the workers (idempotent and exception-safe).

        ``terminate`` rather than ``close``: every :meth:`map` is
        synchronous, so nothing useful is ever in flight here — and after a
        solver exception it is the only way to guarantee no child outlives
        the pool.  Safe to call any number of times, from any pool state —
        including after a :meth:`start` that raised partway (the worker
        handles are detached before teardown, so a second :meth:`close`
        never touches half-dead state)."""
        if self._closed:
            return
        self._closed = True
        procs, self._procs = self._procs, None
        threads, self._threads = self._threads, None
        self._worker_pids = set()
        try:
            if procs is not None:
                procs.terminate()
                procs.join()
        finally:
            if threads is not None:
                threads.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
