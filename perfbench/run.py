"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ghc_dense --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole passes of the workload, untraced, for about
``--seconds`` seconds (at least ``MIN_PASSES``) and reports the end-to-end
metrics.  Passes are timed on :class:`perfbench.refclock.RefClock`, in
units of a fixed reference computation, because the host's speed drifts.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of :mod:`perfbench.tracer`.  Each pass runs in a
forked copy of the warmed-up process, so every pass starts from the same
state.  Every schedule of every pass is checked by
:mod:`perfbench.certify`, and all passes must produce the same schedules.
The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; a ``fingerprint`` line
before it records the machine and configuration.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Set-up (inputs plus certificate data) is repeated at least
#: ``SETUP_REPEATS`` times and until ``SETUP_SECONDS`` have passed (at most
#: ``SETUP_MAX_REPEATS`` times); ``setup_s`` is the median.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 50

#: Untraced runs time at least this many passes, so every median has two
#: samples.
MIN_PASSES = 2

#: Size of the untimed warm-up pass that loads lazily imported modules and
#: caches before anything is timed.
WARMUP_SCALE = 0.05

#: The second workload seed that a claimed gain must also hold on.
HELD_OUT_SEED = 7919

#: Every end-to-end metric, with its unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "tags_per_ref": "1/ref",
    "schedule_p50_ref": "ref",
    "schedule_p90_ref": "ref",
    "slots": "count",
    "coverage": "ratio",
    "cert_pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for
    child (the pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def fingerprint(workload) -> dict:
    from repro.perf.backends import resolve_backend

    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(ram / 2 ** 30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": resolve_backend(),
        "workers": workload.workers(),
    }


def certify(p) -> int:
    """Schedules of pass *p* that raised or fail the certificate.  Drops
    the results once checked."""
    from perfbench.certify import CertificateError

    failed = p.errors
    for outcome in p.outcomes:
        try:
            outcome.check()
        except CertificateError as exc:
            print(f"certificate: {exc}", file=sys.stderr)
            failed += 1
        finally:
            outcome.check = None
    return failed


def differing(p, reference) -> int:
    """Schedules of pass *p* that differ from pass *reference*."""
    mine = [o.signature for o in p.outcomes]
    theirs = [o.signature for o in reference.outcomes]
    bad = sum(1 for i, s in enumerate(mine) if i >= len(theirs) or s != theirs[i])
    if bad:
        print(f"certificate: {bad} schedules differ between passes",
              file=sys.stderr)
    return bad


def forked(fn):
    """Run *fn* in a forked copy of this process and return its result.

    The pass leaves its garbage (including anything the program never
    frees) in the child, so neither that nor the number of passes that fit
    in the budget changes what the next pass measures."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            payload = pickle.dumps(fn())
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as src:
        payload = src.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"pass in child {pid} failed (status {status})")
    return pickle.loads(payload)


def measured_pass(workload, instances, trace=None, untraced=None):
    """One pass in a forked child, timed on a :class:`RefClock`: ``(pass,
    certificate failures, peak RSS in MiB, per-layer metrics or None)``.
    A traced pass compares itself with the *untraced* pass."""
    from perfbench.refclock import RefClock

    def body():
        clock = RefClock().start()
        try:
            if trace is None:
                p = workload.run_pass(instances, clock)
            else:
                with trace.measure():
                    p = workload.run_pass(instances, clock)
        finally:
            clock.stop()
        layers = None
        if trace is not None:
            # the untraced pass's time at the traced pass's host speed
            layers = trace.metrics(untraced.wall * p.wall_s / p.wall)
        return p, certify(p), _peak_rss_mb(), layers

    return forked(body)


def end_to_end(setup, passes, failed, attempted, peaks) -> dict:
    # each instance's time is its median over the passes, so a stall that
    # hits part of one pass does not move the sum
    wall = sum(statistics.median(runs)
               for runs in zip(*(p.instance_t for p in passes)))
    # each schedule's time is its median over the passes that ran it
    times = [statistics.median(o.elapsed for o in runs)
             for runs in zip(*(p.outcomes for p in passes))]
    first = passes[0]
    values = {
        "setup_s": statistics.median(setup),
        "wall_ref": wall,
        "tags_per_ref": first.tags_read / wall,
        "schedule_p50_ref": statistics.median(times),
        "schedule_p90_ref": float(np.percentile(times, 90)),
        "slots": first.slots,
        "coverage": first.tags_read / max(first.coverable, 1),
        "cert_pass_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(peaks),
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.tracer import LayerTrace
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    trace = None
    if args.trace:
        trace = LayerTrace()
        trace.install()

    setup = []
    while len(setup) < SETUP_MAX_REPEATS and (
        len(setup) < SETUP_REPEATS or sum(setup) < SETUP_SECONDS
    ):
        t0 = time.perf_counter()
        instances = workload.instances(args.seed)
        setup.append(time.perf_counter() - t0)
    print("fingerprint " + json.dumps(fingerprint(workload), sort_keys=True))

    warmup = type(workload)(scale=WARMUP_SCALE)
    warmup.run_pass(warmup.instances(args.seed))
    gc.collect()

    passes, peaks, failed, layers = [], [], 0, None
    budget = args.seconds
    while True:
        if trace is not None and passes:  # one untraced pass, then one traced
            p, bad, _, layers = measured_pass(workload, instances, trace,
                                              passes[0])
        else:
            p, bad, peak, _ = measured_pass(workload, instances)
            peaks.append(peak)
        failed += bad + (differing(p, passes[0]) if passes else 0)
        passes.append(p)
        budget -= p.wall_s
        if layers is not None:
            break
        if trace is None and len(passes) >= MIN_PASSES and (
            statistics.median(q.wall_s for q in passes) > budget
        ):
            break

    attempted = sum(len(p.outcomes) + p.errors for p in passes)
    print(f"{args.workload}: {len(passes)} passes, walls "
          f"{[round(p.wall_s, 3) for p in passes]} s = "
          f"{[round(p.wall) for p in passes]} ref (1 ref ~ "
          f"{1e3 * passes[0].wall_s / passes[0].wall:.3f} ms), "
          f"{len(setup)} set-ups, median {statistics.median(setup):.4f} s",
          file=sys.stderr)
    if trace is None:
        metrics = end_to_end(setup, passes, failed, attempted, peaks)
    else:
        metrics = layers
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
