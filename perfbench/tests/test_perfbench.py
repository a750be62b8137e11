"""The benchmark's own tests: tiny workloads, the certificate, the tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import certify, refclock, run
from perfbench.tracer import PER_LAYER, SELF_TIMES, LayerTrace
from perfbench.workloads import WORKLOADS
from repro.core.mcs import ScheduleOutcome, ScheduleResult, SlotRecord

ROOT = Path(__file__).resolve().parents[2]
TINY = 0.05


def tiny(name):
    return type(WORKLOADS[name])(scale=TINY)


# -- workloads -----------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, run.HELD_OUT_SEED])
def test_tiny_workload_runs_and_certifies(name, seed):
    workload = tiny(name)
    first, again = workload.instances(seed), workload.instances(seed)
    for a, b in zip(first, again):
        for x, y in zip(a.arrays, b.arrays):
            np.testing.assert_array_equal(x, y)
        assert a.jobs == b.jobs
    passes = [workload.run_pass(first), workload.run_pass(first)]
    assert all(p.errors == 0 and p.outcomes for p in passes)
    assert sum(run.certify(p) for p in passes) == 0
    assert run.differing(passes[1], passes[0]) == 0
    if name != "shard_faults":
        assert passes[0].tags_read == passes[0].coverable


def test_measured_pass_runs_forked_on_the_reference_clock():
    workload = tiny("paper_fig67")
    instances = workload.instances(1)
    p, bad, peak, layers = run.measured_pass(workload, instances)
    assert bad == 0 and layers is None and peak > 0
    assert len(p.instance_t) == len(instances)
    assert 0 < p.wall == pytest.approx(sum(p.instance_t), rel=0.05)
    assert all(o.elapsed > 0 for o in p.outcomes)


def test_seeds_change_inputs():
    workload = tiny("ghc_dense")
    a = workload.instances(1)[0]
    b = workload.instances(2)[0]
    assert not np.array_equal(a.arrays[0], b.arrays[0])


# -- certificate ---------------------------------------------------------------
def two_reader_deployment():
    """Reader 0 sits inside reader 1's interference disk and vice versa;
    tag 0 is covered by reader 0 only, tag 1 by reader 1 only, tag 2 by
    reader 2 (far away), tag 3 by nobody."""
    readers = np.array([[0.0, 0.0], [4.0, 0.0], [50.0, 50.0]])
    R = np.array([5.0, 5.0, 5.0])
    gamma = np.array([2.0, 2.0, 2.0])
    tags = np.array([[-1.0, 0.0], [5.0, 0.0], [50.0, 51.0], [90.0, 90.0]])
    return certify.deployment(readers, R, gamma, tags)


def schedule(slots, complete=True, outcome=None):
    recs = [SlotRecord(slot=i, active=np.asarray(a), tags_read=np.asarray(t),
                       weight=w) for i, (a, t, w) in enumerate(slots)]
    return ScheduleResult(
        slots=recs,
        tags_read_total=sum(len(t) for _, t, _ in slots),
        uncovered_tags=np.array([3]),
        complete=complete,
        outcome=outcome,
    )


def test_deployment_coverage_lists():
    dep = two_reader_deployment()
    assert [dep.tags_of(i).tolist() for i in range(3)] == [[0], [1], [2]]
    assert dep.coverable().tolist() == [True, True, True, False]


def test_certificate_accepts_a_valid_schedule():
    dep = two_reader_deployment()
    good = schedule([([0, 2], [0, 2], 2), ([1], [1], 1)])
    certify.certify_schedule(dep, good, "ptas")


def test_certificate_rejects_a_tag_retired_twice():
    dep = two_reader_deployment()
    bad = schedule([([0, 2], [0, 2], 2), ([1, 2], [1, 2], 2)])
    with pytest.raises(certify.CertificateError, match="retired twice"):
        certify.certify_schedule(dep, bad, "ghc")


def test_certificate_rejects_a_silenced_readers_tag():
    dep = two_reader_deployment()
    # readers 0 and 1 silence each other, so tag 0 is not well covered
    bad = schedule([([0, 1], [0], 1), ([2], [2], 1)], complete=False)
    with pytest.raises(certify.CertificateError, match="not well covered"):
        certify.certify_schedule(dep, bad, "ghc")


def test_certificate_rejects_an_rtc_infeasible_ptas_set():
    dep = two_reader_deployment()
    bad = schedule([([0, 1], [], 0), ([0, 2], [0, 2], 2), ([1], [1], 1)])
    certify.certify_schedule(dep, bad, "ghc")  # GHC may activate a conflict
    with pytest.raises(certify.CertificateError, match="RTc-free"):
        certify.certify_schedule(dep, bad, "ptas")


def test_certificate_rejects_an_unjustified_stall():
    dep = two_reader_deployment()
    stalled = schedule([([0, 2], [0, 2], 2)], complete=False,
                       outcome=ScheduleOutcome.stalled)
    # tag 1 is left, and only reader 1 covers it
    certify.certify_schedule(dep, stalled, "ghc", crashes={1: 0})
    with pytest.raises(certify.CertificateError, match="live reader"):
        certify.certify_schedule(dep, stalled, "ghc", crashes={2: 1})


def test_certificate_rejects_a_crashed_reader_and_lost_fault_free_reads():
    dep = two_reader_deployment()
    done = schedule([([0, 2], [0, 2], 2), ([1], [1], 1)])
    with pytest.raises(certify.CertificateError, match="crashed reader"):
        certify.certify_schedule(dep, done, "ghc", crashes={1: 0})
    short = schedule([([0, 2], [0], 2), ([1, 2], [1, 2], 2)])
    certify.certify_schedule(dep, short, "ghc", crashes={})
    with pytest.raises(certify.CertificateError, match="left unread"):
        certify.certify_schedule(dep, short, "ghc")


def test_certificate_rejects_a_scale_total_mismatch():
    class Slot:
        def __init__(self, n):
            self.tags_read = n

    class Result:
        slots = [Slot(5), Slot(3)]
        tags_read_total = 8
        complete = True
        outcome = "complete"

    certify.certify_scale(8, Result())
    with pytest.raises(certify.CertificateError, match="coverable"):
        certify.certify_scale(9, Result())


# -- reference clock -----------------------------------------------------------
def test_ref_clock_counts_wall_time_in_reference_units(monkeypatch):
    monkeypatch.setattr(refclock, "reference_s", lambda: 0.002)
    clock = refclock.RefClock()
    t0, u0 = time.perf_counter(), clock.now()
    time.sleep(0.05)
    assert clock.now() - u0 == pytest.approx(
        (time.perf_counter() - t0) / 0.002, rel=0.05)


def test_ref_clock_leaves_out_its_own_samples(monkeypatch):
    def slow_reference():
        time.sleep(0.05)
        return 1.0

    clock = refclock.RefClock()
    monkeypatch.setattr(refclock, "reference_s", slow_reference)
    u0 = clock.now()
    clock.sample()
    assert clock.now() - u0 < 1.0  # the 50 ms sample itself is not counted
    assert clock.samples == 2


def test_ref_clock_samples_on_its_timer_and_stops():
    clock = refclock.RefClock().start()
    try:
        deadline = time.perf_counter() + 3 * refclock.PERIOD_S
        while time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        clock.stop()
    assert clock.samples >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- tracer --------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_self_times_sum_to_the_traced_wall(name):
    workload = tiny(name)
    instances = workload.instances(3)
    trace = LayerTrace()
    trace.install()
    try:
        with trace.measure():
            traced = workload.run_pass(instances)
    finally:
        trace.uninstall()
    assert traced.errors == 0
    metrics = trace.metrics(untraced_wall_s=trace.wall_s)
    assert list(metrics) == list(PER_LAYER)
    total = sum(metrics[k]["value"] for k in SELF_TIMES)
    assert total == pytest.approx(trace.wall_s, rel=1e-9, abs=1e-9)
    assert all(metrics[k]["value"] >= -1e-9 for k in SELF_TIMES)
    assert metrics["model.build_system_calls"]["value"] >= 1


def test_uninstall_restores_the_program():
    from repro.core import oneshot
    from repro.model import system

    before = (oneshot.get_solver, system.build_system)
    trace = LayerTrace()
    trace.install()
    assert oneshot.get_solver is not before[0]
    trace.uninstall()
    assert (oneshot.get_solver, system.build_system) == before


# -- contract ------------------------------------------------------------------
def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(PER_LAYER.values())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ghc_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
