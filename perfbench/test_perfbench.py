"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import arcspace.drinfeld  # noqa: E402
import arcspace.localgeom  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def light_jobs():
    """The e = 1 windows of jet-ecodim: real jobs that take milliseconds."""
    jobs = workloads.build_jobs("jet-ecodim", 5, run.docs_dir("jet-ecodim", 5))
    return [j for j in jobs if "-e1-" in j.name]


def test_corrupted_output_raises_fail_frac():
    jobs = light_jobs()
    latencies, _, failures = run.run_pass(jobs)
    assert failures == [] and len(latencies) == len(jobs)

    victim = jobs[0]
    honest = victim.run

    def corrupted():
        report = honest()
        return type(report)(report.window, report.per_level, report.ecodim + 1,
                            report.stabilized)

    victim.run = corrupted
    latencies, _, failures = run.run_pass(jobs)
    assert len(failures) == 1 and failures[0].startswith(victim.name)
    assert len(failures) / len(latencies) > 0


def test_golden_mismatch_is_a_failure():
    jobs = workloads.build_jobs("verify-dgk", 0, run.docs_dir("verify-dgk", 0))
    job = next(j for j in jobs if j.name == "golden-ord-quadric-t3")
    code, text = job.run()
    assert job.check((code, text)) is None
    assert job.check((code, text.replace('"3"', '"4"'))) is not None
    assert job.check((1, text)) is not None


def test_exception_is_a_failure():
    job = workloads.Job("boom", lambda: 1 / 0, lambda out: None)
    _, _, failures = run.run_pass([job])
    assert failures == ["boom: ZeroDivisionError: division by zero"]


def test_tracer_wraps_where_callers_look_and_restores():
    original = arcspace.localgeom.edim_at_point
    assert arcspace.drinfeld.edim_at_point is original
    jobs = light_jobs()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert arcspace.localgeom.edim_at_point is not original
        assert arcspace.drinfeld.edim_at_point is arcspace.localgeom.edim_at_point
        _, _, failures = run.run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    assert arcspace.localgeom.edim_at_point is original
    assert arcspace.drinfeld.edim_at_point is original
    names = {s[0] for s in tracer.spans}
    assert "localgeom.ecodim_window" in names and "polyalg.mora.mora_standard_basis" in names
    assert all(s[3] < i for i, s in enumerate(tracer.spans))


def test_self_time_subtracts_children():
    fake = [["localgeom.ecodim_at_point", 0.0, 10.0, -1, "j"],
            ["polyalg.mora.mora_standard_basis", 1.0, 5.0, 0, "j"],
            ["polyalg.mora.mora_normal_form", 2.0, 4.0, 1, "j"]]
    m = spans.pass_metrics(fake, spans.Counter(), 12.0)
    assert m["localgeom.ecodim_at_point_self_s"] == 6.0
    assert m["mora.standard_basis_self_s"] == 2.0
    assert m["mora.nf_s"] == 2.0 and m["mora.nf_calls"] == 1
    assert m["mora.layer_self_s"] == 4.0
    assert m["trace.outside_s"] == 2.0


def test_in_job_probes_sample_a_long_job_and_restore_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with run.InJobProbes() as probes:
        time.sleep(0.35)
    assert len(probes.slices) >= 2
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tail_has_ten_samples_beyond():
    values = [float(i) for i in range(100)]
    value, pct, n = run.tail(values)
    assert sum(v > value for v in values) == 10 and n == 100 and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def traced_counts(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify-dgk", "--seed", "7",
         "--seconds", "0", "--trace", "1"],
        env=env, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: result["metrics"][k]["value"] for k in spans.DETERMINISTIC}


def test_work_counters_repeat_across_processes():
    first = traced_counts("1")
    assert first["mora.nf_calls"] > 0 and first["linalg.entries"] > 0
    assert traced_counts("2") == first
