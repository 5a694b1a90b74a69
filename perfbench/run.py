"""arcspace benchmark: one workload, one seed, timed passes over its job list.

    python3 perfbench/run.py --workload jet-ecodim --seed 1 --seconds 36 --trace 0

Workloads are closed loops: one client in this process, no threads, each job
starting only after the previous one finished.  A pass runs every job of the
workload once; passes repeat for about ``--seconds`` (at least one pass).
Every output is checked (see ``workloads.py``); a job that raises or whose
output fails its check counts as failed.

The host's speed drifts by up to a third over seconds to minutes (other
tenants share its cores), and a median inside one run cannot remove drift that
lasts longer than the run.  So every job is bracketed by a reference slice, a
fixed stdlib computation (``reference_slice``), more slices run inside it
every ``PROBE_EVERY_S``, and its latency is scaled by ``REFERENCE_S / (mean of
those slices)``: times are reported as on a host that runs the slice in
``REFERENCE_S`` seconds.  Set-up probes are scaled by the reference slices
run next to them.  The unscaled medians are printed as ``raw_`` lines.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates untraced
and traced passes and prints the per-layer table (see ``spans.py``) and the
tracing overhead.  Each metric is printed as ``name value unit``; the last
line of stdout is the JSON result.  Spans are written to
``perfbench/out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# set-up is timed in fresh interpreters: one warm-up, then this many measured
SETUP_PROBES = 11
SETUP_SLICES = 3
TAIL_BEYOND = 10
# nominal seconds of one reference slice; scaled times read as on a host this fast
REFERENCE_S = 0.005
# seconds between reference slices inside a job
PROBE_EVERY_S = 0.1


def docs_dir(workload: str, seed: int) -> Path:
    return OUT / f"docs-{workload}-{seed}"


def reference_slice() -> float:
    """Seconds taken by a fixed computation shaped like the library's work:
    Fraction arithmetic, big-int remainders, a tuple-keyed dict and a sort."""
    start = time.perf_counter()
    acc: dict[tuple[int, int, int], int] = {}
    s = Fraction(0)
    for i in range(1, 500):
        s += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
        key = (i % 13, i % 7, i % 5)
        acc[key] = acc.get(key, 0) + s.numerator % 97
    sorted(acc.items())
    return time.perf_counter() - start


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """(scaled, raw) median wall time of fresh interpreters that import
    arcspace and build the jobs; one warm-up probe is not counted.

    Each probe is scaled by the mean of the SETUP_SLICES reference slices run
    just before it and just after it.  The wait has no timeout: a timed wait
    polls, which rounds probes to 50 ms.
    """
    argv = [sys.executable, str(Path(__file__)), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times, raw = [], []
    before = [reference_slice() for _ in range(SETUP_SLICES)]
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        took = time.perf_counter() - start
        after = [reference_slice() for _ in range(SETUP_SLICES)]
        if i:
            times.append(took * REFERENCE_S / statistics.fmean(before + after))
            raw.append(took)
        before = after
    return statistics.median(times), statistics.median(raw)


class InJobProbes:
    """Reference slices run from a SIGALRM handler every PROBE_EVERY_S while a
    job runs, so that a job of seconds is scaled by the host's speed during
    it and not only at its two ends.  The slices' own time is taken out of
    the job's latency by the caller."""

    def __init__(self) -> None:
        self.slices: list[float] = []

    def _probe(self, signum, frame) -> None:
        self.slices.append(reference_slice())

    def __enter__(self) -> InJobProbes:
        self.slices = []
        self.previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def run_pass(jobs, tracer=None) -> tuple[list[float], list[float], list[str]]:
    """(scaled per-job seconds, raw per-job seconds, failure messages).

    Reference slices run between jobs, outside their timing and spans, and
    inside untraced jobs (see ``InJobProbes``); traced jobs run without them
    so that no slice lands in a span."""
    latencies, raw, failures = [], [], []
    probes = InJobProbes()
    gc.collect()  # every pass starts from the same heap state
    before = reference_slice()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        t0 = time.perf_counter()
        with probes if tracer is None else contextlib.nullcontext():
            try:
                problem = job.check(job.run())
            except Exception as exc:  # a failed job is a result, not a crash
                problem = f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - t0 - sum(probes.slices)
        after = reference_slice()
        speed = statistics.fmean([before, *probes.slices, after])
        latencies.append(took * REFERENCE_S / speed)
        raw.append(took)
        before = after
        if problem:
            failures.append(f"{job.name}: {problem}")
    return latencies, raw, failures


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with >= TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count); with too few samples the
    maximum is returned at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def out_of_time(start: float, seconds: float, step: float) -> bool:
    """Stop when another step of this length would end past the deadline by
    more than half of it, so that runs last ``seconds`` on average."""
    return time.perf_counter() - start + step / 2 >= seconds


def timed_passes(jobs, seconds: float):
    """(scaled pass walls, scaled job latencies, raw pass walls, failures)."""
    walls, latencies, raw_walls, failures = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        lat, raw, fail = run_pass(jobs)
        walls.append(sum(lat))
        latencies += lat
        raw_walls.append(sum(raw))
        failures += fail
        if out_of_time(start, seconds, time.perf_counter() - t0):
            return walls, latencies, raw_walls, failures


def traced_passes(jobs, seconds: float):
    """Alternate untraced and traced passes; per-layer medians over traced ones."""
    tracer = spans.Tracer()
    plain, traced, per_pass, recorded, failures = [], [], [], [], []
    counts_seen = set()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        lat, _, fail = run_pass(jobs)
        plain.append(sum(lat))
        failures += fail
        tracer.reset()
        tracer.install()
        try:
            lat, raw, fail = run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(lat))
        failures += fail
        # spans are raw clock readings, so the pass they are shares of is too
        metrics = spans.pass_metrics(tracer.spans, tracer.counts, sum(raw))
        per_pass.append(metrics)
        recorded.append(tracer.spans)
        counts_seen.add(tuple(metrics[k] for k in spans.DETERMINISTIC))
        if out_of_time(start, seconds, time.perf_counter() - t0):
            break
    if len(counts_seen) > 1:
        failures.append("work counters differ between traced passes of one seed")
    # times are medians over the traced passes; counts are equal in every pass
    result = {k: statistics.median(m[k] for m in per_pass) if spans.unit(k) == "s" else v
              for k, v in per_pass[0].items()}
    result["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return result, len(plain) + len(traced), recorded, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("jet-ecodim", "model-build", "verify-dgk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "arcspace" / "__init__.py").is_file():
        print(f"perfbench: no arcspace source at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    docs = docs_dir(args.workload, args.seed)
    if args.setup_probe:
        workloads.build_jobs(args.workload, args.seed, docs)
        return 0

    jobs = workloads.build_jobs(args.workload, args.seed, docs)
    name = args.workload
    if args.trace:
        metrics, npasses, recorded, failures = traced_passes(jobs, args.seconds)
        attempted = npasses * len(jobs)
        spans.write_spans(OUT / f"spans-{name}-{args.seed}.jsonl", recorded)
        units = {k: spans.unit(k) for k in metrics}
    else:
        setup, raw_setup = setup_seconds(args.workload, args.seed)
        walls, latencies, raw_walls, failures = timed_passes(jobs, args.seconds)
        attempted = len(latencies)
        tail_ms, pct, nsamples = tail([x * 1000 for x in latencies])
        metrics = {
            "setup_s": setup,
            "wall_s": statistics.median(walls),
            "job_p50_ms": statistics.median(latencies) * 1000,
            "job_tail_ms": tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms",
                 "job_tail_ms": "ms", "peak_rss_mb": "MB"}
        print(f"{name} passes {len(walls)} jobs_per_pass {len(jobs)}")
        print(f"{name} job_tail_ms is p{pct:.1f} of {nsamples} job samples")
        print(f"{name} raw_setup_s {raw_setup} s (unscaled)")
        print(f"{name} raw_wall_s {statistics.median(raw_walls)} s (unscaled)")
    for failure in failures:
        print(f"{name} FAILED {failure}", file=sys.stderr)
    for case in json.loads((HERE / "limits.json").read_text(encoding="utf-8"))["not_run"]:
        if case["workload"] == name:
            print(f"{name} NOT RUN {case['case']}: took {case['took']}; {case['outcome']}")
    failed = len(failures)
    print(f"{name} fail_frac {failed / attempted} ratio ({failed} of {attempted})")
    for key, value in metrics.items():
        print(f"{name} {key} {value} {units[key]}")
    if args.trace:
        shares = {k: v for k, v in metrics.items() if k.endswith(".layer_self_s")}
        shares["outside spans"] = metrics["trace.outside_s"]
        total = sum(shares.values())
        for key, value in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"{name} share of traced pass {100 * value / total:5.1f} % {key}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
