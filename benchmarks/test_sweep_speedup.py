"""Sweep executor: serial vs process-pool wall clock on one figure grid.

Runs the same multi-point sweep (a Fig. 12-style workload x ratio x
system grid) through the serial executor and a 4-worker process pool —
a *cold* pool pass (first ``run``, parent-side trace build + pool
startup on the clock) and a *warm* pass (same executor re-run: workers
already forked, hot modules imported, per-worker caches populated) —
asserts the per-job reports are bit-identical, and *appends* one record
to the ``BENCH_sweep.json`` perf trajectory
(:mod:`repro.experiments.trajectory`): engine throughput, per-phase
wall-clock split (from one telemetry-instrumented job), the dispatch
overhead breakdown (``trace_build`` / ``job_pickle`` /
``worker_warmup``), sweep wall clocks, and cache hit rates measured
honestly — an explicit cold pass against a fresh cache (every lookup
must miss) and a warm replay (every lookup must hit), instead of the
old single 100 %-by-construction number.  CI's regression gate
compares each new record against the history's 95 % confidence band.

Speedup bars are only asserted when the machine has the cores to
express them; the record carries ``cpu_count`` and an
``effective_parallel`` flag either way, so a single-core CI shard still
appends an honest datapoint and the gate knows not to read its
parallel numbers as regressions.
"""

import os
import time
from pathlib import Path

from benchmarks.conftest import BENCH_CONFIG
from repro.experiments import fig12
from repro.experiments.sweep import SweepExecutor, run_single
from repro.experiments.trajectory import append_record
from repro.telemetry import configure, git_revision

#: where the perf trajectory lands (repo root, next to README)
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

PARALLEL_WORKERS = 4


def _sweep_jobs():
    """A multi-point grid: 2 workloads x 2 ratios x 2 systems = 8 jobs."""
    return fig12.fig12_jobs(
        BENCH_CONFIG, workloads=("gups", "silo"), ratios=((1, 2), (1, 4))
    )


def _phase_breakdown(spec):
    """Per-phase wall-clock ns of one instrumented job (telemetry on).

    Runs outside the timed passes — instrumentation costs a little, and
    the timed passes must measure the default (telemetry-off) path.
    The global telemetry is restored to ``off`` afterwards.
    """
    configure("metrics")
    try:
        report = run_single(spec)
        return dict(report.annotations["telemetry"]["phases"])
    finally:
        configure("off")


def _hit_rate(executor):
    lookups = executor.stats.cache_hits + executor.stats.cache_misses
    return executor.stats.cache_hits / lookups if lookups else 0.0


def test_sweep_parallel_speedup(benchmark, tmp_path):
    jobs = _sweep_jobs()
    cache_dir = tmp_path / "sweep-cache"

    def measure():
        # cold serial pass against a fresh cache: every lookup must
        # miss, and the pass leaves a fully populated cache behind for
        # the warm replay below to measure the hit side against
        serial = SweepExecutor(workers=1, cache_dir=cache_dir)
        start = time.perf_counter()
        serial_reports = serial.run(jobs)
        serial_s = time.perf_counter() - start
        hit_rate_cold = _hit_rate(serial)

        # the pool passes pin caching OFF — their contract is raw
        # execution wall clock, and a warm cache would turn them into
        # pickle loads.  Cold = first run of a fresh executor (pool
        # startup, parent-side trace build, worker warmup on the clock);
        # warm = the same executor again (workers alive, hot modules
        # imported, per-worker trace/memo caches populated).
        pool = SweepExecutor(workers=PARALLEL_WORKERS, cache_dir="")
        try:
            start = time.perf_counter()
            parallel_reports = pool.run(jobs)
            parallel_s = time.perf_counter() - start
            dispatch_ns = dict(pool.stats.dispatch_ns)

            start = time.perf_counter()
            warm_reports = pool.run(jobs)
            parallel_warm_s = time.perf_counter() - start
        finally:
            pool.close()
        return (
            serial_reports, serial_s, hit_rate_cold,
            parallel_reports, parallel_s, dispatch_ns,
            warm_reports, parallel_warm_s,
        )

    (
        serial_reports, serial_s, hit_rate_cold,
        parallel_reports, parallel_s, dispatch_ns,
        warm_reports, parallel_warm_s,
    ) = benchmark.pedantic(measure, rounds=1, iterations=1)

    def agrees(other):
        return all(
            a.epochs == b.epochs and a.workload == b.workload and a.policy == b.policy
            for a, b in zip(serial_reports, other)
        )

    identical = agrees(parallel_reports) and agrees(warm_reports)
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    speedup_warm = serial_s / parallel_warm_s if parallel_warm_s > 0 else float("inf")
    cpu_count = os.cpu_count() or 1
    effective_parallel = cpu_count >= 2
    total_epochs = sum(len(r.epochs) for r in serial_reports)
    epochs_per_sec = total_epochs / serial_s if serial_s > 0 else 0.0

    # warm replay against the cold pass's cache: every job must hit
    warm = SweepExecutor(workers=1, cache_dir=cache_dir)
    start = time.perf_counter()
    warm.run(jobs)
    warm_replay_s = time.perf_counter() - start
    cache_hit_rate = _hit_rate(warm)

    record = {
        "git_rev": git_revision(),
        "unix_ts": int(time.time()),
        "jobs": len(jobs),
        "workers": PARALLEL_WORKERS,
        "cpu_count": cpu_count,
        "effective_parallel": effective_parallel,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "parallel_warm_s": round(parallel_warm_s, 4),
        "speedup": round(speedup, 3),
        "speedup_warm": round(speedup_warm, 3),
        "epochs_per_sec": round(epochs_per_sec, 2),
        "cache_hit_rate_cold": round(hit_rate_cold, 4),
        "cache_hit_rate": round(cache_hit_rate, 4),
        "warm_replay_s": round(warm_replay_s, 4),
        "phase_ns": _phase_breakdown(jobs[0]),
        "dispatch_ns": dispatch_ns,
        "bit_identical_reports": identical,
        "config": {
            "num_pages": BENCH_CONFIG.num_pages,
            "batches": BENCH_CONFIG.batches,
            "batch_size": BENCH_CONFIG.batch_size,
        },
    }
    if os.environ.get("REPRO_BENCH_BASELINE_RESET"):
        # deliberate baseline change: the regression gate restarts its
        # comparison history at this record (see trajectory.evaluate_gate)
        record["baseline_reset"] = True
    records = append_record(BENCH_JSON, record)
    print()
    print(
        f"sweep of {len(jobs)} jobs: serial {serial_s:.2f}s, "
        f"{PARALLEL_WORKERS}-worker cold {parallel_s:.2f}s -> {speedup:.2f}x, "
        f"warm {parallel_warm_s:.2f}s -> {speedup_warm:.2f}x "
        f"({cpu_count} cpu, {epochs_per_sec:.0f} epochs/s, "
        f"cache cold {hit_rate_cold:.0%} / warm {cache_hit_rate:.0%}); "
        f"appended record #{len(records) - 1} to {BENCH_JSON.name}"
    )

    # determinism is unconditional: cold pool, warm pool and serial
    # must agree bit-for-bit
    assert identical
    # the cold pass ran against a fresh cache; the warm replay must be
    # fully served from the cache it left behind
    assert hit_rate_cold == 0.0
    assert cache_hit_rate == 1.0
    # the speedup bars need the cores to express them
    if effective_parallel:
        assert speedup_warm > 1.0, record
    if cpu_count >= PARALLEL_WORKERS:
        assert speedup >= 2.0, record
