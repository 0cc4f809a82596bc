"""The benchmark's workloads: what each one runs and how its output is checked.

Every workload is a closed-loop batch simulation driven from one
process: jobs run back to back, each starting when the previous one
returns.  The serial grids call ``runner.run_one`` directly, so the
sweep stack does no work in them; ``fig12-pool`` is the one workload
that goes through ``SweepExecutor``.

Each ``run_*`` function returns an :class:`Outcome`.  A job fails when it
raises, when its report breaks an invariant (:func:`report_problems`),
or when it takes part in a paper-shape property that does not hold.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field, fields, replace

from perfbench.tracer import ANNOTATION, TRACER

_now = time.perf_counter_ns


@dataclass(frozen=True)
class Workload:
    name: str
    #: the one-line reason it was chosen
    why: str
    #: layers whose changes it should show
    moves: str
    #: layers it bypasses: a change confined to them should leave it unchanged
    holds: str
    #: the baseline of ``neomem_speedup_geomean`` (None: not a NeoMem grid)
    baseline: str | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig11-serial",
            "the Fig. 11 headline grid (8 benchmarks x 6 systems at 1:2), serial: "
            "what a user runs to reproduce the paper's claim",
            "workloads, runner, cachefilter, engine, lru2q, migration, neoprof, "
            "daemon, profilers, policies",
            "sweep/backends/traceplane/scheduling, cache, tlb",
            "pebs",
        ),
        Workload(
            "fig12-pool",
            "the Fig. 12 ratio grid (8 benchmarks x 1:2/1:4/1:8 x neomem/pebs) "
            "through SweepExecutor on a process pool: the only user of the sweep stack",
            "sweep/backends/traceplane/scheduling, lru2q and migration (1:8), "
            "neoprof and daemon (half the jobs are NeoMem)",
            "cache, tlb",
            "pebs",
        ),
        Workload(
            "kvcache-tiers",
            "the KV-cache grid (3 contexts x 5 placements x exclusive/inclusive), "
            "serial: appended blocks write, inclusive demotion is a free drop",
            "engine, migration, policies (lookahead, memtis, tpp), daemon",
            "sweep/backends/traceplane/scheduling, cache, tlb; little cachefilter",
            "first-touch",
        ),
        Workload(
            "fig04b-scalar",
            "run_fig04b: a Redis trace through the exact L1/L2/LLC cache and the "
            "TLB, one scalar call per access: the only user of memsim.cache/tlb",
            "cache, tlb, workloads",
            "engine, runner, cachefilter, lru2q, migration, neoprof, daemon, "
            "profilers, policies, sweep",
            None,
        ),
    )
}

#: the seed the paper grids use (``ExperimentConfig.seed``)
DEFAULT_SEED = 2024
#: held out while the benchmark was written: a later gain claim must also hold here
HELD_OUT_SEED = 4242

#: ``paper`` is the figure harnesses' default machine; ``smoke`` is a
#: tiny machine for the benchmark's own tests
SCALES = ("paper", "smoke")
_SMOKE_CONFIG = dict(num_pages=2048, batches=6, batch_size=2048)
_FIG04B = {
    "paper": dict(num_pages=4096, accesses=200_000),
    "smoke": dict(num_pages=1024, accesses=16_384),
}

#: called with no arguments when the first job is ready (the round
#: reads the host-speed meter there)
ON_READY: list = []

#: fidelity metrics; a workload reports ``None`` for one it has no data for
FIDELITY = ("neomem_speedup_geomean", "fast_hit_ratio", "tlb_llc_pearson_r")


@dataclass
class Outcome:
    """What one workload run produced."""

    labels: list[str]
    #: perf_counter_ns when the first job was ready to start
    ready_ns: int = 0
    done_ns: int = 0
    #: host ns per job, in job order
    job_ns: list[int] = field(default_factory=list)
    #: simulated accesses processed
    accesses: int = 0
    #: job index -> reasons it failed
    failed: dict[int, list[str]] = field(default_factory=dict)
    fidelity: dict[str, float | None] = field(default_factory=dict)
    digest: str = ""
    #: pool only: SweepStats.dispatch_ns, summed job ns, worker count
    sweep: dict | None = None

    def fail(self, indices, reason: str) -> None:
        for i in indices:
            self.failed.setdefault(i, []).append(reason)


def experiment_config(seed: int, scale: str):
    from repro.experiments.config import DEFAULT_CONFIG

    config = replace(DEFAULT_CONFIG, seed=seed)
    return replace(config, **_SMOKE_CONFIG) if scale == "smoke" else config


def pool_workers() -> int:
    """``nproc``, at least 2 so the pool path runs, at most 4 to bound memory."""
    return max(2, min(4, len(os.sched_getaffinity(0))))


# ----------------------------------------------------------------------
# checks and digest
# ----------------------------------------------------------------------
def report_problems(report, config) -> list[str]:
    """Per-report invariants every simulation must satisfy."""
    problems = []
    epochs = len(report.series("epoch"))
    if epochs != config.batches:
        problems.append(f"epochs {epochs} != batches {config.batches}")
    want = config.batches * config.batch_size
    if report.total_accesses != want:
        problems.append(f"accesses {report.total_accesses} != batches x batch_size {want}")
    fast, slow = report.series("fast_hits"), report.series("slow_hits")
    misses = report.series("llc_misses")
    if any(f + s != m for f, s, m in zip(fast, slow, misses)):
        problems.append("fast_hits + slow_hits != llc_misses")
    total = report.total_time_ns
    if not (math.isfinite(total) and total > 0):
        problems.append(f"simulated time {total!r} is not finite and positive")
    return problems


def mark_ready(outcome: Outcome) -> None:
    """The first job is ready: set-up ends here."""
    outcome.ready_ns = _now()
    for hook in ON_READY:
        hook()


def report_digest(labels, reports) -> str:
    """SHA-256 over every per-epoch statistic of every report, in job order."""
    from repro.memsim.metrics import EpochMetrics

    digest = hashlib.sha256()
    for label, report in zip(labels, reports):
        digest.update(label.encode())
        if report is None:
            digest.update(b"\0failed")
            continue
        for f in fields(EpochMetrics):
            digest.update(json.dumps(report.series(f.name)).encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _run_serial(specs, outcome: Outcome, trace: bool) -> list:
    from repro.experiments import runner

    reports = []
    mark_ready(outcome)
    for i, spec in enumerate(specs):
        start = _now()
        span = TRACER.span("job") if trace else contextlib.nullcontext()
        TRACER.job = outcome.labels[i]
        try:
            with span:
                report = runner.run_one(
                    spec.workload,
                    spec.policy,
                    spec.resolved_config(),
                    workload_overrides=dict(spec.workload_overrides),
                    policy_kwargs=dict(spec.policy_kwargs),
                )
        except Exception as exc:  # a failed job is counted, the grid goes on
            report = None
            outcome.fail([i], f"raised {exc!r}")
        outcome.job_ns.append(_now() - start)
        reports.append(report)
    outcome.done_ns = _now()
    return reports


def _run_pool(specs, outcome: Outcome, trace: bool) -> list:
    from repro.experiments.sweep import SweepExecutor

    workers = pool_workers()
    executor = SweepExecutor(workers=workers, cache_dir="")
    mark_ready(outcome)
    try:
        reports = executor.run(specs)
    except Exception as exc:  # the pool re-raises a job's error: all jobs count
        reports = [None] * len(specs)
        outcome.fail(range(len(specs)), f"sweep raised {exc!r}")
    finally:
        executor.close()
    outcome.done_ns = _now()
    if any(r is not None for r in reports):
        outcome.job_ns = [int(ns or 0) for ns in executor.backend.last_job_wall_ns]
    outcome.sweep = {
        "dispatch_ns": dict(executor.stats.dispatch_ns),
        "job_ns": sum(outcome.job_ns),
        "workers": workers,
    }
    for report in reports:
        if report is not None:
            shipped = report.annotations.pop(ANNOTATION, None)
            if shipped is not None:
                TRACER.merge(shipped)
    return reports


def _check_reports(specs, reports, outcome: Outcome) -> None:
    for i, (spec, report) in enumerate(zip(specs, reports)):
        if report is not None:
            outcome.accesses += report.total_accesses
            for problem in report_problems(report, spec.resolved_config()):
                outcome.fail([i], problem)
    outcome.digest = report_digest(outcome.labels, reports)


def _index(specs, reports, key):
    """``key(spec) -> point`` grouped as point -> policy -> (index, report)."""
    points: dict = {}
    for i, (spec, report) in enumerate(zip(specs, reports)):
        points.setdefault(key(spec), {})[spec.policy] = (i, report)
    return points


def _speedups(points, baseline):
    """Per point: baseline simulated time / NeoMem simulated time."""
    out = {}
    for point, by_policy in points.items():
        base, neo = by_policy[baseline][1], by_policy["neomem"][1]
        if base is not None and neo is not None:
            out[point] = base.total_time_ns / neo.total_time_ns
    return out


def _run_grid(name, specs, execute, point_of, trace: bool):
    """Run a NeoMem grid; returns the outcome, the jobs grouped by grid
    point (:func:`_index`) and NeoMem's speedup at each point."""
    from repro.experiments.runner import geomean

    outcome = Outcome([s.label() for s in specs])
    reports = execute(specs, outcome, trace)
    _check_reports(specs, reports, outcome)
    points = _index(specs, reports, point_of)
    speedups = _speedups(points, WORKLOADS[name].baseline)
    hits = [
        r.fast_hit_ratio
        for s, r in zip(specs, reports)
        if s.policy == "neomem" and r is not None
    ]
    outcome.fidelity = {
        "neomem_speedup_geomean": geomean(speedups.values()) if speedups else None,
        "fast_hit_ratio": statistics.fmean(hits) if hits else None,
        "tlb_llc_pearson_r": None,
    }
    return outcome, points, speedups


def run_fig11(seed: int, scale: str, trace: bool) -> Outcome:
    from repro.experiments import fig11

    specs = fig11.fig11_jobs(experiment_config(seed, scale))
    outcome, _, _ = _run_grid("fig11-serial", specs, _run_serial, lambda s: s.workload, trace)
    return outcome


def run_fig12(seed: int, scale: str, trace: bool) -> Outcome:
    from repro.experiments import fig12

    specs = fig12.fig12_jobs(experiment_config(seed, scale))
    outcome, points, speedups = _run_grid(
        "fig12-pool", specs, _run_pool, lambda s: (s.workload, s.tag), trace
    )
    # paper shape: NeoMem >= 0.95x PEBS at every point, wins the mean per ratio
    for point, value in speedups.items():
        if value < 0.95:
            outcome.fail(
                [i for i, _ in points[point].values()],
                f"NeoMem {value:.3f}x PEBS at {point} (< 0.95x)",
            )
    for ratio in sorted({tag for _, tag in points}):
        at_ratio = [v for (_, tag), v in speedups.items() if tag == ratio]
        if at_ratio and sum(at_ratio) / len(at_ratio) <= 1.0:
            outcome.fail(
                [i for i, s in enumerate(specs) if s.tag == ratio],
                f"NeoMem loses the mean at {ratio}",
            )
    return outcome


def run_kvcache(seed: int, scale: str, trace: bool) -> Outcome:
    from repro.experiments import kvcache

    specs = kvcache.kvcache_jobs(experiment_config(seed, scale))
    outcome, points, _ = _run_grid("kvcache-tiers", specs, _run_serial, lambda s: s.tag, trace)
    # paper shape: the oracle's hit rate is at least first-touch's everywhere
    for point, by_policy in points.items():
        (li, look), (fi, first) = by_policy["lookahead"], by_policy["first-touch"]
        if look is not None and first is not None:
            if look.fast_hit_ratio < first.fast_hit_ratio:
                outcome.fail(
                    [li, fi],
                    f"lookahead hit rate {look.fast_hit_ratio:.3f} < first-touch "
                    f"{first.fast_hit_ratio:.3f} at {point}",
                )
    return outcome


def run_fig04b(seed: int, scale: str, trace: bool) -> Outcome:
    from repro.experiments import fig04

    outcome = Outcome(["fig04b/redis"])
    mark_ready(outcome)
    span = TRACER.span("job") if trace else contextlib.nullcontext()
    TRACER.job = outcome.labels[0]
    try:
        with span:
            result = fig04.run_fig04b(seed=seed, **_FIG04B[scale])
    except Exception as exc:
        result = None
        outcome.fail([0], f"raised {exc!r}")
    outcome.done_ns = _now()
    outcome.job_ns = [outcome.done_ns - outcome.ready_ns]
    digest = hashlib.sha256(b"fig04b/redis")
    outcome.fidelity = dict.fromkeys(FIDELITY)
    if result is not None:
        tlb, llc = result.tlb_accesses, result.llc_misses
        outcome.accesses = int(tlb.sum())
        r = result.pearson_r
        # paper shape: TLB visibility correlates poorly with LLC misses
        if not r < 0.7:
            outcome.fail([0], f"Pearson r {r:.3f} >= 0.7")
        if result.sampled_pages <= 100:
            outcome.fail([0], f"only {result.sampled_pages} pages sampled (<= 100)")
        if (llc > tlb).any():
            outcome.fail([0], "a page has more LLC misses than TLB accesses")
        outcome.fidelity["tlb_llc_pearson_r"] = r
        for array in (tlb, llc):
            digest.update(array.tobytes())
        digest.update(repr(r).encode())
    outcome.digest = digest.hexdigest()
    return outcome


RUNS = {
    "fig11-serial": run_fig11,
    "fig12-pool": run_fig12,
    "kvcache-tiers": run_kvcache,
    "fig04b-scalar": run_fig04b,
}
