"""The sweep subsystem's execution backend: a warm local process pool.

:class:`~repro.experiments.sweep.SweepExecutor` owns spec hashing,
dedup and the result cache; :class:`ProcessPoolBackend` owns how the
pending jobs run.  With ``workers=1`` (or a one-job batch) they run
inline in this process, deterministic and without pool overhead.
Otherwise they fan out over a *persistent, warm*
``ProcessPoolExecutor``: before the pool starts, the parent builds the
batch's workload traces so forked workers inherit them; workers start
once (pre-importing the hot modules) and jobs ship as pre-pickled
chunks in heaviest-first order.

``REPRO_SWEEP_WORKERS`` (or the executor's ``workers=``) chooses the
worker count.
"""

from __future__ import annotations

import multiprocessing
import pickle
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Sequence

from repro.experiments import runner, traceplane
from repro.experiments.sweep import (
    DEFAULT_RUNNER,
    JobSpec,
    SweepError,
    _execute_job,
    job_key,
)
from repro.telemetry import MODE_METRICS, Telemetry

__all__ = ["ProcessPoolBackend"]


def _run_specs(specs: Sequence[JobSpec]) -> tuple[list, list[int]]:
    """Run specs in order; returns the results and each job's
    wall-clock ns.  Each job is timed under a span of a
    private metrics-mode Telemetry, so measurement works regardless of
    the global mode."""
    results = []
    walls = []
    for spec in specs:
        tel = Telemetry(MODE_METRICS)
        with tel.span("job"):
            results.append(_execute_job(spec))
        walls.append(tel.phase_totals().get("job", 0))
    return results, walls


def _execute_chunk(blob: bytes):
    """Process-pool entry point for one pre-pickled chunk of specs.

    Runs every spec and ships back per-job wall clocks plus this
    worker's accumulated dispatch-overhead ns (warmup, consume-once).
    """
    results, walls = _run_specs(pickle.loads(blob))
    return results, walls, traceplane.consume_worker_ns()


def _chunk_size_for(n_jobs: int, workers: int) -> int:
    """Jobs per pool submission, sized so each worker sees ~4 chunks —
    big enough to amortize pickle and IPC, small enough that the
    heaviest-first order still balances the tail."""
    return max(1, min(32, -(-n_jobs // (workers * 4))))


def _job_cost(spec: JobSpec) -> float:
    """Cost estimate from the spec alone: RSS pages x batches.

    Simulated wall clock is dominated by accesses processed, and the
    access count scales with the workload's page footprint times its
    batch count.
    """
    config = spec.resolved_config()
    try:
        pages = int(spec.workload_overrides.get("num_pages", 0))
        if pages <= 0:
            pages = runner.workload_pages(spec.workload, config)
        batches = int(spec.workload_overrides.get("total_batches", 0))
        if batches <= 0:
            batches = config.batches
    except Exception:
        pages, batches = config.num_pages, config.batches
    return float(max(1, pages)) * float(max(1, batches))


def _heaviest_first(specs: Sequence[JobSpec], keys: Sequence[str]) -> list[int]:
    """Indices into ``specs``, heaviest job first, ties by job key.

    A pure function of the job identities: reordering the input or
    changing a ``tag`` cannot change which job is submitted when.
    """
    return sorted(range(len(specs)), key=lambda i: (-_job_cost(specs[i]), keys[i]))


def _build_traces(specs: Sequence[JobSpec]) -> None:
    """Fill the runner's trace cache with the batch's distinct traces.

    Called in the parent just before a pool starts, so forked workers
    inherit every trace instead of each regenerating it.  Only
    standard-runner jobs with a keyable workload count, at most as many
    traces as the cache holds; anything skipped (or failing) is simply
    regenerated in the worker, bit-identically.
    """
    seen: set[tuple] = set()
    keys: set[tuple] = set()
    for spec in specs:
        if len(keys) >= runner._TRACE_CACHE_MAX:
            return
        if spec.runner != DEFAULT_RUNNER:
            continue
        config = spec.resolved_config()
        ident = (
            spec.workload,
            tuple(sorted((str(k), repr(v)) for k, v in spec.workload_overrides.items())),
            tuple(sorted((str(k), repr(v)) for k, v in spec.engine_overrides.items())),
            repr(config),
        )
        if ident in seen:
            continue
        seen.add(ident)
        try:
            workload = runner.build_workload(spec.workload, config, **spec.workload_overrides)
            seed = config.engine_config(**spec.engine_overrides).seed
            key = runner._workload_trace_key(workload, seed)
            if key is None or key in keys:
                continue
            runner.materialize_trace(workload, seed, key)
        except Exception:
            continue
        keys.add(key)


class ProcessPoolBackend:
    """Fan jobs over a persistent, warm ``ProcessPoolExecutor``.

    When the pool is about to start, the parent first builds each
    distinct workload trace of the batch into the runner's trace cache
    (timed as ``trace_build``); forked workers inherit that cache, so
    no worker regenerates a trace.  On Linux the pool asks for the
    ``fork`` start method explicitly rather than relying on the
    interpreter's default; elsewhere (or with an explicit
    ``start_method``) workers that cannot inherit simply regenerate,
    bit-identically, and the parent skips the build.

    The pool outlives ``execute`` calls: workers start once (running
    :func:`repro.experiments.traceplane.pool_initializer`, which
    pre-imports the hot modules) and keep their process-level caches —
    traces, derived-account memos, H3 XOR tables — across batches, so
    consecutive jobs on a warm worker skip setup entirely.  A warm pool
    gets no parent-side build: its workers forked before any new trace
    existed.  Jobs ship as pre-pickled chunks (amortizing pickle/IPC,
    measured under a ``job_pickle`` span) heaviest first.  A batch of
    one job (or ``workers=1``) runs inline — the pool buys nothing
    there.

    Call :meth:`close` (or let the executor's context manager do it) to
    shut the pool down; a broken pool (worker crash) is disposed and
    the next ``execute`` starts a fresh one.

    After ``execute`` returns, ``last_job_wall_ns`` holds one measured
    wall clock per spec and ``last_dispatch_ns`` the dispatch-overhead
    breakdown; the executor feeds both into run manifests and
    :class:`~repro.experiments.sweep.SweepStats`.
    """

    def __init__(self, workers: int, start_method: str | None = None):
        if workers < 1:
            raise SweepError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.start_method = start_method
        self._pool: ProcessPoolExecutor | None = None
        self.last_job_wall_ns: list[int] = []
        self.last_dispatch_ns: dict[str, int] = {}

    # ------------------------------------------------------------------
    def _context(self):
        method = self.start_method
        if method is None and sys.platform.startswith("linux"):
            method = "fork"
        return multiprocessing.get_context(method)

    def _build_for_fork(self, specs: Sequence[JobSpec]) -> int:
        """Build the batch's traces for a pool about to fork; the ns it
        took (0 when the workers will not inherit the parent's memory)."""
        if self._context().get_start_method() != "fork":
            return 0
        tel = Telemetry(MODE_METRICS)
        with tel.span("trace_build"):
            _build_traces(specs)
        return tel.phase_totals().get("trace_build", 0)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._context(),
                initializer=traceplane.pool_initializer,
            )
        return self._pool

    def _dispose_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __del__(self) -> None:
        try:
            self._dispose_pool()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def execute(
        self,
        specs: Sequence[JobSpec],
        keys: Sequence[str] | None = None,
    ) -> list:
        """Run every spec, returning sanitized results in spec order.

        ``keys`` are the specs' precomputed :func:`job_key` hashes when
        the caller already has them (the executor always does).
        """
        self.last_dispatch_ns = {}
        if self.workers <= 1 or len(specs) <= 1:
            results, self.last_job_wall_ns = _run_specs(specs)
            return results

        if keys is None:
            keys = [job_key(spec) for spec in specs]
        order = _heaviest_first(specs, keys)
        chunk_size = _chunk_size_for(len(specs), self.workers)
        chunks = [order[i : i + chunk_size] for i in range(0, len(order), chunk_size)]

        # pre-pickling in the parent (rather than letting the pool's
        # feeder thread do it per submit) is what lets the job_pickle
        # span measure serialization honestly — and ships one blob per
        # chunk instead of one message per job
        tel = Telemetry(MODE_METRICS)
        blobs = []
        with tel.span("job_pickle"):
            for chunk in chunks:
                chunk_specs = [specs[i] for i in chunk]
                blobs.append(pickle.dumps(chunk_specs, protocol=pickle.HIGHEST_PROTOCOL))

        dispatch = {"job_pickle": tel.phase_totals().get("job_pickle", 0)}
        if self._pool is None:
            dispatch["trace_build"] = self._build_for_fork(specs)
        pool = self._ensure_pool()
        try:
            futures = [pool.submit(_execute_chunk, blob) for blob in blobs]
            results: list = [None] * len(specs)
            walls = [None] * len(specs)
            for chunk, future in zip(chunks, futures):
                chunk_results, chunk_walls, worker_ns = future.result()
                for i, result, wall_ns in zip(chunk, chunk_results, chunk_walls):
                    results[i] = result
                    walls[i] = wall_ns
                for phase, ns in worker_ns.items():
                    dispatch[phase] = dispatch.get(phase, 0) + ns
        except BrokenProcessPool:
            # a dead worker poisons the whole pool; drop it so the next
            # execute starts clean instead of failing forever
            self._dispose_pool()
            raise
        self.last_job_wall_ns = walls
        self.last_dispatch_ns = dispatch
        return results
