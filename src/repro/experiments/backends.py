"""Pluggable execution backends for the sweep subsystem.

PR 2's :class:`~repro.experiments.sweep.SweepExecutor` hard-coded one
execution strategy (serial, or a local process pool).  This module
turns "how do pending jobs actually run" into a small interface so new
strategies — starting with multi-host sharding — plug in without
touching the executor's dedup/cache logic:

* :class:`SerialBackend` — in-process, deterministic, no pool overhead.
* :class:`ProcessPoolBackend` — a *persistent, warm*
  ``ProcessPoolExecutor`` fan-out: before the pool starts, the parent
  builds the batch's workload traces so forked workers inherit them;
  workers start once (pre-importing the hot modules) and jobs ship as
  pre-pickled chunks in heaviest-first order.
* :class:`ShardedBackend` — the first *distributed* backend: it
  deterministically partitions the job list (:func:`shard_assignment`)
  and executes only its own shard, leaving :data:`SHARD_SKIPPED`
  markers for the rest.  N independent hosts (CI runners, cluster
  nodes) each run one shard against a private cache directory;
  :func:`merge_shards` then fans the per-shard caches into one
  directory, erroring on key collisions whose payloads disagree.
  Assignment is the content hash modulo the shard count
  (:func:`shard_of`): it keys off
  :func:`~repro.experiments.sweep.job_key` — not list position — so it
  is stable under job reordering and two shards can never execute (or
  cache) conflicting entries for one key.

Backend selection is env-driven so existing harnesses pick it up
without code changes: ``REPRO_SWEEP_SHARD``/``REPRO_SWEEP_NUM_SHARDS``
select sharded execution, ``REPRO_SWEEP_BACKEND`` forces a named
backend, and ``REPRO_SWEEP_WORKERS`` keeps choosing serial vs pool for
the local (or per-shard inner) execution path.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.experiments import runner, traceplane
from repro.experiments.sweep import (
    DEFAULT_RUNNER,
    JobSpec,
    SweepError,
    _env_int,
    _execute_job,
    job_key,
)
from repro.telemetry import MODE_METRICS, Telemetry

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "ShardedBackend",
    "ShardMergeError",
    "MergeStats",
    "SHARD_SKIPPED",
    "is_shard_skipped",
    "shard_of",
    "partition",
    "merge_shards",
    "make_backend",
    "resolve_backend",
    "is_sharded_env",
    "BACKEND_ENV",
    "SHARD_ENV",
    "NUM_SHARDS_ENV",
]

#: force a named backend ("serial", "process-pool", "sharded")
BACKEND_ENV = "REPRO_SWEEP_BACKEND"
#: this host's shard index, 0-based
SHARD_ENV = "REPRO_SWEEP_SHARD"
#: total number of shards splitting the job list
NUM_SHARDS_ENV = "REPRO_SWEEP_NUM_SHARDS"


class ShardMergeError(SweepError):
    """Per-shard caches disagree about a cache key's payload."""


# ----------------------------------------------------------------------
# the backend interface
# ----------------------------------------------------------------------
class ExecutionBackend(ABC):
    """How a batch of pending (non-cached, deduplicated) jobs runs.

    The executor owns spec hashing, dedup and the result cache; a
    backend owns nothing but the execution strategy.  ``execute`` must
    return one entry per spec, in spec order; entries may be
    :data:`SHARD_SKIPPED` when the backend intentionally leaves a job
    to another shard (the executor will not cache those).

    After ``execute`` returns, ``last_job_wall_ns`` holds one measured
    per-job wall clock per spec (``None`` for skipped jobs) and
    ``last_dispatch_ns`` the backend's own dispatch-overhead breakdown
    — the executor feeds both into run manifests and bench records.
    """

    name: str = "?"

    def __init__(self) -> None:
        self.last_job_wall_ns: list[int | None] = []
        self.last_dispatch_ns: dict[str, int] = {}

    @abstractmethod
    def execute(
        self,
        specs: Sequence[JobSpec],
        unpicklable: str = "error",
        keys: Sequence[str] | None = None,
    ) -> list:
        """Run every spec, returning sanitized results in spec order.

        ``keys`` are the specs' precomputed :func:`job_key` hashes when
        the caller already has them (the executor always does); backends
        that partition or order by key use them instead of re-hashing.
        """

    def close(self) -> None:
        """Release any held execution resources (idempotent)."""

    def describe(self) -> str:
        """Human-readable identity for logs and stats lines."""
        return self.name


def _run_payloads(payloads: Sequence[tuple[JobSpec, str]]) -> tuple[list, list[int]]:
    """Run ``(spec, unpicklable)`` payloads in order; returns the results
    and each job's wall-clock ns.  Each job is timed under a span of a
    private metrics-mode Telemetry, so measurement works regardless of
    the global mode."""
    results = []
    walls = []
    for payload in payloads:
        tel = Telemetry(MODE_METRICS)
        with tel.span("job"):
            results.append(_execute_job(payload))
        walls.append(tel.phase_totals().get("job", 0))
    return results, walls


def _execute_chunk(blob: bytes):
    """Process-pool entry point for one pre-pickled chunk of payloads.

    Runs every payload and ships back per-job wall clocks plus this
    worker's accumulated dispatch-overhead ns (warmup, consume-once).
    """
    results, walls = _run_payloads(pickle.loads(blob))
    return results, walls, traceplane.consume_worker_ns()


class SerialBackend(ExecutionBackend):
    """Run jobs one after another in this process (the deterministic
    default: no pool startup, no pickling of specs in flight)."""

    name = "serial"

    def execute(
        self,
        specs: Sequence[JobSpec],
        unpicklable: str = "error",
        keys: Sequence[str] | None = None,
    ) -> list:
        self.last_dispatch_ns = {}
        results, self.last_job_wall_ns = _run_payloads([(spec, unpicklable) for spec in specs])
        return results


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


class ProcessPoolBackend(ExecutionBackend):
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
    """

    name = "process-pool"

    def __init__(self, workers: int, start_method: str | None = None):
        super().__init__()
        if workers < 1:
            raise SweepError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.start_method = start_method
        self._pool: ProcessPoolExecutor | None = None

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
        unpicklable: str = "error",
        keys: Sequence[str] | None = None,
    ) -> list:
        self.last_dispatch_ns = {}
        if self.workers <= 1 or len(specs) <= 1:
            results, self.last_job_wall_ns = _run_payloads([(spec, unpicklable) for spec in specs])
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
                payloads = [(specs[i], unpicklable) for i in chunk]
                blobs.append(pickle.dumps(payloads, protocol=pickle.HIGHEST_PROTOCOL))

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

    def describe(self) -> str:
        return f"{self.name}[{self.workers}]"


# ----------------------------------------------------------------------
# deterministic sharding
# ----------------------------------------------------------------------
class _ShardSkipped:
    """Marker returned for jobs belonging to another shard."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<shard-skipped>"

    def __reduce__(self):
        return (_ShardSkipped, ())


SHARD_SKIPPED = _ShardSkipped()


def is_shard_skipped(result) -> bool:
    """True for the out-of-shard marker (robust across pickling)."""
    return isinstance(result, _ShardSkipped)


def _validate_sharding(shard: int, num_shards: int) -> None:
    if num_shards < 1:
        raise SweepError(f"num_shards must be >= 1, got {num_shards}")
    if not 0 <= shard < num_shards:
        raise SweepError(f"shard must be in [0, {num_shards}), got {shard}")


def _shard_of_key(key: str, num_shards: int) -> int:
    return int(key, 16) % num_shards


def shard_of(spec: JobSpec, num_shards: int) -> int:
    """The shard owning a spec: its content hash modulo ``num_shards``.

    Keyed off :func:`job_key`, so assignment is a pure function of the
    job's identity — independent of list order, duplicate count, or
    which host asks.  Every host slicing the same job list with the
    same ``num_shards`` computes the same disjoint, exhaustive split.
    """
    _validate_sharding(0, num_shards)
    return _shard_of_key(job_key(spec), num_shards)


def partition(specs: Sequence[JobSpec], shard: int, num_shards: int) -> list[JobSpec]:
    """The sub-list of ``specs`` owned by ``shard``, in input order."""
    _validate_sharding(shard, num_shards)
    return [spec for spec in specs if _shard_of_key(job_key(spec), num_shards) == shard]


class ShardedBackend(ExecutionBackend):
    """Execute only this host's deterministic slice of the job list.

    Out-of-shard jobs come back as :data:`SHARD_SKIPPED`; the executor
    neither caches nor counts them as executed.  The in-shard slice
    runs through ``inner`` (serial or a process pool), so sharding
    composes with per-host parallelism: 2 shards x 4 workers uses 8
    cores across 2 machines.

    A sharded run is only useful with a cache directory — that slice
    of results *is* the shard's output, and :func:`merge_shards` is how
    the slices become one result set.
    """

    name = "sharded"

    def __init__(
        self,
        shard: int,
        num_shards: int,
        inner: ExecutionBackend | None = None,
    ):
        super().__init__()
        _validate_sharding(shard, num_shards)
        if isinstance(inner, ShardedBackend):
            raise SweepError("sharded backends do not nest")
        self.shard = shard
        self.num_shards = num_shards
        self.inner = inner if inner is not None else SerialBackend()

    def close(self) -> None:
        self.inner.close()

    def execute(
        self,
        specs: Sequence[JobSpec],
        unpicklable: str = "error",
        keys: Sequence[str] | None = None,
    ) -> list:
        if keys is None:
            keys = [job_key(spec) for spec in specs]
        owned = [_shard_of_key(key, self.num_shards) == self.shard for key in keys]
        mine = [spec for spec, ours in zip(specs, owned) if ours]
        mine_keys = [key for key, ours in zip(keys, owned) if ours]
        results = iter(self.inner.execute(mine, unpicklable, keys=mine_keys))
        inner_walls = iter(self.inner.last_job_wall_ns)
        self.last_job_wall_ns = [
            next(inner_walls, None) if ours else None for ours in owned
        ]
        self.last_dispatch_ns = dict(self.inner.last_dispatch_ns)
        return [next(results) if ours else SHARD_SKIPPED for ours in owned]

    def describe(self) -> str:
        return f"{self.name}[{self.shard}/{self.num_shards}:{self.inner.describe()}]"


# ----------------------------------------------------------------------
# shard cache merging
# ----------------------------------------------------------------------
@dataclass
class MergeStats:
    """What one :func:`merge_shards` call did."""

    shards: int = 0
    merged: int = 0
    duplicates: int = 0
    per_shard: dict[str, int] = field(default_factory=dict)


def merge_shards(
    shard_dirs: Sequence[str | os.PathLike],
    dest: str | os.PathLike,
) -> MergeStats:
    """Fan per-shard cache directories into one cache directory.

    Entries are compared byte-for-byte: a key present in two shards (or
    already in ``dest``) with an identical payload is a harmless
    duplicate; a mismatched payload means two shards claim different
    results for one job identity and raises :class:`ShardMergeError` —
    that is a determinism bug upstream, never something to paper over.

    Writes are atomic (tmp + rename), so a merged directory is itself
    safe to use, or to merge again, at any point.

    Per-shard run manifests (``MANIFEST.jsonl``, written next to cache
    entries by the executor) are concatenated into the destination's
    manifest, so provenance survives the merge.
    """
    from repro.telemetry import MANIFEST_NAME, get_telemetry

    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    stats = MergeStats()
    with get_telemetry().span("sweep.merge_shards"):
        for shard_dir in shard_dirs:
            shard_dir = Path(shard_dir)
            if not shard_dir.is_dir():
                raise ShardMergeError(f"shard cache directory not found: {shard_dir}")
            copied = 0
            for path in sorted(shard_dir.glob("*.pkl")):
                payload = path.read_bytes()
                target = dest / path.name
                if target.exists():
                    if target.read_bytes() != payload:
                        raise ShardMergeError(
                            f"cache key {path.stem}: payload from {shard_dir} "
                            "conflicts with an already-merged entry — shards "
                            "disagree about one job's result"
                        )
                    stats.duplicates += 1
                    continue
                tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
                tmp.write_bytes(payload)
                os.replace(tmp, target)
                copied += 1
            manifest = shard_dir / MANIFEST_NAME
            if manifest.is_file() and manifest.resolve() != (dest / MANIFEST_NAME).resolve():
                with open(dest / MANIFEST_NAME, "a", encoding="utf-8") as fh:
                    fh.write(manifest.read_text(encoding="utf-8"))
            stats.merged += copied
            stats.per_shard[str(shard_dir)] = copied
            stats.shards += 1
    return stats


# ----------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------
def _local_backend(workers: int) -> ExecutionBackend:
    return ProcessPoolBackend(workers) if workers > 1 else SerialBackend()


def is_sharded_env() -> bool:
    """True when shard coordinates are present in the environment."""
    return _env_int(SHARD_ENV) is not None or _env_int(NUM_SHARDS_ENV) is not None


def _sharded_from_env(workers: int) -> ShardedBackend:
    shard = _env_int(SHARD_ENV)
    num_shards = _env_int(NUM_SHARDS_ENV)
    if shard is None or num_shards is None:
        raise SweepError(f"sharded execution needs both {SHARD_ENV} and {NUM_SHARDS_ENV} set")
    return ShardedBackend(shard, num_shards, inner=_local_backend(workers))


def make_backend(name: str, workers: int = 1) -> ExecutionBackend:
    """Construct a backend by registry name.

    ``"sharded"`` reads its shard coordinates from the environment —
    they are per-host facts, exactly what the environment is for.
    """
    if name == SerialBackend.name:
        return SerialBackend()
    if name == ProcessPoolBackend.name:
        return ProcessPoolBackend(workers)
    if name == ShardedBackend.name:
        return _sharded_from_env(workers)
    known = ", ".join((SerialBackend.name, ProcessPoolBackend.name, ShardedBackend.name))
    raise SweepError(f"unknown backend {name!r} (known: {known})")


def resolve_backend(
    backend: ExecutionBackend | str | None = None,
    workers: int = 1,
) -> ExecutionBackend:
    """The backend an executor should use.

    Precedence: an explicit backend instance, then an explicit name,
    then ``REPRO_SWEEP_BACKEND``, then sharding coordinates in the
    environment, then serial-or-pool from ``workers``.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, str) and backend:
        return make_backend(backend, workers)
    env_name = os.environ.get(BACKEND_ENV, "").strip()
    if env_name:
        return make_backend(env_name, workers)
    if is_sharded_env():
        return _sharded_from_env(workers)
    return _local_backend(workers)
