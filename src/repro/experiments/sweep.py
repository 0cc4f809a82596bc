"""Declarative sweep subsystem: JobSpecs, process-pool execution, caching.

Every figure/table reproduction is a sweep over (workload x policy x
parameter) points, and every point is one self-contained simulation.
This module turns that structure into data:

* :class:`JobSpec` — a serializable description of one experiment
  point: workload, policy, configuration, seed, and (for non-standard
  runs) dotted-path references to a policy factory, a result extractor,
  or an alternative runner.  A spec fully determines its result.
* :class:`SweepExecutor` — runs a list of JobSpecs through a pluggable
  :class:`~repro.experiments.backends.ExecutionBackend`: serial (the
  deterministic default), a ``ProcessPoolExecutor`` fan-out
  (``workers=`` / ``REPRO_SWEEP_WORKERS``), or a deterministic shard of
  the list for multi-host execution (``REPRO_SWEEP_SHARD`` /
  ``REPRO_SWEEP_NUM_SHARDS``; see :mod:`repro.experiments.backends`).
* an on-disk result cache keyed by :func:`job_key` — a stable hash of
  the spec's canonical JSON, salted with a fingerprint of the simulator
  sources so editing the models invalidates stale entries — so repeated
  benchmark runs skip completed points.  Enable it with ``cache_dir=``
  or ``REPRO_SWEEP_CACHE``.
* a seed-replica layer: :func:`replicate` expands each job into N
  seeded replicas and :func:`run_replicated` reduces each point's
  replica results to mean/stddev/95 %-CI statistics
  (:mod:`repro.experiments.reporting`), so any figure harness can emit
  error bars.

Because jobs cross process boundaries, results must pickle.  The
executor verifies this *before* handing a result back (or to the pool),
so a policy that stashes an engine in ``report.annotations`` produces a
:class:`SweepSerializationError` naming the offending keys instead of a
raw ``PicklingError`` from the pool machinery.  Experiments that need
post-run object state (profiler counters, daemon timelines) declare an
``extractor`` — a dotted-path function running *in the worker*, with
the live engine, that reduces that state to plain picklable data.

Determinism: a spec's seed is part of its identity and the simulation
is seeded end-to-end, so the same JobSpec list produces bit-identical
reports from the serial and process-pool executors — a property the
test suite pins down.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import pickle
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import run_one
from repro.telemetry import (
    append_manifest,
    get_telemetry,
    manifest_record,
)

__all__ = [
    "JobSpec",
    "SweepExecutor",
    "SweepStats",
    "SweepError",
    "SweepSerializationError",
    "job_key",
    "replicate",
    "resolve",
    "resolve_executor",
    "run_replicated",
    "run_single",
    "source_fingerprint",
    "WORKERS_ENV",
    "CACHE_ENV",
]

#: environment knobs honoured by SweepExecutor's defaults
WORKERS_ENV = "REPRO_SWEEP_WORKERS"
CACHE_ENV = "REPRO_SWEEP_CACHE"

#: bump to invalidate every cached result (part of the key preimage)
CACHE_SCHEMA_VERSION = 2

#: the standard runner: one run_one() invocation
DEFAULT_RUNNER = "repro.experiments.sweep:run_single"


class SweepError(RuntimeError):
    """A sweep could not be described or executed."""


class SweepSerializationError(SweepError):
    """A job produced a result that cannot cross the process/cache
    boundary (typically a live engine or policy in ``annotations``)."""


def _env_int(name: str) -> int | None:
    """An integer environment knob, ``None`` when unset or blank."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise SweepError(f"{name} must be an integer, got {raw!r}") from exc


# ----------------------------------------------------------------------
# JobSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """One experiment point, fully described as data.

    The default runner reproduces ``run_one(workload, policy, config,
    ...)`` exactly.  Non-standard experiments plug in behaviour by
    *name* (dotted ``"module:function"`` paths), never by object, so a
    spec always pickles and always hashes:

    * ``policy_factory(num_pages, config, **policy_kwargs)`` builds the
      policy instead of the registry (profile-only harnesses);
    * ``extractor(report, engine)`` runs in the worker after the
      simulation and must reduce any engine/policy state it needs into
      picklable ``report.annotations`` entries;
    * ``runner(spec)`` replaces the whole execution (co-location runs,
      ablation streams) and may return any picklable result.

    ``tag`` is a caller-side label for routing results; it is *not*
    part of the job's identity, so differently-tagged but otherwise
    equal specs share one cache entry.
    """

    workload: str = ""
    policy: str = ""
    config: ExperimentConfig = DEFAULT_CONFIG
    #: overrides config.seed when set (the sweep axis for replicas)
    seed: int | None = None
    workload_overrides: dict = field(default_factory=dict)
    policy_kwargs: dict = field(default_factory=dict)
    engine_overrides: dict = field(default_factory=dict)
    prefill: bool = True
    policy_factory: str | None = None
    extractor: str | None = None
    runner: str = DEFAULT_RUNNER
    runner_kwargs: dict = field(default_factory=dict)
    tag: str = ""

    def resolved_config(self) -> ExperimentConfig:
        """The experiment configuration with the spec's seed applied."""
        if self.seed is None:
            return self.config
        return replace(self.config, seed=self.seed)

    def label(self) -> str:
        """Human-readable identity for error messages and logs."""
        base = f"{self.workload or '?'}/{self.policy or '?'}"
        return f"{base}[{self.tag}]" if self.tag else base


# ----------------------------------------------------------------------
# stable hashing
# ----------------------------------------------------------------------
def _canonical(obj):
    """Reduce a JobSpec field value to canonical JSON-able data.

    Dataclasses are tagged with their type name so two config classes
    with coincidentally equal fields cannot collide.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = _canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise SweepError(
        f"JobSpec fields must be plain data, got {type(obj).__name__}: {obj!r} "
        "(pass callables as dotted 'module:function' paths instead)"
    )


#: test hook: point the source fingerprint at an alternative tree
_SOURCE_ROOT: str | os.PathLike | None = None


@lru_cache(maxsize=8)
def _tree_fingerprint(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def source_fingerprint(root: str | os.PathLike | None = None) -> str:
    """Content hash of every ``*.py`` under the simulator sources.

    Part of every cache key: a sweep result is a function of the spec
    *and* the code that computed it, so editing a model, policy or
    workload invalidates stale entries automatically instead of
    requiring a version bump or a manual cache wipe.  Hashed once per
    process (the tree is ~125 small files; the cost is milliseconds).
    """
    if root is None:
        root = _SOURCE_ROOT
    if root is None:
        import repro  # deferred: repro/__init__ imports the experiments tier

        root = Path(repro.__file__).resolve().parent
    return _tree_fingerprint(Path(root).resolve())


def job_key(spec: JobSpec) -> str:
    """Stable content hash of a JobSpec (the cache key).

    ``tag`` is excluded — it labels results, it does not change them.
    The repro version, a schema number and the simulator-source
    fingerprint salt the key so stale caches invalidate across releases
    *and* across code edits.
    """
    import repro  # deferred: repro/__init__ imports the experiments tier

    # seed=None and an explicit seed equal to config.seed resolve to the
    # identical simulation, so they must share one identity (a replicated
    # sweep's replica 0 then reuses the plain run's cache entry)
    payload = _canonical(
        dataclasses.replace(spec, tag="", seed=spec.resolved_config().seed)
    )
    payload["__cache_schema__"] = CACHE_SCHEMA_VERSION
    payload["__repro_version__"] = repro.__version__
    payload["__source_fingerprint__"] = source_fingerprint()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


# ----------------------------------------------------------------------
# dotted-path resolution and the standard runner
# ----------------------------------------------------------------------
def resolve(path: str):
    """Resolve a ``"module:attribute"`` reference to the live object."""
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise SweepError(f"expected 'module:function', got {path!r}")
    try:
        module = importlib.import_module(module_name)
        return getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise SweepError(f"cannot resolve {path!r}: {exc}") from exc


def run_single(spec: JobSpec):
    """The default runner: one ``run_one`` invocation described by the
    spec, with the extractor (if any) applied while the engine is live."""
    config = spec.resolved_config()
    factory = resolve(spec.policy_factory) if spec.policy_factory else None
    report = run_one(
        spec.workload,
        spec.policy,
        config,
        workload_overrides=dict(spec.workload_overrides),
        policy_kwargs=dict(spec.policy_kwargs),
        engine_overrides=dict(spec.engine_overrides),
        prefill=spec.prefill,
        keep_engine=spec.extractor is not None,
        policy_factory=factory,
    )
    if spec.extractor is not None:
        engine = report.annotations.pop("engine")
        report.annotations.pop("policy_object", None)
        resolve(spec.extractor)(report, engine)
    return report


# ----------------------------------------------------------------------
# result sanitization
# ----------------------------------------------------------------------
def _picklable(obj) -> bool:
    try:
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return True
    except Exception:
        return False


#: the run_one(keep_engine=True) contract keys — live machine objects
#: that must never ride a report across the sweep boundary
_KEEP_ENGINE_KEYS = ("engine", "policy_object")


def _is_live_engine(value) -> bool:
    from repro.memsim.engine import SimulationEngine

    return isinstance(value, SimulationEngine)


def _sanitize_result(result, spec: JobSpec, unpicklable: str):
    """Guarantee a job result can cross the process/cache boundary.

    Rejects reports still carrying ``run_one(keep_engine=True)`` state
    and any annotation that does not pickle.  ``unpicklable="error"``
    raises :class:`SweepSerializationError` naming the offending keys;
    ``"strip"`` drops them and records the dropped names under
    ``annotations["stripped_annotations"]``.

    The happy path costs one pickle of the whole result; the
    per-annotation scan only runs once something is already wrong.
    """
    annotations = getattr(result, "annotations", None)
    if not isinstance(annotations, dict):
        annotations = None

    def handle(bad: list[str]) -> None:
        if unpicklable == "strip":
            for key in bad:
                annotations.pop(key)
            recorded = annotations.get("stripped_annotations", [])
            annotations["stripped_annotations"] = sorted({*recorded, *bad})
        else:
            raise SweepSerializationError(
                f"job {spec.label()}: annotations {bad} cannot cross the "
                "sweep boundary (live engines/policies from run_one("
                "keep_engine=True), or values that do not pickle) — use a "
                "JobSpec.extractor to reduce them to plain data"
            )

    if annotations:
        # live machine objects are rejected even when they pickle:
        # shipping a whole machine model through pools and caches is a
        # bug, not a result.  This scan is cheap (no serialization).
        bad = sorted(
            k for k, v in annotations.items()
            if k in _KEEP_ENGINE_KEYS or _is_live_engine(v)
        )
        if bad:
            handle(bad)
    if _picklable(result):
        return result
    if annotations:
        bad = sorted(k for k, v in annotations.items() if not _picklable(v))
        if bad:
            handle(bad)
            if _picklable(result):
                return result
    raise SweepSerializationError(
        f"job {spec.label()}: result of type {type(result).__name__} is not "
        "picklable and cannot be returned from a sweep"
    )


def _execute_job(payload: tuple[JobSpec, str]):
    """Process-pool entry point: run one spec and sanitize its result."""
    spec, unpicklable = payload
    result = resolve(spec.runner)(spec)
    return _sanitize_result(result, spec, unpicklable)


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------
#: sentinel distinguishing "no cache entry" from a cached None result
_CACHE_MISS = object()


@dataclass
class SweepStats:
    """Counters for one executor's lifetime (all ``run`` calls)."""

    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    deduplicated: int = 0
    #: jobs left to other shards by a ShardedBackend
    shard_skipped: int = 0
    #: accumulated process-pool dispatch-overhead ns by phase:
    #: ``trace_build`` (parent-side, before a fresh pool forks),
    #: ``job_pickle`` and ``worker_warmup``
    dispatch_ns: dict = field(default_factory=dict)


class SweepExecutor:
    """Run JobSpecs through an execution backend, with caching.

    Args:
        workers: Process count for the default local backends.  ``None``
            reads ``REPRO_SWEEP_WORKERS``, defaulting to 1 (serial,
            deterministic, no pool overhead).
        cache_dir: Result-cache directory.  ``None`` reads
            ``REPRO_SWEEP_CACHE``; unset means no caching, and ``""``
            forces caching off regardless of the environment.  Entries
            are pickled results keyed by :func:`job_key`, written
            atomically, safe to share between concurrent runs.
        unpicklable: ``"error"`` (default) rejects results with
            non-serializable annotations; ``"strip"`` drops the
            offending keys instead.
        backend: An :class:`~repro.experiments.backends.ExecutionBackend`
            instance, a registry name (``"serial"``, ``"process-pool"``,
            ``"sharded"``), or ``None`` to resolve from the environment
            (``REPRO_SWEEP_BACKEND``, or ``REPRO_SWEEP_SHARD`` /
            ``REPRO_SWEEP_NUM_SHARDS``) and fall back to serial-or-pool
            from ``workers``.

    Identical specs within one ``run`` call execute once and share the
    result; results always come back in job order.  Under a sharded
    backend, out-of-shard jobs come back as the
    :data:`~repro.experiments.backends.SHARD_SKIPPED` marker — harness
    aggregation only makes sense after :func:`merge_shards` fans the
    per-shard caches back together.
    """

    def __init__(
        self,
        workers: int | None = None,
        cache_dir: str | os.PathLike | None = None,
        unpicklable: str = "error",
        backend=None,
    ):
        # deferred: backends imports this module for JobSpec/job_key
        from repro.experiments.backends import resolve_backend

        if workers is None:
            env = _env_int(WORKERS_ENV)
            workers = 1 if env is None else env
        if workers < 1:
            raise SweepError(f"workers must be >= 1, got {workers}")
        if cache_dir is None:
            cache_dir = os.environ.get(CACHE_ENV, "").strip() or None
        if unpicklable not in ("error", "strip"):
            raise SweepError(
                f"unpicklable must be 'error' or 'strip', got {unpicklable!r}"
            )
        self.workers = workers
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if self.cache_dir is not None:
            # eagerly: a shard owning zero jobs must still produce a
            # (valid, empty) cache directory for merge_shards/artifacts
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.unpicklable = unpicklable
        self.backend = resolve_backend(backend, workers=workers)
        self.stats = SweepStats()

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[JobSpec], *, allow_partial: bool = False) -> list:
        """Execute every job, returning results in job order.

        Under a sharded backend, out-of-shard jobs whose results are
        not already cached come back as skip markers.  Aggregating
        over such a partial slice is meaningless, so by default the
        run fails fast; the sharded driver (``sweep_cli run``) passes
        ``allow_partial=True`` because the cache slice, not the return
        value, is its output.
        """
        from repro.experiments.backends import is_shard_skipped

        tel = get_telemetry()
        jobs = list(jobs)
        keys = [job_key(spec) for spec in jobs]
        results: dict[str, object] = {}
        pending: dict[str, JobSpec] = {}
        with tel.span("sweep.cache_lookup"):
            for spec, key in zip(jobs, keys):
                if key in results or key in pending:
                    self.stats.deduplicated += 1
                    continue
                cached = self._cache_load(key)
                if cached is not _CACHE_MISS:
                    results[key] = cached
                    self.stats.cache_hits += 1
                    continue
                pending[key] = spec
        if pending:
            with tel.span("sweep.dispatch"):
                executed = self.backend.execute(
                    list(pending.values()), self.unpicklable, keys=list(pending)
                )
            for phase, ns in self.backend.last_dispatch_ns.items():
                self.stats.dispatch_ns[phase] = self.stats.dispatch_ns.get(phase, 0) + ns
            walls = self.backend.last_job_wall_ns
            for i, (key, result) in enumerate(zip(pending, executed)):
                results[key] = result
                if is_shard_skipped(result):
                    self.stats.shard_skipped += 1
                    continue
                # a miss is a job this run actually had to execute —
                # out-of-shard jobs were never this shard's work
                if self.cache_dir is not None:
                    self.stats.cache_misses += 1
                self._cache_store(key, result)
                self._manifest_store(
                    key,
                    pending[key],
                    result,
                    wall_ns=walls[i] if i < len(walls) else None,
                )
                self.stats.executed += 1
        out = [results[key] for key in keys]
        if not allow_partial and any(is_shard_skipped(r) for r in out):
            raise SweepError(
                "run() returned shard-skipped results — a sharded run "
                "produces a per-shard cache slice, not a result set; run "
                "every shard (sweep_cli run), merge_shards() the caches, "
                "then re-run unsharded against the merged cache"
            )
        return out

    def __call__(self, jobs: Sequence[JobSpec]) -> list:
        return self.run(jobs)

    def close(self) -> None:
        """Release backend resources (the warm worker pool).  Idempotent;
        an executor keeps working after ``close`` — the next parallel
        ``run`` simply pays pool startup again."""
        self.backend.close()

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def is_cached(self, spec: JobSpec) -> bool:
        """True when this spec's result is already in the on-disk cache
        (always False with caching disabled)."""
        path = self._cache_path(job_key(spec))
        return path is not None and path.exists()

    # ------------------------------------------------------------------
    def _cache_path(self, key: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.pkl"

    def _cache_load(self, key: str):
        """Return the cached result, or ``_CACHE_MISS`` when absent —
        a sentinel, so a legitimately-``None`` job result still hits."""
        path = self._cache_path(key)
        if path is None or not path.exists():
            return _CACHE_MISS
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except Exception:
            # a torn or stale entry is a miss, not an error
            path.unlink(missing_ok=True)
            return _CACHE_MISS

    def _cache_store(self, key: str, result) -> None:
        path = self._cache_path(key)
        if path is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        with open(tmp, "wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)

    def _manifest_store(
        self, key: str, spec: JobSpec, result, wall_ns: int | None = None
    ) -> None:
        """Append a provenance record next to the cache entry just stored.

        The manifest (``MANIFEST.jsonl``) records what produced each
        cached result — job key, label, seed, git revision, measured
        wall clock, and (on telemetry runs) per-phase totals — so a
        cache directory is auditable after the fact.
        """
        if self.cache_dir is None:
            return
        wall_s = wall_ns / 1e9 if wall_ns else None
        append_manifest(
            self.cache_dir,
            manifest_record(
                key, spec.label(), spec.resolved_config().seed, result, wall_s=wall_s
            ),
        )


def resolve_executor(
    executor: SweepExecutor | None = None,
    workers: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    backend=None,
) -> SweepExecutor:
    """The executor every ``run_*`` harness uses: the caller's, or a
    fresh one honouring ``workers=``/``backend=`` and the environment
    knobs (``REPRO_SWEEP_WORKERS``, ``REPRO_SWEEP_CACHE``,
    ``REPRO_SWEEP_BACKEND``, ``REPRO_SWEEP_SHARD`` + ``_NUM_SHARDS``)."""
    if executor is not None:
        return executor
    return SweepExecutor(workers=workers, cache_dir=cache_dir, backend=backend)


# ----------------------------------------------------------------------
# seed replicas
# ----------------------------------------------------------------------
def replicate(specs: Sequence[JobSpec], n_seeds: int) -> list[JobSpec]:
    """Expand each spec into ``n_seeds`` seeded replicas, grouped.

    Replica ``r`` of a spec runs at ``base_seed + r`` where the base is
    the spec's own seed (or its config's).  The output keeps each
    point's replicas contiguous — ``out[i * n_seeds : (i + 1) * n_seeds]``
    are the replicas of ``specs[i]`` — which is the layout
    :func:`~repro.experiments.reporting.summarize_replicas` reduces.
    Replicas are real JobSpecs: they dedup, cache and shard exactly
    like any other job.
    """
    if n_seeds < 1:
        raise SweepError(f"n_seeds must be >= 1, got {n_seeds}")
    out: list[JobSpec] = []
    for spec in specs:
        base = spec.seed if spec.seed is not None else spec.config.seed
        for r in range(n_seeds):
            tag = f"{spec.tag}#seed{r}" if spec.tag else f"#seed{r}"
            out.append(replace(spec, seed=base + r, tag=tag))
    return out


def run_replicated(
    specs: Sequence[JobSpec],
    n_seeds: int,
    metric=None,
    *,
    executor: SweepExecutor | None = None,
    workers: int | None = None,
    backend=None,
) -> list:
    """Run each spec at ``n_seeds`` seeds; one
    :class:`~repro.experiments.reporting.ReplicaStats` per input spec.

    ``metric`` maps one job result to the scalar being aggregated
    (default: the report's ``total_time_s``), so any figure harness can
    turn its grid into mean ± 95 %-CI error bars by handing its JobSpec
    list here instead of to ``SweepExecutor.run``.
    """
    from repro.experiments.reporting import summarize_replicas

    if metric is None:
        def metric(report):
            return report.total_time_s

    specs = list(specs)
    results = resolve_executor(executor, workers, backend=backend).run(
        replicate(specs, n_seeds)
    )
    stats = summarize_replicas([metric(result) for result in results], n_seeds)
    # telemetry runs: carry each point's mean per-phase wall clock along
    for i, point in enumerate(stats):
        phase_sums: dict[str, float] = {}
        counted = 0
        for result in results[i * n_seeds : (i + 1) * n_seeds]:
            annotations = getattr(result, "annotations", None)
            telemetry = annotations.get("telemetry") if isinstance(annotations, dict) else None
            if not isinstance(telemetry, dict) or "phases" not in telemetry:
                continue
            counted += 1
            for phase, ns in telemetry["phases"].items():
                phase_sums[phase] = phase_sums.get(phase, 0.0) + float(ns)
        if counted:
            stats[i] = dataclasses.replace(
                point,
                phase_ns={phase: total / counted for phase, total in sorted(phase_sums.items())},
            )
    return stats
