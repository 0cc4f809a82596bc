"""Experiment runner: build and run (workload x policy) simulations.

The single entry point every figure/table harness uses.  Workload RSS
is scaled per benchmark (``WORKLOAD_RSS_FACTOR``), the topology is sized
from the fast:slow ratio, the hot data starts cold (on the slow tier)
exactly as in the paper's methodology — the kernel reserves host memory
so the workload's warm-up first-touch lands on CXL once the small fast
tier fills — and the chosen policy runs against the NeoMem-or-baseline
machinery.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.config import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    WORKLOAD_RSS_FACTOR,
)
from repro.memsim.engine import SimulationEngine
from repro.memsim.metrics import SimulationReport
from repro.policies import make_policy
from repro.workloads import make_workload


#: completed (pages, is_write) epoch streams keyed by workload config +
#: seed.  A sweep grid runs the same trace under every system/ratio, and
#: the engine's rng feeds nothing but ``next_batch`` — so a finished
#: trace is a pure function of its key and replaying it is bit-identical
#: to regenerating it.  Bounded to keep resident traces small.
_TRACE_CACHE: dict[tuple, list] = {}
_TRACE_CACHE_MAX = 8

#: per-epoch account products derived purely from a trace and the LLC
#: filter parameters: ``(miss_mask, miss_pages, miss_is_write, touched)``
#: per epoch.  The LLC filter sees only the access stream — placement,
#: policy and tier ratio never feed back into it — so jobs replaying the
#: same trace on the same filter geometry skip the whole filter pipeline.
_DERIVED_CACHE: dict[tuple, list] = {}
_DERIVED_CACHE_MAX = 4


class _EpochAccountMemo:
    """Record or replay the engine's per-epoch account products.

    Entries are copied on both put and get so neither the engine nor a
    policy mutating an ``EpochView`` array can corrupt the shared cache.
    """

    def __init__(self, entries: list, record: bool) -> None:
        self._entries = entries
        self._record = record

    def get(self, epoch: int):
        if self._record or epoch >= len(self._entries):
            return None
        return tuple(a.copy() for a in self._entries[epoch])

    def put(self, epoch: int, miss_mask, miss_pages, miss_is_write, touched) -> None:
        if self._record and epoch == len(self._entries):
            self._entries.append(
                (miss_mask.copy(), miss_pages.copy(), miss_is_write.copy(), touched.copy())
            )


def _workload_trace_key(workload, seed: int) -> tuple | None:
    """Hashable identity of a workload's full trace, or None if the
    workload carries state a key cannot capture."""
    parts: list = [type(workload).__module__, type(workload).__qualname__, int(seed)]
    for name, value in sorted(vars(workload).items()):
        if name == "emitted":
            continue
        if isinstance(value, np.ndarray):
            parts.append((name, value.dtype.str, value.shape, value.tobytes()))
        elif isinstance(value, (bool, int, float, str, type(None))):
            parts.append((name, value))
        else:
            return None
    return tuple(parts)


class _ReplayWorkload:
    """Serves a recorded trace; everything else proxies to the inner
    workload.  Batches are handed out as fresh copies so a consumer
    mutating them cannot corrupt the cache."""

    def __init__(self, inner, trace: list) -> None:
        self._inner = inner
        self._trace = trace

    def next_batch(self, rng):
        del rng  # the recorded run already consumed the stream
        if self._inner.emitted >= len(self._trace):
            return None
        pages, is_write = self._trace[self._inner.emitted]
        self._inner.emitted += 1
        return pages.copy(), is_write.copy()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _RecordingWorkload:
    """Passes batches through while recording them; publishes the trace
    to the cache only once the workload runs to completion."""

    def __init__(self, inner, key: tuple) -> None:
        self._inner = inner
        self._key = key
        self._recorded: list = []

    def next_batch(self, rng):
        batch = self._inner.next_batch(rng)
        if batch is None:
            _cache_trace(self._key, self._recorded)
        else:
            self._recorded.append((batch[0].copy(), batch[1].copy()))
        return batch

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _cache_trace(key: tuple, trace: list) -> None:
    """Insert a complete trace into the bounded in-process cache."""
    while len(_TRACE_CACHE) >= _TRACE_CACHE_MAX:
        _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
    _TRACE_CACHE[key] = trace


def materialize_trace(workload, seed: int, key: tuple | None = None) -> list:
    """The complete ``(pages, is_write)`` trace of a fresh workload.

    Generates exactly what an engine run would consume: the engine's rng
    (``np.random.default_rng(seed)``) feeds nothing but ``next_batch``,
    so draining a fresh workload here is bit-identical to recording it
    from a live run.  Keyable traces are served from — and recorded
    into — the in-process trace cache; the process-pool backend calls
    this in the parent so forked workers inherit the traces.
    """
    if key is None:
        key = _workload_trace_key(workload, seed)
    if key is not None:
        trace = _TRACE_CACHE.get(key)
        if trace is not None:
            return trace
    rng = np.random.default_rng(seed)
    trace = []
    while True:
        batch = workload.next_batch(rng)
        if batch is None:
            break
        trace.append((batch[0].copy(), batch[1].copy()))
    if key is not None:
        _cache_trace(key, trace)
    return trace


def _with_trace_cache(workload, seed: int):
    """Wrap a fresh workload for trace replay or recording."""
    if getattr(workload, "emitted", None) != 0:
        return workload
    key = _workload_trace_key(workload, seed)
    if key is None:
        return workload
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        return _ReplayWorkload(workload, trace)
    return _RecordingWorkload(workload, key)


def _attach_trace_and_memo(workload, engine):
    """Wire the trace cache and the derived account memo into an engine.

    Returns ``(wrapped_workload, publish)``; ``publish`` (or None) must
    be called after the run to commit newly recorded memo entries.  Memo
    entries are only published when they cover a *complete* trace, so a
    ``max_epochs``-truncated run can never leave a partial memo that a
    later, longer run would fall off the end of with cold filter state.
    """
    seed = engine.config.seed
    if getattr(workload, "emitted", None) != 0:
        return workload, None
    key = _workload_trace_key(workload, seed)
    if key is None:
        return workload, None
    cache = engine.cache
    dkey = (key, cache.capacity_pages, cache.max_page_id, cache.lines_per_page)
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        entries = _DERIVED_CACHE.get(dkey)
        if entries is not None:
            engine.account_memo = _EpochAccountMemo(entries, record=False)
            return _ReplayWorkload(workload, trace), None
        fresh: list = []
        engine.account_memo = _EpochAccountMemo(fresh, record=True)

        def publish_replay() -> None:
            if len(fresh) == len(trace):
                while len(_DERIVED_CACHE) >= _DERIVED_CACHE_MAX:
                    _DERIVED_CACHE.pop(next(iter(_DERIVED_CACHE)))
                _DERIVED_CACHE[dkey] = fresh

        return _ReplayWorkload(workload, trace), publish_replay

    fresh = []
    engine.account_memo = _EpochAccountMemo(fresh, record=True)

    def publish_recording() -> None:
        full = _TRACE_CACHE.get(key)
        if full is not None and len(fresh) == len(full):
            while len(_DERIVED_CACHE) >= _DERIVED_CACHE_MAX:
                _DERIVED_CACHE.pop(next(iter(_DERIVED_CACHE)))
            _DERIVED_CACHE[dkey] = fresh

    return _RecordingWorkload(workload, key), publish_recording


def workload_pages(name: str, config: ExperimentConfig) -> int:
    """Per-benchmark RSS in pages, scaled like the paper's 10-20 GB."""
    factor = WORKLOAD_RSS_FACTOR.get(name, 1.0)
    return max(1024, int(config.num_pages * factor))


def build_workload(name: str, config: ExperimentConfig, **overrides):
    defaults = dict(
        num_pages=workload_pages(name, config),
        total_batches=config.batches,
        batch_size=config.batch_size,
    )
    defaults.update(overrides)
    return make_workload(name, **defaults)


#: per-event cost attributes that scale with ExperimentConfig.overhead_scale
_PROFILER_COST_ATTRS = (
    "fault_cost_ns",
    "poison_cost_ns",
    "ns_per_sample",
    "ns_per_pte",
    "ns_per_check",
    "interrupt_ns",
)


def _apply_overhead_scale(policy, scale: float) -> None:
    """Scale a baseline policy's per-event host costs (see config docs).

    NeoMem policies receive their scaled costs through
    ``neomem_config``/``neoprof_config``; baseline policies carry real-
    machine per-event numbers, scaled here after construction.
    """
    if scale == 1.0:
        return
    if hasattr(policy, "syscall_ns_per_page"):
        policy.syscall_ns_per_page *= scale
    profiler = getattr(policy, "profiler", None)
    if profiler is not None:
        for attr in _PROFILER_COST_ATTRS:
            if hasattr(profiler, attr):
                setattr(profiler, attr, getattr(profiler, attr) * scale)


def default_policy_kwargs(
    policy_name: str,
    num_pages: int,
    config: ExperimentConfig = DEFAULT_CONFIG,
    policy_kwargs: dict | None = None,
) -> dict:
    """Scaled-run construction defaults for a policy, by figure label.

    Shared by :func:`build_engine` and the multi-tenant harness
    (:mod:`repro.experiments.colocation`), which sizes policies from the
    *combined* tenant RSS.  Explicit ``policy_kwargs`` win over defaults.
    """
    kwargs = dict(policy_kwargs or {})
    if policy_name.startswith("neomem"):
        kwargs.setdefault("neomem_config", config.neomem_config())
        kwargs.setdefault("neoprof_config", config.neoprof_config())
    if policy_name in ("autonuma", "tpp"):
        # kernel NUMA-balancing scans cover roughly the RSS every
        # few scan periods; a RSS/16 window every couple of epochs
        # reproduces that coverage rate at the scaled run length
        kwargs.setdefault("scan_interval_s", config.hint_fault_scan_interval_s)
        kwargs.setdefault("scan_window_pages", max(64, num_pages // 16))
    if policy_name == "tpp":
        # "two consecutive faults" means two faults within a couple
        # of scan periods; a scan period spans ~15 epochs here
        kwargs.setdefault("refault_epoch_gap", 32)
    if policy_name == "pte-scan":
        kwargs.setdefault("scan_interval_s", config.pte_scan_interval_s)
    if policy_name == "pebs":
        # the paper tunes 200-5000 misses/sample on the real machine;
        # event counts are compressed ~1000x in the scaled runs, so
        # the equivalent operating point samples more densely
        kwargs.setdefault("sample_interval", 150)
        kwargs.setdefault("min_samples", 1.0)
        kwargs.setdefault("decay_interval_s", config.pebs_decay_interval_s)
    if policy_name == "memtis":
        kwargs.setdefault("sample_interval", 150)
        kwargs.setdefault("min_samples", 1.0)
        kwargs.setdefault("cooling_interval_s", config.pebs_decay_interval_s)
        # Memtis's kptierd classifies and migrates on a second-scale
        # cadence, coarser than the NUMA-balancing path
        kwargs.setdefault("migration_interval_s", 4 * config.migration_interval_s)
    if not policy_name.startswith("neomem") and policy_name != "first-touch":
        kwargs.setdefault("migration_interval_s", config.migration_interval_s)
    return kwargs


def build_policy(
    policy_name: str,
    num_pages: int,
    config: ExperimentConfig = DEFAULT_CONFIG,
    policy_kwargs: dict | None = None,
):
    """Construct a policy with the scaled-run defaults applied."""
    kwargs = default_policy_kwargs(policy_name, num_pages, config, policy_kwargs)
    policy = make_policy(policy_name, num_pages, **kwargs)
    _apply_overhead_scale(policy, config.overhead_scale)
    return policy


def topology_for(num_pages: int, config: ExperimentConfig = DEFAULT_CONFIG):
    """Fast+slow topology spec for an RSS, honouring the fast:slow ratio.

    The single sizing rule for both single-tenant engines (sized from
    one workload's RSS) and co-located machines (sized from the
    combined tenant RSS), so slowdown comparisons always run on
    identically proportioned machines.
    """
    f, s = config.ratio
    fast_pages = max(1, int(num_pages * f / (f + s)))
    slow_pages = int(num_pages * s / (f + s) + num_pages * config.slow_slack)
    return [(config.fast_spec, fast_pages), (config.slow_spec, slow_pages)]


def build_engine(
    workload,
    policy_name: str,
    config: ExperimentConfig = DEFAULT_CONFIG,
    policy=None,
    policy_kwargs: dict | None = None,
    engine_overrides: dict | None = None,
) -> SimulationEngine:
    """Assemble an engine for one (workload, policy) pair.

    The topology is sized from the *workload's* RSS so the fast:slow
    ratio holds for every benchmark despite their different footprints.
    """
    topology = topology_for(workload.num_pages, config)

    if policy is None:
        policy = build_policy(policy_name, workload.num_pages, config, policy_kwargs)

    engine = SimulationEngine(
        workload,
        topology,
        policy,
        config.engine_config(**(engine_overrides or {})),
    )
    return engine


def warm_first_touch(engine: SimulationEngine) -> None:
    """Pre-fill memory in allocation order (the paper's warm-up).

    The workload's address space is populated during initialization
    (graph build, table load), so by measurement time the fast tier is
    already full and most of the footprint sits on CXL.  Heap allocation
    order is uncorrelated with *future* hotness — the allocator does not
    know which structures will be hot — so the warm-up touches pages in
    a deterministic pseudo-random permutation.  First-touch therefore
    captures a fast-tier-sized random sample of the hot set, which is
    exactly the regime the paper's Fig. 11 premises (and why promotion
    matters at all).
    """
    perm = np.random.default_rng(engine.config.seed ^ 0x5EED).permutation(
        engine.workload.num_pages
    )
    engine.topology.first_touch_allocate(engine.page_table, perm)


def run_one(
    workload_name: str,
    policy_name: str,
    config: ExperimentConfig = DEFAULT_CONFIG,
    workload_overrides: dict | None = None,
    policy_kwargs: dict | None = None,
    engine_overrides: dict | None = None,
    prefill: bool = True,
    keep_engine: bool = False,
    policy_factory=None,
) -> SimulationReport:
    """Run one (workload, policy) experiment and return its report.

    Args:
        keep_engine: When True, stash the finished engine (and its
            policy) in ``report.annotations`` for post-mortem inspection.
            Off by default: the engine pins every numpy array of the
            machine model, which adds up fast across parameter sweeps
            that only need the report's counters.  Reports carrying an
            engine cannot cross the sweep-executor boundary — use a
            ``JobSpec.extractor`` there instead.
        policy_factory: Optional ``factory(num_pages, config,
            **policy_kwargs)`` building the policy instead of the
            registry — the hook the sweep layer uses for experiment-
            local policies (profile-only harnesses).  Factory policies
            are used as built: ``overhead_scale`` is not applied, same
            as passing ``policy=`` to :func:`build_engine`.
    """
    workload = build_workload(workload_name, config, **(workload_overrides or {}))
    policy = None
    if policy_factory is not None:
        policy = policy_factory(workload.num_pages, config, **(policy_kwargs or {}))
    engine = build_engine(
        workload,
        policy_name,
        config,
        policy=policy,
        policy_kwargs=policy_kwargs,
        engine_overrides=engine_overrides,
    )
    if prefill:
        warm_first_touch(engine)
    engine.workload, publish_memo = _attach_trace_and_memo(workload, engine)
    report = engine.run()
    if publish_memo is not None:
        publish_memo()
    if keep_engine:
        report.annotations["policy_object"] = engine.policy
        report.annotations["engine"] = engine
    return report


def geomean(values) -> float:
    """Geometric mean (the paper's summary statistic)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0 or (arr <= 0).any():
        raise ValueError("geomean needs positive values")
    return float(np.exp(np.log(arr).mean()))
