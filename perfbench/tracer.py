"""In-memory span tracer and the probes that attach it to the simulator.

The probes wrap public functions and methods of the simulator from the
outside (nothing under ``src/`` knows about them).  Each probe records
either

* a **span** — name, start, end, parent span and job id — kept in
  memory and written out as a Chrome trace when the round ends, or
* a **tally** — call count and total time only, for the scalar
  ``CacheHierarchy.access``/``TLB.access`` calls that run 200k+ times
  per job, where one span per call would cost more than the call.

Self time is a span's duration minus the time covered by its children
(probes nest on one thread, so children never overlap).  Tallied calls
count as children of the enclosing span.

:func:`layer_metrics` reduces one round's totals to the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter_ns


class Tracer:
    """Spans and per-name totals for one process."""

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        #: (name, start_ns, end_ns, parent index, job id, pid)
        self.spans: list = []
        self._stack: list[list[int]] = []  # [span index, child ns]
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.job: str | None = None

    # ------------------------------------------------------------------
    def _close(self, name: str, duration: int, child: int) -> None:
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        frame = [index, 0]
        self._stack.append(frame)
        start = _now()
        try:
            yield
        finally:
            end = _now()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.job, os.getpid())
            self._close(name, end - start, frame[1])

    def tally(self, name: str, duration: int) -> None:
        self._close(name, duration, 0)

    # ------------------------------------------------------------------
    def export(self) -> dict:
        """Plain-data copy of everything recorded (crosses processes)."""
        return {
            "spans": list(self.spans),
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def merge(self, other: dict) -> None:
        """Fold in another process's :meth:`export` (pool workers)."""
        base = len(self.spans)
        for name, start, end, parent, job, pid in other["spans"]:
            self.spans.append(
                (name, start, end, parent + base if parent >= 0 else -1, job, pid)
            )
        for field in ("self_ns", "total_ns", "calls", "counts"):
            mine = getattr(self, field)
            for key, value in other[field].items():
                mine[key] += value

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace events (chrome://tracing, Perfetto)."""
        events = []
        for name, start, end, parent, job, pid in self.spans:
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": start / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": pid,
                    "tid": pid,
                    "args": {
                        "job": job,
                        "parent": self.spans[parent][0] if parent >= 0 else None,
                    },
                }
            )
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


#: the process's tracer; probes installed by :func:`install` record here
TRACER = Tracer()
_INSTALLED = False


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def _span_probe(fn, name, count=None):
    """Wrap ``fn`` in a span; ``name`` is a string or ``name(args)``;
    ``count(counts, args, result)`` records work done."""

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        label = name if isinstance(name, str) else name(args)
        with TRACER.span(label):
            result = fn(*args, **kwargs)
        if count is not None:
            count(TRACER.counts, args, result)
        return result

    return probe


def _tally_probe(fn, name):
    @functools.wraps(fn)
    def probe(*args, **kwargs):
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            TRACER.tally(name, _now() - start)

    return probe


def _subclasses(cls) -> list:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _wrap_method(cls, attr, make):
    """Wrap ``attr`` on ``cls`` and on every subclass that overrides it."""
    for klass in _subclasses(cls):
        if attr in klass.__dict__:
            setattr(klass, attr, make(klass.__dict__[attr], klass))


def _wrap_function(module, attr, name):
    """Wrap a module-level function, rebinding every ``repro`` module
    that imported it by name (``from runner import run_one``)."""
    original = getattr(module, attr)
    probe = _span_probe(original, name)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and (
            getattr(mod, attr, None) is original
        ):
            setattr(mod, attr, probe)


def _count_batch(counts, args, result):
    if result is not None:
        counts["workloads.epochs"] += 1
        counts["workloads.accesses"] += int(result[0].size)


def _count_filter(counts, args, result):
    counts["cachefilter.accesses"] += int(len(args[1]))
    counts["cachefilter.misses"] += int(result.sum())


def _count_promote(counts, args, result):
    counts["migration.candidates"] += int(len(args[1]))
    counts["migration.promoted"] += int(result)
    counts["migration.pages"] += int(result)


def _count_promote_huge(counts, args, result):
    from repro.memsim.address import PAGES_PER_HUGE_PAGE

    counts["migration.pages"] += int(result) * PAGES_PER_HUGE_PAGE


def _count_demote(counts, args, result):
    counts["migration.pages"] += int(result)


def _count_snoop(counts, args, result):
    counts["neoprof.snooped"] += int(len(args[1]))


def _count_hot_pages(counts, args, result):
    counts["neoprof.hot_pages"] += int(result.size)


def _profiler_name(klass) -> str:
    """``HintFaultProfiler`` -> ``profiler.hint_fault``."""
    stem = klass.__name__.removesuffix("Profiler") or klass.__name__
    snake = "".join("_" + c.lower() if c.isupper() else c for c in stem).lstrip("_")
    return f"profiler.{snake}"


def install() -> None:
    """Attach probes to every traced layer (idempotent per process)."""
    global _INSTALLED
    if _INSTALLED:
        return
    import repro  # noqa: F401  (imports every policy, and every module binding a probed name)
    import repro.experiments.runner as runner
    import repro.experiments.sweep as sweep
    from repro.core.daemon import NeoMemDaemon
    from repro.core.driver import NeoProfDriver
    from repro.core.neoprof.device import NeoProfDevice
    from repro.core.policy import DynamicThresholdPolicy
    from repro.memsim.cache import CacheHierarchy
    from repro.memsim.cachefilter import PageCacheFilter
    from repro.memsim.engine import SimulationEngine
    from repro.memsim.lru2q import Lru2Q
    from repro.memsim.migration import MigrationEngine
    from repro.policies.base import BaseTieringPolicy
    from repro.profilers.base import Profiler
    from repro.workloads import TraceWorkload

    def method(name, count=None):
        return lambda fn, klass: _span_probe(fn, name, count)

    _wrap_method(TraceWorkload, "next_batch", method("workloads", _count_batch))
    for attr in ("run_one", "build_engine", "warm_first_touch"):
        _wrap_function(runner, attr, f"runner.{attr}")
    _wrap_method(SimulationEngine, "run", method("engine.run"))
    _wrap_method(SimulationEngine, "step", method("engine.step"))
    _wrap_method(PageCacheFilter, "filter_batch", method("cachefilter", _count_filter))
    for attr in ("touch", "age", "coldest"):
        _wrap_method(Lru2Q, attr, method(f"lru2q.{attr}"))
    _wrap_method(MigrationEngine, "promote", method("migration.promote", _count_promote))
    _wrap_method(
        MigrationEngine,
        "promote_huge",
        method("migration.promote_huge", _count_promote_huge),
    )
    _wrap_method(MigrationEngine, "demote", method("migration.demote", _count_demote))
    _wrap_method(NeoProfDevice, "snoop", method("neoprof.snoop", _count_snoop))
    _wrap_method(
        NeoProfDriver, "read_hot_pages", method("neoprof.read_hot_pages", _count_hot_pages)
    )
    _wrap_method(NeoProfDriver, "read_histogram", method("neoprof.read_histogram"))
    _wrap_method(NeoMemDaemon, "on_epoch", method("daemon"))
    _wrap_method(DynamicThresholdPolicy, "update", method("daemon.threshold_update"))
    _wrap_method(
        Profiler, "observe", lambda fn, klass: _span_probe(fn, _profiler_name(klass))
    )
    _wrap_method(
        BaseTieringPolicy,
        "on_epoch",
        lambda fn, klass: _span_probe(fn, lambda args: f"policy.{args[0].name}"),
    )
    _wrap_method(CacheHierarchy, "access", lambda fn, klass: _tally_probe(fn, "cache"))
    try:  # run_fig04b discards the TLB result, so the model may go away
        from repro.memsim.tlb import TLB
    except ImportError:
        pass
    else:
        _wrap_method(TLB, "access", lambda fn, klass: _tally_probe(fn, "tlb"))
    _wrap_method(sweep.SweepExecutor, "run", method("sweep.run"))
    _INSTALLED = True


#: report annotation carrying a pool worker's trace back to the parent
ANNOTATION = "perfbench.trace"
_RUN_SINGLE = None
_POOL_INITIALIZER = None


def _traced_run_single(spec):
    """``sweep.run_single`` under a job span; the worker's spans and
    totals ride back on the report, where the parent merges them."""
    TRACER.clear()
    TRACER.job = spec.label()
    with TRACER.span("job"):
        report = _RUN_SINGLE(spec)
    report.annotations[ANNOTATION] = TRACER.export()
    return report


def trace_pool_jobs() -> None:
    """Trace the jobs that pool workers run (idempotent per process).

    Jobs name their runner by dotted path and workers resolve it when
    they run the job, so rebinding ``sweep.run_single`` reroutes them
    without changing the specs (a custom runner would also opt the jobs
    out of the shared-memory trace plane).  Workers that do not inherit
    the rebinding (a spawn-started pool) make it in the pool
    initializer, which is rebound too.
    """
    global _RUN_SINGLE, _POOL_INITIALIZER
    import repro.experiments.sweep as sweep
    import repro.experiments.traceplane as traceplane

    install()
    if _RUN_SINGLE is None:
        _RUN_SINGLE = sweep.run_single
        _POOL_INITIALIZER = traceplane.pool_initializer
        sweep.run_single = _traced_run_single
        traceplane.pool_initializer = worker_initializer


def worker_initializer() -> None:
    """Pool initializer: the repo's own first (so its ``worker_warmup``
    span measures only its work), then the probes."""
    import repro.experiments.traceplane as traceplane

    (_POOL_INITIALIZER or traceplane.pool_initializer)()
    trace_pool_jobs()


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: policy names whose ``on_epoch`` self time is reported (NeoMem's is
#: ``daemon.self_ms``)
POLICIES = ("pebs", "pte-scan", "autonuma", "tpp", "first-touch", "memtis", "lookahead")
#: profilers the paper grids exercise
PROFILERS = ("pebs", "pte_scan", "hint_fault")
#: ``SweepStats.dispatch_ns`` phases
DISPATCH_PHASES = ("trace_build", "job_pickle", "shm_attach", "worker_warmup")


def is_time(name: str) -> bool:
    """Whether a per-layer metric is a host time (``ms``, ``ns/...``,
    ``us/...``) rather than a count or a ratio."""
    last = name.rsplit(".", 1)[-1]
    return (
        last.endswith("_ms")
        or "ns_per_" in last
        or "us_per_" in last
        or name.startswith("sweep.dispatch_ms.")
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, sweep: dict | None = None) -> dict[str, float]:
    """Reduce one round's totals to the per-layer metrics.

    ``sweep`` carries what the pool round measured outside the tracer:
    ``dispatch_ns`` (``SweepStats.dispatch_ns``), ``job_ns`` (summed
    per-job host time) and ``workers``.
    """
    self_ns, total_ns, calls, counts = (
        tracer.self_ns,
        tracer.total_ns,
        tracer.calls,
        tracer.counts,
    )

    def self_ms(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e6

    def prefixed(prefix):
        return [n for n in total_ns if n.startswith(prefix)]

    epochs = calls.get("engine.step", 0)
    migration = prefixed("migration.")
    out = {
        "workloads.self_ms": self_ms("workloads"),
        "workloads.ns_per_access": _ratio(
            total_ns.get("workloads", 0), counts.get("workloads.accesses", 0)
        ),
        "runner.setup_ms": (
            total_ns.get("runner.run_one", 0) - total_ns.get("engine.run", 0)
        )
        / 1e6,
        "runner.trace_reuse": (
            1.0 - counts.get("workloads.epochs", 0) / epochs if epochs else 0.0
        ),
        "runner.filter_reuse": (
            1.0 - calls.get("cachefilter", 0) / epochs if epochs else 0.0
        ),
        "cachefilter.self_ms": self_ms("cachefilter"),
        "cachefilter.ns_per_access": _ratio(
            total_ns.get("cachefilter", 0), counts.get("cachefilter.accesses", 0)
        ),
        "cachefilter.miss_ratio": _ratio(
            counts.get("cachefilter.misses", 0), counts.get("cachefilter.accesses", 0)
        ),
        "engine.epochs": epochs,
        "engine.self_us_per_epoch": _ratio(self_ns.get("engine.step", 0) / 1e3, epochs),
        "lru2q.self_ms": self_ms(*prefixed("lru2q.")),
        "migration.pages_moved": counts.get("migration.pages", 0),
        "migration.ns_per_page": _ratio(
            sum(total_ns[n] for n in migration), counts.get("migration.pages", 0)
        ),
        "migration.promote_yield": _ratio(
            counts.get("migration.promoted", 0), counts.get("migration.candidates", 0)
        ),
        "neoprof.snoop_ns_per_access": _ratio(
            total_ns.get("neoprof.snoop", 0), counts.get("neoprof.snooped", 0)
        ),
        "neoprof.hot_pages_reported": counts.get("neoprof.hot_pages", 0),
        "daemon.self_ms": self_ms("daemon"),
        "daemon.threshold_updates": calls.get("daemon.threshold_update", 0),
    }
    for name in PROFILERS:
        out[f"profiler.{name}.self_ms"] = self_ms(f"profiler.{name}")
    for name in POLICIES:
        out[f"policy.{name}.self_ms"] = self_ms(f"policy.{name}")
    for layer in ("cache", "tlb"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.ns_per_access"] = _ratio(total_ns.get(layer, 0), calls.get(layer, 0))
    sweep = sweep or {}
    dispatch = sweep.get("dispatch_ns", {})
    for phase in DISPATCH_PHASES:
        out[f"sweep.dispatch_ms.{phase}"] = dispatch.get(phase, 0) / 1e6
    out["sweep.parallel_efficiency"] = _ratio(
        sweep.get("job_ns", 0),
        sweep.get("workers", 0) * total_ns.get("sweep.run", 0),
    )
    return out
