"""Process-pool worker start-up: pre-import the hot modules, once.

Every :class:`~repro.experiments.backends.ProcessPoolBackend` worker runs
:func:`pool_initializer` as it starts.  The wall clock it takes ships
back with the worker's first chunk result as ``worker_warmup`` ns
(:func:`consume_worker_ns`) and lands in ``SweepStats.dispatch_ns``.

The backend looks the initializer up through this module's attribute
when it starts a pool, so a profiler can rebind
``traceplane.pool_initializer`` to wrap it (``perfbench/tracer.py``
does).
"""

from __future__ import annotations

from repro.telemetry import MODE_METRICS, Telemetry

__all__ = ["consume_worker_ns", "pool_initializer"]

#: dispatch-overhead ns accumulated in this process, consumed per chunk
_WORKER_NS = {"worker_warmup": 0}


def consume_worker_ns() -> dict[str, int]:
    """This process's accumulated dispatch-overhead ns, then reset —
    consume-once so chunk results never double-report."""
    out = dict(_WORKER_NS)
    for name in _WORKER_NS:
        _WORKER_NS[name] = 0
    return out


#: modules a warm worker needs resident before its first job; importing
#: them in the initializer moves that cost out of every job's critical
#: path (it matters under spawn; under fork the parent's imports carry)
_WARM_MODULES = (
    "repro.experiments.runner",
    "repro.experiments.sweep",
    "repro.memsim.engine",
    "repro.core.neoprof.sketch",
    "repro.core.neoprof.h3",
    "repro.policies",
    "repro.workloads",
)


def pool_initializer() -> None:
    """Process-pool initializer: pre-import the hot modules, once.

    After this, consecutive jobs on the same worker reuse everything
    process-level: imported modules, the H3 XOR-table cache, the trace
    cache (inherited from the parent under fork, or recorded by the
    worker's own runs), and the derived-account memo.
    """
    import importlib

    tel = Telemetry(MODE_METRICS)
    with tel.span("worker_warmup"):
        for module in _WARM_MODULES:
            try:
                importlib.import_module(module)
            except Exception:
                pass
    _WORKER_NS["worker_warmup"] += tel.phase_totals().get("worker_warmup", 0)
