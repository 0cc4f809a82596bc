"""Reference JobSpec hooks used by the sweep test suite.

Extractors and factories are referenced by dotted path and resolved in
worker processes, so they must live in an importable module — test
files are not.  These double as minimal examples of the extractor
contract: ``extractor(report, engine)`` runs in the worker with the
live engine and must leave only picklable data in
``report.annotations``.
"""

from __future__ import annotations


def record_fast_pages(report, engine) -> None:
    """Well-behaved extractor: reduce engine state to a plain counter."""
    report.annotations["fast_tier_pages"] = int(
        engine.page_table.pages_on_node(0).size
    )


def poison_annotations(report, engine) -> None:
    """Misbehaving extractor: leaks a live object into the annotations
    (what the serialization guard must catch with a clear error)."""
    report.annotations["extractor_leak"] = engine


def none_runner(spec) -> None:
    """Custom runner returning None — a legal (picklable) result that
    the cache must still treat as a hit on re-runs."""
    return None


def seed_runner(spec) -> float:
    """Custom runner returning the spec's resolved seed as a float —
    replica-statistics tests get exactly computable aggregates without
    paying for a simulation."""
    return float(spec.resolved_config().seed)


def raising_runner(spec):
    """Custom runner that always fails — exercises the executor's
    error path (the job's exception must reach the caller and the
    executor must stay usable)."""
    raise RuntimeError(f"raising_runner: {spec.label()}")


def exit_runner(spec) -> None:
    """Custom runner that kills its worker process outright — the pool
    breaks (BrokenProcessPool) and must be disposed and rebuilt."""
    import os

    os._exit(13)
