"""A finished engine is freed by reference counting alone.

Policies read the machine through each epoch's view and never keep the
engine, so no reference cycle runs through a finished engine: it dies
as soon as the last reference goes, with the cyclic collector off.
Otherwise a sweep worker's peak RSS would follow the collector's timing
rather than the memory a job really holds.
"""

import gc
import weakref

import pytest

from repro.experiments import runner
from repro.experiments.colocation import build_colocation, make_tenant_specs
from repro.experiments.config import ExperimentConfig
from repro.multitenant import QosConfig
from repro.policies import POLICY_NAMES

TINY = ExperimentConfig(num_pages=2048, batches=4, batch_size=2048)


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_run_one_engine_dies_without_gc(policy, monkeypatch, no_cyclic_gc):
    refs = []
    build_engine = runner.build_engine

    def tracked(*args, **kwargs):
        engine = build_engine(*args, **kwargs)
        refs.append(weakref.ref(engine))
        return engine

    monkeypatch.setattr(runner, "build_engine", tracked)
    report = runner.run_one("gups", policy, TINY)
    assert report.epochs and len(refs) == 1
    assert refs[0]() is None


@pytest.mark.parametrize("scope", ["shared", "per-tenant"])
def test_colocation_engine_dies_without_gc(scope, no_cyclic_gc):
    specs = make_tenant_specs(2, TINY, fast_quota_fractions=[0.1, None])
    engine = build_colocation(specs, "neomem", TINY, qos=QosConfig(policy_scope=scope))
    engine.prefill()
    report = engine.run()
    # the quota filter installed on the policies must not pin the arbiter
    refs = [weakref.ref(o) for o in (engine, engine.inner, engine.arbiter)]
    del engine
    assert report.machine.epochs
    assert [ref() for ref in refs] == [None, None, None]
