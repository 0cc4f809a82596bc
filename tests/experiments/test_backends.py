"""Tests for the sweep execution backend: the process pool and replicas.

The acceptance bars pinned here are bit-identity with a serial run —
for a process pool (fork and spawn, fresh and warm) — and a pool that
survives job exceptions and worker crashes.
"""

import dataclasses
import pickle
import random
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import fig12, traceplane
from repro.experiments import runner as runner_mod
from repro.experiments.backends import ProcessPoolBackend, _heaviest_first, _job_cost
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import (
    WORKERS_ENV,
    JobSpec,
    SweepError,
    SweepExecutor,
    job_key,
    replicate,
    run_replicated,
)

TINY = ExperimentConfig(num_pages=2048, batches=4, batch_size=2048)

#: cheap numeric jobs whose result is their seed — no real simulation
CHEAP = [
    JobSpec(
        "gups",
        "none",
        TINY,
        seed=seed,
        runner="repro.experiments._testhooks:seed_runner",
    )
    for seed in range(16)
]


def grid_jobs(config=TINY):
    """A small real figure grid (2 workloads x 1 ratio x 2 systems)."""
    return fig12.fig12_jobs(config, workloads=("gups", "silo"), ratios=((1, 2),))


def pickled(results) -> list[bytes]:
    return [pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL) for r in results]


def crash_job(runner: str) -> JobSpec:
    return JobSpec("gups", "none", TINY, seed=999, runner=f"repro.experiments._testhooks:{runner}")


class TestCostScheduling:
    """Pool submission is heaviest-first by a pages x batches estimate
    taken from the spec alone."""

    JOBS = fig12.fig12_jobs(TINY, workloads=("gups", "pagerank", "silo"), ratios=((1, 2),))

    def _order(self, specs) -> list[str]:
        keys = [job_key(spec) for spec in specs]
        return [keys[i] for i in _heaviest_first(specs, keys)]

    def test_heaviest_first_is_reorder_stable(self):
        order = self._order(self.JOBS)
        shuffled = list(self.JOBS)
        random.Random(11).shuffle(shuffled)
        assert self._order(shuffled) == order
        by_key = {job_key(spec): spec for spec in self.JOBS}
        costs = [_job_cost(by_key[key]) for key in order]
        assert costs == sorted(costs, reverse=True)
        assert costs[0] > costs[-1]  # the grid mixes job sizes

    def test_tag_does_not_move_a_job_under_cost(self):
        tagged = [dataclasses.replace(spec, tag="routed") for spec in self.JOBS]
        assert self._order(tagged) == self._order(self.JOBS)

class TestPoolLifecycle:
    def test_one_worker_runs_inline(self):
        """workers=1 runs every job in this process: no pool starts, no
        dispatch overhead is recorded and no worker warm-up happens."""
        traceplane.consume_worker_ns()
        executor = SweepExecutor(workers=1, cache_dir="")
        assert executor.run(CHEAP[:4]) == [float(spec.seed) for spec in CHEAP[:4]]
        assert executor.backend._pool is None
        assert executor.stats.dispatch_ns == {}
        assert len(executor.backend.last_job_wall_ns) == 4
        assert traceplane.consume_worker_ns()["worker_warmup"] == 0

    def test_pool_matches_serial_bit_for_bit(self):
        jobs = grid_jobs()
        serial = SweepExecutor(workers=1, cache_dir="").run(jobs)
        with SweepExecutor(workers=2, cache_dir="") as pool:
            parallel = pool.run(jobs)
        assert pickled(parallel) == pickled(serial)

    def test_fresh_pool_builds_traces_in_the_parent(self, monkeypatch):
        """The parent fills its trace cache before the pool forks, so the
        workers inherit every distinct trace of the batch."""
        monkeypatch.setattr(runner_mod, "_TRACE_CACHE", {})
        jobs = grid_jobs()
        with SweepExecutor(workers=2, cache_dir="") as pool:
            parallel = pool.run(jobs)
            assert pool.stats.dispatch_ns["trace_build"] > 0
            assert pool.stats.dispatch_ns["worker_warmup"] > 0
        assert len(runner_mod._TRACE_CACHE) == 2  # gups and silo
        serial = SweepExecutor(workers=1, cache_dir="").run(jobs)
        assert pickled(parallel) == pickled(serial)

    def test_warm_pool_skips_the_parent_build(self):
        """Warm workers forked before the new batch's traces existed, so
        the parent builds nothing; they regenerate, bit-identically.  A
        warm re-run of the first batch reuses the workers' cached traces,
        also bit-identically."""
        fresh = grid_jobs(dataclasses.replace(TINY, seed=TINY.seed + 11))
        with SweepExecutor(workers=2, cache_dir="") as pool:
            pool.run(grid_jobs())
            built = pool.stats.dispatch_ns["trace_build"]
            rerun = pool.run(grid_jobs())
            warm = pool.run(fresh)
            assert "trace_build" not in pool.backend.last_dispatch_ns
            assert pool.stats.dispatch_ns["trace_build"] == built
        serial = SweepExecutor(workers=1, cache_dir="")
        assert pickled(rerun) == pickled(serial.run(grid_jobs()))
        assert pickled(warm) == pickled(serial.run(fresh))

    def test_job_exception_propagates_and_executor_recovers(self):
        with SweepExecutor(workers=2, cache_dir="") as pool:
            with pytest.raises(RuntimeError, match="raising_runner"):
                pool.run(grid_jobs() + [crash_job("raising_runner")])
            assert len(pool.run(grid_jobs()[:2])) == 2

    def test_worker_crash_disposes_and_rebuilds_the_pool(self):
        with SweepExecutor(workers=2, cache_dir="") as pool:
            with pytest.raises(BrokenProcessPool):
                pool.run(grid_jobs() + [crash_job("exit_runner")])
            assert pool.backend._pool is None
            assert len(pool.run(grid_jobs()[:2])) == 2
            assert pool.backend._pool is not None

    def test_spawn_pool_matches_serial(self):
        """Spawn workers inherit nothing, so the parent skips the trace
        build and the workers regenerate every trace."""
        jobs = grid_jobs()[:2]
        serial = SweepExecutor(workers=1, cache_dir="").run(jobs)
        backend = ProcessPoolBackend(workers=2, start_method="spawn")
        with SweepExecutor(workers=2, cache_dir="", backend=backend) as pool:
            parallel = pool.run(jobs)
            assert pool.stats.dispatch_ns["trace_build"] == 0
        assert pickled(parallel) == pickled(serial)

    def test_consume_worker_ns_resets(self):
        traceplane.consume_worker_ns()
        traceplane._WORKER_NS["worker_warmup"] += 123
        assert traceplane.consume_worker_ns()["worker_warmup"] == 123
        assert traceplane.consume_worker_ns()["worker_warmup"] == 0


class TestEnvResolution:
    def test_workers_env_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "abc")
        with pytest.raises(SweepError, match=WORKERS_ENV):
            SweepExecutor()
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(SweepError, match="workers must be >= 1"):
            SweepExecutor()
        monkeypatch.setenv(WORKERS_ENV, " 3 ")
        assert SweepExecutor().workers == 3

    def test_default_resolution(self):
        for workers in (1, 2):
            backend = SweepExecutor(workers=workers).backend
            assert isinstance(backend, ProcessPoolBackend)
            assert backend.workers == workers
        explicit = ProcessPoolBackend(2, start_method="spawn")
        assert SweepExecutor(workers=8, backend=explicit).backend is explicit


class TestReplicate:
    def test_expansion_layout(self):
        jobs = grid_jobs()
        out = replicate(jobs, 3)
        assert len(out) == 3 * len(jobs)
        for i, spec in enumerate(jobs):
            block = out[i * 3 : (i + 1) * 3]
            base = spec.config.seed
            assert [r.seed for r in block] == [base, base + 1, base + 2]
            assert all(r.workload == spec.workload for r in block)

    def test_explicit_seed_is_the_base(self):
        spec = JobSpec("gups", "neomem", TINY, seed=100)
        assert [r.seed for r in replicate([spec], 2)] == [100, 101]

    def test_n_seeds_validation(self):
        with pytest.raises(SweepError):
            replicate(CHEAP, 0)

    def test_run_replicated_aggregates(self):
        """End-to-end: the per-point stats are exactly computable for
        the seed_runner, whose result IS the seed."""
        spec = JobSpec(
            "gups",
            "none",
            TINY,
            seed=10,
            runner="repro.experiments._testhooks:seed_runner",
        )
        stats, = run_replicated([spec], 4, metric=float)
        # replicas return 10, 11, 12, 13
        assert stats.n == 4
        assert stats.mean == pytest.approx(11.5)
        assert stats.stddev == pytest.approx(1.2909944, rel=1e-6)
        # t(df=3) = 3.182
        assert stats.ci95 == pytest.approx(3.182 * 1.2909944 / 2.0, rel=1e-4)

    def test_replicas_cache_like_any_job(self, tmp_path):
        """Replica 0 runs at the spec's own seed, so it shares the plain
        run's cache entry; only the other replicas execute."""
        specs = [CHEAP[0], CHEAP[8]]  # seeds far enough apart not to overlap
        SweepExecutor(cache_dir=tmp_path).run(specs)
        executor = SweepExecutor(cache_dir=tmp_path)
        assert executor.run(replicate(specs, 3)) == [0.0, 1.0, 2.0, 8.0, 9.0, 10.0]
        assert executor.stats.cache_hits == 2
        assert executor.stats.executed == 4


class TestSoloBaselineDedup:
    def test_solo_baselines_shared_across_schedulers(self, tmp_path):
        """ROADMAP satellite: solo baselines are their own JobSpecs, so
        two schedulers over one tenant mix run each baseline once."""
        from repro.experiments.colocation import make_tenant_specs, run_colocation

        specs = make_tenant_specs(2, TINY)
        executor = SweepExecutor(cache_dir=tmp_path)
        first = run_colocation(
            specs, "pebs", TINY, scheduler="round-robin", executor=executor
        )
        baseline_runs = executor.stats.executed  # 1 coloc + 2 solos
        assert baseline_runs == 3
        second = run_colocation(
            specs, "pebs", TINY, scheduler="weighted-share", executor=executor
        )
        # only the co-located run is new; both solos came from the cache
        assert executor.stats.executed == baseline_runs + 1
        assert executor.stats.cache_hits == 2
        assert first.slowdowns.keys() == second.slowdowns.keys()
        assert all(s > 0 for s in second.slowdowns.values())

    def test_same_workload_tenants_share_one_baseline(self):
        """Tenant names label results but never change a solo run, so
        two tenants with the same workload share one baseline job."""
        from repro.experiments.colocation import make_tenant_specs, solo_baseline_job
        from repro.experiments.sweep import job_key

        specs = make_tenant_specs(5, TINY)  # cycles the 4-workload mix
        assert specs[0].workload == specs[4].workload
        topology_pages = sum(spec.num_pages for spec in specs)
        keys = [
            job_key(solo_baseline_job(spec, "pebs", TINY, topology_pages))
            for spec in specs
        ]
        assert keys[0] == keys[4]
        assert len(set(keys)) == 4
