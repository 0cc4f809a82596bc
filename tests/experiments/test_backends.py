"""Tests for pluggable execution backends: pool, sharding, merging, replicas.

The acceptance bars pinned here are bit-identity with the serial
backend — for a process pool (fork and spawn, fresh and warm) and for a
figure sweep split over 2 shards after ``merge_shards()`` — and a pool
that survives job exceptions and worker crashes.
"""

import dataclasses
import pickle
import random
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import fig12, traceplane
from repro.experiments import runner as runner_mod
from repro.experiments.backends import (
    NUM_SHARDS_ENV,
    SHARD_ENV,
    SHARD_SKIPPED,
    ProcessPoolBackend,
    SerialBackend,
    ShardedBackend,
    ShardMergeError,
    is_shard_skipped,
    is_sharded_env,
    make_backend,
    merge_shards,
    partition,
    resolve_backend,
    shard_of,
)
from repro.experiments.backends import _heaviest_first, _job_cost
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

#: cheap numeric jobs — sharding semantics don't need real simulations
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


class TestPartitioning:
    def test_disjoint_and_exhaustive(self):
        shards = [partition(CHEAP, s, 3) for s in range(3)]
        assert sum(len(s) for s in shards) == len(CHEAP)
        seen = set()
        for shard in shards:
            for spec in shard:
                assert spec.seed not in seen  # seeds uniquely identify CHEAP
                seen.add(spec.seed)
        assert seen == {spec.seed for spec in CHEAP}
        # input order is preserved within each shard
        for shard in shards:
            positions = [CHEAP.index(spec) for spec in shard]
            assert positions == sorted(positions)

    def test_stable_under_reordering(self):
        """Shard membership is a function of job identity, not position."""
        assignment = {spec.seed: shard_of(spec, 4) for spec in CHEAP}
        shuffled = list(CHEAP)
        random.Random(7).shuffle(shuffled)
        for spec in shuffled:
            assert shard_of(spec, 4) == assignment[spec.seed]

    def test_single_shard_owns_everything(self):
        assert partition(CHEAP, 0, 1) == list(CHEAP)

    def test_validation(self):
        with pytest.raises(SweepError):
            shard_of(CHEAP[0], 0)
        with pytest.raises(SweepError):
            partition(CHEAP, 2, 2)
        with pytest.raises(SweepError):
            partition(CHEAP, -1, 2)
        with pytest.raises(SweepError):
            ShardedBackend(0, 2, inner=ShardedBackend(0, 2))

    def test_tag_does_not_move_a_job(self):
        spec = CHEAP[0]
        tagged = dataclasses.replace(spec, tag="elsewhere")
        assert shard_of(spec, 5) == shard_of(tagged, 5)


class TestCostScheduling:
    """Pool submission is heaviest-first by a pages x batches estimate
    taken from the spec alone; shard ownership stays the content hash."""

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

    def test_sharded_backend_agrees_with_partition(self):
        """The backend and the module-level partition() split by the same
        content hash, so tests (and hosts) can predict ownership."""
        executor = SweepExecutor(backend=ShardedBackend(1, 3))
        results = executor.run(CHEAP, allow_partial=True)
        mine = {spec.seed for spec in partition(CHEAP, 1, 3)}
        executed = {
            spec.seed
            for spec, result in zip(CHEAP, results)
            if not is_shard_skipped(result)
        }
        assert executed == mine


class TestPoolLifecycle:
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
        the parent builds nothing; they regenerate, bit-identically."""
        fresh = grid_jobs(dataclasses.replace(TINY, seed=TINY.seed + 11))
        with SweepExecutor(workers=2, cache_dir="") as pool:
            pool.run(grid_jobs())
            built = pool.stats.dispatch_ns["trace_build"]
            warm = pool.run(fresh)
            assert "trace_build" not in pool.backend.last_dispatch_ns
            assert pool.stats.dispatch_ns["trace_build"] == built
        serial = SweepExecutor(workers=1, cache_dir="").run(fresh)
        assert pickled(warm) == pickled(serial)

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


class TestShardedBackend:
    def test_out_of_shard_jobs_are_marked(self):
        executor = SweepExecutor(backend=ShardedBackend(0, 2))
        results = executor.run(CHEAP, allow_partial=True)
        mine = partition(CHEAP, 0, 2)
        assert executor.stats.executed == len(mine)
        assert executor.stats.shard_skipped == len(CHEAP) - len(mine)
        owned_seeds = {spec.seed for spec in mine}
        for spec, result in zip(CHEAP, results):
            if spec.seed in owned_seeds:
                assert result == float(spec.seed)
            else:
                assert is_shard_skipped(result)

    def test_skip_marker_is_never_cached(self, tmp_path):
        executor = SweepExecutor(backend=ShardedBackend(1, 2), cache_dir=tmp_path)
        executor.run(CHEAP, allow_partial=True)
        mine = partition(CHEAP, 1, 2)
        assert len(list(tmp_path.glob("*.pkl"))) == len(mine)

    def test_marker_survives_pickling_as_marker(self):
        assert is_shard_skipped(pickle.loads(pickle.dumps(SHARD_SKIPPED)))

    def test_shards_compose_with_pool_inner(self):
        backend = ShardedBackend(0, 2, inner=ProcessPoolBackend(2))
        results = SweepExecutor(backend=backend).run(CHEAP, allow_partial=True)
        assert [r for r in results if not is_shard_skipped(r)] == [
            float(s.seed) for s in partition(CHEAP, 0, 2)
        ]


class TestEnvResolution:
    def test_shard_env_selects_sharded(self, monkeypatch):
        monkeypatch.setenv(SHARD_ENV, "1")
        monkeypatch.setenv(NUM_SHARDS_ENV, "2")
        assert is_sharded_env()
        backend = SweepExecutor().backend
        assert isinstance(backend, ShardedBackend)
        assert backend.shard == 1 and backend.num_shards == 2
        assert isinstance(backend.inner, SerialBackend)

    def test_shard_env_composes_with_workers(self, monkeypatch):
        monkeypatch.setenv(SHARD_ENV, "0")
        monkeypatch.setenv(NUM_SHARDS_ENV, "2")
        backend = SweepExecutor(workers=3).backend
        assert isinstance(backend.inner, ProcessPoolBackend)
        assert backend.inner.workers == 3

    def test_half_configured_sharding_is_an_error(self, monkeypatch):
        monkeypatch.setenv(SHARD_ENV, "0")
        with pytest.raises(SweepError, match="NUM_SHARDS"):
            SweepExecutor()

    def test_backend_env_forces_name(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "serial")
        assert isinstance(SweepExecutor(workers=4).backend, SerialBackend)

    def test_workers_env_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "abc")
        with pytest.raises(SweepError, match=WORKERS_ENV):
            SweepExecutor()
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(SweepError, match="workers must be >= 1"):
            SweepExecutor()
        monkeypatch.setenv(WORKERS_ENV, " 3 ")
        assert SweepExecutor().workers == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(SweepError, match="unknown backend"):
            make_backend("carrier-pigeon")

    def test_default_resolution(self):
        assert isinstance(resolve_backend(workers=1), SerialBackend)
        assert isinstance(resolve_backend(workers=2), ProcessPoolBackend)
        explicit = SerialBackend()
        assert resolve_backend(explicit, workers=8) is explicit


class TestMergeShards:
    def test_merge_is_union(self, tmp_path):
        dirs = []
        for shard in range(2):
            d = tmp_path / f"s{shard}"
            SweepExecutor(backend=ShardedBackend(shard, 2), cache_dir=d).run(
                CHEAP, allow_partial=True
            )
            dirs.append(d)
        stats = merge_shards(dirs, tmp_path / "merged")
        assert stats.shards == 2
        assert stats.merged == len(CHEAP)
        assert stats.duplicates == 0
        merged = SweepExecutor(cache_dir=tmp_path / "merged")
        assert merged.run(CHEAP) == [float(s.seed) for s in CHEAP]
        assert merged.stats.cache_hits == len(CHEAP)
        assert merged.stats.executed == 0

    def test_identical_duplicates_are_harmless(self, tmp_path):
        d = tmp_path / "s0"
        SweepExecutor(backend=ShardedBackend(0, 2), cache_dir=d).run(
            CHEAP, allow_partial=True
        )
        stats = merge_shards([d, d], tmp_path / "merged")
        assert stats.duplicates == stats.merged

    def test_mismatched_payload_collision_raises(self, tmp_path):
        d0, d1 = tmp_path / "s0", tmp_path / "s1"
        SweepExecutor(backend=ShardedBackend(0, 2), cache_dir=d0).run(
            CHEAP, allow_partial=True
        )
        d1.mkdir()
        victim = next(d0.glob("*.pkl"))
        (d1 / victim.name).write_bytes(pickle.dumps("impostor result"))
        with pytest.raises(ShardMergeError, match=victim.stem):
            merge_shards([d0, d1], tmp_path / "merged")

    def test_missing_shard_dir_raises(self, tmp_path):
        with pytest.raises(ShardMergeError, match="not found"):
            merge_shards([tmp_path / "nope"], tmp_path / "merged")

    def test_zero_job_shard_still_merges(self, tmp_path):
        """A shard that owns no jobs of a tiny grid must still yield a
        valid (empty) cache directory — shard membership reshuffles
        whenever the source fingerprint changes, so any shard can come
        up empty on any run."""
        empty = tmp_path / "empty"
        SweepExecutor(cache_dir=empty)  # the executor materializes it
        stats = merge_shards([empty], tmp_path / "merged")
        assert stats.merged == 0 and stats.shards == 1


class TestShardedBitIdentity:
    def test_two_shard_merge_matches_serial_bit_for_bit(self, tmp_path):
        """ISSUE acceptance: a 2-shard run of a figure sweep, after
        merge_shards(), is bit-identical to the serial backend."""
        jobs = grid_jobs()
        dirs = []
        for shard in range(2):
            d = tmp_path / f"shard{shard}"
            SweepExecutor(backend=ShardedBackend(shard, 2), cache_dir=d).run(
                jobs, allow_partial=True
            )
            dirs.append(d)
        merged_dir = tmp_path / "merged"
        merge_shards(dirs, merged_dir)

        merged_exec = SweepExecutor(workers=1, cache_dir=merged_dir)
        merged = merged_exec.run(jobs)
        assert merged_exec.stats.executed == 0, "merged cache must cover the grid"

        serial = SweepExecutor(workers=1).run(jobs)
        for a, b in zip(merged, serial):
            assert pickle.dumps(a, protocol=pickle.HIGHEST_PROTOCOL) == pickle.dumps(
                b, protocol=pickle.HIGHEST_PROTOCOL
            )


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

    def test_replicas_shard_like_any_job(self):
        replicas = replicate(grid_jobs(), 2)
        shards = [partition(replicas, s, 2) for s in range(2)]
        assert sum(len(s) for s in shards) == len(replicas)


class TestShardedAggregationGuard:
    def test_run_refuses_partial_results_by_default(self):
        """Every aggregating harness calls run() without allow_partial,
        so a sharded env fails fast with the merge_shards remedy
        instead of leaking skip markers into slowdown math."""
        executor = SweepExecutor(backend=ShardedBackend(0, len(CHEAP)))
        with pytest.raises(SweepError, match="merge_shards"):
            executor.run(CHEAP)

    def test_fully_cached_sharded_run_is_not_partial(self, tmp_path):
        """With a merged cache covering the set, even a sharded
        executor returns complete results — no false positives."""
        for shard in range(2):
            SweepExecutor(backend=ShardedBackend(shard, 2), cache_dir=tmp_path).run(
                CHEAP, allow_partial=True
            )
        executor = SweepExecutor(backend=ShardedBackend(0, 2), cache_dir=tmp_path)
        assert executor.run(CHEAP) == [float(s.seed) for s in CHEAP]


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
