"""KV-cache sweep harness: grid shape, picklability, backend bit-identity."""

import pickle

import numpy as np

from repro.experiments import kvcache
from repro.experiments.backends import ProcessPoolBackend
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import JobSpec, SweepExecutor, job_key
from repro.experiments.sweep_cli import JOB_SETS, results_digest

TINY = ExperimentConfig(num_pages=2048, batches=4, batch_size=2048)

#: long enough for the oracle's staged promotions to pay off (the first
#: few epochs are spent draining the random first-touch placement)
ROWS_CONFIG = ExperimentConfig(num_pages=2048, batches=12, batch_size=2048)

GRID_KW = dict(contexts=(0.125, 0.5), strategies=("first-touch", "lookahead"))


def tiny_jobs() -> list[JobSpec]:
    return kvcache.kvcache_jobs(TINY, **GRID_KW)


class TestGrid:
    def test_full_grid_shape_and_order(self):
        jobs = kvcache.kvcache_jobs(TINY)
        assert len(jobs) == len(kvcache.CONTEXTS) * len(kvcache.TIER_MODES) * len(
            kvcache.STRATEGIES
        )
        # grid order: context outermost, then tier mode, then strategy —
        # run_kvcache unpacks results positionally against this order
        first = jobs[0]
        assert first.workload == "kvcache"
        assert first.policy == kvcache.STRATEGIES[0]
        assert first.config.tier_mode == kvcache.TIER_MODES[0]
        assert first.workload_overrides == {"prompt_fraction": kvcache.CONTEXTS[0]}

    def test_tier_mode_is_part_of_job_identity(self):
        excl, incl = kvcache.kvcache_jobs(
            TINY, contexts=(0.25,), strategies=("first-touch",)
        )
        assert excl.config.tier_mode == "exclusive"
        assert incl.config.tier_mode == "inclusive"
        assert job_key(excl) != job_key(incl)

    def test_only_the_oracle_gets_geometry_kwargs(self):
        for spec in kvcache.kvcache_jobs(TINY):
            if spec.policy == "lookahead":
                assert spec.policy_kwargs == {
                    "prompt_fraction": spec.workload_overrides["prompt_fraction"]
                }
            else:
                assert spec.policy_kwargs == {}

    def test_registered_as_cli_job_set(self):
        assert "kvcache" in JOB_SETS

    def test_specs_pickle_under_spawn_semantics(self):
        # spawn re-imports from pickled specs: every field must survive a
        # round trip (the PKL lint rule checks hooks; this checks data)
        for spec in kvcache.kvcache_jobs(TINY):
            clone = pickle.loads(pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL))
            assert clone == spec


class TestBackendBitIdentity:
    def test_pool_matches_serial_bit_for_bit(self):
        jobs = tiny_jobs()
        serial = SweepExecutor(workers=1, cache_dir="").run(jobs)
        with SweepExecutor(workers=2, cache_dir="") as pool:
            parallel = pool.run(jobs)
        assert results_digest(serial) == results_digest(parallel)

    def test_spawn_pool_matches_serial(self):
        jobs = tiny_jobs()[:4]
        serial = SweepExecutor(workers=1, cache_dir="").run(jobs)
        backend = ProcessPoolBackend(workers=2, start_method="spawn")
        with SweepExecutor(workers=2, cache_dir="", backend=backend) as pool:
            parallel = pool.run(jobs)
        assert results_digest(serial) == results_digest(parallel)

    def test_two_shard_split_covers_serial_exactly(self, tmp_path, monkeypatch):
        jobs = tiny_jobs()
        serial = SweepExecutor(workers=1, cache_dir="").run(jobs)
        caches = []
        for shard in (0, 1):
            monkeypatch.setenv("REPRO_SWEEP_SHARD", str(shard))
            monkeypatch.setenv("REPRO_SWEEP_NUM_SHARDS", "2")
            cache = tmp_path / f"shard{shard}"
            caches.append(cache)
            SweepExecutor(workers=1, cache_dir=cache).run(jobs, allow_partial=True)
        monkeypatch.delenv("REPRO_SWEEP_SHARD")
        monkeypatch.delenv("REPRO_SWEEP_NUM_SHARDS")
        from repro.experiments.backends import merge_shards

        merged = tmp_path / "merged"
        merge_shards(caches, merged)
        replay = SweepExecutor(workers=1, cache_dir=merged)
        results = replay.run(jobs)
        assert replay.stats.executed == 0  # fully served from the merge
        assert results_digest(results) == results_digest(serial)


class TestRows:
    def test_run_kvcache_rows_are_labelled_and_finite(self):
        rows = kvcache.run_kvcache(TINY, **GRID_KW)
        assert len(rows) == 8
        for row in rows:
            assert row["policy"] in GRID_KW["strategies"]
            assert row["tier_mode"] in kvcache.TIER_MODES
            assert np.isfinite(row["decode_step_us"]) and row["decode_step_us"] > 0
            assert 0.0 <= row["fast_hit_ratio"] <= 1.0
            assert row["migrated_pages"] >= 0

    def test_oracle_beats_static_placement_in_the_grid(self):
        rows = kvcache.run_kvcache(ROWS_CONFIG, **GRID_KW)
        by_point = {}
        for row in rows:
            by_point.setdefault((row["context"], row["tier_mode"]), {})[
                row["policy"]
            ] = row
        for point, policies in by_point.items():
            assert (
                policies["lookahead"]["fast_hit_ratio"]
                > policies["first-touch"]["fast_hit_ratio"]
            ), point

    def test_format_kvcache_renders_every_row(self):
        rows = kvcache.run_kvcache(TINY, **GRID_KW)
        table = kvcache.format_kvcache(rows)
        assert "first-touch" in table and "lookahead" in table
        assert table.count("\n") >= len(rows)
