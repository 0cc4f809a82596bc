"""Tests for the derived account memo (trace-keyed epoch cache).

The memo lets every job replaying the same (workload, seed) trace skip
the LLC-filter pipeline: the per-epoch ``(miss_mask, miss_pages,
miss_is_write, touched)`` tuple is a pure function of the trace prefix
and the filter geometry, independent of policy and tier ratio.  These
tests pin the rules that keep that sharing sound: a recording memo
publishes itself only when it covers the complete trace, and consumers
get isolated copies.
"""

import numpy as np
import pytest

from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import _EpochAccountMemo, run_one

KEY = ("trace", 0)


def _entry(tag: int):
    return (
        np.array([True, False, tag % 2 == 0]),
        np.array([tag, tag + 1]),
        np.array([False, True]),
        np.array([tag, tag + 1, tag + 2]),
    )


@pytest.fixture
def derived(monkeypatch):
    """An empty, private derived cache for one test."""
    cache: dict = {}
    monkeypatch.setattr(runner, "_DERIVED_CACHE", cache)
    return cache


class TestEpochAccountMemo:
    def test_replay_returns_copies(self):
        """Mutating what get() hands out must not corrupt the shared entry."""
        memo = _EpochAccountMemo(KEY, 1, [_entry(0)])
        first = memo.get(0)
        assert first is not None
        first[1][:] = -99
        again = memo.get(0)
        assert np.array_equal(again[1], np.array([0, 1]))

    def test_replay_past_the_end_returns_none(self):
        memo = _EpochAccountMemo(KEY, 1, [_entry(0)])
        assert memo.get(1) is None

    def test_recording_memo_never_serves(self, derived):
        memo = _EpochAccountMemo(KEY, 2)
        memo.put(0, *_entry(0))
        assert memo.get(0) is None  # record mode: engine computes fresh

    def test_put_stores_copies(self, derived):
        """The engine reuses its epoch arrays; the memo must snapshot."""
        memo = _EpochAccountMemo(KEY, 1)
        mask, pages, writes, touched = _entry(3)
        memo.put(0, mask, pages, writes, touched)
        pages[:] = -1
        assert np.array_equal(derived[KEY][0][1], np.array([3, 4]))

    def test_put_only_appends_in_sequence(self, derived):
        memo = _EpochAccountMemo(KEY, 2)
        memo.put(0, *_entry(0))
        memo.put(5, *_entry(5))  # out of sequence: dropped
        assert KEY not in derived
        memo.put(1, *_entry(1))
        assert [e[1].tolist() for e in derived[KEY]] == [[0, 1], [1, 2]]

    def test_last_put_publishes_and_not_before(self, derived):
        memo = _EpochAccountMemo(KEY, 3)
        memo.put(0, *_entry(0))
        memo.put(1, *_entry(1))
        assert derived == {}
        memo.put(2, *_entry(2))
        assert len(derived[KEY]) == 3

    def test_replaying_memo_ignores_puts(self, derived):
        entries = [_entry(0)]
        memo = _EpochAccountMemo(KEY, 2, entries)
        memo.put(1, *_entry(1))
        assert len(entries) == 1
        assert derived == {}

    def test_publishing_evicts_the_oldest_entry(self, derived):
        for i in range(runner._DERIVED_CACHE_MAX + 1):
            _EpochAccountMemo(("trace", i), 1).put(0, *_entry(i))
        assert len(derived) == runner._DERIVED_CACHE_MAX
        assert ("trace", 0) not in derived


class TestMemoSharingAcrossRuns:
    @pytest.fixture(autouse=True)
    def clean_caches(self, monkeypatch, derived):
        monkeypatch.setattr(runner, "_TRACE_CACHE", {})

    CONFIG = ExperimentConfig(num_pages=2048, batches=6, batch_size=2048)

    def test_memo_replay_is_bit_identical(self, derived):
        """Cold run records the memo; warm runs (same and different
        policies) replay it.  Reports must match the cold ones exactly."""
        cold_a = run_one("gups", "neomem", self.CONFIG)
        assert len(derived) == 1  # published: trace was complete
        cold_b = run_one("gups", "memtis", self.CONFIG)
        warm_a = run_one("gups", "neomem", self.CONFIG)
        warm_b = run_one("gups", "memtis", self.CONFIG)
        for cold, warm in ((cold_a, warm_a), (cold_b, warm_b)):
            assert cold.summary() == warm.summary()
            assert cold.epochs == warm.epochs

    def test_truncated_run_does_not_publish(self, derived):
        """A max_epochs-truncated run covers only a prefix of the trace;
        publishing it would hand later full runs a partial memo with cold
        filter state at the cliff edge."""
        run_one("gups", "memtis", self.CONFIG, engine_overrides={"max_epochs": 2})
        assert len(derived) == 0
        assert len(runner._TRACE_CACHE) == 1  # the trace itself is complete

    def test_replay_matches_a_live_run(self):
        """The replayed trace is the one a live engine would consume."""
        workload = runner.build_workload("gups", self.CONFIG)
        engine = runner.build_engine(workload, "neomem", self.CONFIG)
        runner.warm_first_touch(engine)
        live = engine.run()
        replayed = run_one("gups", "neomem", self.CONFIG)
        assert live.epochs == replayed.epochs
