"""Tests for the sweep CLI: the pool/replay/serial digest flow CI runs."""

import json

import pytest

from repro.experiments.sweep import WORKERS_ENV
from repro.experiments.sweep_cli import main
from repro.telemetry import configure, read_manifest

#: tiny-scale flags so the CLI flow stays test-suite sized
# fmt: off
TINY_FLAGS = [
    "--num-pages", "2048", "--batches", "4", "--batch-size", "2048",
    "--workloads", "gups,silo", "--ratios", "1:2",
]
# fmt: on


def digest(*flags: str) -> int:
    """`digest` of the tiny fig12 job set with extra flags."""
    return main(["digest", "fig12", *TINY_FLAGS, *flags])


def test_pool_replay_and_serial_digests_agree(tmp_path, monkeypatch, capsys):
    """A 2-worker pool `digest` fills a cache, a `--require-cached`
    replay executes nothing, and both equal a serial `digest`."""
    cache = tmp_path / "cache"
    pool_out, replay_out, serial_out = (
        tmp_path / f"{name}.digest" for name in ("pool", "replay", "serial")
    )
    monkeypatch.setenv(WORKERS_ENV, "2")
    assert digest("--cache-dir", str(cache), "--out", str(pool_out)) == 0
    monkeypatch.delenv(WORKERS_ENV)
    capsys.readouterr()
    assert digest("--cache-dir", str(cache), "--require-cached", "--out", str(replay_out)) == 0
    assert "(executed=0 " in capsys.readouterr().out
    assert digest("--out", str(serial_out)) == 0

    assert pool_out.read_text() == replay_out.read_text() == serial_out.read_text()


def test_require_cached_fails_on_cold_cache(tmp_path, capsys):
    cache = tmp_path / "empty"
    code = main(
        ["digest", "fig12", *TINY_FLAGS,
         "--cache-dir", str(cache), "--require-cached"]
    )
    assert code == 2
    assert "does not cover" in capsys.readouterr().err
    # fail-fast: no job executed, nothing written into the cache under
    # diagnosis (a run-first check would pollute it with fresh results)
    assert list(cache.glob("*.pkl")) == []


def test_require_cached_fails_on_torn_entry(tmp_path, capsys):
    """A truncated cache entry does not count as cached: the replay
    fails fast instead of silently re-running that job."""
    cache = tmp_path / "cache"
    assert digest("--cache-dir", str(cache)) == 0
    entries = sorted(cache.glob("*.pkl"))
    records = len(read_manifest(cache))
    entries[0].write_bytes(entries[0].read_bytes()[:100])
    capsys.readouterr()
    assert digest("--cache-dir", str(cache), "--require-cached") == 2
    assert "missing or unreadable" in capsys.readouterr().err
    # no job executed: nothing was stored and no provenance appended
    assert len(read_manifest(cache)) == records
    assert len(list(cache.glob("*.pkl"))) == len(entries) - 1


def test_unknown_job_set_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["digest", "fig99"])


def test_malformed_ratios_rejected(tmp_path):
    with pytest.raises(SystemExit, match="invalid ratio"):
        main(["digest", "fig12", "--ratios", "1:2,14", "--cache-dir", str(tmp_path)])


def test_trace_subcommand_writes_perfetto_trace(tmp_path, capsys):
    """`trace` runs the job set instrumented and exports Chrome-trace
    JSON with the engine's phase spans and migration audit events."""
    out = tmp_path / "trace.json"
    try:
        assert main(
            ["trace", "fig12", *TINY_FLAGS, "--limit", "2", "--out", str(out)]
        ) == 0
    finally:
        configure("off")
    document = json.loads(out.read_text())
    events = document["traceEvents"]
    assert events, "trace is empty"
    span_names = {e["name"] for e in events if e["ph"] == "X"}
    # the per-epoch engine phases all show up...
    assert {"account", "profile", "plan"} <= span_names
    # ...and so do the sweep-layer spans
    assert "sweep.dispatch" in span_names
    # every engine got its own named lane
    lanes = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert "sweep" in lanes and len(lanes) >= 3
    assert "traced 2 jobs" in capsys.readouterr().out


def test_unsupported_subset_flag_rejected(tmp_path):
    """Flags a job set would silently ignore are an error, not a no-op."""
    with pytest.raises(SystemExit, match="not supported"):
        main(["digest", "colocation", "--workloads", "gups", "--cache-dir", str(tmp_path)])
    with pytest.raises(SystemExit, match="not supported"):
        main(["digest", "fig11", "--ratios", "1:2", "--cache-dir", str(tmp_path)])
