"""The benchmark's own tests, on the tiny ``smoke`` machine.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import grids, hostspeed, run, tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}


def bench(workload: str, seed: int, *extra: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--scale", "smoke", *extra],
        cwd=cwd, env=ENV, capture_output=True, text=True, timeout=170,
    )  # fmt: skip


def digest_of(stdout: str) -> str:
    return re.search(r"simulated digest: sha256:([0-9a-f]{64})", stdout).group(1)


def traced_round(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.round", "--workload", workload,
         "--seed", "3", "--scale", "smoke", "--trace", "1"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(grids.RUNS))
def test_two_runs_of_one_seed_give_one_digest(workload):
    first, second = bench(workload, 11), bench(workload, 11)
    assert first.returncode == 0 and second.returncode == 0, first.stderr + second.stderr
    assert digest_of(first.stdout) == digest_of(second.stdout)
    assert "NONDETERMINISTIC" not in first.stdout + second.stdout
    result = json.loads(first.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = {m["name"] for m in run.load_contract()["end_to_end"]}
    assert set(result["metrics"]) == listed


def test_digest_follows_the_seed():
    assert digest_of(bench("fig04b-scalar", 1).stdout) != digest_of(
        bench("fig04b-scalar", 2).stdout
    )


def test_report_invariants_hold_and_catch_a_broken_report():
    from repro.experiments.runner import run_one

    config = grids.experiment_config(5, "smoke")
    report = run_one("gups", "neomem", config)
    assert grids.report_problems(report, config) == []
    broken = grids.replace(config, batches=config.batches + 1)
    problems = grids.report_problems(report, broken)
    assert any("epochs" in p for p in problems)
    assert any("accesses" in p for p in problems)


def test_failed_job_counts_against_the_run(monkeypatch):
    from repro.experiments import runner

    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(runner, "run_one", explode)
    outcome = grids.run_kvcache(5, "smoke", trace=False)
    assert len(outcome.failed) == len(outcome.labels)
    assert all("boom" in why[0] for why in outcome.failed.values())


def test_self_time_excludes_children():
    t = tracer.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
        t.tally("scalar", 1_000)
    assert t.calls == {"outer": 1, "inner": 1, "scalar": 1}
    inner = t.total_ns["inner"]
    assert t.self_ns["outer"] == t.total_ns["outer"] - inner - 1_000
    assert t.self_ns["inner"] == inner
    assert [s[0] for s in t.spans] == ["outer", "inner"]
    assert t.spans[1][3] == 0  # inner's parent is outer


def test_job_times_take_each_jobs_median_over_rounds_first():
    def round_(job_ms, slowdown=1.0):
        return {"job_ns": [ms * 1_000_000 for ms in job_ms], "slowdown": {"jobs": slowdown}}

    rounds = [round_([10, 50, 90]), round_([12, 40, 80]), round_([22, 100, 180], slowdown=2.0)]
    # per job: median(10, 12, 11), median(50, 40, 50), median(90, 80, 90)
    assert run.job_metrics(rounds) == {"job_ms.p50": 50.0, "job_ms.tail": 90.0}


def test_tail_has_ten_samples_beyond_it():
    assert run.tail_rank(48) == 37 and 48 - 1 - 37 == 10
    assert run.tail_rank(11) == 0
    assert run.tail_rank(1) == 0


def test_traced_serial_round_attributes_layers():
    layers = traced_round("fig11-serial")["layers"]
    epochs = 8 * 6 * 6  # benchmarks x systems x batches
    assert layers["engine.epochs"] == epochs
    # six systems replay each trace; btree's trace is not cacheable
    assert layers["runner.trace_reuse"] == pytest.approx(1 - (7 + 6) * 6 / epochs)
    assert layers["cache.calls"] == 0 and layers["sweep.parallel_efficiency"] == 0
    assert layers["daemon.threshold_updates"] > 0


def test_traced_pool_round_ships_worker_spans_back():
    layers = traced_round("fig12-pool")["layers"]
    assert layers["engine.epochs"] == 8 * 3 * 2 * 6  # every job ran in a worker
    assert layers["sweep.dispatch_ms.trace_build"] > 0
    assert 0 < layers["sweep.parallel_efficiency"] <= 1


def test_scalar_round_tallies_cache_and_tlb():
    layers = traced_round("fig04b-scalar")["layers"]
    assert layers["cache.calls"] == layers["tlb.calls"] > 0
    assert layers["engine.epochs"] == 0


def test_meter_reads_the_processes_the_round_forks():
    code = """
import os, time
from perfbench import hostspeed
meter = hostspeed.SpeedMeter()
meter.start()
pid = os.fork()
if pid == 0:
    end = time.process_time() + 0.3
    while time.process_time() < end:
        pass
    os._exit(0)
os.waitpid(pid, 0)
meter.stop()
print(*meter.snapshot())
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    count, total = map(float, proc.stdout.split())
    # the parent sat in waitpid; the child's 0.3 CPU-s gives ~30 probes
    assert count >= 10
    assert 0.1 < hostspeed.slowdown(count, total) < 10


def test_host_times_are_divided_by_the_slowdown():
    round_ = {
        "start_ns": 0,
        "ready_ns": 1_000_000_000,
        "done_ns": 5_000_000_000,
        "job_ns": [4_000_000_000],
        "accesses": 1000,
        "peak_rss_mb": 10.0,
        "slowdown": {"setup": 2.0, "jobs": 4.0, "samples": 100},
    }
    metrics = run.host_metrics(round_)
    assert metrics["setup_s"] == 0.5 and metrics["wall_s"] == 1.5
    assert metrics["accesses_per_s"] == 1000.0
    assert run.job_metrics([round_])["job_ms.p50"] == 1000.0
    assert run.measured_wall_s(round_) == 5.0
    assert hostspeed.slowdown(0, 0) == 1.0


def test_only_host_times_are_speed_corrected():
    assert tracer.is_time("cache.ns_per_access") and tracer.is_time("lru2q.self_ms")
    assert tracer.is_time("engine.self_us_per_epoch") and tracer.is_time("runner.setup_ms")
    assert tracer.is_time("sweep.dispatch_ms.job_pickle")
    assert not tracer.is_time("cache.calls") and not tracer.is_time("runner.trace_reuse")
    assert not tracer.is_time("sweep.parallel_efficiency")


def test_without_the_simulator_sources_it_fails_fast(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = bench("fig11-serial", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
