"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig12-pool --seed 2024 --seconds 50 --trace 0

The workload runs in rounds for about ``--seconds``: at least three
rounds, stopping at the round boundary nearest to ``--seconds``.
Every round is a fresh interpreter
(``python -m perfbench.round``) with the ``REPRO_*``/``BENCH_*``
knobs stripped and the BLAS/OpenMP thread counts pinned to 1, so no
process cache of the simulator survives from one round to the next.
Each metric is the median over rounds.  Host times are divided by the
slowdown the round measured on its own cores (``hostspeed.py``), so
they read at a reference core's speed.

``--trace 1`` alternates untraced and traced rounds (at least two of
each), prints the per-layer metrics of the traced rounds and the
tracing overhead, and writes each traced round's spans as a Chrome
trace under ``.perfbench/trace/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``
and ``failed`` (jobs, summed over rounds) and ``metrics``, the
``end_to_end`` (``--trace 0``) or ``per_layer`` (``--trace 1``)
metrics that ``BENCHMARK.json`` lists.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import grids, hostspeed, tracer  # noqa: E402  (needs ROOT on sys.path)

MIN_ROUNDS = 3
#: traced runs: at least this many traced and untraced rounds each
MIN_TRACED = 2
#: no round starts or runs past this many seconds, so every run exits
#: well within three minutes
DEADLINE_S = 165.0
THREAD_KNOBS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: the paper's headline, over the Fig. 11 baselines
PAPER_CLAIM = "32-67 % geomean speedup"


class RoundError(RuntimeError):
    """A round crashed, hung, or printed no result."""


def pinned_env() -> tuple[dict, dict, list]:
    """The rounds' environment, the pins it sets, and the knobs it strips."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("REPRO_", "BENCH_"))}
    stripped = sorted(set(os.environ) - set(env))
    pins = dict.fromkeys(THREAD_KNOBS, "1")
    pins["PYTHONHASHSEED"] = "0"
    pins["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env.update(pins)
    return env, pins, stripped


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a round's process group (pool workers
    orphaned by a crash or timeout) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_round(args, traced: bool, env: dict, timeout: float, trace_out: str = "") -> dict:
    cmd = [
        sys.executable, "-m", "perfbench.round",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scale", args.scale,
        "--trace", str(int(traced)),
    ]  # fmt: skip
    if trace_out:
        cmd += ["--trace-out", trace_out]
    start_ns = time.perf_counter_ns()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        proc.communicate()
        raise RoundError(f"round did not finish within {timeout:.0f} s") from None
    finally:
        _stop_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"round exited with {proc.returncode}:\n{err[-3000:]}")
    result = json.loads(lines[-1])
    result["start_ns"] = start_ns
    result["round_s"] = (time.perf_counter_ns() - start_ns) / 1e9
    result["traced"] = traced
    return result


def tail_rank(n: int) -> int:
    """Index (sorted ascending) of the highest order statistic with at
    least 10 samples beyond it; the maximum when there are fewer than 11."""
    return n - 11 if n >= 11 else n - 1


def host_metrics(r: dict) -> dict[str, float]:
    """The end-to-end host metrics of one round, at the reference core's
    speed: each phase's host time divided by its measured slowdown."""
    setup_s = (r["ready_ns"] - r["start_ns"]) / 1e9 / r["slowdown"]["setup"]
    jobs_s = (r["done_ns"] - r["ready_ns"]) / 1e9 / r["slowdown"]["jobs"]
    return {
        "wall_s": setup_s + jobs_s,
        "setup_s": setup_s,
        "accesses_per_s": r["accesses"] / jobs_s if jobs_s > 0 else 0.0,
        "peak_rss_mb": r["peak_rss_mb"],
    }


def job_metrics(rounds: list[dict]) -> dict[str, float]:
    """``job_ms.p50`` and ``job_ms.tail`` over the jobs of a run: each
    job's median host time over the rounds (at the reference speed),
    then the median and the tail over jobs.  Taking each job's median
    first keeps one slow spell from moving a job across the middle."""
    per_job = zip(*([ns / 1e6 / r["slowdown"]["jobs"] for ns in r["job_ns"]] for r in rounds))
    jobs_ms = sorted(statistics.median(times) for times in per_job) or [0.0]
    return {
        "job_ms.p50": statistics.median(jobs_ms),
        "job_ms.tail": jobs_ms[tail_rank(len(jobs_ms))],
    }


def measured_wall_s(r: dict) -> float:
    """A round's wall time as measured, before the speed correction."""
    return (r["done_ns"] - r["start_ns"]) / 1e9


def layer_metrics(r: dict) -> dict[str, float]:
    """A traced round's per-layer metrics, times at the reference speed."""
    jobs_f = r["slowdown"]["jobs"]
    return {
        name: value / jobs_f if tracer.is_time(name) else value
        for name, value in r["layers"].items()
    }


def medians(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(grids.RUNS))
    parser.add_argument("--seed", type=int, default=grids.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument(
        "--scale",
        default="paper",
        choices=grids.SCALES,
        help="machine size: 'paper' (default) or 'smoke' (the benchmark's own tests)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    contract = load_contract()
    env, pins, stripped = pinned_env()

    began = time.monotonic()
    rounds: list[dict] = []
    while True:
        elapsed = time.monotonic() - began
        traced = sum(r["traced"] for r in rounds)
        untraced = len(rounds) - traced
        if args.trace:
            short = traced < MIN_TRACED or untraced < MIN_TRACED
        else:
            short = len(rounds) < MIN_ROUNDS
        # stop at the round boundary nearest to --seconds
        typical = statistics.median(r["round_s"] for r in rounds) if rounds else 0.0
        if (not short and elapsed + typical / 2 >= args.seconds) or (
            rounds and elapsed >= DEADLINE_S
        ):
            break
        # traced runs alternate, starting untraced
        trace_this = bool(args.trace) and untraced > traced
        trace_out = ""
        if trace_this:
            trace_out = str(
                ROOT / ".perfbench" / "trace"
                / f"{args.workload}-seed{args.seed}-round{traced}.json"
            )  # fmt: skip
        try:
            rounds.append(run_round(args, trace_this, env, DEADLINE_S - elapsed, trace_out))
        except RoundError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1

    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    values = medians([host_metrics(r) for r in plain])
    values.update(job_metrics(plain))
    first = rounds[0]
    for name in grids.FIDELITY:
        # n/a on this workload: a neutral 1.0 keeps the metric set uniform
        value = first["fidelity"][name]
        values[name] = 1.0 if value is None else value
    check = {
        "attempted": sum(r["jobs"] for r in rounds),
        "failed": sum(len(r["failed"]) for r in rounds),
        "unstable": [
            f"round {i} {key} differs from round 0"
            for i, r in enumerate(rounds[1:], start=1)
            for key in ("digest", "fidelity")
            if r[key] != first[key]
        ],
    }
    if args.trace:
        values.update(medians([layer_metrics(r) for r in traced_rounds]))
        traced_wall = statistics.median(host_metrics(r)["wall_s"] for r in traced_rounds)
        values["trace.overhead_s"] = traced_wall - values["wall_s"]
        values["trace.overhead_share"] = values["trace.overhead_s"] / values["wall_s"]

    print(f"perfbench {args.workload}  seed {args.seed} (default {grids.DEFAULT_SEED}, "
          f"held out {grids.HELD_OUT_SEED})  scale {args.scale}  "
          f"rounds {len(plain)} untraced + {len(traced_rounds)} traced, "
          "each a fresh interpreter")  # fmt: skip
    print(f"  env pinned: {json.dumps(pins, sort_keys=True)}")
    print(f"  env stripped: {stripped or 'none set'}")
    print_report(args, contract, values, rounds, check)
    listed = contract["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": check["failed"] == 0 and not check["unstable"],
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


def print_report(args, contract, values, rounds, check):
    """The human-readable lines above the JSON result."""
    workload = grids.WORKLOADS[args.workload]
    plain = [r for r in rounds if not r["traced"]]
    first = rounds[0]
    jobs = first["jobs"]
    print(f"  why:   {workload.why}")
    print(f"  moves: {workload.moves}")
    print(f"  holds: {workload.holds}")
    print("end-to-end (median over untraced rounds):")
    for m in contract["end_to_end"]:
        name = m["name"]
        na = name in grids.FIDELITY and first["fidelity"][name] is None
        shown = "n/a (reported as 1.0)" if na else f"{values[name]:.6g}"
        print(f"  {name:<26} {shown:>22} {m['unit']:<8} {m['better']} is better")
    rank = tail_rank(jobs) + 1
    print(f"  job_ms: each of {jobs} job(s) at its median over {len(plain)} rounds; "
          f"then p50, and tail = p{100 * rank / jobs:.1f} over the jobs "
          f"({jobs - rank} job(s) beyond it)")  # fmt: skip
    print("  measured wall_s by round: "
          + " ".join(f"{measured_wall_s(r):.3f}" for r in plain))  # fmt: skip
    print("  slowdown by round (jobs): "
          + " ".join(f"{r['slowdown']['jobs']:.3f}" for r in plain))  # fmt: skip
    samples = statistics.median(r["slowdown"]["samples"] for r in rounds)
    print(f"  host times above are at the reference core's speed: measured / slowdown, "
          f"the mean probe time over {hostspeed.REF_NS / 1e3:.0f} us "
          f"(median {samples:.0f} probes per round); see perfbench/hostspeed.py")  # fmt: skip
    failed, attempted = check["failed"], check["attempted"]
    print(f"  failed_ops: {failed}/{attempted} = {failed / attempted:.4f}")
    for r in rounds:
        for label, reasons in r["failed"].items():
            print(f"    FAILED {label}: {'; '.join(reasons)}")
    for problem in check["unstable"]:
        print(f"    NONDETERMINISTIC: {problem}")
    print(f"  simulated digest: sha256:{first['digest']}")
    speedup = first["fidelity"]["neomem_speedup_geomean"]
    if speedup is not None:
        print(f"  NeoMem geomean speedup: {speedup:.4f}x over {workload.baseline} "
              f"(paper: {PAPER_CLAIM}). The model is unvalidated against hardware: "
              "no error figure is given.")  # fmt: skip
    if len(plain) < len(rounds):
        print("per-layer (median over traced rounds; unlisted ones have no unit):")
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        for name in next(r for r in rounds if r["traced"])["layers"]:
            print(f"  {name:<34} {values[name]:>16.6g} {units.get(name, '')}")
        print(f"  tracing overhead: {values['trace.overhead_s']:+.3f} s on wall_s "
              f"({100 * values['trace.overhead_share']:+.1f} %); "
              "traces in .perfbench/trace/")  # fmt: skip


if __name__ == "__main__":
    sys.exit(main())
