"""One round of one workload, in a fresh interpreter.

``run.py`` starts this module once per round (``python -m
perfbench.round``), so no process-level cache of the simulator — the
trace cache, the derived-account memo, the H3 XOR tables — carries
over from another round.  The round prints one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource

from perfbench import grids, hostspeed, tracer


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(grids.RUNS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="paper", choices=grids.SCALES)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--trace-out", default="", help="Chrome trace path (traced rounds)")
    args = parser.parse_args(argv)

    meter = hostspeed.SpeedMeter()
    meter.start()
    at_ready = []
    grids.ON_READY.append(lambda: at_ready.append(meter.snapshot(samples=3)))
    if args.trace:
        if args.workload == "fig12-pool":
            tracer.trace_pool_jobs()
        else:
            tracer.install()
    outcome = grids.RUNS[args.workload](args.seed, args.scale, bool(args.trace))
    # pool workers have exited (the executor closed), so their meter
    # slots are final; the largest one's peak times the worker count
    # bounds their concurrent peak
    count, total = meter.snapshot(samples=3)
    meter.stop()
    setup = at_ready[0] if at_ready else (0.0, 0.0)

    workers = outcome.sweep["workers"] if outcome.sweep else 0
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "ready_ns": outcome.ready_ns,
        "done_ns": outcome.done_ns,
        "job_ns": outcome.job_ns,
        "jobs": len(outcome.labels),
        "accesses": outcome.accesses,
        "failed": {outcome.labels[i]: why for i, why in sorted(outcome.failed.items())},
        "fidelity": outcome.fidelity,
        "digest": outcome.digest,
        "peak_rss_mb": (own_kb + workers * child_kb) / 1024,
        "slowdown": {
            "setup": hostspeed.slowdown(*setup),
            "jobs": hostspeed.slowdown(count - setup[0], total - setup[1]),
            "samples": count,
        },
    }
    if args.trace:
        result["layers"] = tracer.layer_metrics(tracer.TRACER, outcome.sweep)
        if args.trace_out:
            tracer.TRACER.write_chrome_trace(args.trace_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
