"""One pass of one workload in a fresh interpreter.

run.py starts this file once per pass, so the library's module-level
caches (all_graphs, p7c4_free_graphs, class_members, connected_graphs,
petersen, pattern_graph, _stored_coloring) start cold every time. It prints
one JSON object on its last line of stdout.

Modes:
  setup    build the inputs, report the set-up time, stop
  run      the pass as users run it (cli_batch: one child process per op)
  inproc   cli_batch only: call cli_main in this process instead
  trace    as inproc for cli_batch, else as run, with spans on every layer
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() before the spawn")
    ap.add_argument("--mode", choices=("setup", "run", "inproc", "trace"), required=True)
    ap.add_argument("--spans", help="where trace mode writes its spans")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import p7c4

    if not os.path.abspath(p7c4.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"p7c4 imported from {p7c4.__file__}, not from {src}")
    import workloads
    from speed import Speedometer

    build, run, check = workloads.WORKLOADS[args.workload]
    inputs = build(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        meter = Speedometer()
        for _ in range(3):
            meter.sample()
        print(json.dumps({"setup_s": setup_s / meter.pace(), "raw": {"setup_s": setup_s}}))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    # In cli_batch's run mode the ops compute in child processes, which an
    # in-process reference does not track, so its samples are child processes
    # too; and a timer-driven sample would compete with the op's child.
    in_children = args.mode == "run" and args.workload == "cli_batch"
    timer = args.mode == "run" and not in_children
    setup_pace = Speedometer()
    setup_pace.sample()
    ops = workloads.Ops(tracer, in_children)
    meter = ops.meter
    meter.sample()
    if timer:
        meter.start_timer()
    started = time.perf_counter()
    out = run(inputs, ops, args.mode in ("inproc", "trace"))
    ended = time.perf_counter()
    if timer:
        meter.stop_timer()
    meter.sample()
    if tracer is not None:
        tracer.stop()
    correct, sha, notes = check(inputs, out, ops)
    measure = meter.measurer()
    raw_wall_s, wall_s = measure(started, ended)
    latency = [measure(a, b) for a, b in ops.intervals]

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "setup_s": setup_s / setup_pace.pace(),
        "wall_s": wall_s,
        "latency_s": [norm for _, norm in latency],
        "raw": {"setup_s": setup_s, "wall_s": raw_wall_s, "latency_s": [r for r, _ in latency]},
        "pace": meter.pace(),
        "pace_samples": len(meter.samples),
        "peak_rss_mb": peak_kb / 1024,
        "failed": ops.failed,
        "failures": ops.failures,
        "correct": correct,
        "notes": notes,
        "output_sha256": sha,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.spans:
            result["spans"] = tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
