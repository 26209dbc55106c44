"""The p7c4 benchmark: three workloads, end-to-end metrics, and a traced run
that gives per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 20 --trace 0

Workloads, metrics and their bounds are listed in BENCHMARK.json; why each
workload exists and which metric each layer should move are in
perfbench/DESIGN.md.

With --trace 0 the run makes at least 2 or 3 passes of the workload, each in a
fresh interpreter and each over the same inputs, and more while the next
pass would end within --seconds; then it reports every end-to-end metric.
With --trace 1 it makes one untraced and one traced pass, and reports every
per-layer metric. Either way it prints one line per metric, then a JSON
object as its last line. Spans and a record of the run (environment,
per-pass results, failures with graph6 repros) go to .perfbench-out/. The
exit code is 0 only if every pass ran to its end.

End-to-end times are divided by the pace of their pass (see speed.py),
which cancels the drift of the machine's speed. The raw times are printed
and recorded beside them. Per-layer times are raw.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# An op's latency is its median over the passes, so a slow moment of the
# shared machine in one pass moves it little. exhaustive's op_tail_ms sits at
# p99.87 of 7,628 sub-millisecond ops, where the mean of two passes still
# moved by 23% from run to run, so it gets a true median of three.
MIN_PASSES = {"exhaustive": 3, "large_members": 2, "cli_batch": 2}
MAX_PASSES = 8
MIN_SETUPS = 7     # set-up is measured at least this often per run; setup_s is their median
DEADLINE_S = 170   # a run must end within 180 s
TAIL_BEYOND = 10   # op_tail_ms: the highest percentile with at least this many ops beyond it
HELP_RUNS = 3


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, began: float, spans: Path | None = None):
    """Run one worker pass; returns its JSON result and its wall time from spawn to exit."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--mode", mode,
           "--spawned-at", repr(spawned_at)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.monotonic() - began)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} {mode} pass passed the {DEADLINE_S} s deadline")
    took = time.monotonic() - spawned_at
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} {mode} pass exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1]), took


def ranked_latencies(passes) -> list[tuple[bool, float]]:
    """Each op's median latency over the passes, slowest last. An op that
    failed in any pass ranks slower than every success."""
    per_op = zip(*(p["latency_s"] for p in passes))
    failed = zip(*(p["failed"] for p in passes))
    return sorted((any(f), statistics.median(lat)) for lat, f in zip(per_op, failed))


def end_to_end(passes, setups) -> tuple[dict, dict]:
    ranked = ranked_latencies(passes)
    n = len(ranked)
    attempted = sum(len(p["failed"]) for p in passes)
    failed = sum(sum(p["failed"]) for p in passes)
    tail_rank = max(n - TAIL_BEYOND, 1)  # nearest rank with TAIL_BEYOND ops beyond it
    wall_total = sum(p["wall_s"] for p in passes)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "ops_per_s": (attempted - failed) / wall_total,
        "op_p50_ms": 1000 * ranked[math.ceil(n / 2) - 1][1],
        "op_tail_ms": 1000 * ranked[tail_rank - 1][1],
        "ok_ratio": (attempted - failed) / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    detail = {
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "op_tail_percentile": 100 * tail_rank / n,
        "op_tail_ops_beyond": n - tail_rank,
        "setup_samples": setups,
    }
    return metrics, detail


def measured(workload: str, seed: int, seconds: int, began: float):
    passes = []
    while True:
        result, took = spawn(workload, seed, "run", began)
        passes.append(result)
        elapsed = time.monotonic() - began
        if len(passes) >= MAX_PASSES or len(passes) >= MIN_PASSES[workload] and elapsed + took > seconds:
            break
    setups = list(passes)
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "setup", began)[0])
    metrics, detail = end_to_end(passes, [s["setup_s"] for s in setups])
    detail["raw"], _ = end_to_end([{**p, **p["raw"]} for p in passes], [s["raw"]["setup_s"] for s in setups])
    detail["paces"] = [p["pace"] for p in passes]
    return metrics, detail, passes


def cli_startup_s() -> float:
    """Median wall time of `python -m p7c4.cli --help` in a child process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(HELP_RUNS):
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "p7c4.cli", "--help"], cwd=ROOT, env=env,
                              capture_output=True, timeout=60)
        times.append(time.perf_counter() - t)
        if proc.returncode != 0:
            raise BenchError(f"p7c4.cli --help exited {proc.returncode}")
    return statistics.median(times)


def traced(workload: str, seed: int, out_dir: Path, began: float):
    # cli_batch is traced in-process, so its untraced reference runs in-process too
    base, _ = spawn(workload, seed, "inproc" if workload == "cli_batch" else "run", began)
    spans = out_dir / f"spans-{workload}-seed{seed}.tsv.gz"
    result, _ = spawn(workload, seed, "trace", began, spans)
    layers = dict(result.pop("layers"))
    layers["cli.startup_s"] = cli_startup_s()
    # over the ops that succeed in both passes: a traced recursion hits
    # Python's limit a few frames sooner, so a failing op ends at another point
    both = [(b, t) for b, t, bf, tf in zip(base["latency_s"], result["latency_s"], base["failed"], result["failed"])
            if not bf and not tf]
    layers["trace.overhead_ratio"] = sum(t for _, t in both) / sum(b for b, _ in both) - 1
    if base["output_sha256"] != result["output_sha256"]:
        result["correct"] = False
        result["notes"].append("traced and untraced outputs differ")
    result["correct"] = result["correct"] and base["correct"]
    _, detail = end_to_end([result], [result["setup_s"]])
    detail["spans_file"] = str(spans.relative_to(ROOT))
    detail["untraced_wall_s"] = base["wall_s"]
    detail["traced_wall_s"] = result["wall_s"]
    detail["paces"] = [base["pace"], result["pace"]]
    return layers, detail, [result]


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    began = time.monotonic()

    if not (ROOT / "src" / "p7c4" / "__init__.py").is_file():
        print(f"no p7c4 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)

    try:
        if args.trace:
            values, detail, passes = traced(args.workload, args.seed, out_dir, began)
        else:
            values, detail, passes = measured(args.workload, args.seed, args.seconds, began)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in listed}:
        print(f"metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    correct = all(p["correct"] for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), "git_sha": git_sha(),
        "correct": correct, "metrics": metrics, "detail": detail,
        "output_sha256": [p["output_sha256"] for p in passes],
        "failures": [f for p in passes for f in p["failures"]],
        "notes": [n for p in passes for n in p["notes"]],
        "passes": passes,
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} python={record['python']} "
          f"nproc={record['nproc']} git={record['git_sha'][:12]}")
    raw = detail.get("raw", {})
    for name, m in metrics.items():
        also = f"  (raw {raw[name]:.6g})" if raw.get(name, m["value"]) != m["value"] else ""
        print(f"{args.workload:14s} {name:44s} {m['value']:.6g} {m['unit']}{also}")
    print(f"# {json.dumps(detail)}")
    print(f"# output_sha256 {' '.join(record['output_sha256'])}")
    for op, error, repro in sorted({(f["op"], f["error"], f["input"]) for f in record["failures"]}):
        print(f"# failed op {op}: {error} input={repro[:60]}")
    for note in record["notes"]:
        print(f"# check failed: {note}")
    print(json.dumps({"correct": correct, "attempted": detail["attempted"], "failed": detail["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
