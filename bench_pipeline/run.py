#!/usr/bin/env python3
"""Pipeline benchmark: builds bench_pipeline and runs its workloads.

    python3 bench_pipeline/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace [0|1]] [--size full|smoke] [--out FILE]

Each repetition is a fresh bench_pipeline process, started one at a time,
because users pay first-touch costs on every run. A workload repeats until
--seconds have passed (at least three times) and every metric is reported
as the median over its repetitions, with quartiles, min, max and n.

--trace 0 (the default) prints the end-to-end metrics of BENCHMARK.json.
--trace 1 alternates untraced and traced repetitions, prints the per-layer
metrics, and writes the traced spans as Chrome trace-event JSON (open it in
https://ui.perfetto.dev) under .bench_build/bench_pipeline/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when a check
failed or a repetition did not finish.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "bench_pipeline"
WORK_DIR = BUILD_DIR / "work"
BINARY = BUILD_DIR / "bench_pipeline"
MIN_REPS = 3
# A repetition still running this long after --seconds is killed and counts
# as a failure, so a hung run ends in bounded time.
GRACE_S = 120

# Per-layer wall times are the self times of the spans bench_pipeline
# records around each call into a layer (span duration minus the part its
# child spans cover).
LAYER_SPANS = {
    "graph.s": ("graph.generate", "graph.read_mtx", "graph.read_metis"),
    "partition.s": ("partition",),
    "runtime.dist_graph.build_s": ("runtime.dist_graph.build",),
    "matching.s": ("matching",),
    "coloring.s": ("coloring",),
    "verify.reference_s": ("verify.reference",),
    "verify.dist_s": ("verify.dist",),
    "teardown.s": ("teardown",),
}
# Per-layer metrics taken under another name from the rep output.
RENAMED = {"matching.sim_s": "sim_match_s", "coloring.sim_s": "sim_color_s"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def build():
    """Configures and builds bench_pipeline; output goes to build.log."""
    if not (ROOT / "src" / "core" / "pmc.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "--build", str(BUILD_DIR), "-j", jobs,
              "--target", "bench_pipeline"]]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed (see {log_path})")


def run_rep(args, deadline, trace, jsonl=False):
    """Runs one repetition; returns its JSON object, or an error string."""
    cmd = [str(BINARY), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--size={args.size}", f"--work-dir={WORK_DIR}"]
    if trace:
        cmd.append("--trace")
    if jsonl:
        cmd.append("--jsonl")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"repetition timed out after {timeout:.0f} s"
    if p.returncode != 0:
        return f"exit code {p.returncode}: {p.stderr.strip()[-500:]}"
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return "unparsable repetition output"


def summary(values):
    values = sorted(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "min": values[0],
            "max": values[-1], "n": len(values)}


def self_times(spans):
    """Self time per span name: duration minus the time of its children."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, _, start, end) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def layer_values(rep):
    """Per-layer metric values of one traced repetition."""
    values = dict(rep["exact"])
    values.update(rep["measured"])
    selfs = self_times(rep["spans"])
    for metric, names in LAYER_SPANS.items():
        values[metric] = sum(selfs.get(n, 0.0) for n in names)
    for metric, source in RENAMED.items():
        values[metric] = rep["exact"][source]
    for layer in ("matching", "coloring"):
        seconds = values[f"{layer}.s"]
        values[f"{layer}.messages_per_s"] = (
            values[f"{layer}.messages"] / seconds if seconds > 0 else 0.0)
    return values


def chrome_trace(workload, reps):
    """Chrome trace-event JSON: one track per traced repetition."""
    events = [{"ph": "M", "pid": 1, "name": "process_name",
               "args": {"name": workload}}]
    for tid, rep in enumerate(reps, start=1):
        events.append({"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                       "args": {"name": f"rep {tid}"}})
        spans = rep["spans"]
        for name, parent, start, end in spans:
            events.append({
                "ph": "X", "pid": 1, "tid": tid, "name": name,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"workload": workload, "rep": tid,
                         "parent": spans[parent][0] if parent >= 0 else None},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


class Workload:
    """Repetitions of one workload and the checks they fed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.reps = []
        self.traced = []

    def add(self, rep):
        if isinstance(rep, str):
            self.attempted += 1
            self.failures.append(rep)
            return False
        self.attempted += rep["attempted"]
        self.failures.extend(rep["failures"])
        (self.traced if rep["trace"] else self.reps).append(rep)
        return True

    def check_exact(self):
        """Simulation outputs must repeat exactly across repetitions."""
        reps = self.reps + self.traced
        for key in sorted({k for r in reps for k in r["exact"]}):
            self.attempted += 1
            if len({r["exact"][key] for r in reps if key in r["exact"]}) > 1:
                self.failures.append(f"{key} differs between repetitions")


def run_workload(args, trace):
    start = time.monotonic()
    deadline = start + args.seconds + GRACE_S
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    if args.workload == "circuit-1k":
        try:
            subprocess.run([str(BINARY), "--workload=circuit-1k",
                            f"--seed={args.seed}", f"--size={args.size}",
                            f"--work-dir={WORK_DIR}", "--prepare"],
                           check=True, timeout=GRACE_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"writing the circuit inputs failed: {e}")
    w = Workload()
    while True:
        if not w.add(run_rep(args, deadline, trace=False)):
            break
        if trace and not w.add(run_rep(args, deadline, trace=True,
                                       jsonl=not w.traced)):
            break
        if (len(w.reps) >= MIN_REPS and
                time.monotonic() - start >= args.seconds):
            break
    w.check_exact()
    return w


def metric_table(spec, w, trace):
    """Every metric of the chosen kind with its unit and summary."""
    if trace:
        reps = w.traced
        per_rep = [layer_values(r) for r in reps]
        untraced_wall = statistics.median(r["measured"]["wall_s"]
                                          for r in w.reps)
        for v, r in zip(per_rep, reps):
            v["trace.overhead_s"] = r["measured"]["wall_s"] - untraced_wall
    else:
        reps = w.reps
        per_rep = [{**r["exact"], **r["measured"]} for r in reps]
    table = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        values = [v[m["name"]] for v in per_rep if m["name"] in v]
        if values:
            exact = m["name"] in RENAMED or m["name"] in reps[0]["exact"]
            table[m["name"]] = {"unit": m["unit"], "exact": exact,
                                **summary(values), "samples": values}
    return table


def extras(w):
    """Workload-specific numbers that are not benchmark metrics."""
    out = {}
    keys = {k for r in w.reps for k in r["measured"]}
    for key in sorted(keys - {"wall_s", "setup_s", "solve_s", "peak_rss_mb"}):
        out[key] = summary([r["measured"][key] for r in w.reps
                            if key in r["measured"]])
    batches = [ms for r in w.reps for ms in r["batch_ms"]]
    if batches:
        # Pooled over repetitions; p90 keeps >= 10 samples beyond it from
        # 100 batches on.
        q = statistics.quantiles(batches, n=10)
        out["service.batch_p50_ms"] = statistics.median(batches)
        out["service.batch_p90_ms"] = q[8]
        out["service.batches_timed"] = len(batches)
    return out


def print_report(name, table, extra):
    print(f"== {name}")
    for metric, s in table.items():
        print(f"  {metric:34s} {s['median']:<14.6g} {s['unit']:9s} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  min {s['min']:.6g}  "
              f"max {s['max']:.6g}  n {s['n']}")
    for key, value in extra.items():
        shown = value["median"] if isinstance(value, dict) else value
        print(f"  (extra) {key:26s} {shown:.6g}")


def metadata(w):
    build_info = (w.reps or w.traced or [{}])[0].get("build", {})
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                              "--dirty"], capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except OSError:
        rev = ""
    return {"git_rev": rev or "unknown",
            "nproc": len(os.sched_getaffinity(0)),
            "hardware_concurrency": build_info.get("hardware_concurrency"),
            "compiler": build_info.get("compiler"),
            "build_type": build_info.get("build_type")}


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--size", default="full", choices=["full", "smoke"])
    parser.add_argument("--out", type=Path,
                        help="also write the full results as JSON here")
    args = parser.parse_args()

    build()
    trace = bool(args.trace)
    selected = names if args.workload == "all" else [args.workload]
    results, meta, total_attempted, total_failed = {}, None, 0, 0
    for name in selected:
        args.workload = name
        w = run_workload(args, trace)
        table = metric_table(spec, w, trace) if w.reps and (
            w.traced or not trace) else {}
        extra = extras(w) if w.reps else {}
        print_report(name, table, extra)
        for f in w.failures[:20]:
            print(f"  FAILED: {f}")
        if trace and w.traced:
            path = BUILD_DIR / f"trace-{name}-seed{args.seed}.json"
            path.write_text(json.dumps(chrome_trace(name, w.traced)))
            print(f"  trace: {path}")
        results[name] = {"attempted": w.attempted, "failed": len(w.failures),
                         "failures": w.failures, "metrics": table,
                         "exact": (w.reps or w.traced or [{}])[0].get("exact"),
                         "extras": extra}
        meta = meta or metadata(w)
        total_attempted += w.attempted
        total_failed += len(w.failures)

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seed": args.seed, "size": args.size, "trace": trace,
             "meta": meta, "workloads": results}, indent=1) + "\n")
    expected = spec["per_layer" if trace else "end_to_end"]
    complete = all(len(r["metrics"]) == len(expected)
                   for r in results.values())
    correct = total_failed == 0 and complete
    line = {"correct": correct, "attempted": max(1, total_attempted),
            "failed": total_failed}
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
        line["metrics"] = {k: {"value": v["median"], "unit": v["unit"]}
                           for k, v in metrics.items()}
    else:
        line["metrics"] = {f"{w}/{k}": {"value": v["median"],
                                        "unit": v["unit"]}
                           for w, r in results.items()
                           for k, v in r["metrics"].items()}
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
