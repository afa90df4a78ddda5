#!/usr/bin/env python3
"""Smoke test of the pipeline benchmark at --size smoke.

Runs every workload twice through run.py and asserts that the result line
parses, that every end-to-end metric of BENCHMARK.json is present with its
unit, that no check failed, and that the simulation outputs (modelled
times, colors) are identical across the two runs. Registered as the ctest
bench_pipeline_smoke of this directory's CMake project:

    python3 bench_pipeline/smoke_test.py
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_build" / "bench_pipeline" / "smoke"


def run_once(workload, index):
    out = OUT_DIR / f"{workload}-{index}.json"
    p = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--size", "smoke", "--seconds", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, f"{workload}: run.py exited {p.returncode}\n" \
        f"{p.stdout[-2000:]}{p.stderr[-2000:]}"
    line = json.loads(p.stdout.strip().splitlines()[-1])
    return line, json.loads(out.read_text())["workloads"][workload]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        runs = [run_once(name, i) for i in range(2)]
        for line, _ in runs:
            assert line["correct"] and line["failed"] == 0, (name, line)
            for m in spec["end_to_end"]:
                got = line["metrics"].get(m["name"])
                assert got is not None, f"{name}: {m['name']} missing"
                assert got["unit"] == m["unit"], (name, m["name"], got)
        first, second = (r["exact"] for _, r in runs)
        assert first == second, f"{name}: outputs differ: {first} {second}"
        print(f"{name}: ok ({len(first)} simulation outputs repeat)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
