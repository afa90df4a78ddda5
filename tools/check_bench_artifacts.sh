#!/usr/bin/env bash
# Modelled-time guard over the committed BENCH_*.json baselines.
#
# Each committed artifact must (a) parse as JSON, (b) carry the sweep
# metadata (bench name, hardware_concurrency, rows), (c) have every row
# carry workload/threads/sim_seconds/wall_seconds, and (d) keep each
# workload's modelled sim_seconds bit-identical across the thread sweep —
# the execution backend's contract: thread count may change wall-clock
# time only, never what the simulation computes.
#
#   ./tools/check_bench_artifacts.sh [artifact.json ...]
#
# With no arguments, checks every BENCH_*.json at the repo root.
#
# --compare-baseline mode additionally gates freshly generated artifacts
# against the committed baselines:
#
#   ./tools/check_bench_artifacts.sh --compare-baseline build/BENCH_service.json
#
# Each candidate is validated as above, then matched (by basename) to the
# committed BENCH_*.json at the repo root and compared per
# (workload, threads) on every modelled field: sim_seconds, and
# full_sim_seconds and batches wherever the baseline row has them. A missing
# row or field, or a value that differs from the baseline's in any bit, in
# either direction, fails the check, naming the workload and the field.
# Modelled outputs are deterministic, so there is no tolerance: a change
# that moves one on purpose regenerates the committed baseline in the same
# change. wall_seconds, speedup and hardware_concurrency are host
# measurements and stay ungated.
set -euo pipefail
cd "$(dirname "$0")/.."

compare_mode=0
artifacts=()
for arg in "$@"; do
  case "$arg" in
    --compare-baseline) compare_mode=1 ;;
    --*) echo "check_bench_artifacts: unknown flag $arg" >&2; exit 2 ;;
    *) artifacts+=("$arg") ;;
  esac
done

if [ "${#artifacts[@]}" -eq 0 ]; then
  if [ "$compare_mode" -eq 1 ]; then
    echo "check_bench_artifacts: --compare-baseline needs candidate artifact path(s)" >&2
    exit 2
  fi
  shopt -s nullglob
  artifacts=(BENCH_*.json)
  shopt -u nullglob
fi
if [ "${#artifacts[@]}" -eq 0 ]; then
  echo "check_bench_artifacts: no BENCH_*.json artifacts found" >&2
  exit 1
fi

python3 - "$compare_mode" "${artifacts[@]}" <<'EOF'
import json
import os
import sys

REQUIRED_ROW_KEYS = ("workload", "threads", "sim_seconds", "wall_seconds")
# Modelled fields compared exactly against the baseline: sim_seconds in every
# row, the others wherever the baseline row carries them.
GATED_KEYS = ("sim_seconds", "full_sim_seconds", "batches")
failures = 0


def fail(path, msg):
    global failures
    failures += 1
    print(f"check_bench_artifacts: {path}: {msg}", file=sys.stderr)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"unreadable or invalid JSON: {e}")
        return None


def validate(path, doc):
    """Structural checks; returns {(workload, threads): row}."""
    failures_before = failures
    for key in ("bench", "hardware_concurrency", "rows"):
        if key not in doc:
            fail(path, f"missing top-level key '{key}'")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(path, "'rows' must be a non-empty list")
        return None
    row_by_key = {}
    sim_by_workload = {}
    threads_by_workload = {}
    for i, row in enumerate(rows):
        missing = [k for k in REQUIRED_ROW_KEYS if k not in row]
        if missing:
            fail(path, f"row {i} missing key(s): {', '.join(missing)}")
            continue
        w = row["workload"]
        key = (w, row["threads"])
        if key in row_by_key:
            fail(path, f"duplicate row for workload '{w}' "
                       f"threads={row['threads']}")
        row_by_key[key] = row
        threads_by_workload.setdefault(w, set()).add(row["threads"])
        sim_by_workload.setdefault(w, set()).add(row["sim_seconds"])
    for w, sims in sim_by_workload.items():
        if len(sims) != 1:
            fail(path,
                 f"workload '{w}': sim_seconds moved across the thread "
                 f"sweep ({sorted(sims)}) — the backend must be "
                 f"bit-identical at every thread count")
    for w, threads in threads_by_workload.items():
        if 1 not in threads:
            fail(path, f"workload '{w}': no threads=1 baseline row")
        if len(threads) < 2:
            fail(path, f"workload '{w}': sweep has a single thread count")
    if failures != failures_before:
        return None
    n = len(rows)
    hw = doc.get("hardware_concurrency")
    print(f"check_bench_artifacts: {path}: OK "
          f"({n} rows, {len(sim_by_workload)} workload(s), "
          f"hardware_concurrency={hw})")
    return row_by_key


def compare(path, candidate):
    """Gates `candidate` against the committed baseline of the same name."""
    baseline_path = os.path.basename(path)
    if not os.path.exists(baseline_path):
        fail(path, f"no committed baseline '{baseline_path}' at the repo "
                   f"root to compare against")
        return
    if os.path.samefile(path, baseline_path):
        fail(path, "candidate IS the committed baseline; generate the "
                   "candidate into the build tree instead")
        return
    doc = load(baseline_path)
    if doc is None:
        return
    baseline = validate(baseline_path, doc)
    if baseline is None:
        return
    for (w, t), base_row in sorted(baseline.items()):
        if (w, t) not in candidate:
            fail(path, f"workload '{w}' threads={t}: present in baseline "
                       f"'{baseline_path}' but missing from the candidate")
            continue
        cand_row = candidate[(w, t)]
        same = True
        for field in GATED_KEYS:
            if field not in base_row:
                continue
            if field not in cand_row:
                same = False
                fail(path, f"workload '{w}' threads={t}: {field} is in "
                           f"baseline '{baseline_path}' but missing from "
                           f"the candidate")
                continue
            base, cand = base_row[field], cand_row[field]
            if cand == base:
                continue
            same = False
            rel = (f"{cand / base - 1:+.3e}" if base != 0 else "undefined")
            fail(path,
                 f"workload '{w}' threads={t}: {field} {cand!r} differs "
                 f"from the committed baseline's {base!r} (relative "
                 f"difference {rel}); regenerate '{baseline_path}' in the "
                 f"same change if intentional")
        if same:
            print(f"check_bench_artifacts: {path}: '{w}' threads={t} "
                  f"identical")


compare_mode = sys.argv[1] == "1"
for path in sys.argv[2:]:
    doc = load(path)
    if doc is None:
        continue
    rows = validate(path, doc)
    if rows is not None and compare_mode:
        compare(path, rows)

sys.exit(1 if failures else 0)
EOF
