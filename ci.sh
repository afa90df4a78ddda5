#!/usr/bin/env bash
# CI driver: tier-1 verify (full build + test suite + the pipeline
# benchmark's smoke test), a lint stage (pmc-lint determinism/protocol rules
# + clang-tidy when available), an ASan+UBSan build of the runtime- and
# distributed-algorithm-facing tests, and a TSan build that runs the
# threaded execution backend under the race detector.
#
#   ./ci.sh          # all stages
#   ./ci.sh tier1    # tier-1 only
#   ./ci.sh lint     # lint stage only
#   ./ci.sh asan     # ASan+UBSan stage only
#   ./ci.sh tsan     # ThreadSanitizer stage only
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"
STAGE="${1:-all}"

# Runs each bench binary that tier1 runs nowhere else once, at a reduced
# size, with its CSV files and stdout under build/bench_smoke/: a nonzero
# exit, or a CSV row whose field count differs from its header, fails the
# stage. Table 1.1 (no size below --scale=1) and Table 5.1 (no size flag)
# take most of its ~10 s.
bench_smoke() {
  local out=build/bench_smoke
  rm -rf "$out"
  mkdir -p "$out"
  smoke() {
    local name=$1
    shift
    "./build/bench/$name" "$@" --csv="$out/$name.csv" >"$out/$name.txt"
  }
  smoke bench_table_1_1 --scale=1
  smoke bench_fig_5_1 --subgrid=8 --ranks=16,64
  smoke bench_fig_5_2 --grid=128 --ranks=16,64
  smoke bench_fig_5_3 --rows=2000 --ranks=2,8
  smoke bench_fig_5_4 --vertices=2000 --ranks=2,8
  smoke bench_table_5_1
  smoke bench_ablation_bundling --grid=64 --ranks=4,16 \
    --rounds-csv="$out/bench_ablation_bundling_rounds.csv"
  smoke bench_ablation_comm_modes --vertices=2000 --ranks=4,16 \
    --rounds-csv="$out/bench_ablation_comm_modes_rounds.csv"
  smoke bench_ablation_superstep --vertices=2000 --ranks=8
  smoke bench_ablation_jones_plassmann --ranks=8
  smoke bench_ablation_framework_knobs --vertices=2000 --ranks=8
  smoke bench_ablation_faults --grid=32 --vertices=1000 --ranks=8 \
    --drops=0,0.05
  smoke bench_hybrid --cores=64 --grid=64
  smoke bench_distance2 --vertices=2000 --ranks=4,16
  python3 - "$out"/*.csv <<'EOF'
import csv
import sys

bad = 0
for path in sys.argv[1:]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if len(rows) < 2:
        print(f"bench_smoke: {path}: no data rows", file=sys.stderr)
        bad += 1
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            print(f"bench_smoke: {path}:{line}: {len(row)} fields, header "
                  f"has {len(rows[0])}", file=sys.stderr)
            bad += 1
print(f"bench_smoke: {len(sys.argv) - 1} CSV files, {bad} bad")
sys.exit(1 if bad else 0)
EOF
}

# Shows that the baseline gate sees a one-ulp drift in each modelled field
# of BENCH_service.json: for sim_seconds and for full_sim_seconds, a copy of
# build/BENCH_service.json whose first workload's values of that field are
# each moved up by one ulp must fail --compare-baseline, and the failure must
# name that workload and that field.
gate_check() {
  local field
  for field in sim_seconds full_sim_seconds; do
    local dir=build/gate_check/$field
    rm -rf "$dir"
    mkdir -p "$dir"
    local workload
    workload=$(python3 - build/BENCH_service.json "$dir/BENCH_service.json" \
        "$field" <<'EOF'
import json
import math
import sys

with open(sys.argv[1], encoding="utf-8") as f:
    doc = json.load(f)
field = sys.argv[3]
workload = doc["rows"][0]["workload"]
for row in doc["rows"]:
    if row["workload"] == workload:
        row[field] = math.nextafter(row[field], math.inf)
with open(sys.argv[2], "w", encoding="utf-8") as f:
    json.dump(doc, f, indent=2)
print(workload)
EOF
)
    if ./tools/check_bench_artifacts.sh --compare-baseline \
        "$dir/BENCH_service.json" >"$dir/gate.log" 2>&1; then
      echo "gate_check: '$workload' $field one ulp higher passed the gate" >&2
      return 1
    fi
    if ! grep -q "workload '$workload' threads=[0-9]*: $field " \
        "$dir/gate.log"; then
      echo "gate_check: the gate failed without naming '$workload' and" \
        "$field" >&2
      cat "$dir/gate.log" >&2
      return 1
    fi
    echo "gate_check: '$workload' $field one ulp higher fails the gate"
  done
}

tier1() {
  echo "==== tier-1: build + full test suite ===="
  # PMC_HARDENED_WERROR promotes -Wconversion/-Wdouble-promotion/
  # -Wimplicit-fallthrough/-Wunused-result/-Wunused-but-set-variable to
  # errors in CI; the tree must stay clean.
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DPMC_HARDENED_WERROR=ON
  cmake --build build -j "$JOBS"
  # --timeout is a backstop for tests predating the per-test TIMEOUT
  # properties; a wedged simulation fails instead of hanging CI.
  ctest --test-dir build --output-on-failure -j "$JOBS" --timeout 300
  # The codec ablation self-checks: identical results under both codecs,
  # compact payload <= fixed payload per row, and >= 30% total reduction.
  ./build/bench/bench_ablation_codec --json=build/BENCH_codec.json
  bench_smoke
  # Service mode's per-batch micro-benchmarks (fold, distribution build and
  # refresh, both repairs, one whole batch through GraphService::push), the
  # distribution's id lookup, the grid generator, the multilevel
  # partitioner, the event engine under eager-faults' fault mix, the
  # matching and coloring on 64 and 4,096 ranks, and both distributed
  # verifiers run once briefly: one that throws or crashes fails this
  # stage. No timing is gated.
  ./build/bench/bench_micro_kernels \
    --benchmark_filter='DynamicGraphFold|DistGraph|Incremental|ServiceBatch|LocalIdLookup|Grid2d|Multilevel|EventEngine|DistributedMatchingSim|DistributedColoringSim|VerifyMatchingDistributed|VerifyColoringDistributed' \
    --benchmark_min_time=0.01
  # Committed BENCH_*.json baselines must stay well-formed and keep each
  # workload's modelled time bit-identical across the thread sweep.
  ./tools/check_bench_artifacts.sh
  # Modelled-time gate: regenerate the service-mode artifact (every batch
  # self-verifies incremental == full recompute) and fail unless every
  # modelled time equals the committed BENCH_service.json's exactly.
  ./build/bench/bench_service --json=build/BENCH_service.json
  ./tools/check_bench_artifacts.sh --compare-baseline build/BENCH_service.json
  gate_check
  # The same gate for the three thread sweeps (their distance-2 rows run the
  # halo-2 coloring), regenerated at their committed settings: 64 ranks,
  # grid 128 for the sync and event-engine sweeps, grid 192 for the
  # async-superstep coloring sweep.
  ./build/bench/bench_ablation_threads --grid=128 --ranks=64 --threads=1,2,4 \
    --reps=3 --json=build/BENCH_threads.json \
    --async-json=build/BENCH_threads_async.json --coloring-async-json=
  ./build/bench/bench_ablation_threads --grid=192 --ranks=64 \
    --threads=1,2,4,8 --reps=2 --json= --async-json= \
    --coloring-async-json=build/BENCH_threads_coloring_async.json
  ./tools/check_bench_artifacts.sh --compare-baseline \
    build/BENCH_threads.json build/BENCH_threads_async.json \
    build/BENCH_threads_coloring_async.json
  # The pipeline benchmark compiles the library on its own (under
  # .bench_build/) and reads it directly, so build it and run every
  # workload at --size smoke: outputs must check and repeat exactly.
  python3 bench_pipeline/smoke_test.py
  # Its traced mode writes each workload's JSONL trace and every per-layer
  # metric; run.py exits nonzero when a check fails or a metric is missing.
  # The traces' sizes at seed 1 are pinned as well.
  python3 bench_pipeline/run.py --workload all --size smoke --seconds 0 \
    --trace 1 --out build/pipeline_traced.json
  python3 - build/pipeline_traced.json <<'EOF'
import json
import sys

expected = {"grid-4k": 53611, "circuit-1k": 22430, "eager-faults": 403726,
            "service-stream": 3389}
with open(sys.argv[1], encoding="utf-8") as f:
    workloads = json.load(f)["workloads"]
bad = 0
for name, want in expected.items():
    metric = workloads.get(name, {}).get("metrics", {}).get("trace.jsonl_bytes")
    got = metric["median"] if metric else None
    if got != want:
        print(f"pipeline_traced: {name}: trace.jsonl_bytes {got}, expected "
              f"{want}", file=sys.stderr)
        bad += 1
print(f"pipeline_traced: {len(expected)} traces, {bad} of unexpected size")
sys.exit(1 if bad else 0)
EOF
}

lint() {
  echo "==== lint: pmc-lint determinism rules + clang-tidy ===="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DPMC_HARDENED_WERROR=ON
  cmake --build build -j "$JOBS" --target pmc-lint
  # pmc-lint lists every .cpp and .hpp under src/ itself and exits nonzero
  # on any diagnostic, which fails this stage.
  ./build/tools/pmc-lint/pmc-lint --root=.
  # clang-tidy is optional tooling (not baked into every image): run the
  # curated .clang-tidy profile when present, skip loudly when not. The
  # profile's WarningsAsErrors makes any bugprone/concurrency/performance
  # hit fail this stage.
  if command -v clang-tidy >/dev/null 2>&1; then
    grep -o '"file": "[^"]*"' build/compile_commands.json | cut -d'"' -f4 |
      grep '/src/' | sort -u | xargs clang-tidy -p build --quiet
  else
    echo "lint: clang-tidy not on PATH; skipped (pmc-lint stage still ran)"
  fi
}

asan() {
  echo "==== sanitizers: ASan+UBSan on runtime + distributed tests ===="
  # ASan cannot see an index past a vector's size() that stays within its
  # capacity(), the mistake an in-place splice that shrinks an array can
  # make; _GLIBCXX_ASSERTIONS makes operator[] past size() abort.
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  # The fabric/engine layer and every simulated distributed algorithm —
  # the code that moves raw bytes around and is worth sanitizing hardest.
  # test_wire_codec exercises the codec round-trip plus the corruption and
  # truncation detection sweeps; test_chaos drives the fault-injection +
  # ack/retry paths, which touch serialized payloads the most aggressively.
  # The text readers walk raw input bytes by pointer, and the graph builder
  # and the coarsening scatter into CSR rows by computed offsets:
  # test_reader_fuzz feeds the readers thousands of mutated inputs. The
  # validators and the sequential reference walk row-relative positions by
  # pointer, and the distributed verifiers index dense ghost tables by
  # `local - num_owned`: test_matching_seq, test_coloring_seq and
  # test_dist_verify feed them malformed and corrupted results.
  local tests=(
    test_graph
    test_matrix_market
    test_metis_io
    test_multilevel
    test_reader_fuzz
    test_wire_codec
    test_fabric
    test_exec
    test_chaos
    test_determinism_regression
    test_runtime_engines
    test_dist_graph
    test_matching_seq
    test_coloring_seq
    test_dist_verify
    test_matching_dist
    test_coloring_dist
    test_distance2
    test_jones_plassmann
    test_service
  )
  cmake --build build-asan -j "$JOBS" --target "${tests[@]}"
  local regex
  regex="^($(IFS='|'; echo "${tests[*]}"))$"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" -R "$regex" \
    --timeout 600
}

tsan() {
  echo "==== sanitizers: TSan on the threaded execution backend ===="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  # test_exec and the determinism suite drive the pool / lane merge at
  # explicit thread counts; test_chaos picks up PMC_THREADS=4 through
  # exec_config_from_env(), so every fault-injection scenario also runs its
  # rank callbacks concurrently under the race detector. The engine suite
  # rides along as the sequential-semantics baseline.
  local tests=(
    test_exec
    test_determinism_regression
    test_chaos
    test_wire_codec
    test_runtime_engines
    test_service
  )
  cmake --build build-tsan -j "$JOBS" --target "${tests[@]}"
  local regex
  regex="^($(IFS='|'; echo "${tests[*]}"))$"
  PMC_THREADS=4 TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -R "$regex" \
    --timeout 600
}

case "$STAGE" in
  tier1) tier1 ;;
  lint) lint ;;
  asan) asan ;;
  tsan) tsan ;;
  all) tier1; lint; asan; tsan ;;
  *) echo "usage: $0 [tier1|lint|asan|tsan|all]" >&2; exit 2 ;;
esac
echo "ci.sh: all requested stages passed"
