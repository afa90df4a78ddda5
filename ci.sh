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
  # Committed BENCH_*.json baselines must stay well-formed and keep each
  # workload's modelled time bit-identical across the thread sweep.
  ./tools/check_bench_artifacts.sh
  # Perf-regression gate: regenerate the service-mode artifact (every batch
  # self-verifies incremental == full recompute) and fail on a >10%
  # modelled-time regression against the committed BENCH_service.json.
  ./build/bench/bench_service --json=build/BENCH_service.json
  ./tools/check_bench_artifacts.sh --compare-baseline build/BENCH_service.json
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
}

lint() {
  echo "==== lint: pmc-lint determinism rules + clang-tidy ===="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DPMC_HARDENED_WERROR=ON
  cmake --build build -j "$JOBS" --target pmc-lint
  # pmc-lint exits nonzero on any unsuppressed diagnostic (including D10
  # stale suppressions), which fails this stage; the JSON report lands next
  # to the other CI artifacts.
  ./build/tools/pmc-lint/pmc-lint \
    --compile-commands=build/compile_commands.json --root=. \
    --json=build/LINT_report.json
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
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
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
    test_partition_io
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
