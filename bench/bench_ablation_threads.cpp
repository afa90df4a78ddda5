// Ablation A7 — shared-memory execution backend (thread sweep).
//
// Runs the same matching / coloring / distance-2 workloads with the rank
// callbacks on 1, 2, 4 and 8 pool threads and reports modelled time and
// wall-clock time side by side. The modelled results are REQUIRED to be
// bit-identical across the sweep (that is the backend's contract — the
// thread count may only change how long the simulation takes to run, never
// what it computes); the wall-clock column is where the speedup shows.
//
// Wall-clock speedup tracks the host's real core count. The summary JSON
// records hardware_concurrency so a 1-core CI box reporting ~1x is
// distinguishable from a backend regression.
#include "bench_common.hpp"

#include <algorithm>
#include <functional>
#include <iostream>
#include <limits>
#include <thread>

namespace pmc::bench {
namespace {

struct Sample {
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;  // min over reps
  std::int64_t messages = 0;
};

template <typename Run>
Sample measure(int reps, const Run& run) {
  Sample s;
  s.wall_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const RunResult r = run();
    s.sim_seconds = r.sim_seconds;
    s.messages = r.comm.messages;
    s.wall_seconds = std::min(s.wall_seconds, r.wall_seconds);
  }
  return s;
}

int run(int argc, const char** argv) {
  Options opts;
  opts.add("grid", "192", "grid side length (5-point stencil workloads)");
  opts.add("ranks", "64", "simulated processor count");
  // The sweep intentionally bypasses Options::get_threads: oversubscribing
  // (8 threads on a smaller box) is part of what the ablation measures.
  opts.add("threads", "1,2,4,8", "comma-separated pool sizes to sweep");
  opts.add("reps", "3", "repetitions per point (min wall time is reported)");
  opts.add("csv", "", "optional CSV output path");
  opts.add("json", "BENCH_threads.json", "summary JSON path (empty = none)");
  opts.add("async-json", "BENCH_threads_async.json",
           "async (event-engine) sweep JSON path (empty = none)");
  opts.add("coloring-async-json", "BENCH_threads_coloring_async.json",
           "async-superstep coloring sweep JSON path (empty = none)");
  (void)opts.parse(argc, argv);
  const auto side = static_cast<VertexId>(opts.get_int("grid"));
  const auto ranks = opts.get_int<Rank>("ranks");
  const int reps = std::max(1, opts.get_int<int>("reps"));

  const std::vector<int> thread_list = opts.get_int_list("threads");
  PMC_REQUIRE(thread_list.front() == 1,
              "--threads must start with 1 (the sequential baseline)");

  banner("Ablation A7 — execution backend thread sweep",
         "the backend changes wall-clock time only: modelled time, comm "
         "stats and results are bit-identical at every thread count");

  const Graph g = grid_2d(side, side, WeightKind::kUniformRandom, 61);
  Rank pr = 0, pc = 0;
  factor_processor_grid(ranks, pr, pc);
  const Partition p = grid_2d_partition(side, side, pr, pc);
  const DistGraph dist = DistGraph::build(g, p);

  // The JSON summaries leave the message count out.
  TextTable table("wall-clock thread sweep (sim column must not move)",
                  {{"workload", "workload"},
                   {"threads", "threads", kCount},
                   {"sim (s)", "sim_seconds", kSci},
                   {"wall (s)", "wall_seconds", kSci},
                   {"speedup", "speedup", fixed(2, "x")},
                   {"", "messages", kText, ""}});

  struct Workload {
    std::string name;
    std::function<RunResult(int)> run;  // threads -> result
  };
  // The BSP engines defer whole rank phases; the async (event-engine)
  // workloads exercise windowed event dispatch, including the reliable
  // transport's retry timers in the fault variant.
  const std::vector<Workload> sync_workloads = {
      {"coloring-sync",
       [&](int threads) {
         auto o = DistColoringOptions::improved();
         o.superstep_mode = SuperstepMode::kSync;
         o.exec.threads = threads;
         return color_distributed(dist, o).run;
       }},
      {"distance2-sync",
       [&](int threads) {
         DistColoringOptions o;
         o.superstep_mode = SuperstepMode::kSync;
         o.exec.threads = threads;
         return color_distance2_distributed_native(g, p, o).run;
       }},
  };
  const std::vector<Workload> async_workloads = {
      {"matching-async",
       [&](int threads) {
         DistMatchingOptions o;
         o.exec.threads = threads;
         return match_distributed(dist, o).run;
       }},
      {"matching-async-eager",
       [&](int threads) {
         DistMatchingOptions o;
         o.bundled = false;
         o.exec.threads = threads;
         return match_distributed(dist, o).run;
       }},
      {"matching-async-faults",
       [&](int threads) {
         DistMatchingOptions o;
         o.faults.drop_rate = 0.05;
         o.faults.duplicate_rate = 0.02;
         o.faults.seed = 14;
         o.jitter_seconds = 2e-6;
         o.jitter_seed = 7;
         o.exec.threads = threads;
         return match_distributed(dist, o).run;
       }},
  };

  // kAsync supersteps poll mid-round; small supersteps + boundary-first
  // ordering make those polls actually deliver, so the sweep exercises the
  // snapshot-harvest parallel path rather than an empty-inbox special case.
  const std::vector<Workload> coloring_async_workloads = {
      {"coloring-async",
       [&](int threads) {
         auto o = DistColoringOptions::improved();
         o.superstep_size = 16;
         o.local_order = LocalOrder::kBoundaryFirst;
         o.exec.threads = threads;
         return color_distributed(dist, o).run;
       }},
      {"coloring-async-faults",
       [&](int threads) {
         auto o = DistColoringOptions::improved();
         o.superstep_size = 16;
         o.local_order = LocalOrder::kBoundaryFirst;
         o.faults.drop_rate = 0.05;
         o.faults.duplicate_rate = 0.02;
         o.faults.seed = 14;
         o.exec.threads = threads;
         return color_distributed(dist, o).run;
       }},
      {"distance2-async",
       [&](int threads) {
         auto o = DistColoringOptions::improved();
         o.superstep_size = 16;
         o.exec.threads = threads;
         return color_distance2_distributed_native(g, p, o).run;
       }},
  };

  // Runs one sweep and returns its rows, which make one JSON summary.
  const auto sweep = [&](const std::vector<Workload>& workloads) {
    const std::size_t first = table.rows();
    for (const auto& w : workloads) {
      Sample base;
      for (const int threads : thread_list) {
        const Sample s = measure(reps, [&] { return w.run(threads); });
        if (threads == 1) {
          base = s;
        } else {
          // Exact comparison on purpose: any drift means the deferred-lane
          // merge (or windowed event dispatch) diverged from sequential
          // execution.
          PMC_CHECK(s.sim_seconds == base.sim_seconds,
                    w.name << ": modelled time moved at threads=" << threads);
          PMC_CHECK(s.messages == base.messages,
                    w.name << ": message count moved at threads=" << threads);
        }
        table.add({w.name, threads, s.sim_seconds, s.wall_seconds,
                   base.wall_seconds / s.wall_seconds, s.messages});
      }
    }
    return table.slice(first, table.rows());
  };

  const TextTable sync_rows = sweep(sync_workloads);
  const TextTable async_rows = sweep(async_workloads);
  const TextTable coloring_async_rows = sweep(coloring_async_workloads);
  table.write_csv(opts.get("csv"));
  table.print(std::cout);

  const unsigned hw = std::thread::hardware_concurrency();
  const auto header = [&](const char* bench_name) {
    return std::vector<Field>{{"bench", bench_name},
                              {"grid", side},
                              {"ranks", ranks},
                              {"reps", reps},
                              {"hardware_concurrency", hw}};
  };
  write_summary(sync_rows, opts.get("json"), header("ablation_threads"));
  write_summary(async_rows, opts.get("async-json"),
                header("ablation_threads_async"));
  write_summary(coloring_async_rows, opts.get("coloring-async-json"),
                header("ablation_threads_coloring_async"));
  std::cout << "(host advertises " << hw
            << " hardware thread(s); wall-clock speedup is bounded by real "
               "cores, the sim column by design must not move)\n";
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  return pmc::bench::run_main(argc, argv, pmc::bench::run);
}
