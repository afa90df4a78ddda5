// Service mode — incremental repair vs full recompute.
//
// Drives a seeded edge-update stream through a GraphService at several
// batch windows and compares the modelled time of the incremental
// re-matching / re-coloring against full recomputes on the same post-batch
// graphs (verify_batches runs both and asserts byte-identical solutions,
// so the comparison is measured on proven-equal work).
//
// Two claims are enforced, not just reported:
//
//  - determinism: the summed incremental sim_seconds are bit-identical
//    across the thread sweep (the execution backend's contract);
//  - the service-mode payoff: on small-batch updates the incremental
//    repair beats the full recompute in modelled time.
//
// The summary JSON (BENCH_service.json) is a committed artifact guarded by
// tools/check_bench_artifacts.sh --compare-baseline in ./ci.sh tier1: a
// >10% modelled-time regression against the committed baseline fails CI.
#include "bench_common.hpp"

#include <thread>
#include <vector>

namespace pmc::bench {
namespace {

struct Sample {
  double inc_sim = 0.0;   ///< Summed incremental repair sim (match + color).
  double full_sim = 0.0;  ///< Summed full-recompute sim on the same graphs.
  double wall_seconds = 0.0;
  std::int64_t batches = 0;
};

Sample run_service(const Graph& g, const Partition& p, std::int64_t window,
                   std::int64_t updates, int threads) {
  ServiceOptions so;
  so.batch_window = window;
  so.verify_batches = true;  // fills the full_* fields and self-checks
  so.matching.exec.threads = threads;
  so.coloring.exec.threads = threads;

  const WallTimer timer;
  GraphService service(g, p, so);
  UpdateStreamConfig cfg;
  cfg.seed = 91;
  UpdateStreamGenerator gen(g, cfg);
  for (const EdgeUpdate& u : gen.next_batch(updates)) (void)service.push(u);

  Sample s;
  s.wall_seconds = timer.seconds();
  for (const BatchReport& r : service.history()) {
    s.inc_sim += r.match_sim_seconds + r.color_sim_seconds;
    s.full_sim += r.full_match_sim_seconds + r.full_color_sim_seconds;
    ++s.batches;
  }
  return s;
}

int run(int argc, const char** argv) {
  Options opts;
  opts.add("grid", "64", "grid side length (5-point stencil workload)");
  opts.add("ranks", "4", "simulated processor count");
  opts.add("updates", "160", "stream length per workload");
  opts.add("windows", "8,32", "comma-separated batch windows to sweep");
  opts.add("threads", "1,2,4", "comma-separated pool sizes to sweep");
  opts.add("reps", "1", "repetitions per point (min wall time is reported)");
  opts.add("csv", "", "optional CSV output path");
  opts.add("json", "BENCH_service.json", "summary JSON path (empty = none)");
  (void)opts.parse(argc, argv);
  const auto side = static_cast<VertexId>(opts.get_int("grid"));
  const auto ranks = opts.get_int<Rank>("ranks");
  const auto updates = static_cast<std::int64_t>(opts.get_int("updates"));
  const int reps = std::max(1, opts.get_int<int>("reps"));

  const std::vector<int> windows = opts.get_int_list("windows");
  const std::vector<int> thread_list = opts.get_int_list("threads");
  PMC_REQUIRE(thread_list.front() == 1,
              "--threads must start with 1 (the sequential baseline)");

  banner("Service mode — incremental repair vs full recompute",
         "small update batches are repaired in a fraction of the modelled "
         "time of recomputing the matching + coloring from scratch");

  const Graph g = grid_2d(side, side, WeightKind::kUniformRandom, 61);
  Rank pr = 0, pc = 0;
  factor_processor_grid(ranks, pr, pc);
  const Partition p = grid_2d_partition(side, side, pr, pc);

  TextTable table("incremental repair vs full recompute (modelled time)",
                  {{"workload", "workload"},
                   {"threads", "threads", kCount},
                   {"inc sim (s)", "sim_seconds", kSci},
                   {"full sim (s)", "full_sim_seconds", kSci},
                   {"ratio", "", fixed(2)},
                   {"wall (s)", "wall_seconds", kSci},
                   {"", "batches"}});

  for (const int window : windows) {
    const std::string name = "service-batch" + std::to_string(window);
    Sample base;
    for (const int threads : thread_list) {
      Sample s;
      s.wall_seconds = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < reps; ++rep) {
        const Sample r = run_service(g, p, window, updates, threads);
        s.inc_sim = r.inc_sim;
        s.full_sim = r.full_sim;
        s.batches = r.batches;
        s.wall_seconds = std::min(s.wall_seconds, r.wall_seconds);
      }
      if (threads == 1) {
        base = s;
      } else {
        // Exact comparison on purpose: any drift means the windowed event
        // dispatch or the BSP rank pool diverged from sequential execution.
        PMC_CHECK(s.inc_sim == base.inc_sim,
                  name << ": modelled time moved at threads=" << threads);
        PMC_CHECK(s.full_sim == base.full_sim,
                  name << ": recompute time moved at threads=" << threads);
      }
      // The service-mode payoff, enforced: incremental beats recompute.
      PMC_CHECK(s.inc_sim < s.full_sim,
                name << ": incremental repair (" << s.inc_sim
                     << "s) did not beat the full recompute (" << s.full_sim
                     << "s)");
      table.add({name, threads, s.inc_sim, s.full_sim,
                 s.inc_sim / s.full_sim, s.wall_seconds, s.batches});
    }
  }
  table.write_csv(opts.get("csv"));
  table.print(std::cout);
  const unsigned hw = std::thread::hardware_concurrency();
  write_summary(table, opts.get("json"),
                {{"bench", "service"},
                 {"grid", side},
                 {"ranks", ranks},
                 {"updates", updates},
                 {"reps", reps},
                 {"hardware_concurrency", hw}});
  std::cout << "(every batch was verified byte-identical to its full "
               "recompute before being timed)\n";
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  return pmc::bench::run_main(argc, argv, pmc::bench::run);
}
