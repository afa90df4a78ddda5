// Ablation A1 — message bundling in the distributed matching algorithm.
//
// The paper attributes its matching scalability to "aggressive message
// bundling, where messages sent between the same pair of processors are
// grouped as often as possible" (§1, §3.3). This ablation runs the same
// matching with bundling on and off and reports message counts, volumes and
// modelled time across processor counts.
#include "bench_common.hpp"

#include <iostream>
#include <utility>

namespace pmc::bench {
namespace {

int run(int argc, const char** argv) {
  Options opts;
  opts.add("grid", "256", "grid side length");
  opts.add("ranks", "16,64,256,1024", "comma-separated processor counts");
  opts.add("csv", "", "optional CSV output path");
  opts.add("rounds-csv", "", "optional per-round series CSV output path");
  (void)opts.parse(argc, argv);
  const auto side = static_cast<VertexId>(opts.get_int("grid"));

  const std::vector<int> rank_list = opts.get_int_list("ranks");

  banner("Ablation A1 — message bundling (matching)",
         "bundling cuts the message count by orders of magnitude and with "
         "it the modelled time; the matching itself is unchanged");

  const Graph g = grid_2d(side, side, WeightKind::kUniformRandom, 61);
  TextTable table("bundled vs unbundled distributed matching",
                  {{"procs", "ranks", kCount},
                   {"variant", "variant"},
                   {"messages", "messages", kCount},
                   {"records", "records", kCount},
                   {"volume (B)", "bytes", kCount},
                   {"sim (s)", "sim_seconds", kSci},
                   {"speedup", "", fixed(2, "x")}});
  TextTable rounds("", {{"", "ranks"},
                        {"", "variant"},
                        {"round", "round", kCount},
                        {"messages", "messages", kCount},
                        {"records", "records", kCount},
                        {"volume (B)", "bytes", kCount},
                        {"collectives", "", kCount}});
  // The largest processor count's rounds are printed after the summary.
  std::size_t last_first_round = 0;
  int last_ranks = 0;

  for (const int ranks : rank_list) {
    Rank pr = 0, pc = 0;
    factor_processor_grid(static_cast<Rank>(ranks), pr, pc);
    const Partition p = grid_2d_partition(side, side, pr, pc);
    const DistGraph dist = DistGraph::build(g, p);

    DistMatchingOptions bundled;
    DistMatchingOptions unbundled;
    unbundled.bundled = false;
    const auto rb = match_distributed(dist, bundled);
    const auto ru = match_distributed(dist, unbundled);
    PMC_CHECK(rb.matching.mate == ru.matching.mate,
              "bundling changed the matching");

    last_first_round = rounds.rows();
    last_ranks = ranks;
    for (const auto& [variant, r] :
         {std::pair{"bundled", &rb.run}, std::pair{"unbundled", &ru.run}}) {
      table.add({ranks, variant, r->comm.messages, r->comm.records,
                 r->comm.bytes, r->sim_seconds,
                 ru.run.sim_seconds / r->sim_seconds});
      const auto& per_round = r->breakdown.per_round;
      for (std::size_t round = 0; round < per_round.size(); ++round) {
        const CommStats& s = per_round[round];
        rounds.add({ranks, variant, round, s.messages, s.records, s.bytes,
                    s.collectives});
      }
    }
  }
  table.write_csv(opts.get("csv"));
  rounds.write_csv(opts.get("rounds-csv"));
  table.print(std::cout);
  // The per-round view: bundling compresses the same record stream into
  // far fewer messages at every activation depth.
  for (const char* variant : {"bundled", "unbundled"}) {
    TextTable last = rounds.slice(last_first_round, rounds.rows())
                         .where("variant", variant);
    last.set_title(std::string("per-activation-depth comm, ") + variant +
                   ", p=" + std::to_string(last_ranks));
    last.print(std::cout);
  }
  std::cout << "(paper: bundling is the key enabler for scaling to tens of "
               "thousands of processors)\n";
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  return pmc::bench::run_main(argc, argv, pmc::bench::run);
}
