// Ablation A4 — speculative framework vs Jones–Plassmann MIS-based coloring.
//
// Paper §4.1: speculation-and-iteration algorithms "were found to be
// consistently superior in performance" to maximal-independent-set-based
// algorithms, mainly because they use "provably fewer or at most as many
// rounds". This ablation measures rounds, communication and modelled time
// for both on the same inputs.
#include "bench_common.hpp"

#include <iostream>

namespace pmc::bench {
namespace {

int run(int argc, const char** argv) {
  Options opts;
  opts.add("ranks", "64", "processor count");
  opts.add("csv", "", "optional CSV output path");
  (void)opts.parse(argc, argv);
  const auto ranks = opts.get_int<Rank>("ranks");

  banner("Ablation A4 — speculative coloring vs Jones-Plassmann",
         "the speculative framework needs fewer rounds and less time than "
         "the MIS-based baseline");

  struct Input {
    std::string name;
    Graph graph;
  };
  std::vector<Input> inputs;
  inputs.push_back({"grid 200x200", grid_2d(200, 200)});
  inputs.push_back(
      {"circuit 40k", circuit_like(40000, 80000, 6, WeightKind::kUnit, 64)});
  inputs.push_back(
      {"erdos-renyi 20k", erdos_renyi(20000, 120000, WeightKind::kUnit, 64)});
  inputs.push_back({"rmat 2^14", rmat(14, 8, 0.57, 0.19, 0.19,
                                      WeightKind::kUnit, 64)});

  TextTable table("speculative framework vs Jones-Plassmann at " +
                      std::to_string(ranks) + " processors",
                  {{"input", "input"},
                   {"algorithm", "algorithm"},
                   {"rounds", "rounds", kCount},
                   {"messages", "messages", kCount},
                   {"colors", "colors", kCount},
                   {"sim (s)", "sim_seconds", kSci}});

  for (const auto& input : inputs) {
    const Partition p = multilevel_partition(
        input.graph, ranks, MultilevelConfig::metis_like(5));
    const DistGraph dist = DistGraph::build(input.graph, p);

    const auto spec = color_distributed(dist, DistColoringOptions::improved());
    PMC_CHECK(is_proper_coloring(input.graph, spec.coloring),
              "improper speculative coloring");
    const auto jp = color_jones_plassmann(dist, JonesPlassmannOptions{});
    PMC_CHECK(is_proper_coloring(input.graph, jp.coloring),
              "improper JP coloring");

    table.add({input.name, "speculative", spec.rounds,
               spec.run.comm.messages, spec.coloring.num_colors(),
               spec.run.sim_seconds});
    table.add({input.name, "jones-plassmann", jp.rounds, jp.run.comm.messages,
               jp.coloring.num_colors(), jp.run.sim_seconds});
  }
  table.write_csv(opts.get("csv"));
  table.print(std::cout);
  std::cout << "(paper: speculative rounds <= JP rounds on every input)\n";
  return 0;
}

}  // namespace
}  // namespace pmc::bench

int main(int argc, const char** argv) {
  return pmc::bench::run_main(argc, argv, pmc::bench::run);
}
