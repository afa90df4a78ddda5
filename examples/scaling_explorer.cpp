// Example: a generic scaling-experiment driver — the tool a systems person
// reaches for after reading the paper: "what would *my* graph do on 4,096
// processors?"
//
// Usage examples:
//   scaling_explorer --problem=matching --graph=grid --size=512
//       --ranks=64,256,1024 --model=bgp  (one line)
//   scaling_explorer --problem=coloring --graph=circuit --size=100000
//       --partition=parmetis --ranks=2,32,512  (one line)
//   scaling_explorer --problem=both --graph=rmat --size=16 --threads=4
#include <cmath>
#include <iostream>

#include "core/experiment.hpp"
#include "core/pmc.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace {

using namespace pmc;

Graph make_graph(const std::string& kind, VertexId size, std::uint64_t seed) {
  if (kind == "grid") {
    return grid_2d(size, size, WeightKind::kUniformRandom, seed);
  }
  if (kind == "grid3d") {
    return grid_3d(size, size, size, WeightKind::kUniformRandom, seed);
  }
  if (kind == "circuit") {
    return circuit_like(size, size * 2, 6, WeightKind::kUniformRandom, seed);
  }
  if (kind == "er") {
    return erdos_renyi(size, size * 8, WeightKind::kUniformRandom, seed);
  }
  if (kind == "rmat") {
    return rmat(static_cast<int>(size), 8, 0.57, 0.19, 0.19,
                WeightKind::kUniformRandom, seed);
  }
  if (kind == "geometric") {
    return random_geometric(size, 2.0 / std::sqrt(static_cast<double>(size)),
                            WeightKind::kUniformRandom, seed);
  }
  PMC_FAIL("unknown --graph kind '" << kind
                                    << "' (grid, grid3d, circuit, er, rmat, "
                                       "geometric)");
}

Partition make_partition(const std::string& kind, const Graph& g, Rank ranks,
                         std::uint64_t seed) {
  if (kind == "metis") {
    return multilevel_partition(g, ranks, MultilevelConfig::metis_like(seed));
  }
  if (kind == "parmetis") {
    return multilevel_partition(g, ranks,
                                MultilevelConfig::parmetis_like(seed));
  }
  if (kind == "block") return block_partition(g.num_vertices(), ranks);
  if (kind == "random") {
    return random_partition(g.num_vertices(), ranks, seed);
  }
  PMC_FAIL("unknown --partition kind '" << kind
                                        << "' (metis, parmetis, block, "
                                           "random)");
}

}  // namespace

int main(int argc, const char** argv) {
  using namespace pmc;
  Options opts;
  opts.add("problem", "both", "matching | coloring | both");
  opts.add("graph", "grid", "grid | grid3d | circuit | er | rmat | geometric");
  opts.add("size", "256", "graph size parameter (side / vertices / scale)");
  opts.add("partition", "metis", "metis | parmetis | block | random");
  opts.add("ranks", "16,64,256", "comma-separated simulated rank counts");
  opts.add("model", "bgp", "bgp | commodity");
  opts.add("threads", "1", "threads per rank (hybrid MPI+OpenMP model)");
  opts.add("seed", "1", "random seed");
  std::uint64_t seed = 0;
  int threads = 1;
  std::vector<int> rank_list;
  try {
    (void)opts.parse(argc, argv);
    seed = opts.get_int<std::uint64_t>("seed");
    threads = opts.get_int<int>("threads");
    rank_list = opts.get_int_list("ranks");
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << opts.help("scaling_explorer");
    return 2;
  }

  const Graph g =
      make_graph(opts.get("graph"), opts.get_int("size"), seed);
  std::cout << "graph: " << g.summary() << "\n";
  MachineModel model = opts.get("model") == "commodity"
                           ? MachineModel::commodity_cluster()
                           : MachineModel::blue_gene_p();
  if (threads > 1) model = model.with_threads(threads);
  std::cout << "machine: " << model.name << "\n\n";

  const bool run_matching =
      opts.get("problem") == "matching" || opts.get("problem") == "both";
  const bool run_coloring =
      opts.get("problem") == "coloring" || opts.get("problem") == "both";

  const auto curve = [&](const std::string& problem, const char* extra) {
    return TextTable(problem + " strong scaling (" + opts.get("graph") +
                         ", " + opts.get("partition") + ")",
                     {{"procs", "", kCount.aligned(Align::kLeft)},
                      {"input", "", kText.aligned(Align::kRight)},
                      {"actual (s)", "", kSci},
                      {"ideal (s)", "", kSci},
                      {"efficiency", "", percent(2)},
                      {extra, "", fixed(4)}});
  };
  TextTable match_table = curve("matching", "imbalance");
  TextTable color_table = curve("coloring", "colors");
  ScalingLaw match_law(/*strong=*/true);
  ScalingLaw color_law(/*strong=*/true);

  for (const int ranks : rank_list) {
    const Partition p = make_partition(opts.get("partition"), g,
                                       static_cast<Rank>(ranks), seed);
    const auto metrics = compute_metrics(g, p);
    std::cout << "ranks=" << ranks << ": cut=" << metrics.edge_cut << " ("
              << metrics.cut_fraction * 100 << "%), boundary "
              << metrics.boundary_fraction * 100 << "%\n";
    const DistGraph dist = DistGraph::build(g, p);
    if (run_matching) {
      DistMatchingOptions mo;
      mo.model = model;
      const auto res = match_distributed(dist, mo);
      PMC_CHECK(is_valid_matching(g, res.matching), "invalid matching");
      const auto pt = match_law.at(ranks, res.run.sim_seconds);
      match_table.add({ranks, "", res.run.sim_seconds, pt.ideal,
                       pt.efficiency, res.run.load.imbalance()});
    }
    if (run_coloring) {
      DistColoringOptions co = DistColoringOptions::improved();
      co.model = model;
      const auto res = color_distributed(dist, co);
      PMC_CHECK(is_proper_coloring(g, res.coloring), "improper coloring");
      const auto pt = color_law.at(ranks, res.run.sim_seconds);
      color_table.add({ranks, "", res.run.sim_seconds, pt.ideal,
                       pt.efficiency, res.coloring.num_colors()});
    }
  }
  std::cout << '\n';
  if (run_matching) {
    match_table.print(std::cout);
    std::cout << '\n';
  }
  if (run_coloring) {
    color_table.print(std::cout);
  }
  return 0;
}
