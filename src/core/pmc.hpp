// Umbrella header for the pmc library.
//
// pmc reproduces "Distributed-Memory Parallel Algorithms for Matching and
// Coloring" (Çatalyürek, Dobrian, Gebremedhin, Halappanavar, Pothen, IPPS
// 2011): a half-approximate edge-weighted matching and a speculative greedy
// distance-1 coloring, both executed on a deterministic simulated
// distributed-memory runtime with an alpha-beta communication cost model.
//
// Typical usage:
//
//   #include "core/pmc.hpp"
//   pmc::Graph g = pmc::grid_2d(512, 512, pmc::WeightKind::kUniformRandom);
//   pmc::Matching m = pmc::match(g);                 // sequential
//   auto dist = pmc::match_on_ranks(g, /*ranks=*/64);  // simulated parallel
//   pmc::Coloring c = pmc::color(g);
//
// See DESIGN.md for the module map and EXPERIMENTS.md for the reproduction
// of every table and figure of the paper.
#pragma once

#include "coloring/coloring.hpp"        // IWYU pragma: export
#include "coloring/distance2.hpp"       // IWYU pragma: export
#include "coloring/jones_plassmann.hpp" // IWYU pragma: export
#include "coloring/parallel.hpp"        // IWYU pragma: export
#include "coloring/parallel_verify.hpp" // IWYU pragma: export
#include "coloring/sequential.hpp"      // IWYU pragma: export
#include "core/api.hpp"                 // IWYU pragma: export
#include "graph/algorithms.hpp"         // IWYU pragma: export
#include "graph/builder.hpp"            // IWYU pragma: export
#include "graph/csr_graph.hpp"          // IWYU pragma: export
#include "graph/generators.hpp"         // IWYU pragma: export
#include "graph/matrix_market.hpp"      // IWYU pragma: export
#include "graph/metis_io.hpp"           // IWYU pragma: export
#include "matching/exact_bipartite.hpp" // IWYU pragma: export
#include "matching/matching.hpp"        // IWYU pragma: export
#include "matching/parallel.hpp"        // IWYU pragma: export
#include "matching/parallel_verify.hpp" // IWYU pragma: export
#include "matching/sequential.hpp"      // IWYU pragma: export
#include "partition/multilevel.hpp"     // IWYU pragma: export
#include "partition/partition.hpp"      // IWYU pragma: export
#include "partition/simple.hpp"         // IWYU pragma: export
#include "runtime/dist_graph.hpp"       // IWYU pragma: export
#include "runtime/event_engine.hpp"     // IWYU pragma: export
#include "runtime/machine_model.hpp"    // IWYU pragma: export
#include "service/incremental_color.hpp" // IWYU pragma: export
#include "service/incremental_match.hpp" // IWYU pragma: export
#include "service/service.hpp"          // IWYU pragma: export
#include "service/update_stream.hpp"    // IWYU pragma: export
#include "support/error.hpp"            // IWYU pragma: export
#include "support/rng.hpp"              // IWYU pragma: export
#include "support/timer.hpp"            // IWYU pragma: export
