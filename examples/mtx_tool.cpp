// Example: command-line tool that runs the paper's two algorithms on a
// Matrix Market file — matching on the bipartite representation, coloring
// on the adjacency representation — optionally on simulated ranks.
//
// Usage:
//   mtx_tool <file.mtx> [--ranks=64] [--threads=4] [--codec=compact] [--quality]
//   mtx_tool <file.mtx> --updates=500 [--update-batch=32] [--update-seed=7]
//            [--update-log=stream.jsonl] [--update-verify]
//   mtx_tool <file.mtx> --update-replay=stream.jsonl [--update-batch=32]
//
// With --quality (square/rectangular matrices of moderate size) the exact
// bipartite matching is also computed and the Table 1.1-style quality
// percentage reported.
//
// With --updates (square matrices: the service runs on the adjacency
// representation) the tool enters service mode: it generates a seeded
// stream of edge inserts / deletes / reweights, pushes it through a
// GraphService in --update-batch-sized batches, and reports the modelled
// time of each incremental repair. --update-log captures the stream as
// JSONL; --update-replay replays a captured log instead of generating
// (the same log reproduces the same repairs bit for bit). --update-verify
// additionally recomputes from scratch after every batch and asserts the
// incremental result is byte-identical.
#include <iostream>

#include "core/pmc.hpp"
#include "support/options.hpp"

int main(int argc, const char** argv) {
  using namespace pmc;
  Options opts;
  opts.add("ranks", "16", "simulated rank count");
  opts.add("threads", "", "execution backend threads (or PMC_THREADS)");
  opts.add("codec", "compact", "wire codec: fixed | compact");
  opts.add_flag("quality", "also compute the exact matching (slow)");
  opts.add("updates", "0", "service mode: generate this many edge updates");
  opts.add("update-batch", "32", "service mode: updates coalesced per batch");
  opts.add("update-seed", "0", "service mode: update-stream seed");
  opts.add("update-log", "", "service mode: write the stream as JSONL");
  opts.add("update-replay", "", "service mode: replay a JSONL stream instead "
                                "of generating");
  opts.add_flag("update-verify", "service mode: recompute from scratch after "
                                 "every batch and require identical results");
  std::vector<std::string> files;
  ExecConfig exec;
  Rank ranks = 0;
  WireCodec codec = WireCodec::kCompact;
  std::int64_t n_updates = 0;
  std::int64_t update_batch = 0;
  std::uint64_t update_seed = 0;
  try {
    files = opts.parse(argc, argv);
    ranks = opts.get_int<Rank>("ranks");
    exec.threads = opts.get_threads();
    codec = parse_wire_codec(opts.get("codec"));
    n_updates = opts.get_int("updates");
    update_batch = opts.get_int("update-batch");
    update_seed = opts.get_int<std::uint64_t>("update-seed");
    PMC_REQUIRE(ranks >= 1, "option --ranks must be at least 1");
    PMC_REQUIRE(n_updates >= 0, "option --updates must not be negative");
    PMC_REQUIRE(update_batch >= 0,
                "option --update-batch must not be negative");
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << opts.help("mtx_tool");
    return 2;
  }
  if (files.empty()) {
    std::cerr << opts.help("mtx_tool")
              << "  (pass one or more Matrix Market files)\n";
    return 2;
  }

  for (const auto& file : files) {
    try {
      const SparseMatrix m = read_matrix_market_file(file);
      std::cout << "=== " << file << " ===\n"
                << "matrix " << m.rows << " x " << m.cols
                << ", nnz=" << m.num_entries()
                << (m.symmetric ? " (symmetric)" : "") << "\n";

      // Matching on the bipartite representation.
      BipartiteInfo info;
      const Graph bip = matrix_to_bipartite(m, info);
      DistMatchingOptions mopt;
      mopt.exec = exec;
      mopt.codec = codec;
      const auto match_result = match_on_ranks(bip, ranks, mopt);
      std::cout << "matching (" << ranks << " ranks): weight="
                << matching_weight(bip, match_result.matching)
                << " pairs=" << match_result.matching.cardinality()
                << " time=" << match_result.run.sim_seconds << "s\n";
      if (opts.get_flag("quality")) {
        const Matching exact = exact_max_weight_bipartite_matching(bip, info);
        const Weight we = matching_weight(bip, exact);
        const Weight wa = matching_weight(bip, match_result.matching);
        std::cout << "quality vs optimal: " << (we > 0 ? wa / we : 1.0) * 100
                  << "%\n";
      }

      // Coloring on the adjacency representation (square matrices only).
      if (m.rows == m.cols) {
        const Graph adj = matrix_to_adjacency(m);
        // Async supersteps (the default) poll mid-superstep and so run their
        // compute sequentially; conflict detection still parallelizes.
        DistColoringOptions copt;
        copt.exec = exec;
        copt.codec = codec;
        const auto color_result = color_on_ranks(adj, ranks, copt);
        std::cout << "coloring (" << ranks
                  << " ranks): colors=" << color_result.coloring.num_colors()
                  << " rounds=" << color_result.rounds
                  << " time=" << color_result.run.sim_seconds << "s\n";

        // Service mode: stream edge updates through incremental repair.
        const std::string replay_path = opts.get("update-replay");
        if (n_updates > 0 || !replay_path.empty()) {
          std::vector<EdgeUpdate> stream;
          if (!replay_path.empty()) {
            stream = read_update_log(replay_path);
            std::cout << "service: replaying " << stream.size()
                      << " update(s) from " << replay_path << "\n";
          } else {
            UpdateStreamConfig cfg;
            cfg.seed = update_seed;
            UpdateStreamGenerator gen(adj, cfg);
            stream = gen.next_batch(n_updates);
          }
          const std::string log_path = opts.get("update-log");
          if (!log_path.empty()) {
            write_update_log(log_path, stream);
            std::cout << "service: stream written to " << log_path << "\n";
          }

          ServiceOptions so;
          so.batch_window = update_batch;
          so.verify_batches = opts.get_flag("update-verify");
          so.matching.exec = exec;
          so.matching.codec = codec;
          so.coloring.exec = exec;
          so.coloring.codec = codec;
          GraphService service(
              adj, block_partition(adj.num_vertices(), ranks), so);
          for (const EdgeUpdate& u : stream) (void)service.push(u);
          if (service.pending_updates() > 0) (void)service.refresh();

          double inc_sim = 0.0, full_sim = 0.0;
          for (const BatchReport& r : service.history()) {
            std::cout << "service batch " << r.batch << ": updates="
                      << r.updates << " invalidated=" << r.match_invalidated
                      << " recolored=" << r.color_recolored
                      << " repair=" << r.match_sim_seconds +
                                           r.color_sim_seconds
                      << "s weight=" << r.matching_weight
                      << " colors=" << r.num_colors << "\n";
            inc_sim += r.match_sim_seconds + r.color_sim_seconds;
            full_sim += r.full_match_sim_seconds + r.full_color_sim_seconds;
          }
          std::cout << "service totals: batches=" << service.history().size()
                    << " incremental=" << inc_sim << "s";
          if (so.verify_batches) {
            std::cout << " recompute=" << full_sim
                      << "s (verified identical)";
          }
          std::cout << "\n";
        }
      } else if (n_updates > 0 || !opts.get("update-replay").empty()) {
        std::cout << "service mode skipped: " << file
                  << " is not square (the service runs on the adjacency "
                     "representation)\n";
      }
    } catch (const Error& e) {
      std::cerr << file << ": " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}
