// bench_pipeline — one repetition of one benchmark workload.
//
// Every call into a library layer is timed from outside the library, its
// outputs are checked against the sequential references and the distributed
// verifiers, and the repetition is printed as one JSON object on stdout.
// run.py launches a fresh process per repetition, because a user pays the
// first-touch costs (page faults, allocator growth) on every run, and turns
// the repetitions into medians.
//
//   bench_pipeline --workload=NAME --seed=N [--size=full|smoke] [--trace]
//                  [--jsonl] [--work-dir=DIR]
//   bench_pipeline --workload=circuit-1k --seed=N --prepare [--work-dir=DIR]
//
// --prepare writes the circuit workload's Matrix Market and METIS inputs, so
// that generating them stays outside every timed repetition. --trace keeps
// the spans in memory and collects the per-layer counters after the timed
// phases; --jsonl also times one extra matching run with the JSONL trace
// sink on. All runs use one thread: single-thread wall time is what the
// benchmark tracks.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/pmc.hpp"
#include "support/options.hpp"

namespace pmc::pipeline {
namespace {

/// Seeds of the paper benches the workloads reproduce; --seed=N adds
/// (N-1)*1000 to each, so --seed=1 regenerates the paper benches' inputs.
constexpr std::uint64_t kGridSeed = 51;          // bench_fig_5_1
constexpr std::uint64_t kCircuitMatchSeed = 53;  // bench_fig_5_3
constexpr std::uint64_t kCircuitColorSeed = 54;  // bench_fig_5_4
constexpr std::uint64_t kAblationGridSeed = 61;  // faults + service benches
constexpr std::uint64_t kUpdateSeed = 91;        // bench_service

struct Config {
  std::string workload;
  std::int64_t seed = 1;
  bool smoke = false;
  bool trace = false;
  bool jsonl = false;
  std::filesystem::path work_dir;

  [[nodiscard]] std::uint64_t seeded(std::uint64_t base) const {
    return base + (static_cast<std::uint64_t>(seed) - 1U) * 1000U;
  }
};

// ---------------------------------------------------------------- tracing

struct Span {
  std::string name;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
};

/// Times calls into the library. With `keep` the spans (name, start, end,
/// enclosing span) stay in memory for the Chrome trace run.py writes;
/// without it only the durations are returned.
class Tracer {
 public:
  explicit Tracer(bool keep) : keep_(keep) {}

  /// Runs fn() as a span nested in the innermost open span; returns seconds.
  template <class Fn>
  double span(const std::string& name, Fn&& fn) {
    const auto id = spans_.size();
    const double start = clock_.seconds();
    if (keep_) {
      spans_.push_back({name, open_.empty() ? -1 : open_.back(), start, start});
      open_.push_back(static_cast<int>(id));
    }
    fn();
    const double end = clock_.seconds();
    if (keep_) {
      spans_[id].end = end;
      open_.pop_back();
    }
    return end - start;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  bool keep_;
  WallTimer clock_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------- results

struct Rep {
  std::int64_t attempted = 0;
  std::vector<std::string> failures;
  /// Host measurements (wall times, memory): vary from rep to rep.
  std::map<std::string, double> measured;
  /// Outputs of the simulation (modelled time, counts, colors): a pure
  /// function of the inputs, so every rep of one seed must repeat them.
  std::map<std::string, double> exact;
  std::vector<double> batch_ms;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --------------------------------------------------------- layer counters

void note_graph(Rep& rep, const Graph& g) {
  rep.exact["graph.vertices"] += static_cast<double>(g.num_vertices());
  rep.exact["graph.edges"] += static_cast<double>(g.num_edges());
}

void note_partition(Rep& rep, const Graph& g, const Partition& p) {
  const PartitionMetrics m = compute_metrics(g, p);
  rep.exact["partition.cut_edges"] += static_cast<double>(m.edge_cut);
  rep.exact["partition.boundary_vertices"] +=
      static_cast<double>(m.boundary_vertices);
  double& imbalance = rep.exact["partition.imbalance"];
  imbalance = std::max(imbalance, m.imbalance);
}

void note_dist(Rep& rep, const DistGraph& dist) {
  double ghosts = 0.0, cross = 0.0;
  for (Rank r = 0; r < dist.num_ranks(); ++r) {
    ghosts += static_cast<double>(dist.local(r).num_ghosts());
    cross += static_cast<double>(dist.local(r).num_cross_edges());
  }
  rep.exact["runtime.dist_graph.ghosts"] += ghosts;
  rep.exact["runtime.dist_graph.cross_edges"] += cross;
}

double summed(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

void note_matching(Rep& rep, const DistMatchingResult& m) {
  const RunResult& run = m.run;
  const FaultStats f = run.breakdown.total_faults();
  auto& L = rep.exact;
  rep.measured["matching.engine_s"] += run.wall_seconds;
  L["matching.messages"] += static_cast<double>(run.comm.messages);
  L["matching.bytes"] += static_cast<double>(run.comm.bytes);
  L["matching.records"] += static_cast<double>(run.comm.records);
  L["matching.activations"] += m.max_activations;
  L["matching.interior_sim_s"] += summed(run.breakdown.interior_seconds);
  L["matching.boundary_sim_s"] += summed(run.breakdown.boundary_seconds);
  L["matching.load_imbalance"] =
      std::max(L["matching.load_imbalance"], run.load.imbalance());
  L["matching.retries"] += static_cast<double>(f.retries);
  L["matching.drops"] += static_cast<double>(f.drops);
  L["matching.duplicates"] += static_cast<double>(f.duplicates);
  L["matching.corruptions_detected"] +=
      static_cast<double>(f.corruptions_detected);
  L["matching.backoff_sim_s"] += f.backoff_seconds;
}

struct ColoringCounts {
  int rounds = 0;
  std::int64_t supersteps = 0;
  std::int64_t recolored = 0;
  std::int64_t fault_reentries = 0;
  std::int64_t snapshot_parallel = 0;
  std::int64_t snapshot_fallback = 0;
};

void note_coloring(Rep& rep, const RunResult& run, const ColoringCounts& c,
                   VertexId vertices) {
  auto& L = rep.exact;
  rep.measured["coloring.engine_s"] += run.wall_seconds;
  L["coloring.messages"] += static_cast<double>(run.comm.messages);
  L["coloring.bytes"] += static_cast<double>(run.comm.bytes);
  L["coloring.collectives"] += static_cast<double>(run.comm.collectives);
  L["coloring.rounds"] += c.rounds;
  L["coloring.supersteps"] += static_cast<double>(c.supersteps);
  L["coloring.recolored"] += static_cast<double>(c.recolored);
  L["coloring.vertices"] += static_cast<double>(vertices);
  L["coloring.fault_reentries"] += static_cast<double>(c.fault_reentries);
  L["coloring.snapshot_parallel"] += static_cast<double>(c.snapshot_parallel);
  L["coloring.snapshot_fallback"] += static_cast<double>(c.snapshot_fallback);
  L["coloring.load_imbalance"] =
      std::max(L["coloring.load_imbalance"], run.load.imbalance());
}

ColoringCounts counts_of(const DistColoringResult& c) {
  std::int64_t recolored = 0;
  for (const EdgeId n : c.conflicts_per_round) recolored += n;
  return {c.rounds,           c.total_supersteps,
          recolored,          c.fault_reentries,
          c.snapshot_parallel_supersteps, c.snapshot_fallback_supersteps};
}

ColoringCounts counts_of(const IncrementalColorResult& c) {
  return {c.rounds, c.total_supersteps, c.recolored, c.fault_reentries, 0, 0};
}

/// Turns the summed counters into the ratios run.py reports.
void finish_layers(Rep& rep) {
  auto& L = rep.exact;
  L["partition.cut_fraction"] =
      ratio(L["partition.cut_edges"], L["graph.edges"]);
  L["partition.boundary_fraction"] =
      ratio(L["partition.boundary_vertices"], L["graph.vertices"]);
  L["matching.records_per_message"] =
      ratio(L["matching.records"], L["matching.messages"]);
  L["matching.retry_ratio"] =
      ratio(L["matching.retries"], L["matching.messages"]);
  L["coloring.conflict_ratio"] =
      ratio(L["coloring.recolored"], L["coloring.vertices"]);
}

/// Times one extra matching run with the JSONL trace sink on: the cost of
/// the library's existing trace output.
void time_jsonl(const Config& cfg, Tracer& t, Rep& rep, const DistGraph& dist,
                DistMatchingOptions options) {
  const std::filesystem::path path =
      cfg.work_dir / ("trace-" + std::to_string(::getpid()) + ".jsonl");
  options.trace.jsonl_path = path.string();
  rep.measured["trace.jsonl_s"] = t.span("trace.jsonl", [&] {
    const DistMatchingResult r = match_distributed(dist, options);
    (void)r;
  });
  rep.exact["trace.jsonl_bytes"] =
      static_cast<double>(std::filesystem::file_size(path));
  std::filesystem::remove(path);
}

/// Runs both distributed verifiers as one span; returns their summed
/// modelled cost.
double verify_distributed(Tracer& t, Rep& rep, const DistGraph& dm,
                          const Matching& m, const DistGraph& dc,
                          const Coloring& c) {
  DistVerifyResult vm, vc;
  t.span("verify.dist", [&] {
    vm = verify_matching_distributed(dm, m, MachineModel::blue_gene_p());
    vc = verify_coloring_distributed(dc, c, MachineModel::blue_gene_p());
  });
  rep.expect(vm.violations == 0, "distributed matching verifier: " +
                                     std::to_string(vm.violations) +
                                     " violations");
  rep.expect(vc.violations == 0, "distributed coloring verifier: " +
                                     std::to_string(vc.violations) +
                                     " violations");
  return vm.run.sim_seconds + vc.run.sim_seconds;
}

// ------------------------------------------------------ cold-solve workloads

/// One graph with its partition and distribution.
struct Instance {
  Graph graph;
  Partition partition;
  DistGraph dist;
};

/// Everything a cold-solve repetition allocates, destroyed inside the
/// timed teardown.
struct ColdState {
  Instance match_on;
  /// The coloring's own instance (circuit-1k colors a second graph);
  /// empty when the coloring runs on match_on.
  std::optional<Instance> color_instance;
  DistMatchingResult matching;
  DistColoringResult coloring;

  [[nodiscard]] const Instance& color_on() const {
    return color_instance ? *color_instance : match_on;
  }
};

struct ColdSpec {
  DistMatchingOptions matching;
  DistColoringOptions coloring;
};

void build_dist(Tracer& t, Instance& in) {
  t.span("runtime.dist_graph.build",
         [&] { in.dist = DistGraph::build(in.graph, in.partition); });
}

void setup_grid(Tracer& t, Instance& in, VertexId side, Rank ranks,
                std::uint64_t seed) {
  t.span("graph.generate", [&] {
    in.graph = grid_2d(side, side, WeightKind::kUniformRandom, seed);
  });
  t.span("partition", [&] {
    Rank pr = 0, pc = 0;
    factor_processor_grid(ranks, pr, pc);
    in.partition = grid_2d_partition(side, side, pr, pc);
  });
  build_dist(t, in);
}

struct CircuitInputs {
  std::filesystem::path mtx;
  std::filesystem::path metis;
  VertexId rows = 0;
  Rank ranks = 0;
};

CircuitInputs circuit_inputs(const Config& cfg) {
  const std::string stem = "circuit-seed" + std::to_string(cfg.seed) +
                           (cfg.smoke ? "-smoke" : "");
  return {cfg.work_dir / (stem + ".mtx"), cfg.work_dir / (stem + ".graph"),
          cfg.smoke ? VertexId{3000} : VertexId{150000},
          cfg.smoke ? Rank{16} : Rank{1024}};
}

/// Writes through a temporary name, so an interrupted write never leaves a
/// file a later repetition would read.
template <class WriteFn>
void write_atomically(const std::filesystem::path& path, WriteFn&& write) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp);
    PMC_REQUIRE(out.good(), "cannot open " << tmp.string());
    out << std::setprecision(17);
    write(out);
    out.flush();
    PMC_REQUIRE(out.good(), "cannot write " << tmp.string());
  }
  std::filesystem::rename(tmp, path);
}

/// Fig 5.3's bipartite circuit matrix and Fig 5.4's circuit adjacency graph,
/// written once per seed; weights keep 17 digits so the files round-trip.
void prepare_circuit(const Config& cfg) {
  const CircuitInputs in = circuit_inputs(cfg);
  std::filesystem::create_directories(cfg.work_dir);
  if (!std::filesystem::exists(in.mtx)) {
    const Graph netlist = circuit_like(in.rows, in.rows * 2, 6,
                                       WeightKind::kUniformRandom,
                                       cfg.seeded(kCircuitMatchSeed));
    BipartiteInfo info;
    const Graph g =
        bipartite_double_cover(netlist, info, /*with_diagonal=*/true,
                               cfg.seeded(kCircuitMatchSeed));
    const SparseMatrix m = bipartite_to_matrix(g, info);
    write_atomically(in.mtx,
                     [&](std::ostream& out) { write_matrix_market(out, m); });
  }
  if (!std::filesystem::exists(in.metis)) {
    const Graph g = circuit_like(in.rows, in.rows * 2, 6, WeightKind::kUnit,
                                 cfg.seeded(kCircuitColorSeed));
    write_atomically(in.metis,
                     [&](std::ostream& out) { write_metis_graph(out, g); });
  }
}

void setup_circuit(const Config& cfg, Tracer& t, Rep& rep, ColdState& s) {
  const CircuitInputs in = circuit_inputs(cfg);
  PMC_REQUIRE(std::filesystem::exists(in.mtx) &&
                  std::filesystem::exists(in.metis),
              "circuit inputs missing in " << cfg.work_dir.string()
                                           << " (run --prepare first)");
  rep.measured["graph.read_mtx_s"] = t.span("graph.read_mtx", [&] {
    const SparseMatrix m = read_matrix_market_file(in.mtx.string());
    BipartiteInfo info;
    s.match_on.graph = matrix_to_bipartite(m, info);
  });
  Instance& color = s.color_instance.emplace();
  rep.measured["graph.read_metis_s"] = t.span("graph.read_metis", [&] {
    color.graph = read_metis_graph_file(in.metis.string());
  });
  const double mb = static_cast<double>(std::filesystem::file_size(in.mtx) +
                                        std::filesystem::file_size(in.metis)) /
                    (1024.0 * 1024.0);
  rep.exact["graph.read_mb"] = mb;
  rep.measured["graph.read_mb_per_s"] =
      ratio(mb, rep.measured["graph.read_mtx_s"] +
                    rep.measured["graph.read_metis_s"]);
  rep.measured["partition.metis_like_s"] = t.span("partition", [&] {
    s.match_on.partition = multilevel_partition(
        s.match_on.graph, in.ranks, MultilevelConfig::metis_like(7));
  });
  rep.measured["partition.parmetis_like_s"] = t.span("partition", [&] {
    color.partition = multilevel_partition(color.graph, in.ranks,
                                           MultilevelConfig::parmetis_like(7));
  });
  build_dist(t, s.match_on);
  build_dist(t, color);
}

void run_cold(const Config& cfg, Tracer& t, Rep& rep, const ColdSpec& spec,
              const std::function<void(ColdState&)>& setup) {
  auto state = std::make_unique<ColdState>();
  ColdState& s = *state;
  const double setup_s = t.span("setup", [&] { setup(s); });
  const double solve_s = t.span("solve", [&] {
    t.span("matching", [&] {
      s.matching = match_distributed(s.match_on.dist, spec.matching);
    });
    t.span("coloring", [&] {
      s.coloring = color_distributed(s.color_on().dist, spec.coloring);
    });
  });

  const Graph& gm = s.match_on.graph;
  const Graph& gc = s.color_on().graph;
  double verify_sim_s = 0.0;
  const double verify_s = t.span("verify", [&] {
    t.span("verify.reference", [&] {
      const Matching ref = locally_dominant_matching(gm);
      rep.expect(s.matching.matching.mate == ref.mate,
                 "matching differs from locally_dominant_matching");
      std::string why;
      rep.expect(is_valid_matching(gm, s.matching.matching, &why),
                 "invalid matching: " + why);
      rep.expect(is_proper_coloring(gc, s.coloring.coloring, &why),
                 "improper coloring: " + why);
      rep.expect(std::none_of(s.coloring.coloring.color.begin(),
                              s.coloring.coloring.color.end(),
                              [](Color c) { return c == kNoColor; }),
                 "uncolored vertex");
    });
    verify_sim_s = verify_distributed(t, rep, s.match_on.dist,
                                      s.matching.matching, s.color_on().dist,
                                      s.coloring.coloring);
  });

  rep.exact["sim_match_s"] = s.matching.run.sim_seconds;
  rep.exact["sim_color_s"] = s.coloring.run.sim_seconds;
  rep.exact["colors"] = s.coloring.coloring.num_colors();

  if (cfg.trace) {
    std::vector<const Instance*> instances{&s.match_on};
    if (s.color_instance) instances.push_back(&*s.color_instance);
    for (const Instance* in : instances) {
      note_graph(rep, in->graph);
      note_partition(rep, in->graph, in->partition);
      note_dist(rep, in->dist);
    }
    note_matching(rep, s.matching);
    note_coloring(rep, s.coloring.run, counts_of(s.coloring),
                  gc.num_vertices());
    rep.exact["verify.dist_sim_s"] = verify_sim_s;
    // A cold solve has no service layer.
    for (const char* key : {"service.batches", "service.invalidated_per_batch",
                            "service.recolored_per_batch"}) {
      rep.exact[key] = 0.0;
    }
    if (cfg.jsonl) time_jsonl(cfg, t, rep, s.match_on.dist, spec.matching);
  }

  const double teardown_s = t.span("teardown", [&] { state.reset(); });
  rep.measured["setup_s"] = setup_s;
  rep.measured["solve_s"] = solve_s;
  rep.measured["wall_s"] = setup_s + solve_s + verify_s + teardown_s;
}

// ----------------------------------------------------------- service stream

struct ServiceState {
  Graph initial;
  Partition partition;
  std::vector<EdgeUpdate> updates;
  std::unique_ptr<GraphService> service;
  DistGraph final_dist;
  DistMatchingResult cold_matching;
  IncrementalColorResult cold_coloring;
};

void run_service(const Config& cfg, Tracer& t, Rep& rep) {
  const VertexId side = cfg.smoke ? 32 : 256;
  const Rank ranks = cfg.smoke ? 4 : 64;
  // A multiple of the batch window, so every update lands in a batch.
  const std::int64_t updates = cfg.smoke ? 160 : 1600;
  ServiceOptions options;
  options.batch_window = 16;

  auto state = std::make_unique<ServiceState>();
  ServiceState& s = *state;
  const double setup_s = t.span("setup", [&] {
    t.span("graph.generate", [&] {
      s.initial = grid_2d(side, side, WeightKind::kUniformRandom,
                          cfg.seeded(kAblationGridSeed));
    });
    t.span("partition", [&] {
      Rank pr = 0, pc = 0;
      factor_processor_grid(ranks, pr, pc);
      s.partition = grid_2d_partition(side, side, pr, pc);
    });
    t.span("service.update_stream", [&] {
      UpdateStreamConfig stream;
      stream.seed = cfg.seeded(kUpdateSeed);
      UpdateStreamGenerator gen(s.initial, stream);
      s.updates = gen.next_batch(updates);
    });
    rep.measured["service.init_s"] = t.span("service.init", [&] {
      s.service =
          std::make_unique<GraphService>(s.initial, s.partition, options);
    });
  });

  double sim_match = 0.0, sim_color = 0.0;
  std::int64_t invalidated = 0, recolored = 0, batches = 0;
  const double solve_s = t.span("solve", [&] {
    for (const EdgeUpdate& u : s.updates) {
      std::optional<BatchReport> report;
      bool threw = false;
      const double seconds = t.span("service.push", [&] {
        try {
          report = s.service->push(u);
        } catch (const std::exception&) {
          threw = true;
        }
      });
      rep.expect(!threw, "GraphService::push threw");
      if (report) {
        rep.batch_ms.push_back(seconds * 1e3);
        sim_match += report->match_sim_seconds;
        sim_color += report->color_sim_seconds;
        invalidated += report->match_invalidated;
        recolored += report->color_recolored;
        ++batches;
      }
    }
  });

  const GraphService& svc = *s.service;
  double verify_sim_s = 0.0;
  const double verify_s = t.span("verify", [&] {
    t.span("runtime.dist_graph.build", [&] {
      s.final_dist = DistGraph::build(svc.graph(), s.partition);
    });
    t.span("matching", [&] {
      s.cold_matching = match_distributed(s.final_dist, options.matching);
    });
    rep.expect(s.cold_matching.matching.mate == svc.matching().mate,
               "service matching differs from a cold match_distributed");
    t.span("coloring", [&] {
      s.cold_coloring = color_canonical(s.final_dist, options.coloring);
    });
    rep.expect(s.cold_coloring.coloring.color == svc.coloring().color,
               "service coloring differs from color_canonical");
    t.span("verify.reference", [&] {
      const Matching ref = locally_dominant_matching(svc.graph());
      rep.expect(svc.matching().mate == ref.mate,
                 "service matching differs from locally_dominant_matching");
      std::string why;
      rep.expect(is_proper_coloring(svc.graph(), svc.coloring(), &why),
                 "improper service coloring: " + why);
    });
    verify_sim_s = verify_distributed(t, rep, s.final_dist, svc.matching(),
                                      s.final_dist, svc.coloring());
  });

  rep.exact["sim_match_s"] = sim_match;
  rep.exact["sim_color_s"] = sim_color;
  rep.exact["colors"] = svc.coloring().num_colors();
  rep.measured["service.updates_per_s"] =
      ratio(static_cast<double>(s.updates.size()), solve_s);

  if (cfg.trace) {
    note_graph(rep, svc.graph());
    note_partition(rep, svc.graph(), s.partition);
    note_dist(rep, s.final_dist);
    note_matching(rep, s.cold_matching);
    note_coloring(rep, s.cold_coloring.run, counts_of(s.cold_coloring),
                  svc.graph().num_vertices());
    rep.exact["verify.dist_sim_s"] = verify_sim_s;
    rep.exact["service.batches"] = static_cast<double>(batches);
    rep.exact["service.invalidated_per_batch"] =
        ratio(static_cast<double>(invalidated), static_cast<double>(batches));
    rep.exact["service.recolored_per_batch"] =
        ratio(static_cast<double>(recolored), static_cast<double>(batches));
    if (cfg.jsonl) time_jsonl(cfg, t, rep, s.final_dist, options.matching);
  }

  const double teardown_s = t.span("teardown", [&] { state.reset(); });
  rep.measured["setup_s"] = setup_s;
  rep.measured["solve_s"] = solve_s;
  rep.measured["wall_s"] = setup_s + solve_s + verify_s + teardown_s;
}

// ------------------------------------------------------------- workloads

void run_workload(const Config& cfg, Tracer& t, Rep& rep) {
  if (cfg.workload == "grid-4k") {
    // Fig 5.1's 4,096-rank weak-scaling point (16x16 vertices per rank).
    const VertexId side = cfg.smoke ? 64 : 1024;
    const Rank ranks = cfg.smoke ? 64 : 4096;
    ColdSpec spec;
    spec.coloring = DistColoringOptions::improved();
    run_cold(cfg, t, rep, spec, [&](ColdState& s) {
      setup_grid(t, s.match_on, side, ranks, cfg.seeded(kGridSeed));
    });
  } else if (cfg.workload == "circuit-1k") {
    ColdSpec spec;
    spec.coloring = DistColoringOptions::improved();
    run_cold(cfg, t, rep, spec,
             [&](ColdState& s) { setup_circuit(cfg, t, rep, s); });
  } else if (cfg.workload == "eager-faults") {
    const VertexId side = cfg.smoke ? 64 : 1024;
    const Rank ranks = cfg.smoke ? 16 : 1024;
    const std::uint64_t seed = cfg.seeded(kAblationGridSeed);
    FaultConfig faults;
    faults.drop_rate = 0.05;
    faults.duplicate_rate = 0.02;
    faults.corrupt_rate = 0.01;
    faults.seed = seed;
    ColdSpec spec;
    spec.matching.bundled = false;
    spec.matching.jitter_seconds = 2e-6;
    spec.matching.jitter_seed = seed;
    spec.matching.faults = faults;
    spec.coloring = DistColoringOptions::improved();
    spec.coloring.superstep_size = 16;
    spec.coloring.local_order = LocalOrder::kBoundaryFirst;
    spec.coloring.faults = faults;
    run_cold(cfg, t, rep, spec, [&](ColdState& s) {
      setup_grid(t, s.match_on, side, ranks, seed);
    });
  } else if (cfg.workload == "service-stream") {
    run_service(cfg, t, rep);
  } else {
    PMC_REQUIRE(false, "unknown --workload " << cfg.workload);
  }
}

// ------------------------------------------------------------------ output

void put_number(std::ostream& out, double v) {
  PMC_CHECK(std::isfinite(v), "non-finite metric value");
  out << v;
}

void put_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';
    } else {
      out << c;
    }
  }
  out << '"';
}

void put_map(std::ostream& out, const std::map<std::string, double>& m) {
  out << '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    out << (first ? "" : ",");
    put_string(out, k);
    out << ':';
    put_number(out, v);
    first = false;
  }
  out << '}';
}

void print_rep(const Config& cfg, const Rep& rep, const Tracer& t) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"workload\":";
  put_string(out, cfg.workload);
  out << ",\"seed\":" << cfg.seed << ",\"size\":\""
      << (cfg.smoke ? "smoke" : "full") << "\",\"trace\":"
      << (cfg.trace ? "true" : "false") << ",\"attempted\":" << rep.attempted
      << ",\"failures\":[";
  for (std::size_t i = 0; i < rep.failures.size(); ++i) {
    if (i != 0) out << ',';
    put_string(out, rep.failures[i]);
  }
  out << "],\"measured\":";
  put_map(out, rep.measured);
  out << ",\"exact\":";
  put_map(out, rep.exact);
  out << ",\"batch_ms\":[";
  for (std::size_t i = 0; i < rep.batch_ms.size(); ++i) {
    if (i != 0) out << ',';
    put_number(out, rep.batch_ms[i]);
  }
  out << "],\"spans\":[";
  for (std::size_t i = 0; i < t.spans().size(); ++i) {
    const Span& s = t.spans()[i];
    out << (i == 0 ? "" : ",") << '[';
    put_string(out, s.name);
    out << ',' << s.parent << ',' << s.start << ',' << s.end << ']';
  }
  out << "],\"build\":{\"compiler\":";
  put_string(out, PMC_BENCH_COMPILER);
  out << ",\"build_type\":";
  put_string(out, PMC_BENCH_BUILD_TYPE);
  out << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
      << "}}\n";
  std::cout << out.str() << std::flush;
}

int run(int argc, const char** argv) {
  Options opts;
  opts.add("workload", "",
           "grid-4k | circuit-1k | eager-faults | service-stream");
  opts.add("seed", "1", "input seed; 1 reproduces the paper benches' inputs");
  opts.add("size", "full", "full | smoke");
  opts.add("work-dir", ".", "directory for input files and JSONL traces");
  opts.add_flag("trace", "keep spans and collect per-layer counters");
  opts.add_flag("jsonl", "time one extra matching run with the JSONL sink");
  opts.add_flag("prepare", "write the workload's input files and exit");
  (void)opts.parse(argc, argv);

  Config cfg;
  cfg.workload = opts.get("workload");
  cfg.seed = opts.get_int("seed");
  PMC_REQUIRE(opts.get("size") == "full" || opts.get("size") == "smoke",
              "--size must be full or smoke, got " << opts.get("size"));
  cfg.smoke = opts.get("size") == "smoke";
  cfg.trace = opts.get_flag("trace");
  cfg.jsonl = opts.get_flag("jsonl");
  cfg.work_dir = opts.get("work-dir");

  if (opts.get_flag("prepare")) {
    if (cfg.workload == "circuit-1k") prepare_circuit(cfg);
    return 0;
  }
  Tracer tracer(cfg.trace);
  Rep rep;
  run_workload(cfg, tracer, rep);
  if (cfg.trace) finish_layers(rep);
  rep.measured["peak_rss_mb"] = peak_rss_mib();
  print_rep(cfg, rep, tracer);
  return 0;
}

}  // namespace
}  // namespace pmc::pipeline

int main(int argc, const char** argv) {
  try {
    return pmc::pipeline::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_pipeline: " << e.what() << '\n';
    return 1;
  }
}
