#include "coloring/parallel_verify.hpp"

#include "runtime/dist_verify.hpp"
#include "support/error.hpp"

namespace pmc {

DistVerifyResult verify_coloring_distributed(const DistGraph& dist,
                                             const Coloring& c,
                                             const MachineModel& model,
                                             const ExecConfig& exec,
                                             WireCodec codec) {
  PMC_REQUIRE(c.num_vertices() == dist.num_global_vertices(),
              "coloring size does not match the distributed graph");
  const auto record_of = [&c](VertexId g) {
    return ColorRecord{g, c.color[static_cast<std::size_t>(g)]};
  };
  return verify_by_boundary_exchange<ColorRecord>(
      dist, model, exec, codec, record_of,
      [&](const LocalGraph& lg, VertexId v,
          const auto& record_at) -> std::int64_t {
        const VertexId gv = lg.global_id(v);
        const Color cv = c.color[static_cast<std::size_t>(gv)];
        if (cv < 0) return 1;  // uncolored (counted at the owner)
        std::int64_t conflicts = 0;
        for (VertexId u : lg.neighbors(v)) {
          if (gv >= lg.global_id(u)) continue;  // count each edge once
          if (record_at(u).color == cv) ++conflicts;
        }
        return conflicts;
      });
}

}  // namespace pmc
