#include "matching/parallel_verify.hpp"

#include "runtime/dist_verify.hpp"
#include "support/error.hpp"

namespace pmc {

DistVerifyResult verify_matching_distributed(const DistGraph& dist,
                                             const Matching& m,
                                             const MachineModel& model,
                                             const ExecConfig& exec,
                                             WireCodec codec) {
  PMC_REQUIRE(m.num_vertices() == dist.num_global_vertices(),
              "matching size does not match the distributed graph");
  const auto record_of = [&m](VertexId g) {
    return MateRecord{g, m.mate[static_cast<std::size_t>(g)]};
  };
  return verify_by_boundary_exchange<MateRecord>(
      dist, model, exec, codec, record_of,
      [&](const LocalGraph& lg, VertexId v,
          const auto& record_at) -> std::int64_t {
        const VertexId gv = lg.global_id(v);
        const VertexId mate = m.mate[static_cast<std::size_t>(gv)];
        if (mate != kNoVertex) {
          // The mate must be a neighbor (locally checkable: all of v's
          // edges are stored on v's owner) and must point back; a violation
          // counts at the owner, which alone sees it.
          for (VertexId u : lg.neighbors(v)) {
            if (lg.global_id(u) == mate) return record_at(u).mate != gv;
          }
          return 1;  // matched to a non-edge
        }
        // Maximality: an unmatched owned vertex may not have an unmatched
        // neighbor. Every free-free edge is counted once, at the endpoint
        // with the smaller global id (both sides can evaluate the test).
        for (VertexId u : lg.neighbors(v)) {
          if (gv < lg.global_id(u) && record_at(u).mate == kNoVertex) {
            return 1;
          }
        }
        return 0;
      });
}

}  // namespace pmc
