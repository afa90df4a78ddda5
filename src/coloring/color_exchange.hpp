// Shared pieces of the BSP coloring drivers: applying boundary-color
// frames, the fault-repair lost-announcement tracking (the re-entry
// machinery), and the deterministic priority comparator. The speculative
// driver (at distance 1 and 2), the service-mode incremental driver and
// Jones–Plassmann all use them, so they share the exact same wire handling
// and repair semantics.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "coloring/coloring.hpp"
#include "runtime/bsp_engine.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/fabric.hpp"
#include "runtime/serialize.hpp"
#include "support/error.hpp"
#include "support/types.hpp"

namespace pmc {

/// Calls fn(local, color) for each record of one boundary-color message,
/// sent under `policy`, in payload order. A record names a vertex its
/// sender owns, so the receiver holds it as a ghost or not at all. A record
/// for a vertex `lg` does not hold is the broadcast's waste under
/// kBroadcastUnion and skipped; under the customized policies the sender
/// chose this rank for it, so it is a pmc::Error.
template <typename Fn>
void for_each_held_color(const LocalGraph& lg, const BspMessage& msg,
                         SendPolicy policy, Fn&& fn) {
  for_each_record<ColorRecord>(msg.payload, [&](const ColorRecord& rec) {
    const VertexId local = lg.ghost_id(rec.id);
    if (local == kNoVertex) {
      // The broadcast delivers records for vertices this rank has never
      // heard of; that waste is exactly what the customized modes eliminate.
      PMC_CHECK(policy == SendPolicy::kBroadcastUnion,
                "rank " << lg.rank() << " got a color record for vertex "
                        << rec.id << ", which it does not hold");
      return;
    }
    fn(local, rec.color);
  });
}

/// Applies one boundary-color message, sent under `policy`, to `color`
/// (indexed by local id); see for_each_held_color.
void apply_color_records(const LocalGraph& lg, std::vector<Color>& color,
                         const BspMessage& msg, SendPolicy policy);

/// Global ids whose color announcement was dropped or corrupted in flight,
/// per sending rank, in receipt order and possibly repeated; the repair
/// phase sorts a rank's list once, then probes it to reset and re-enter
/// those vertices.
using LostColorSets = std::vector<std::vector<VertexId>>;

/// Send callable for color frames from `ctx`: forwards to ctx.send and,
/// when faults are on, decodes the sender-side copy of every dropped or
/// corrupted frame into lost[src]. Receipt callbacks fire on the main
/// thread at the rank-ordered merge, so no locking is needed.
[[nodiscard]] std::function<void(Rank, std::vector<std::byte>, std::int64_t)>
lost_tracking_color_sender(LostColorSets& lost, bool faults_on,
                           BspEngine::RankCtx& ctx);

/// The deterministic total priority order shared by Jones–Plassmann and the
/// speculative framework's conflict resolution: a beats b iff its
/// (vertex_priority, global id) pair is larger. The conflict loser rule in
/// coloring/parallel.cpp is exactly "the endpoint that does not win".
[[nodiscard]] inline bool wins_priority(VertexId ga, VertexId gb,
                                        std::uint64_t seed) {
  const std::uint64_t pa = vertex_priority(ga, seed);
  const std::uint64_t pb = vertex_priority(gb, seed);
  return pa > pb || (pa == pb && ga > gb);
}

}  // namespace pmc
