#include "coloring/color_exchange.hpp"

#include <span>
#include <utility>

#include "runtime/fabric.hpp"
#include "support/error.hpp"

namespace pmc {

void apply_color_records(const LocalGraph& lg, std::vector<Color>& color,
                         const BspMessage& msg, SendPolicy policy,
                         std::vector<VertexId>* changed) {
  for_each_record<ColorRecord>(msg.payload, [&](const ColorRecord& rec) {
    const VertexId local = lg.local_id(rec.id);
    if (local == kNoVertex) {
      // The broadcast delivers records for vertices this rank has never
      // heard of; that waste is exactly what the customized modes eliminate.
      PMC_CHECK(policy == SendPolicy::kBroadcastUnion,
                "rank " << lg.rank() << " got a color record for vertex "
                        << rec.id << ", which it does not hold");
      return;
    }
    auto& slot = color[static_cast<std::size_t>(local)];
    if (changed != nullptr && slot != rec.color) changed->push_back(local);
    slot = rec.color;
  });
}

std::function<void(Rank, std::vector<std::byte>, std::int64_t)>
lost_tracking_color_sender(LostColorSets& lost, bool faults_on,
                           BspEngine::RankCtx& ctx) {
  return [&lost, faults_on, &ctx](Rank dst, std::vector<std::byte> payload,
                                  std::int64_t records) {
    if (!faults_on) {
      ctx.send(dst, std::move(payload), records);
      return;
    }
    const Rank src = ctx.rank();
    ctx.send(dst, std::move(payload), records,
             [&lost, src](const CommFabric::SendReceipt& receipt,
                          std::span<const std::byte> bytes) {
               if (!receipt.dropped && !receipt.corrupted) return;
               // The receiver never sees these colors (lost outright, or
               // rejected by its checksum), so conflict detection there
               // cannot be symmetric; the sender re-enters the vertices
               // instead. The callback always gets the original bytes, so
               // decoding the kept copy is safe even for corrupted sends.
               auto& lost_src = lost[static_cast<std::size_t>(src)];
               for_each_record<ColorRecord>(
                   bytes, [&](const ColorRecord& rec) {
                     lost_src.push_back(rec.id);
                   });
             });
  };
}

}  // namespace pmc
