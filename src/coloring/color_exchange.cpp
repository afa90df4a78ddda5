#include "coloring/color_exchange.hpp"

#include <span>
#include <utility>

#include "runtime/fabric.hpp"

namespace pmc {

void apply_color_records(const LocalGraph& lg, std::vector<Color>& color,
                         const BspMessage& msg, SendPolicy policy) {
  for_each_held_color(lg, msg, policy, [&color](VertexId local, Color c) {
    color[static_cast<std::size_t>(local)] = c;
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
