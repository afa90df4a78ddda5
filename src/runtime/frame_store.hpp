// The event engine's store of message frames: each transmission's bytes
// stored once, immutable, and shared by handle.
//
// A frame's holders are the reliable transport's retransmission entry and
// the queued data events that deliver it (the original copy, a duplicate,
// a retransmission's copy). Each holder counts once; the last release frees
// the slot for reuse. Only a corrupted delivery gets bytes of its own: a
// private copy that carries the flipped bit.
//
// Windowed dispatch reads frames from concurrent shards, so only the
// engine's sequential merge may add, reference or release a frame (DESIGN.md
// §5c). A read, reference or release of a freed slot throws pmc::Error: ASan
// cannot see a slot reused inside the store, so the check stands in for it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace pmc {

class FrameStore {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNone = ~Handle{0};

  /// Stores a frame with one holder. A short frame is copied into its slot
  /// (and its vector freed); a longer one keeps its vector, moved.
  [[nodiscard]] Handle add(std::vector<std::byte> frame);
  /// A private copy of h's non-empty bytes with one bit flipped (the
  /// corrupt_one_bit model, keyed on `seed`), with one holder.
  [[nodiscard]] Handle corrupted_copy(Handle h, std::uint64_t seed);
  /// One more holder of h.
  void reference(Handle h) { ++held(h).holders; }
  /// Drops one holder of h; the last one frees its slot.
  void release(Handle h) {
    Slot& slot = held(h);
    if (--slot.holders == 0) free_slot(h);
  }

  [[nodiscard]] std::span<const std::byte> bytes(Handle h) const {
    const Slot& slot = held(h);
    if (slot.size <= kInlineBytes) {
      return std::span(slot.inline_bytes).first(slot.size);
    }
    return slot.heap;
  }
  [[nodiscard]] std::size_t size(Handle h) const { return held(h).size; }

 private:
  /// Almost every eager single-record frame fits inline.
  static constexpr std::size_t kInlineBytes = 16;

  struct Slot {
    std::vector<std::byte> heap;  ///< A frame longer than kInlineBytes.
    std::array<std::byte, kInlineBytes> inline_bytes{};
    std::uint32_t size = 0;
    std::uint32_t holders = 0;  ///< 0: free.
  };

  /// A free slot (reused, or appended) with one holder.
  Handle acquire();
  void free_slot(Handle h);
  /// h's slot; a handle whose slot is free fails.
  [[nodiscard]] const Slot& held(Handle h) const {
    if (h >= slots_.size() || slots_[h].holders == 0) [[unlikely]] {
      fail_released(h);
    }
    return slots_[h];
  }
  [[nodiscard]] Slot& held(Handle h) {
    return const_cast<Slot&>(std::as_const(*this).held(h));
  }
  [[noreturn]] static void fail_released(Handle h);

  std::vector<Slot> slots_;
  std::vector<Handle> free_;
};

}  // namespace pmc
