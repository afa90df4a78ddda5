#include "runtime/frame_store.hpp"

#include <algorithm>
#include <utility>

#include "runtime/serialize.hpp"
#include "support/error.hpp"

namespace pmc {

FrameStore::Handle FrameStore::acquire() {
  Handle h;
  if (free_.empty()) {
    PMC_CHECK(slots_.size() < kNone, "frame store full");
    h = static_cast<Handle>(slots_.size());
    slots_.emplace_back();
  } else {
    h = free_.back();
    free_.pop_back();
  }
  slots_[h].holders = 1;
  return h;
}

void FrameStore::fail_released(Handle h) {
  PMC_FAIL("frame " << h << " used after its release");
}

void FrameStore::free_slot(Handle h) {
  slots_[h].heap = {};
  free_.push_back(h);
}

FrameStore::Handle FrameStore::add(std::vector<std::byte> frame) {
  const Handle h = acquire();
  Slot& slot = slots_[h];
  slot.size = static_cast<std::uint32_t>(frame.size());
  if (frame.size() <= kInlineBytes) {
    std::copy(frame.begin(), frame.end(), slot.inline_bytes.begin());
  } else {
    slot.heap = std::move(frame);
  }
  return h;
}

FrameStore::Handle FrameStore::corrupted_copy(Handle h, std::uint64_t seed) {
  (void)held(h);
  // Acquire first: it may move the slots, and the source is read after.
  const Handle copy = acquire();
  const Slot& source = slots_[h];
  Slot& slot = slots_[copy];
  slot.size = source.size;
  std::span<std::byte> bytes;
  if (source.size <= kInlineBytes) {
    slot.inline_bytes = source.inline_bytes;
    bytes = std::span(slot.inline_bytes).first(slot.size);
  } else {
    slot.heap = source.heap;
    bytes = slot.heap;
  }
  corrupt_one_bit(bytes, seed);
  return copy;
}

}  // namespace pmc
