// Resizing rows of a CSR in place, for the two places that patch a CSR
// instead of rebuilding it: service mode's DynamicGraph::snapshot() and
// DistGraph::refresh().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/types.hpp"

namespace pmc {

/// A CSR row and the number of entries it is to hold.
struct RowLength {
  VertexId row = 0;
  EdgeId length = 0;
};

/// Gives each row of `rows` (strictly ascending) its new length in the CSR
/// whose row offsets are `offsets` and whose entries are `arrays` (each as
/// long as offsets.back()). The untouched rows after a resized row, up to
/// the next one, form a block that moves by the net growth of the resized
/// rows up to it. Each array grows first; blocks moving left go in
/// ascending order and then blocks moving right in descending order, so no
/// block lands on entries of a block not yet moved (std::copy and
/// std::copy_backward allow a block's overlap with itself); the array
/// shrinks last. Then each moved block's offsets, and the begin of the
/// resized row after it, shift by its constant. Only blocks whose shift is
/// not zero move. On return row v spans [offsets[v], offsets[v + 1]) in
/// every array, and the resized rows' entries are for the caller to write.
template <class Offset, class... Entries>
void resize_rows(std::vector<Offset>& offsets, std::span<const RowLength> rows,
                 std::vector<Entries>&... arrays) {
  struct Block {
    std::size_t first;  // the resized row + 1
    std::size_t last;   // the next resized row, or the row count
    std::int64_t shift;
  };
  const std::size_t n = offsets.size() - 1;
  std::vector<Block> blocks;
  blocks.reserve(rows.size());
  std::int64_t shift = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto v = static_cast<std::size_t>(rows[i].row);
    shift += rows[i].length -
             static_cast<std::int64_t>(offsets[v + 1] - offsets[v]);
    blocks.push_back(
        {v + 1,
         i + 1 < rows.size() ? static_cast<std::size_t>(rows[i + 1].row) : n,
         shift});
  }
  const std::int64_t total = static_cast<std::int64_t>(offsets.back()) + shift;
  PMC_CHECK(std::in_range<Offset>(total),
            "a CSR of " << total << " entries overflows its offsets");
  const auto size = static_cast<std::size_t>(total);
  const auto move_blocks = [&](auto& array) {
    if (size > array.size()) array.resize(size);
    auto* const data = array.data();
    for (const Block& b : blocks) {
      if (b.shift >= 0) continue;
      const auto begin = static_cast<std::ptrdiff_t>(offsets[b.first]);
      const auto end = static_cast<std::ptrdiff_t>(offsets[b.last]);
      std::copy(data + begin, data + end, data + begin + b.shift);
    }
    for (auto b = blocks.rbegin(); b != blocks.rend(); ++b) {
      if (b->shift <= 0) continue;
      const auto begin = static_cast<std::ptrdiff_t>(offsets[b->first]);
      const auto end = static_cast<std::ptrdiff_t>(offsets[b->last]);
      std::copy_backward(data + begin, data + end, data + end + b->shift);
    }
    array.resize(size);
  };
  (move_blocks(arrays), ...);
  for (const Block& b : blocks) {
    if (b.shift == 0) continue;
    for (std::size_t r = b.first; r <= b.last; ++r) {
      offsets[r] =
          static_cast<Offset>(static_cast<std::int64_t>(offsets[r]) + b.shift);
    }
  }
}

}  // namespace pmc
