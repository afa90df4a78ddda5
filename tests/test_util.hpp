// Shared helpers for the pmc test suite.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "graph/csr_graph.hpp"
#include "matching/matching.hpp"
#include "runtime/serialize.hpp"
#include "support/types.hpp"

namespace pmc::test {

/// A one-field record kind for tests that only move a number through a
/// frame.
struct IdRecord {
  VertexId id = kNoVertex;
  static constexpr std::tuple kFields{IdField{&IdRecord::id}};
};

/// A one-record compact frame holding `id`.
inline std::vector<std::byte> id_frame(VertexId id) {
  FrameWriter w;
  w.put(IdRecord{id});
  return w.take();
}

/// The single IdRecord of a frame made by id_frame().
inline VertexId read_id_frame(std::span<const std::byte> frame) {
  VertexId id = kNoVertex;
  for_each_record<IdRecord>(frame, [&](const IdRecord& r) { id = r.id; });
  return id;
}

/// Two records of one kind with equal fields.
template <typename R>
bool same_record(const R& a, const R& b) {
  return std::apply(
      [&](auto... field) {
        return ((a.*field.member == b.*field.member) && ...);
      },
      R::kFields);
}

/// A frame taken apart, for tests that forge frames: seal_frame() puts the
/// parts back together with a fresh length and checksum.
struct FrameParts {
  WireCodec codec = WireCodec::kCompact;
  std::uint64_t records = 0;
  std::vector<std::byte> payload;
};

/// Takes w's staged records as frame parts (and resets w, like take()).
inline FrameParts take_parts(FrameWriter& w) {
  const auto records = static_cast<std::uint64_t>(w.records());
  const auto payload_size = static_cast<std::ptrdiff_t>(w.payload_size());
  const std::vector<std::byte> frame = w.take();
  const auto end = frame.end() - kFrameChecksumBytes;
  return {w.codec(), records, {end - payload_size, end}};
}

/// A frame around arbitrary payload bytes: header (codec tag, record
/// count, payload length) and a valid checksum, so the bytes reach the
/// decode loop instead of stopping at frame validation.
inline std::vector<std::byte> seal_frame(const FrameParts& parts) {
  VarintWriter w;
  w.put_u8(static_cast<std::uint8_t>((kWireFormatVersion << 4) |
                                     static_cast<std::uint8_t>(parts.codec)));
  w.put_uvarint(parts.records);
  w.put_uvarint(parts.payload.size());
  for (const std::byte b : parts.payload) {
    w.put_u8(static_cast<std::uint8_t>(b));
  }
  w.put_raw(fnv1a32(w.bytes()));
  return w.take();
}

/// Exhaustive maximum-weight matching by branching over the edge list.
/// Exponential — only for graphs with at most ~20 edges.
inline Weight brute_force_max_weight_matching(const Graph& g) {
  struct E {
    VertexId u;
    VertexId v;
    Weight w;
  };
  std::vector<E> edges;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] > v) {
        edges.push_back(E{v, nbrs[i], g.has_weights() ? ws[i] : Weight{1}});
      }
    }
  }
  std::vector<bool> used(static_cast<std::size_t>(g.num_vertices()), false);
  Weight best = 0;
  auto recurse = [&](auto&& self, std::size_t idx, Weight acc) -> void {
    best = std::max(best, acc);
    for (std::size_t i = idx; i < edges.size(); ++i) {
      const auto& e = edges[i];
      if (used[static_cast<std::size_t>(e.u)] ||
          used[static_cast<std::size_t>(e.v)]) {
        continue;
      }
      used[static_cast<std::size_t>(e.u)] = true;
      used[static_cast<std::size_t>(e.v)] = true;
      self(self, i + 1, acc + e.w);
      used[static_cast<std::size_t>(e.u)] = false;
      used[static_cast<std::size_t>(e.v)] = false;
    }
  };
  recurse(recurse, 0, Weight{0});
  return best;
}

/// Pretty label for parameterized tests.
inline std::string sanitize(std::string s) {
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}

}  // namespace pmc::test
