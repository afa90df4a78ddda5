// Matching result type and verification predicates.
//
// A matching M of G is a set of edges no two of which share an endpoint. The
// paper's algorithms compute a *half-approximate maximum weight* matching:
// the locally-dominant construction guarantees w(M) >= w(M*) / 2 and, in
// practice, typically exceeds 90% of optimal (paper Table 1.1).
#pragma once

#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "support/types.hpp"

namespace pmc {

/// A matching, stored as the mate of every vertex (kNoVertex = unmatched).
struct Matching {
  std::vector<VertexId> mate;

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(mate.size());
  }

  [[nodiscard]] bool is_matched(VertexId v) const {
    return mate[static_cast<std::size_t>(v)] != kNoVertex;
  }

  /// Number of matched edges (pairs).
  [[nodiscard]] VertexId cardinality() const noexcept;
};

/// True iff `m` is structurally consistent with g: mates are symmetric
/// (mate(mate(v)) == v), distinct from self, and every matched pair is an
/// actual edge of g. Each predicate below that takes `why` stores the first
/// failure's reason there and builds no message on success.
[[nodiscard]] bool is_valid_matching(const Graph& g, const Matching& m,
                                     std::string* why = nullptr);

/// Total weight of the matching (each matched edge counted once).
[[nodiscard]] Weight matching_weight(const Graph& g, const Matching& m);

/// True iff `m` has one entry per vertex and no edge can be added to the
/// matching (every edge has a matched endpoint). Locally-dominant matchings
/// are always maximal.
[[nodiscard]] bool is_maximal_matching(const Graph& g, const Matching& m,
                                       std::string* why = nullptr);

/// Certificate of the half-approximation guarantee: every non-matching edge
/// must be adjacent to a matched edge of weight >= its own. Holds for any
/// matching produced by the locally-dominant process; implies
/// w(M) >= w(M*)/2. False, with a reason, when `m` has the wrong size or a
/// mate that is out of range or not a neighbour.
[[nodiscard]] bool has_dominance_certificate(const Graph& g, const Matching& m,
                                             std::string* why = nullptr);

}  // namespace pmc
