// Tests for partition file I/O and the RCM block partition.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "partition/io.hpp"
#include "partition/multilevel.hpp"
#include "partition/simple.hpp"
#include "support/error.hpp"

namespace pmc {
namespace {

TEST(PartitionIo, WriteReadRoundTrip) {
  const Partition p(3, {0, 2, 1, 1, 0});
  std::ostringstream out;
  write_partition(out, p);
  std::istringstream in(out.str());
  const Partition q = read_partition(in);
  EXPECT_EQ(q.num_parts(), 3);
  EXPECT_EQ(q.owners(), p.owners());
}

TEST(PartitionIo, ExplicitPartCountAllowsEmptyTrailingParts) {
  std::istringstream in("0\n1\n0\n");
  const Partition p = read_partition(in, 5);
  EXPECT_EQ(p.num_parts(), 5);
  EXPECT_EQ(p.num_vertices(), 3);
}

TEST(PartitionIo, SkipsCommentsAndRejectsGarbage) {
  {
    std::istringstream in("% comment\n0\n1\n");
    EXPECT_EQ(read_partition(in).num_vertices(), 2);
  }
  {
    std::istringstream in("zero\n");
    EXPECT_THROW((void)read_partition(in), Error);
  }
  {
    std::istringstream in("-3\n");
    EXPECT_THROW((void)read_partition(in), Error);
  }
  {
    std::istringstream in("");
    EXPECT_THROW((void)read_partition(in), Error);
  }
}

TEST(PartitionIo, RejectsTrailingJunkAndExtraFields) {
  // One whole part id per line.
  for (const char* text : {"0\n3abc\n", "0\n1 2\n", "0\n1.0\n"}) {
    std::istringstream in(text);
    EXPECT_THROW((void)read_partition(in), Error) << text;
  }
}

TEST(PartitionIo, KeepsAcceptingSignsTabsAndCrlf) {
  std::istringstream in("+1\r\n\t2\n% comment\n\n0\r\n");
  const Partition p = read_partition(in);
  EXPECT_EQ(p.owners(), (std::vector<Rank>{1, 2, 0}));
  EXPECT_EQ(p.num_parts(), 3);
}

TEST(PartitionIo, FileNotFoundThrows) {
  EXPECT_THROW((void)read_partition_file("/nonexistent.part"), Error);
}

// A band graph: edges (v, v+d) for 1 <= d <= bandwidth. RCM's textbook
// input once shuffled.
Graph band_graph(VertexId n, VertexId band) {
  GraphBuilder b(n, false);
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId d = 1; d <= band && v + d < n; ++d) {
      b.add_edge(v, v + d);
    }
  }
  return std::move(b).build();
}

TEST(RcmBlockPartition, BeatsNaiveBlocksOnShuffledBandedGraph) {
  // A shuffled band graph: naive blocks cut nearly everything, while
  // RCM + blocks rediscovers the band structure.
  const Graph base = band_graph(2000, 4);
  const Graph g = permute(base, random_permutation(base.num_vertices(), 9));
  const auto naive = compute_metrics(g, block_partition(g.num_vertices(), 16));
  const auto rcm = compute_metrics(g, rcm_block_partition(g, 16));
  EXPECT_LT(rcm.cut_fraction, 0.5 * naive.cut_fraction);
}

TEST(RcmBlockPartition, BalancedWithinOne) {
  const Graph g = grid_2d(20, 20);
  const Partition p = rcm_block_partition(g, 7);
  const auto sizes = p.part_sizes();
  const auto [mn, mx] = std::minmax_element(sizes.begin(), sizes.end());
  EXPECT_LE(*mx - *mn, 1);
}

TEST(RcmBlockPartition, ComparableToMultilevelOnBandedInput) {
  const Graph base = band_graph(3000, 5);
  const Graph g = permute(base, random_permutation(base.num_vertices(), 10));
  const auto rcm = compute_metrics(g, rcm_block_partition(g, 32));
  const auto ml = compute_metrics(
      g, multilevel_partition(g, 32, MultilevelConfig::metis_like(1)));
  // Both should be far from the random-partition regime (~97% cut here);
  // on banded inputs the cheap RCM pipeline is competitive.
  EXPECT_LT(rcm.cut_fraction, 0.25);
  EXPECT_LT(ml.cut_fraction, 0.25);
}

}  // namespace
}  // namespace pmc
