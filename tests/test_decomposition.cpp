#include "parallel/decomposition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"

namespace tkmc {
namespace {

TEST(Decomposition, RankCoordRoundTrip) {
  const Decomposition d({24, 24, 24}, {2, 3, 4});
  EXPECT_EQ(d.rankCount(), 24);
  for (int r = 0; r < d.rankCount(); ++r)
    EXPECT_EQ(d.rankAt(d.rankCoord(r)), r);
}

TEST(Decomposition, ExtentDividesEvenly) {
  const Decomposition d({24, 12, 8}, {2, 3, 4});
  EXPECT_EQ(d.extentCells(), (Vec3i{12, 4, 2}));
  EXPECT_THROW(Decomposition({10, 10, 10}, {3, 2, 2}), Error);
}

TEST(Decomposition, OriginsTileTheBox) {
  const Decomposition d({8, 8, 8}, {2, 2, 2});
  EXPECT_EQ(d.originCells(0), (Vec3i{0, 0, 0}));
  EXPECT_EQ(d.originCells(1), (Vec3i{4, 0, 0}));
  EXPECT_EQ(d.originCells(2), (Vec3i{0, 4, 0}));
  EXPECT_EQ(d.originCells(7), (Vec3i{4, 4, 4}));
}

TEST(Decomposition, OwnerOfSiteIsConsistentWithOrigins) {
  const Decomposition d({8, 8, 8}, {2, 2, 2});
  for (int r = 0; r < d.rankCount(); ++r) {
    const Vec3i o = d.originCells(r);
    const Vec3i e = d.extentCells();
    // Probe a corner and the centre of the owned region.
    EXPECT_EQ(d.ownerOfSite({2 * o.x, 2 * o.y, 2 * o.z}), r);
    EXPECT_EQ(d.ownerOfSite({2 * o.x + e.x, 2 * o.y + e.y, 2 * o.z + e.z}), r);
  }
}

TEST(Decomposition, OwnerOfSiteWrapsPeriodically) {
  const Decomposition d({8, 8, 8}, {2, 2, 2});
  EXPECT_EQ(d.ownerOfSite({-1, -1, -1}), d.ownerOfSite({15, 15, 15}));
  EXPECT_EQ(d.ownerOfSite({16, 0, 0}), d.ownerOfSite({0, 0, 0}));
}

TEST(Decomposition, EverySiteHasExactlyOneOwner) {
  const Decomposition d({4, 4, 4}, {2, 2, 2});
  std::vector<int> counts(static_cast<std::size_t>(d.rankCount()), 0);
  for (int x = 0; x < 8; ++x)
    for (int y = 0; y < 8; ++y)
      for (int z = 0; z < 8; ++z) {
        if ((x & 1) != (y & 1) || (y & 1) != (z & 1)) continue;
        const int owner = d.ownerOfSite({x, y, z});
        ASSERT_GE(owner, 0);
        ASSERT_LT(owner, d.rankCount());
        ++counts[static_cast<std::size_t>(owner)];
      }
  // 4^3 cells * 2 sites over 8 equal ranks.
  for (int c : counts) EXPECT_EQ(c, 16);
}

TEST(Decomposition, NeighborRanksWrap) {
  const Decomposition d({8, 8, 8}, {2, 2, 2});
  EXPECT_EQ(d.neighborRank(0, {1, 0, 0}), 1);
  EXPECT_EQ(d.neighborRank(1, {1, 0, 0}), 0);  // wraps
  EXPECT_EQ(d.neighborRank(0, {-1, 0, 0}), 1);
  EXPECT_EQ(d.neighborRank(0, {0, 1, 0}), 2);
  EXPECT_EQ(d.neighborRank(0, {0, 0, 1}), 4);
  EXPECT_EQ(d.neighborRank(0, {1, 1, 1}), 7);
}

// The fold and halo peers: distinct ranks at grid offsets in {-1,0,1}^3,
// ascending, never the rank itself; a 2-wide axis reaches one rank on
// both sides, a 1-wide axis none.
TEST(Decomposition, AdjacentRanksAreDistinctSortedAndSymmetric) {
  struct Case {
    Vec3i grid;
    std::size_t adjacent;
  };
  for (const Case& c : {Case{{1, 1, 1}, 0}, Case{{2, 1, 1}, 1},
                        Case{{2, 2, 1}, 3}, Case{{2, 2, 2}, 7},
                        Case{{4, 2, 2}, 11}, Case{{3, 3, 3}, 26}}) {
    const Decomposition d({12, 12, 12}, c.grid);
    for (int r = 0; r < d.rankCount(); ++r) {
      const std::vector<int> adj = d.adjacentRanks(r);
      EXPECT_EQ(adj.size(), c.adjacent);
      EXPECT_TRUE(std::is_sorted(adj.begin(), adj.end()));
      EXPECT_EQ(std::find(adj.begin(), adj.end(), r), adj.end());
      for (const int n : adj) {
        const std::vector<int> back = d.adjacentRanks(n);
        EXPECT_TRUE(std::binary_search(back.begin(), back.end(), r));
      }
    }
  }
}

TEST(GrowRankGrid, EnoughSparesKeepTheOriginalGrid) {
  EXPECT_EQ(growRankGrid({2, 2, 1}, 3, 1), (Vec3i{2, 2, 1}));
  EXPECT_EQ(growRankGrid({2, 2, 2}, 7, 1), (Vec3i{2, 2, 2}));
  EXPECT_EQ(growRankGrid({2, 2, 2}, 5, 3), (Vec3i{2, 2, 2}));
  EXPECT_EQ(growRankGrid({2, 2, 2}, 5, 9), (Vec3i{2, 2, 2}));  // surplus pool
  EXPECT_EQ(growRankGrid({2, 2, 1}, 4, 0), (Vec3i{2, 2, 1}));  // nothing lost
}

TEST(GrowRankGrid, NoSparesDegeneratesToShrink) {
  EXPECT_EQ(growRankGrid({2, 2, 1}, 3, 0), shrinkRankGrid({2, 2, 1}, 3));
  EXPECT_EQ(growRankGrid({2, 2, 2}, 7, 0), shrinkRankGrid({2, 2, 2}, 7));
  EXPECT_EQ(growRankGrid({3, 1, 1}, 2, 0), (Vec3i{1, 1, 1}));
}

TEST(GrowRankGrid, PartialPoolStillYieldsTheLargestFittingGrid) {
  // 3 survivors of a 4x2x1 world plus 2 spares: shrink must fit 5
  // available ranks, not just the survivors.
  EXPECT_EQ(growRankGrid({4, 2, 1}, 3, 2), (Vec3i{2, 2, 1}));
  EXPECT_EQ(growRankGrid({4, 2, 1}, 3, 0), (Vec3i{1, 2, 1}));
  EXPECT_EQ(growRankGrid({2, 2, 2}, 3, 1), shrinkRankGrid({2, 2, 2}, 4));
}

TEST(GrowRankGrid, NegativeSparePoolThrows) {
  EXPECT_THROW((void)growRankGrid({2, 2, 1}, 3, -1), Error);
}

}  // namespace
}  // namespace tkmc
