#include "parallel/decomposition.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tkmc {
namespace {

int wrapped(int v, int n) {
  int r = v % n;
  if (r < 0) r += n;
  return r;
}

}  // namespace

Decomposition::Decomposition(Vec3i globalCells, Vec3i rankGrid)
    : globalCells_(globalCells), rankGrid_(rankGrid) {
  require(globalCells.x > 0 && globalCells.y > 0 && globalCells.z > 0,
          "global box must be positive");
  require(rankGrid.x > 0 && rankGrid.y > 0 && rankGrid.z > 0,
          "rank grid must be positive");
  require(globalCells.x % rankGrid.x == 0 && globalCells.y % rankGrid.y == 0 &&
              globalCells.z % rankGrid.z == 0,
          "rank grid must divide the global box evenly");
}

Vec3i Decomposition::rankCoord(int rank) const {
  require(rank >= 0 && rank < rankCount(), "rank out of range");
  const int x = rank % rankGrid_.x;
  const int y = (rank / rankGrid_.x) % rankGrid_.y;
  const int z = rank / (rankGrid_.x * rankGrid_.y);
  return {x, y, z};
}

int Decomposition::rankAt(Vec3i coord) const {
  const int x = wrapped(coord.x, rankGrid_.x);
  const int y = wrapped(coord.y, rankGrid_.y);
  const int z = wrapped(coord.z, rankGrid_.z);
  return x + rankGrid_.x * (y + rankGrid_.y * z);
}

Vec3i Decomposition::originCells(int rank) const {
  const Vec3i rc = rankCoord(rank);
  const Vec3i e = extentCells();
  return {rc.x * e.x, rc.y * e.y, rc.z * e.z};
}

int Decomposition::ownerOfSite(Vec3i doubledCoord) const {
  const Vec3i e = extentCells();
  const int cx = wrapped(doubledCoord.x >> 1, globalCells_.x) / e.x;
  const int cy = wrapped(doubledCoord.y >> 1, globalCells_.y) / e.y;
  const int cz = wrapped(doubledCoord.z >> 1, globalCells_.z) / e.z;
  return rankAt({cx, cy, cz});
}

int Decomposition::neighborRank(int rank, Vec3i dir) const {
  const Vec3i rc = rankCoord(rank);
  return rankAt({rc.x + dir.x, rc.y + dir.y, rc.z + dir.z});
}

std::vector<int> Decomposition::adjacentRanks(int rank) const {
  std::vector<int> ranks;
  for (int dz = -1; dz <= 1; ++dz)
    for (int dy = -1; dy <= 1; ++dy)
      for (int dx = -1; dx <= 1; ++dx) {
        const int n = neighborRank(rank, {dx, dy, dz});
        if (n != rank) ranks.push_back(n);
      }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  return ranks;
}

Vec3i shrinkRankGrid(Vec3i grid, int survivors) {
  require(grid.x >= 1 && grid.y >= 1 && grid.z >= 1,
          "rank grid must be positive");
  require(survivors >= 1, "shrink recovery needs at least one survivor");
  const auto largestProperDivisor = [](int n) {
    for (int d = n / 2; d >= 1; --d)
      if (n % d == 0) return d;
    return 1;
  };
  int* axes[3] = {&grid.x, &grid.y, &grid.z};
  while (grid.x * grid.y * grid.z > survivors) {
    int* widest = axes[0];
    for (int a = 1; a < 3; ++a)
      if (*axes[a] > *widest) widest = axes[a];
    if (*widest == 1) break;  // already 1x1x1
    *widest = largestProperDivisor(*widest);
  }
  return grid;
}

Vec3i growRankGrid(Vec3i grid, int survivors, int spares) {
  require(spares >= 0, "spare rank pool cannot be negative");
  if (survivors + spares >= grid.x * grid.y * grid.z) return grid;
  return shrinkRankGrid(grid, survivors + spares);
}

}  // namespace tkmc
