#pragma once

#include <vector>

#include "lattice/vec3.hpp"

namespace tkmc {

/// Regular 3-D spatial decomposition of a periodic box of unit cells
/// across a grid of ranks (paper Fig. 2a). Extents must divide evenly so
/// every subdomain is congruent (a requirement of the synchronous
/// sublattice schedule).
class Decomposition {
 public:
  Decomposition(Vec3i globalCells, Vec3i rankGrid);

  Vec3i globalCells() const { return globalCells_; }
  Vec3i rankGrid() const { return rankGrid_; }
  int rankCount() const { return rankGrid_.x * rankGrid_.y * rankGrid_.z; }

  /// Per-rank subdomain extent in unit cells (same for every rank).
  Vec3i extentCells() const {
    return {globalCells_.x / rankGrid_.x, globalCells_.y / rankGrid_.y,
            globalCells_.z / rankGrid_.z};
  }

  Vec3i rankCoord(int rank) const;
  int rankAt(Vec3i coord) const;  // wraps periodically

  Vec3i originCells(int rank) const;

  /// Rank owning a (wrapped) doubled-integer lattice coordinate.
  int ownerOfSite(Vec3i doubledCoord) const;

  /// Neighbour rank in direction `dir` (components in {-1, 0, 1}).
  int neighborRank(int rank, Vec3i dir) const;

  /// The distinct ranks other than `rank` at rank-grid offsets in
  /// {-1, 0, 1}^3 (at most 26), ascending. With a ghost shell narrower
  /// than half a subdomain these are exactly the ranks whose extended
  /// frames overlap this rank's: the only peers its boundary changes
  /// can concern.
  std::vector<int> adjacentRanks(int rank) const;

 private:
  Vec3i globalCells_;
  Vec3i rankGrid_;
};

/// Deterministic shrink policy for rank fail-stop recovery: reduces
/// `grid` until its rank count fits `survivors`, by repeatedly dropping
/// the axis with the most ranks to its largest proper divisor (ties
/// broken x before y before z). Every survivor evaluates this pure
/// function on the same inputs and reaches the same reduced grid, so no
/// extra agreement round is needed beyond the survivor count. The
/// result still divides `grid` (and therefore the global box) evenly.
Vec3i shrinkRankGrid(Vec3i grid, int survivors);

/// Elastic regrow policy for rank fail-stop recovery. `grid` is the rank
/// grid of the checkpoint epoch being redistributed; with enough spare
/// ranks to refill it (`survivors + spares >= grid volume`) the original
/// grid is kept — replacement ranks are admitted and capacity holds.
/// Otherwise every available rank (survivors plus whatever spares exist)
/// is offered to shrinkRankGrid, so a partial spare pool still yields
/// the largest grid that fits. Pure, so every survivor reaches the same
/// answer with no extra agreement round.
Vec3i growRankGrid(Vec3i grid, int survivors, int spares);

}  // namespace tkmc
