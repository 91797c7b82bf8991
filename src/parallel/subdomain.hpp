#pragma once

#include <cstdint>
#include <vector>

#include "lattice/bcc_lattice.hpp"
#include "lattice/lattice_state.hpp"
#include "lattice/site_indexer.hpp"

namespace tkmc {

/// One rank's portion of the global lattice: owned cells plus a ghost
/// shell, stored through the direct Eq.-4 indexing (no POS_ID array).
///
/// Coordinates at the API are wrapped *global* doubled-integer
/// coordinates; the subdomain translates them into its unwrapped extended
/// frame by choosing the periodic image that lands inside the frame
/// (unique as long as the extended box is smaller than the global box).
class Subdomain {
 public:
  Subdomain(const BccLattice& global, Vec3i originCells, Vec3i extentCells,
            int ghostCells);
  /// Per-axis ghost widths: an axis whose rank grid is 1 carries no
  /// ghost shell (the subdomain spans the whole period there), which
  /// keeps the extended frame within the global box on flat rank grids.
  Subdomain(const BccLattice& global, Vec3i originCells, Vec3i extentCells,
            Vec3i ghostCells);

  const BccLattice& global() const { return global_; }
  const SiteIndexer& indexer() const { return indexer_; }

  /// True when the global coordinate has an image inside the extended box.
  bool covers(Vec3i globalCoord) const;

  /// True when this rank owns the coordinate.
  bool owns(Vec3i globalCoord) const;

  Species at(Vec3i globalCoord) const;
  void set(Vec3i globalCoord, Species s);

  /// Copies owned + ghost species from a full global state (startup).
  void loadFrom(const LatticeState& state);

  /// Owned vacancies, wrapped global coordinates, stable order.
  std::vector<Vec3i>& vacancies() { return vacancies_; }
  const std::vector<Vec3i>& vacancies() const { return vacancies_; }

  /// Rebuilds the vacancy list by scanning the owned region.
  void rescanVacancies();

  /// Species of the owned sites, one byte each: `species_[0, N)` of the
  /// Eq.-4 layout, i.e. owned cells x-fastest, 2 sites per cell — the
  /// shard occupation run.
  std::vector<std::uint8_t> ownedSpecies() const;

  Vec3i originCells() const { return indexer_.originCells(); }
  Vec3i extentCells() const { return indexer_.extentCells(); }
  int ghostCells() const { return indexer_.ghostCells(); }
  Vec3i ghostCellsVec() const { return indexer_.ghostCellsVec(); }

 private:
  /// Maps a wrapped global coordinate into the extended frame; second
  /// element false when no image fits.
  std::pair<Vec3i, bool> toFrame(Vec3i globalCoord) const;

  /// Site coordinate (doubled, frame coords) of cell (cx,cy,cz) relative
  /// to the extended origin, sublattice sub.
  Vec3i frameSite(Vec3i cell, int sub) const;

  BccLattice global_;
  SiteIndexer indexer_;
  Vec3i extOriginDoubled_;
  Vec3i extSpanDoubled_;
  std::vector<Species> species_;
  std::vector<Vec3i> vacancies_;
};

}  // namespace tkmc
