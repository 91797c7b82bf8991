#pragma once

#include <cstdint>
#include <vector>

#include "common/constants.hpp"
#include "common/rng.hpp"
#include "lattice/bcc_lattice.hpp"
#include "lattice/species_store.hpp"

namespace tkmc {

/// Occupation state of a periodic BCC box: a paged 2-bit-packed species
/// store plus an explicit list of vacancy locations (vacancies drive all
/// AKMC kinetics, so they are tracked directly rather than rediscovered
/// by scanning).
///
/// There is deliberately no way to borrow the occupation as a dense
/// array: consumers read single sites (species/speciesAt), stream the box
/// with forEachSite(), compare states with operator== and contentHash(),
/// and count with the O(1) countSpecies(). That keeps every layer honest
/// about the packed representation the trillion-site ambitions require.
class LatticeState {
 public:
  using SiteId = BccLattice::SiteId;

  explicit LatticeState(BccLattice lattice);

  const BccLattice& lattice() const { return lattice_; }

  Species species(SiteId id) const { return store_.get(id); }
  Species speciesAt(Vec3i p) const { return species(lattice_.siteId(p)); }

  /// Overwrites every site with `s` and clears the vacancy list.
  void fill(Species s);

  /// Sets a site's species, maintaining the vacancy list.
  void setSpecies(SiteId id, Species s);
  void setSpeciesAt(Vec3i p, Species s) { setSpecies(lattice_.siteId(p), s); }

  /// Exchanges a vacancy with the atom at `to`. `from` must hold a
  /// vacancy. Vacancy list entries are updated in place, preserving
  /// vacancy ordering (required for trajectory reproducibility).
  void hopVacancy(Vec3i from, Vec3i to);

  /// Vacancy coordinates in creation order.
  const std::vector<Vec3i>& vacancies() const { return vacancies_; }

  /// Replaces the vacancy list with `order`, which must name every
  /// vacant site exactly once. Engines address vacancies by list index,
  /// so a bit-exact resume restores the recorded order. Throws
  /// InvariantError when `order` disagrees with the occupation.
  void setVacancyOrder(const std::vector<Vec3i>& order);

  /// Number of sites holding a given species. O(1): the store maintains
  /// per-species counts incrementally.
  std::int64_t countSpecies(Species s) const { return store_.count(s); }

  /// Populates the box as a random Fe matrix with `cuFraction` Cu atoms
  /// and `vacancyCount` vacancies, deterministically from `rng`.
  void randomAlloy(double cuFraction, std::int64_t vacancyCount, Rng& rng);

  /// Visits every site in id order as visitor(SiteId, Species).
  template <typename Visitor>
  void forEachSite(Visitor&& visit) const {
    store_.forEachSite(visit);
  }

  /// Occupation equality: same box geometry and the same species on
  /// every site. Vacancy *order* (a trajectory artifact) is deliberately
  /// not compared — callers that need it compare vacancies() directly.
  bool operator==(const LatticeState& other) const;
  bool operator!=(const LatticeState& other) const {
    return !(*this == other);
  }

  /// CRC32 fingerprint of the packed occupation (canonical: equal states
  /// hash equal regardless of write history).
  std::uint32_t contentHash() const { return store_.contentHash(); }

  /// The packed page store (footprint inspection, bench reporting).
  const SpeciesStore& store() const { return store_; }

  /// Allocated bytes of the packed occupation (pages + bookkeeping).
  std::size_t packedMemoryBytes() const { return store_.memoryBytes(); }

 private:
  BccLattice lattice_;
  SpeciesStore store_;
  std::vector<Vec3i> vacancies_;
};

}  // namespace tkmc
