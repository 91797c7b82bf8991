#include "lattice/lattice_state.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tkmc {

LatticeState::LatticeState(BccLattice lattice)
    : lattice_(lattice), store_(lattice.siteCount(), Species::kFe) {}

void LatticeState::fill(Species s) {
  require(s != Species::kVacancy,
          "filling the whole box with vacancies is not supported");
  store_.fill(s);
  vacancies_.clear();
}

void LatticeState::setSpecies(SiteId id, Species s) {
  const Species old = store_.get(id);
  const Vec3i coord = lattice_.coordinate(id);
  if (old == Species::kVacancy && s != Species::kVacancy) {
    auto it = std::find(vacancies_.begin(), vacancies_.end(), coord);
    require(it != vacancies_.end(), "vacancy list out of sync");
    vacancies_.erase(it);
  } else if (old != Species::kVacancy && s == Species::kVacancy) {
    vacancies_.push_back(coord);
  }
  store_.set(id, s);
}

void LatticeState::hopVacancy(Vec3i from, Vec3i to) {
  const SiteId fromId = lattice_.siteId(from);
  const SiteId toId = lattice_.siteId(to);
  const Species migrating = store_.get(toId);
  require(store_.get(fromId) == Species::kVacancy,
          "hop source must hold a vacancy");
  require(migrating != Species::kVacancy, "hop target must hold an atom");
  store_.set(fromId, migrating);
  store_.set(toId, Species::kVacancy);
  const Vec3i fromWrapped = lattice_.wrap(from);
  auto it = std::find(vacancies_.begin(), vacancies_.end(), fromWrapped);
  require(it != vacancies_.end(), "vacancy list out of sync");
  *it = lattice_.wrap(to);
}

void LatticeState::setVacancyOrder(const std::vector<Vec3i>& order) {
  const auto disagree = [] {
    return InvariantError("vacancy order disagrees with the occupation");
  };
  if (order.size() != vacancies_.size()) throw disagree();
  std::vector<SiteId> want, have;
  want.reserve(order.size());
  have.reserve(order.size());
  for (const Vec3i& v : order) {
    if (!lattice_.isLatticeSite(lattice_.wrap(v))) throw disagree();
    want.push_back(lattice_.siteId(v));
  }
  for (const Vec3i& v : vacancies_) have.push_back(lattice_.siteId(v));
  std::vector<SiteId> sortedWant = want;
  std::sort(sortedWant.begin(), sortedWant.end());
  std::sort(have.begin(), have.end());
  if (sortedWant != have) throw disagree();
  for (std::size_t i = 0; i < want.size(); ++i)
    vacancies_[i] = lattice_.coordinate(want[i]);
}

bool LatticeState::operator==(const LatticeState& other) const {
  return lattice_.cellsX() == other.lattice_.cellsX() &&
         lattice_.cellsY() == other.lattice_.cellsY() &&
         lattice_.cellsZ() == other.lattice_.cellsZ() &&
         lattice_.latticeConstant() == other.lattice_.latticeConstant() &&
         store_ == other.store_;
}

void LatticeState::randomAlloy(double cuFraction, std::int64_t vacancyCount,
                               Rng& rng) {
  require(cuFraction >= 0.0 && cuFraction < 1.0,
          "Cu fraction must be in [0, 1)");
  const std::int64_t n = lattice_.siteCount();
  require(vacancyCount >= 0 && vacancyCount < n,
          "vacancy count must fit in the box");
  fill(Species::kFe);
  // Place Cu by independent per-site draws (matches the paper's at.%
  // concentration specification), then scatter vacancies on distinct sites.
  for (std::int64_t id = 0; id < n; ++id)
    if (rng.uniform() < cuFraction) store_.set(id, Species::kCu);
  std::int64_t placed = 0;
  while (placed < vacancyCount) {
    const SiteId id = static_cast<SiteId>(
        rng.uniformBelow(static_cast<std::uint64_t>(n)));
    if (store_.get(id) == Species::kVacancy) continue;
    setSpecies(id, Species::kVacancy);
    ++placed;
  }
}

}  // namespace tkmc
