#include "parallel/subdomain.hpp"

#include <cstring>

#include "common/error.hpp"

namespace tkmc {
namespace {

// Shifts v by multiples of `period` into [lo, lo + span); returns false
// when impossible.
bool shiftInto(int v, int lo, int span, int period, int& out) {
  int shifted = v;
  while (shifted < lo) shifted += period;
  while (shifted >= lo + span) shifted -= period;
  if (shifted < lo) return false;
  out = shifted;
  return true;
}

}  // namespace

Subdomain::Subdomain(const BccLattice& global, Vec3i originCells,
                     Vec3i extentCells, int ghostCells)
    : Subdomain(global, originCells, extentCells,
                Vec3i{ghostCells, ghostCells, ghostCells}) {}

Subdomain::Subdomain(const BccLattice& global, Vec3i originCells,
                     Vec3i extentCells, Vec3i ghostCells)
    : global_(global), indexer_(originCells, extentCells, ghostCells) {
  extOriginDoubled_ = {2 * (originCells.x - ghostCells.x),
                       2 * (originCells.y - ghostCells.y),
                       2 * (originCells.z - ghostCells.z)};
  extSpanDoubled_ = {2 * (extentCells.x + 2 * ghostCells.x),
                     2 * (extentCells.y + 2 * ghostCells.y),
                     2 * (extentCells.z + 2 * ghostCells.z)};
  require(extSpanDoubled_.x <= 2 * global.cellsX() &&
              extSpanDoubled_.y <= 2 * global.cellsY() &&
              extSpanDoubled_.z <= 2 * global.cellsZ(),
          "extended subdomain must fit the global box (shrink the ghost "
          "shell or enlarge the box)");
  species_.assign(static_cast<std::size_t>(indexer_.extendedSiteCount()),
                  Species::kFe);
}

std::pair<Vec3i, bool> Subdomain::toFrame(Vec3i p) const {
  Vec3i f;
  if (!shiftInto(p.x, extOriginDoubled_.x, extSpanDoubled_.x,
                 2 * global_.cellsX(), f.x))
    return {f, false};
  if (!shiftInto(p.y, extOriginDoubled_.y, extSpanDoubled_.y,
                 2 * global_.cellsY(), f.y))
    return {f, false};
  if (!shiftInto(p.z, extOriginDoubled_.z, extSpanDoubled_.z,
                 2 * global_.cellsZ(), f.z))
    return {f, false};
  return {f, true};
}

bool Subdomain::covers(Vec3i p) const { return toFrame(p).second; }

bool Subdomain::owns(Vec3i p) const {
  const auto [f, ok] = toFrame(p);
  return ok && indexer_.isLocal(f);
}

Species Subdomain::at(Vec3i p) const {
  const auto [f, ok] = toFrame(p);
  require(ok, "coordinate outside this subdomain's extended frame");
  return species_[static_cast<std::size_t>(indexer_.indexOf(f))];
}

void Subdomain::set(Vec3i p, Species s) {
  const auto [f, ok] = toFrame(p);
  require(ok, "coordinate outside this subdomain's extended frame");
  species_[static_cast<std::size_t>(indexer_.indexOf(f))] = s;
}

Vec3i Subdomain::frameSite(Vec3i cell, int sub) const {
  return {extOriginDoubled_.x + 2 * cell.x + sub,
          extOriginDoubled_.y + 2 * cell.y + sub,
          extOriginDoubled_.z + 2 * cell.z + sub};
}

void Subdomain::loadFrom(const LatticeState& state) {
  const Vec3i g = ghostCellsVec();
  const Vec3i extCells{extentCells().x + 2 * g.x, extentCells().y + 2 * g.y,
                       extentCells().z + 2 * g.z};
  for (int cz = 0; cz < extCells.z; ++cz)
    for (int cy = 0; cy < extCells.y; ++cy)
      for (int cx = 0; cx < extCells.x; ++cx)
        for (int sub = 0; sub < 2; ++sub) {
          const Vec3i f = frameSite({cx, cy, cz}, sub);
          species_[static_cast<std::size_t>(indexer_.indexOf(f))] =
              state.speciesAt(f);
        }
  rescanVacancies();
}

void Subdomain::rescanVacancies() {
  vacancies_.clear();
  const Vec3i e = extentCells();
  const Vec3i g = ghostCellsVec();
  for (int cz = 0; cz < e.z; ++cz)
    for (int cy = 0; cy < e.y; ++cy)
      for (int cx = 0; cx < e.x; ++cx)
        for (int sub = 0; sub < 2; ++sub) {
          const Vec3i f = frameSite({cx + g.x, cy + g.y, cz + g.z}, sub);
          if (species_[static_cast<std::size_t>(indexer_.indexOf(f))] ==
              Species::kVacancy)
            vacancies_.push_back(global_.wrap(f));
        }
}

std::vector<std::uint8_t> Subdomain::ownedSpecies() const {
  static_assert(sizeof(Species) == 1, "one species byte per site");
  std::vector<std::uint8_t> out(
      static_cast<std::size_t>(indexer_.localSiteCount()));
  std::memcpy(out.data(), species_.data(), out.size());
  return out;
}

}  // namespace tkmc
