#include "parallel/subdomain.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "parallel/decomposition.hpp"

namespace tkmc {
namespace {

LatticeState randomGlobal(const BccLattice& lat, std::uint64_t seed) {
  LatticeState state(lat);
  Rng rng(seed);
  state.randomAlloy(0.2, 5, rng);
  return state;
}

TEST(Subdomain, LoadFromMirrorsGlobalState) {
  const BccLattice lat(12, 12, 12, 2.87);
  const LatticeState global = randomGlobal(lat, 1);
  Subdomain sd(lat, {0, 0, 0}, {6, 6, 6}, 3);
  sd.loadFrom(global);
  // Every covered site (owned and ghost) must match the global lattice.
  for (int cz = -3; cz < 9; ++cz)
    for (int cy = -3; cy < 9; ++cy)
      for (int cx = -3; cx < 9; ++cx)
        for (int sub = 0; sub < 2; ++sub) {
          const Vec3i p{2 * cx + sub, 2 * cy + sub, 2 * cz + sub};
          ASSERT_EQ(sd.at(p), global.speciesAt(p));
        }
}

TEST(Subdomain, OwnsOnlyItsCells) {
  const BccLattice lat(12, 12, 12, 2.87);
  Subdomain sd(lat, {6, 0, 0}, {6, 6, 6}, 2);
  EXPECT_TRUE(sd.owns({12, 0, 0}));
  EXPECT_TRUE(sd.owns({23, 11, 11}));
  EXPECT_FALSE(sd.owns({10, 0, 0}));   // ghost (covered, not owned)
  EXPECT_TRUE(sd.covers({10, 0, 0}));
  // Cell x = 2 is outside the extended frame (owned cells 6..11 plus a
  // 2-cell ghost shell reaching wrapped cells 4..13).
  EXPECT_FALSE(sd.covers({4, 12, 12}));
}

TEST(Subdomain, CoversWrapsPeriodically) {
  const BccLattice lat(12, 12, 12, 2.87);
  Subdomain sd(lat, {0, 0, 0}, {6, 6, 6}, 2);
  // Ghost cell at x = -1 corresponds to wrapped x-cell 11.
  EXPECT_TRUE(sd.covers({22, 0, 0}));  // == -2 after unwrap
  EXPECT_FALSE(sd.owns({22, 0, 0}));
}

TEST(Subdomain, SetAndGetRoundTrip) {
  const BccLattice lat(12, 12, 12, 2.87);
  Subdomain sd(lat, {0, 0, 0}, {6, 6, 6}, 2);
  sd.set({4, 4, 4}, Species::kCu);
  EXPECT_EQ(sd.at({4, 4, 4}), Species::kCu);
  sd.set({-1, -1, -1}, Species::kVacancy);  // ghost write
  EXPECT_EQ(sd.at({-1, -1, -1}), Species::kVacancy);
}

TEST(Subdomain, RescanFindsOwnedVacanciesOnly) {
  const BccLattice lat(12, 12, 12, 2.87);
  LatticeState global(lat);
  global.setSpeciesAt({4, 4, 4}, Species::kVacancy);    // owned by (0,0,0)
  global.setSpeciesAt({20, 20, 20}, Species::kVacancy);  // owned elsewhere
  Subdomain sd(lat, {0, 0, 0}, {6, 6, 6}, 2);
  sd.loadFrom(global);
  ASSERT_EQ(sd.vacancies().size(), 1u);
  EXPECT_EQ(sd.vacancies()[0], (Vec3i{4, 4, 4}));
}

// The shard occupation run is species_[0, N) of the Eq.-4 layout: it
// must equal the owned cells walked x-fastest, 2 sites per cell, on
// every rank of full and flat grids (ghost-free axes included).
TEST(Subdomain, OwnedSpeciesIsTheOwnedBoxWalkedXFastest) {
  const BccLattice lat(12, 12, 12, 2.87);
  const LatticeState global = randomGlobal(lat, 3);
  for (const Vec3i grid : {Vec3i{2, 2, 2}, Vec3i{2, 2, 1}, Vec3i{1, 2, 2}}) {
    SCOPED_TRACE("grid " + std::to_string(grid.x) + "x" +
                 std::to_string(grid.y) + "x" + std::to_string(grid.z));
    const Decomposition decomp({12, 12, 12}, grid);
    const Vec3i e = decomp.extentCells();
    const Vec3i ghost{grid.x > 1 ? 2 : 0, grid.y > 1 ? 2 : 0,
                      grid.z > 1 ? 2 : 0};
    for (int r = 0; r < decomp.rankCount(); ++r) {
      const Vec3i o = decomp.originCells(r);
      Subdomain sd(lat, o, e, ghost);
      sd.loadFrom(global);
      std::vector<std::uint8_t> walked;
      for (int cz = 0; cz < e.z; ++cz)
        for (int cy = 0; cy < e.y; ++cy)
          for (int cx = 0; cx < e.x; ++cx)
            for (int sub = 0; sub < 2; ++sub)
              walked.push_back(static_cast<std::uint8_t>(
                  sd.at({2 * (o.x + cx) + sub, 2 * (o.y + cy) + sub,
                         2 * (o.z + cz) + sub})));
      EXPECT_EQ(sd.ownedSpecies(), walked) << "rank " << r;
    }
  }
}

TEST(Subdomain, OversizedExtendedFrameIsRejected) {
  const BccLattice lat(8, 8, 8, 2.87);
  // 6 + 2*2 = 10 > 8 cells: ambiguous periodic images.
  EXPECT_THROW(Subdomain(lat, {0, 0, 0}, {6, 6, 6}, 2), Error);
}

TEST(Subdomain, AtOutsideFrameThrows) {
  const BccLattice lat(12, 12, 12, 2.87);
  Subdomain sd(lat, {0, 0, 0}, {4, 4, 4}, 2);
  EXPECT_THROW(sd.at({16, 16, 16}), Error);
}

}  // namespace
}  // namespace tkmc
