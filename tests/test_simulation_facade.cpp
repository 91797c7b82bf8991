#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace tkmc {
namespace {

SimulationConfig eamConfig(std::uint64_t seed) {
  SimulationConfig cfg;
  cfg.cells = 12;
  cfg.cutoff = 4.0;
  cfg.potential = SimulationConfig::Potential::kEam;
  cfg.vacancyCount = 3;
  cfg.seed = seed;
  return cfg;
}

TEST(Simulation, EamModeRunsOutOfTheBox) {
  Simulation sim(eamConfig(1));
  EXPECT_EQ(sim.state().countSpecies(Species::kVacancy), 3);
  const auto executed = sim.run(1e300, 50);
  EXPECT_EQ(executed, 50u);
  EXPECT_GT(sim.time(), 0.0);
  EXPECT_EQ(sim.steps(), 50u);
}

TEST(Simulation, VacancyConcentrationSizing) {
  SimulationConfig cfg = eamConfig(2);
  cfg.vacancyCount = -1;
  cfg.vacancyConcentration = 1e-3;
  Simulation sim(cfg);
  // 2 * 12^3 sites * 1e-3, rounded down, at least 1.
  EXPECT_EQ(sim.state().countSpecies(Species::kVacancy), 3);
}

TEST(Simulation, ClusterAnalysisTracksCu) {
  Simulation sim(eamConfig(3));
  const ClusterStats stats = sim.cuClusters();
  EXPECT_EQ(stats.totalAtoms, sim.state().countSpecies(Species::kCu));
  EXPECT_GT(stats.totalAtoms, 0);
}

TEST(Simulation, DeterministicForSameConfig) {
  Simulation a(eamConfig(4)), b(eamConfig(4));
  a.run(1e300, 40);
  b.run(1e300, 40);
  EXPECT_TRUE(a.state() == b.state());
  EXPECT_DOUBLE_EQ(a.time(), b.time());
}

TEST(Simulation, NnpModeSelfTrainsAndRuns) {
  SimulationConfig cfg = eamConfig(5);
  cfg.potential = SimulationConfig::Potential::kNnp;
  cfg.channels = {64, 8, 1};
  cfg.trainStructures = 8;
  cfg.trainEpochs = 2;
  Simulation sim(cfg);
  ASSERT_NE(sim.network(), nullptr);
  EXPECT_EQ(sim.network()->inputDim(), 64);
  EXPECT_EQ(sim.run(1e300, 10), 10u);
}

TEST(Simulation, ModelPathCachesTrainedPotential) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tkmc_facade_model.txt").string();
  std::remove(path.c_str());
  SimulationConfig cfg = eamConfig(6);
  cfg.potential = SimulationConfig::Potential::kNnp;
  cfg.channels = {64, 8, 1};
  cfg.trainStructures = 8;
  cfg.trainEpochs = 2;
  cfg.modelPath = path;
  {
    Simulation first(cfg);
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  // Second construction must load, not retrain: identical weights.
  Simulation second(cfg);
  const Network reloaded = Simulation::buildPotential(cfg);
  EXPECT_EQ(reloaded.layer(0).weights, second.network()->layer(0).weights);
  std::remove(path.c_str());
}

TEST(Simulation, RejectsBadChannelWidth) {
  SimulationConfig cfg = eamConfig(7);
  cfg.potential = SimulationConfig::Potential::kNnp;
  cfg.channels = {32, 8, 1};  // wrong input width
  EXPECT_THROW(Simulation sim(cfg), Error);
}

TEST(Simulation, CacheAndTreeTogglesPreserveTrajectory) {
  SimulationConfig base = eamConfig(8);
  SimulationConfig noCache = base;
  noCache.useVacancyCache = false;
  SimulationConfig noTree = base;
  noTree.useTree = false;
  Simulation a(base), b(noCache), c(noTree);
  a.run(1e300, 60);
  b.run(1e300, 60);
  c.run(1e300, 60);
  EXPECT_TRUE(a.state() == b.state());
  EXPECT_TRUE(a.state() == c.state());
}

}  // namespace
}  // namespace tkmc
