// Engine-level tests of the ghost exchange (the delta halo): after the
// fold, every owner sends the owned sites that changed this cycle to the
// adjacent ranks whose extended frames cover them, one frame per
// neighbour, through the same lease-aware ARQ receive as the fold.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "core/input_deck.hpp"
#include "kmc/eam_energy_model.hpp"
#include "parallel/parallel_engine.hpp"

namespace tkmc {
namespace {

constexpr double kCutoff = 4.0;
constexpr int kCycles = 8;  // one full sector rotation

struct World {
  explicit World(std::uint64_t seed, int cells = 16)
      : cet(2.87, kCutoff), net(cet), eam(kCutoff),
        lattice(cells, cells, cells, 2.87), state(lattice), model(cet, net, eam) {
    Rng rng(seed);
    state.randomAlloy(0.12, 6, rng);
  }

  Cet cet;
  Net net;
  EamPotential eam;
  BccLattice lattice;
  LatticeState state;
  EamEnergyModel model;
};

ParallelConfig haloConfig(Vec3i grid, bool threaded) {
  ParallelConfig cfg;
  cfg.seed = 61;
  cfg.tStop = 5e-8;
  cfg.rankGrid = grid;
  cfg.threaded = threaded;
  cfg.invariantCadence = 1;  // full ghost sweep after every cycle
  return cfg;
}

std::string gridName(Vec3i g) {
  return std::to_string(g.x) + "x" + std::to_string(g.y) + "x" +
         std::to_string(g.z);
}

std::string readSource(const std::string& relative) {
  std::ifstream in(std::string(TKMC_SOURCE_DIR) + "/" + relative);
  EXPECT_TRUE(in.good()) << relative;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

struct Outcome {
  std::uint32_t hash = 0;
  std::uint64_t events = 0;
  RecoveryStats stats;
};

Outcome runCycles(const ParallelConfig& cfg, int cycles) {
  World w(51);
  ParallelEngine engine(w.state, w.model, w.cet, cfg);
  for (int c = 0; c < cycles; ++c) engine.runCycle();
  return {engine.assembleGlobalState().contentHash(), engine.totalEvents(),
          engine.recoveryStats()};
}

TEST(DeltaHalo, GhostsStayConsistentAfterEveryCycle) {
  for (const Vec3i grid : {Vec3i{2, 2, 2}, Vec3i{2, 2, 1}, Vec3i{1, 2, 2}}) {
    std::uint32_t sequentialHash = 0;
    for (const bool threaded : {false, true}) {
      SCOPED_TRACE("grid " + gridName(grid) +
                   (threaded ? " threaded" : " sequential"));
      World w(51);
      ParallelEngine engine(w.state, w.model, w.cet,
                            haloConfig(grid, threaded));
      ASSERT_TRUE(engine.ghostsConsistent());
      for (int c = 0; c < kCycles; ++c) {
        engine.runCycle();
        ASSERT_TRUE(engine.ghostsConsistent()) << "after cycle " << c;
      }
      EXPECT_GT(engine.totalEvents(), 0u);
      // The per-cycle sweep never tripped, so nothing was replayed.
      EXPECT_EQ(engine.recoveryStats().invariantTrips, 0u);
      EXPECT_EQ(engine.recoveryStats().rollbacks, 0u);
      const std::uint32_t hash = engine.assembleGlobalState().contentHash();
      if (threaded)
        EXPECT_EQ(hash, sequentialHash);
      else
        sequentialHash = hash;
    }
  }
}

// On the sequential 2x2x2 backend every cycle sends the fold's 56 frames
// (8 ranks x 7 neighbours) and then the halo's 56, so hit ordinal 60 of a
// comm fault point lands on a halo frame of the first cycle.
constexpr std::uint64_t kFirstCycleHaloOrdinal = 60;

TEST(DeltaHalo, OneInjectedHaloFaultIsAbsorbedByArq) {
  const ParallelConfig cfg = haloConfig({2, 2, 2}, /*threaded=*/false);
  const Outcome clean = runCycles(cfg, kCycles);
  EXPECT_EQ(clean.stats.ghostRetries, 0u);
  for (const char* point : {"comm.corrupt", "comm.drop"}) {
    SCOPED_TRACE(point);
    FaultInjector inj(11);
    inj.armSchedule(point, {kFirstCycleHaloOrdinal});
    FaultScope scope(inj);
    const Outcome faulted = runCycles(cfg, kCycles);
    EXPECT_EQ(inj.triggerCount(point), 1u);
    EXPECT_GE(faulted.stats.ghostRetries, 1u);
    EXPECT_EQ(faulted.stats.foldRetries, 0u);
    EXPECT_EQ(faulted.stats.rollbacks, 0u);
    EXPECT_EQ(faulted.hash, clean.hash);
    EXPECT_EQ(faulted.events, clean.events);
  }
}

TEST(DeltaHalo, PersistentCorruptionSurfacesCommErrorAfterMaxReplays) {
  ParallelConfig cfg = haloConfig({2, 2, 2}, /*threaded=*/false);
  cfg.maxReplays = 2;
  cfg.commMaxAttempts = 2;
  World w(51);
  ParallelEngine engine(w.state, w.model, w.cet, cfg);
  FaultInjector inj(13);
  inj.armProbability("comm.corrupt", 1.0);  // every frame corrupt
  FaultScope scope(inj);
  EXPECT_THROW(engine.runCycle(), CommError);
  EXPECT_EQ(engine.recoveryStats().commErrors, 2u);
  EXPECT_EQ(engine.recoveryStats().rollbacks, 1u);
}

// Traffic is one frame per (rank, neighbour) per exchange, empty frames
// included, and 13 bytes per record (3 x int32 site + species). The byte
// counts are those of this deck; a change to either exchange moves them.
TEST(DeltaHalo, MessagesAndBytesPerCycleArePinned) {
  struct Case {
    Vec3i grid;
    std::uint64_t messagesPerCycle;  // fold + halo
    std::uint64_t bytes;             // whole run
  };
  for (const Case& c : {Case{{2, 2, 2}, 112, 2808}, Case{{2, 2, 1}, 24, 2717},
                        Case{{1, 2, 2}, 24, 2288}}) {
    SCOPED_TRACE("grid " + gridName(c.grid));
    World w(51);
    ParallelEngine engine(w.state, w.model, w.cet,
                          haloConfig(c.grid, /*threaded=*/false));
    for (int cycle = 0; cycle < kCycles; ++cycle) engine.runCycle();
    EXPECT_EQ(engine.comm().totalMessagesSent(),
              c.messagesPerCycle * kCycles);
    EXPECT_EQ(engine.comm().totalBytesSent() % 13, 0u);
    EXPECT_EQ(engine.comm().totalBytesSent(), c.bytes);
  }
}

// scripts/chaos_soak.sh aims its phase-C kills at the commit votes and
// acks of epoch 4 by counting SENDS_PER_CYCLE sends per cycle on
// tools/chaos_deck.tkmc's grid; a protocol change that moves the count
// must fail here instead of silently moving the kills out of the commit.
TEST(DeltaHalo, ChaosDeckSendsPerCycleMatchTheSoakScript) {
  const std::string script = readSource("scripts/chaos_soak.sh");
  std::smatch match;
  ASSERT_TRUE(std::regex_search(script, match,
                                std::regex("SENDS_PER_CYCLE=([0-9]+)")));
  const std::uint64_t scriptSends = std::stoull(match[1].str());

  std::istringstream deckText(readSource("tools/chaos_deck.tkmc"));
  const InputDeck deck = InputDeck::parse(deckText);
  ParallelConfig cfg;
  cfg.tStop = deck.tStop();
  cfg.rankGrid = deck.rankGrid();
  const auto dir = std::filesystem::temp_directory_path() / "tkmc_halo_chaos";
  std::filesystem::remove_all(dir);
  cfg.checkpointDir = dir.string();
  cfg.checkpointCadence = deck.checkpointCadence();
  cfg.heartbeatIntervalMs = deck.heartbeatIntervalMs();
  cfg.heartbeatTimeoutMs = deck.heartbeatTimeoutMs();
  World w(deck.simulationConfig().seed, deck.simulationConfig().cells);
  {
    ParallelEngine engine(w.state, w.model, w.cet, cfg);
    // Epoch 0 commits at construction without a barrier: no sends.
    EXPECT_EQ(engine.comm().totalMessagesSent(), 0u);
    for (int cycle = 0; cycle < 4; ++cycle) engine.runCycle();
    EXPECT_EQ(engine.comm().totalMessagesSent(), 4 * scriptSends);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tkmc
