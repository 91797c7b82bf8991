#include "core/input_deck.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"

namespace tkmc {
namespace {

InputDeck parse(const std::string& text) {
  std::stringstream ss(text);
  return InputDeck::parse(ss);
}

TEST(InputDeck, EmptyDeckYieldsDefaults) {
  const InputDeck deck = parse("");
  const SimulationConfig cfg = deck.simulationConfig();
  EXPECT_EQ(cfg.cells, 20);
  EXPECT_DOUBLE_EQ(cfg.cutoff, kDefaultCutoff);
  EXPECT_EQ(cfg.potential, SimulationConfig::Potential::kNnp);
  EXPECT_DOUBLE_EQ(deck.tEnd(), 1e-6);
  EXPECT_TRUE(deck.dumpPath().empty());
}

TEST(InputDeck, ParsesAllCoreKeys) {
  const InputDeck deck = parse(R"(
cells 14
lattice_constant 2.9
cutoff 4.0
cu_fraction 0.05
vacancy_count 7
temperature 673
seed 99
potential eam
use_cache off
use_tree off
t_end 2e-5
max_steps 5000
report_interval 250
dump_xyz out.xyz
dump_interval 100
)");
  const SimulationConfig cfg = deck.simulationConfig();
  EXPECT_EQ(cfg.cells, 14);
  EXPECT_DOUBLE_EQ(cfg.latticeConstant, 2.9);
  EXPECT_DOUBLE_EQ(cfg.cutoff, 4.0);
  EXPECT_DOUBLE_EQ(cfg.cuFraction, 0.05);
  EXPECT_EQ(cfg.vacancyCount, 7);
  EXPECT_DOUBLE_EQ(cfg.temperature, 673.0);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.potential, SimulationConfig::Potential::kEam);
  EXPECT_FALSE(cfg.useVacancyCache);
  EXPECT_FALSE(cfg.useTree);
  EXPECT_DOUBLE_EQ(deck.tEnd(), 2e-5);
  EXPECT_EQ(deck.maxSteps(), 5000u);
  EXPECT_EQ(deck.reportInterval(), 250u);
  EXPECT_EQ(deck.dumpPath(), "out.xyz");
  EXPECT_EQ(deck.dumpInterval(), 100u);
}

TEST(InputDeck, CommentsAndBlankLinesIgnored) {
  const InputDeck deck = parse(
      "# full-line comment\n"
      "\n"
      "cells 10   # trailing comment\n"
      "   \t \n");
  EXPECT_EQ(deck.simulationConfig().cells, 10);
}

TEST(InputDeck, ChannelsAreCommaSeparated) {
  const InputDeck deck = parse("channels 64,16,8,1\n");
  EXPECT_EQ(deck.simulationConfig().channels,
            (std::vector<int>{64, 16, 8, 1}));
}

TEST(InputDeck, ParsesFailStopKeysAndFlatRankGrids) {
  const InputDeck deck = parse(R"(
mode parallel
rank_grid 2,2,1
checkpoint_dir ckpt
checkpoint_cadence 3
heartbeat_interval_ms 2.5
heartbeat_timeout_ms 10
)");
  EXPECT_TRUE(deck.parallelMode());
  EXPECT_EQ(deck.rankGrid(), (Vec3i{2, 2, 1}));  // flat grids are legal
  EXPECT_EQ(deck.checkpointDir(), "ckpt");
  EXPECT_EQ(deck.checkpointCadence(), 3);
  EXPECT_DOUBLE_EQ(deck.heartbeatIntervalMs(), 2.5);
  EXPECT_DOUBLE_EQ(deck.heartbeatTimeoutMs(), 10.0);

  const InputDeck defaults = parse("");
  EXPECT_TRUE(defaults.checkpointDir().empty());
  EXPECT_EQ(defaults.checkpointCadence(), 1);
  EXPECT_DOUBLE_EQ(defaults.heartbeatIntervalMs(), 5.0);
  EXPECT_DOUBLE_EQ(defaults.heartbeatTimeoutMs(), 0.0);  // detector off

  EXPECT_THROW(parse("rank_grid 1,1,1"), Error);    // one rank: use serial
  EXPECT_THROW(parse("rank_grid 2,0,2"), Error);
  EXPECT_THROW(parse("checkpoint_cadence 0"), Error);
  EXPECT_THROW(parse("heartbeat_interval_ms 0"), Error);
  EXPECT_THROW(parse("heartbeat_timeout_ms -1"), Error);
}

TEST(InputDeck, ParsesDeltaCheckpointAndSpareRankKeys) {
  const InputDeck deck = parse(R"(
mode parallel
checkpoint_dir ckpt
checkpoint_mode delta
max_delta_chain 4
spare_ranks 2
)");
  EXPECT_TRUE(deck.deltaCheckpoints());
  EXPECT_EQ(deck.maxDeltaChain(), 4);
  EXPECT_EQ(deck.spareRanks(), 2);

  const InputDeck defaults = parse("");
  EXPECT_FALSE(defaults.deltaCheckpoints());  // full epochs by default
  EXPECT_EQ(defaults.maxDeltaChain(), 8);
  EXPECT_EQ(defaults.spareRanks(), 0);
  EXPECT_FALSE(parse("checkpoint_mode full").deltaCheckpoints());

  EXPECT_THROW(parse("checkpoint_mode incremental"), Error);
  EXPECT_THROW(parse("max_delta_chain 0"), Error);
  EXPECT_THROW(parse("spare_ranks -1"), Error);
}

TEST(InputDeck, UnknownKeyThrows) {
  EXPECT_THROW(parse("celz 10\n"), Error);
}

TEST(InputDeck, DuplicateKeyThrows) {
  EXPECT_THROW(parse("cells 10\ncells 12\n"), Error);
}

TEST(InputDeck, MissingValueThrows) {
  EXPECT_THROW(parse("cells\n"), Error);
}

TEST(InputDeck, BadNumberThrows) {
  EXPECT_THROW(parse("temperature warm\n"), Error);
  EXPECT_THROW(parse("cells 10.5x\n"), Error);
}

TEST(InputDeck, InvalidValuesRejected) {
  EXPECT_THROW(parse("cells -3\n"), Error);
  EXPECT_THROW(parse("temperature -10\n"), Error);
  EXPECT_THROW(parse("cu_fraction 1.5\n"), Error);
  EXPECT_THROW(parse("potential dft\n"), Error);
  EXPECT_THROW(parse("use_cache maybe\n"), Error);
}

TEST(InputDeck, SwitchAliases) {
  EXPECT_TRUE(parse("use_cache on\n").simulationConfig().useVacancyCache);
  EXPECT_TRUE(parse("use_cache true\n").simulationConfig().useVacancyCache);
  EXPECT_TRUE(parse("use_cache 1\n").simulationConfig().useVacancyCache);
  EXPECT_FALSE(parse("use_cache off\n").simulationConfig().useVacancyCache);
  EXPECT_FALSE(parse("use_cache false\n").simulationConfig().useVacancyCache);
}

TEST(InputDeck, HasAndRawValue) {
  const InputDeck deck = parse("model_path /tmp/model.txt\n");
  EXPECT_TRUE(deck.has("model_path"));
  EXPECT_FALSE(deck.has("cells"));
  EXPECT_EQ(deck.rawValue("model_path"), "/tmp/model.txt");
  EXPECT_EQ(deck.rawValue("cells"), "");
}

TEST(InputDeck, MissingFileThrows) {
  EXPECT_THROW(InputDeck::parseFile("/no/such/deck.tkmc"), Error);
}

TEST(InputDeck, CheckpointKeys) {
  const InputDeck deck = parse(
      "checkpoint_dir ckpt\ncheckpoint_interval 500\nresume on\n");
  EXPECT_EQ(deck.checkpointDir(), "ckpt");
  EXPECT_EQ(deck.checkpointInterval(), 500u);
  EXPECT_TRUE(deck.resume());
  EXPECT_THROW(parse("checkpoint_interval 0\n"), Error);
}

TEST(InputDeck, LegacySerialCheckpointFileKeysAreUnknown) {
  // Serial runs checkpoint as 1-rank epochs in checkpoint_dir; the
  // single-file keys are gone and must fail loudly, not be ignored.
  EXPECT_THROW(parse("checkpoint_write out.chk\n"), Error);
  EXPECT_THROW(parse("checkpoint_read in.chk\n"), Error);
}

TEST(InputDeck, DeckDrivesARunnableSimulation) {
  const InputDeck deck = parse(
      "cells 10\ncutoff 4.0\nvacancy_count 2\npotential eam\nmax_steps 20\n");
  Simulation sim(deck.simulationConfig());
  EXPECT_EQ(sim.run(deck.tEnd(), deck.maxSteps()), 20u);
}

}  // namespace
}  // namespace tkmc
