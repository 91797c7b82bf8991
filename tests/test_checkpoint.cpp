// Serial checkpoints: a serial run checkpoints as the 1-rank case of a
// coordinated epoch (rank grid 1x1x1, one box-covering shard) and
// resumes from one through the same CheckpointStore validation and
// older-epoch fallback that parallel runs use.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>

#include "common/durable_file.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "core/simulation.hpp"
#include "kmc/eam_energy_model.hpp"
#include "parallel/coordinated_checkpoint.hpp"

namespace tkmc {
namespace {

constexpr double kCutoff = 4.0;

std::string tempDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

struct World {
  explicit World(std::uint64_t seed)
      : cet(2.87, kCutoff), net(cet), eam(kCutoff),
        lattice(12, 12, 12, 2.87), state(lattice), model(cet, net, eam) {
    Rng rng(seed);
    state.randomAlloy(0.12, 3, rng);
  }

  Cet cet;
  Net net;
  EamPotential eam;
  BccLattice lattice;
  LatticeState state;
  EamEnergyModel model;
};

KmcConfig config(std::uint64_t seed, bool useCache = true) {
  KmcConfig cfg;
  cfg.seed = seed;
  cfg.tEnd = 1e300;
  cfg.useVacancyCache = useCache;
  return cfg;
}

SimulationConfig eamConfig(std::uint64_t seed) {
  SimulationConfig cfg;
  cfg.cells = 12;
  cfg.cutoff = kCutoff;
  cfg.potential = SimulationConfig::Potential::kEam;
  cfg.vacancyCount = 3;
  cfg.seed = seed;
  return cfg;
}

/// Recommits epoch `from` as epoch `to` after `mutate` edits its manifest
/// and shards: a forged epoch that passes every format and CRC check, so
/// only restoreSerialEpoch's semantic checks can reject it.
void recommit(
    CheckpointStore& store, std::uint64_t from, std::uint64_t to,
    const std::function<void(EpochManifest&, std::vector<ShardRecord>&)>&
        mutate) {
  EpochManifest manifest = store.loadManifest(from);
  std::vector<ShardRecord> shards = store.resolveShards(from);
  mutate(manifest, shards);
  manifest.epoch = to;
  manifest.shards.clear();
  store.beginEpoch(to);
  for (const ShardRecord& shard : shards)
    manifest.shards.push_back(store.stageShard(to, shard));
  store.commitEpoch(manifest);
}

void truncateToHalf(const std::string& path) {
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
}

TEST(SerialCheckpoint, RoundTripPreservesEverything) {
  World w(1);
  SerialEngine engine(w.state, w.model, w.cet, config(5));
  for (int i = 0; i < 37; ++i) engine.step();

  CheckpointStore store(tempDir("tkmc_serial_roundtrip"));
  EXPECT_EQ(commitSerialEpoch(store, w.state, engine, 5, std::nullopt), 37u);
  EXPECT_EQ(store.epochs(), (std::vector<std::uint64_t>{37}));
  EXPECT_FALSE(std::filesystem::exists(store.stagePath(37)));
  ASSERT_EQ(store.newestCompleteEpoch(), std::uint64_t{37});

  const EpochManifest manifest = store.loadManifest(37);
  EXPECT_EQ(manifest.rankGrid, (Vec3i{1, 1, 1}));
  EXPECT_EQ(manifest.globalCells, (Vec3i{12, 12, 12}));
  EXPECT_DOUBLE_EQ(manifest.latticeConstant, 2.87);
  EXPECT_EQ(manifest.time, engine.time());
  EXPECT_EQ(manifest.events, 37u);
  EXPECT_EQ(manifest.seed, 5u);
  EXPECT_EQ(manifest.catalog, "vacancy_hop");
  EXPECT_FALSE(manifest.isDelta());
  ASSERT_EQ(manifest.shards.size(), 1u);

  World other(99);  // same box, different occupation: fully overwritten
  SerialEngine restored(other.state, other.model, other.cet, config(777));
  restoreSerialEpoch(store, 37, other.state, restored);
  EXPECT_TRUE(other.state == w.state);
  EXPECT_EQ(other.state.contentHash(), w.state.contentHash());
  EXPECT_EQ(other.state.vacancies(), w.state.vacancies());
  EXPECT_EQ(restored.time(), engine.time());
  EXPECT_EQ(restored.steps(), 37u);
}

void expectBitExactResume(bool useCache) {
  // Reference: one engine runs 60 steps straight through, checkpointing
  // at step 30.
  World ref(2);
  SerialEngine refEngine(ref.state, ref.model, ref.cet, config(9, useCache));
  for (int i = 0; i < 30; ++i) refEngine.step();
  CheckpointStore store(
      tempDir(useCache ? "tkmc_serial_resume" : "tkmc_serial_resume_nocache"));
  commitSerialEpoch(store, ref.state, refEngine, 9, std::nullopt);
  std::vector<SerialEngine::StepResult> referenceTail;
  for (int i = 0; i < 30; ++i) referenceTail.push_back(refEngine.step());

  // Resume in a fresh world and replay the tail.
  World scratch(3);
  SerialEngine resumed(scratch.state, scratch.model, scratch.cet,
                       config(777, useCache));
  restoreSerialEpoch(store, 30, scratch.state, resumed);
  for (int i = 0; i < 30; ++i) {
    const auto r = resumed.step();
    const auto& expect = referenceTail[static_cast<std::size_t>(i)];
    ASSERT_EQ(r.from, expect.from) << "step " << i;
    ASSERT_EQ(r.to, expect.to) << "step " << i;
    ASSERT_EQ(r.dt, expect.dt) << "step " << i;
  }
  EXPECT_TRUE(scratch.state == ref.state);
  EXPECT_EQ(resumed.time(), refEngine.time());
  EXPECT_EQ(resumed.steps(), refEngine.steps());
}

TEST(SerialCheckpoint, ResumedTrajectoryIsBitExact) { expectBitExactResume(true); }

TEST(SerialCheckpoint, ResumeWithoutCacheAlsoBitExact) {
  expectBitExactResume(false);
}

TEST(SerialCheckpoint, FacadeRunResumesToTheSameHashTimeAndSteps) {
  Simulation a(eamConfig(10));
  a.run(1e300, 25);
  CheckpointStore store(tempDir("tkmc_serial_facade"));
  commitSerialEpoch(store, a.state(), a.engine(), 10, std::nullopt);
  a.run(1e300, 25);  // the uninterrupted reference

  Simulation b(eamConfig(999));  // different seed: state fully overwritten
  restoreSerialEpoch(store, 25, b.mutableState(), b.engine());
  EXPECT_EQ(b.steps(), 25u);
  b.run(1e300, 25);
  EXPECT_EQ(b.state().contentHash(), a.state().contentHash());
  EXPECT_TRUE(b.state() == a.state());
  EXPECT_EQ(b.time(), a.time());
  EXPECT_EQ(b.steps(), a.steps());
}

TEST(SerialCheckpoint, EmptyStoreHasNoRestartPointAndRestoreIsATypedError) {
  CheckpointStore store(tempDir("tkmc_serial_empty"));
  EXPECT_FALSE(store.newestCompleteEpoch().has_value());
  World w(4);
  SerialEngine engine(w.state, w.model, w.cet, config(4));
  EXPECT_THROW(restoreSerialEpoch(store, 0, w.state, engine), IoError);
}

TEST(SerialCheckpoint, RetentionKeepsTheNewestEpochAndOneFallback) {
  World w(5);
  SerialEngine engine(w.state, w.model, w.cet, config(5));
  CheckpointStore store(tempDir("tkmc_serial_retention"));
  std::optional<std::uint64_t> last;
  const std::vector<std::vector<std::uint64_t>> expected = {
      {10}, {10, 20}, {20, 30}, {30, 40}};
  for (const auto& listing : expected) {
    for (int i = 0; i < 10; ++i) engine.step();
    last = commitSerialEpoch(store, w.state, engine, 5, last);
    EXPECT_EQ(store.epochs(), listing);
  }
}

TEST(SerialCheckpoint, TornNewestShardResumesFromThePreviousEpoch) {
  World w(6);
  SerialEngine engine(w.state, w.model, w.cet, config(6));
  CheckpointStore store(tempDir("tkmc_serial_torn"));
  for (int i = 0; i < 10; ++i) engine.step();
  const std::uint64_t first =
      commitSerialEpoch(store, w.state, engine, 6, std::nullopt);
  const std::uint32_t firstHash = w.state.contentHash();
  for (int i = 0; i < 10; ++i) engine.step();
  commitSerialEpoch(store, w.state, engine, 6, first);

  truncateToHalf(store.epochPath(20) + "/rank_0.tkc");
  ASSERT_EQ(store.newestCompleteEpoch(), first);

  // The fallback epoch replays to the same state the live run reached.
  World scratch(7);
  SerialEngine resumed(scratch.state, scratch.model, scratch.cet, config(1));
  restoreSerialEpoch(store, first, scratch.state, resumed);
  EXPECT_EQ(scratch.state.contentHash(), firstHash);
  for (int i = 0; i < 10; ++i) resumed.step();
  EXPECT_TRUE(scratch.state == w.state);
  EXPECT_EQ(resumed.time(), engine.time());
}

TEST(SerialCheckpoint, TruncationAtAnyOffsetFallsBackToThePreviousEpoch) {
  World w(8);
  SerialEngine engine(w.state, w.model, w.cet, config(8));
  CheckpointStore store(tempDir("tkmc_serial_cuts"));
  engine.step();
  const std::uint64_t first =
      commitSerialEpoch(store, w.state, engine, 8, std::nullopt);
  engine.step();
  const std::uint64_t second = commitSerialEpoch(store, w.state, engine, 8, first);

  for (const char* file : {"rank_0.tkc", "manifest.tkm"}) {
    const std::string path = store.epochPath(second) + "/" + file;
    const std::string intact = readFile(path);
    for (std::size_t cut = 0; cut < intact.size(); cut += 37) {
      writeFileAtomic(path, intact.substr(0, cut));
      EXPECT_EQ(store.newestCompleteEpoch(), first)
          << file << " cut at " << cut;
    }
    writeFileAtomic(path, intact);
    EXPECT_EQ(store.newestCompleteEpoch(), second);
  }
}

TEST(SerialCheckpoint, InjectedShardCorruptWriteFallsBackToThePreviousEpoch) {
  World w(9);
  SerialEngine engine(w.state, w.model, w.cet, config(9));
  CheckpointStore store(tempDir("tkmc_serial_rot"));
  engine.step();
  const std::uint64_t first =
      commitSerialEpoch(store, w.state, engine, 9, std::nullopt);
  engine.step();
  FaultInjector inj(3);
  inj.armOnce("checkpoint.shard_corrupt_write");
  {
    FaultScope scope(inj);
    commitSerialEpoch(store, w.state, engine, 9, first);
  }
  EXPECT_EQ(inj.triggerCount("checkpoint.shard_corrupt_write"), 1u);
  EXPECT_FALSE(store.chainValid(2));
  EXPECT_EQ(store.newestCompleteEpoch(), first);
}

TEST(SerialCheckpoint, VacancyOrderDisagreeingWithOccupationIsInvariantError) {
  World w(10);
  SerialEngine engine(w.state, w.model, w.cet, config(10));
  for (int i = 0; i < 5; ++i) engine.step();
  CheckpointStore store(tempDir("tkmc_serial_forged_vacancies"));
  commitSerialEpoch(store, w.state, engine, 10, std::nullopt);
  // An atom site listed as a vacancy, and a vacancy missing from the
  // list: both CRC-valid, both rejected before any state changes.
  recommit(store, 5, 6, [](EpochManifest&, std::vector<ShardRecord>& s) {
    s[0].vacancyOrder[0] = {0, 0, 0};
    if (s[0].species[0] == static_cast<std::uint8_t>(Species::kVacancy))
      s[0].vacancyOrder[0] = {1, 1, 1};
  });
  recommit(store, 5, 7, [](EpochManifest&, std::vector<ShardRecord>& s) {
    s[0].vacancyOrder.pop_back();
  });
  World other(11);
  SerialEngine restored(other.state, other.model, other.cet, config(11));
  const std::uint32_t before = other.state.contentHash();
  EXPECT_THROW(restoreSerialEpoch(store, 6, other.state, restored),
               InvariantError);
  EXPECT_THROW(restoreSerialEpoch(store, 7, other.state, restored),
               InvariantError);
  EXPECT_EQ(other.state.contentHash(), before);
}

TEST(SerialCheckpoint, GridAndCatalogMismatchesAreRejected) {
  World w(12);
  SerialEngine engine(w.state, w.model, w.cet, config(12));
  engine.step();
  CheckpointStore store(tempDir("tkmc_serial_mismatch"));
  commitSerialEpoch(store, w.state, engine, 12, std::nullopt);
  recommit(store, 1, 2, [](EpochManifest& m, std::vector<ShardRecord>&) {
    m.rankGrid = {2, 1, 1};
  });
  recommit(store, 1, 3, [](EpochManifest& m, std::vector<ShardRecord>&) {
    m.catalog = "trap_detrap";
  });
  World other(13);
  SerialEngine restored(other.state, other.model, other.cet, config(13));
  EXPECT_THROW(restoreSerialEpoch(store, 2, other.state, restored), Error);
  EXPECT_THROW(restoreSerialEpoch(store, 3, other.state, restored), Error);
  EXPECT_NO_THROW(restoreSerialEpoch(store, 1, other.state, restored));
}

TEST(SerialCheckpoint, RestoreRejectsMismatchedBox) {
  Simulation a(eamConfig(11));
  CheckpointStore store(tempDir("tkmc_serial_bad_box"));
  commitSerialEpoch(store, a.state(), a.engine(), 11, std::nullopt);
  SimulationConfig other = eamConfig(11);
  other.cells = 10;
  Simulation b(other);
  EXPECT_THROW(restoreSerialEpoch(store, 0, b.mutableState(), b.engine()),
               Error);
}

}  // namespace
}  // namespace tkmc
