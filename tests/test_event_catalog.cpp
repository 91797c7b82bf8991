#include "kmc/event_catalog/event_catalog.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "kmc/eam_energy_model.hpp"
#include "kmc/event_catalog/trap_detrap_catalog.hpp"
#include "kmc/event_catalog/vacancy_hop_catalog.hpp"
#include "kmc/rate_calculator.hpp"
#include "kmc/serial_engine.hpp"
#include "parallel/coordinated_checkpoint.hpp"
#include "parallel/parallel_engine.hpp"

namespace tkmc {
namespace {

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// The pre-refactor serial fixture of the golden pins below: EAM, cutoff
/// 4.0 A, 14^3 cells, 15% Cu, 3 vacancies.
struct SerialFixture {
  Cet cet;
  Net net;
  EamPotential eam;
  BccLattice lattice;
  LatticeState state;
  EamEnergyModel model;

  explicit SerialFixture(std::uint64_t worldSeed)
      : cet(2.87, 4.0),
        net(cet),
        eam(4.0),
        lattice(14, 14, 14, 2.87),
        state(lattice),
        model(cet, net, eam) {
    Rng rng(worldSeed);
    state.randomAlloy(0.15, 3, rng);
  }
};

/// The pre-refactor parallel fixture: EAM, 16^3 cells, 12% Cu, 6
/// vacancies, engine seed 61, t_stop 5e-8 s.
struct ParallelFixture {
  Cet cet;
  Net net;
  EamPotential eam;
  BccLattice lattice;
  LatticeState state;
  EamEnergyModel model;

  ParallelFixture()
      : cet(2.87, 4.0),
        net(cet),
        eam(4.0),
        lattice(16, 16, 16, 2.87),
        state(lattice),
        model(cet, net, eam) {
    Rng rng(51);
    state.randomAlloy(0.12, 6, rng);
  }

  ParallelConfig config(Vec3i grid) const {
    ParallelConfig cfg;
    cfg.seed = 61;
    cfg.tStop = 5e-8;
    cfg.rankGrid = grid;
    return cfg;
  }
};

// Golden trajectory fingerprints captured on the pre-catalog build (the
// hardcoded eight-hop engines). The catalog refactor must reproduce
// them bit-for-bit: any divergence here is a physics regression, not a
// tolerance question.
constexpr std::uint32_t kGoldenSerialHash21 = 0xfe1ba7f5u;
constexpr std::uint64_t kGoldenSerialTime21 = 0x3e9d1bee0ca78d0eull;
constexpr std::uint32_t kGoldenSerialHash22 = 0xf6fe25f5u;
constexpr std::uint64_t kGoldenSerialTime22 = 0x3e936f1ab60bd162ull;
constexpr std::uint32_t kGoldenParallelHash221 = 0xb4a28beeu;
constexpr std::uint64_t kGoldenParallelEvents221 = 53;
constexpr std::uint64_t kGoldenParallelDiscarded221 = 2;
constexpr std::uint32_t kGoldenParallelHash222 = 0x3928ec57u;
constexpr std::uint64_t kGoldenParallelEvents222 = 32;
constexpr std::uint64_t kGoldenParallelDiscarded222 = 3;

TEST(EventCatalogGolden, SerialTrajectoriesBitIdenticalToPreRefactor) {
  const struct {
    std::uint64_t world;
    std::uint32_t hash;
    std::uint64_t timeBits;
  } pins[] = {{21, kGoldenSerialHash21, kGoldenSerialTime21},
              {22, kGoldenSerialHash22, kGoldenSerialTime22}};
  for (const auto& pin : pins) {
    SerialFixture fx(pin.world);
    KmcConfig cfg;
    cfg.seed = 1000 + pin.world;
    cfg.tEnd = 1e300;
    SerialEngine engine(fx.state, fx.model, fx.cet, cfg);
    for (int i = 0; i < 200; ++i) engine.step();
    EXPECT_EQ(fx.state.contentHash(), pin.hash) << "world " << pin.world;
    EXPECT_EQ(bits(engine.time()), pin.timeBits) << "world " << pin.world;
    EXPECT_EQ(engine.steps(), 200u);
    // The default catalog is the vacancy-hop physics, one event type,
    // and every committed event is of that type.
    EXPECT_STREQ(engine.catalog().name(), "vacancy_hop");
    ASSERT_EQ(engine.eventsByType().size(), 1u);
    EXPECT_EQ(engine.eventsByType()[0], 200u);
  }
}

TEST(EventCatalogGolden, LinearSelectionMatchesTheSamePins) {
  // The forest's type-major linear scan must select identically to the
  // subtree walk, so the no-tree engine lands on the same golden.
  SerialFixture fx(21);
  KmcConfig cfg;
  cfg.seed = 1021;
  cfg.tEnd = 1e300;
  cfg.useTree = false;
  SerialEngine engine(fx.state, fx.model, fx.cet, cfg);
  for (int i = 0; i < 200; ++i) engine.step();
  EXPECT_EQ(fx.state.contentHash(), kGoldenSerialHash21);
  EXPECT_EQ(bits(engine.time()), kGoldenSerialTime21);
}

TEST(EventCatalogGolden, ParallelSequentialAndThreadedBitIdentical) {
  const struct {
    Vec3i grid;
    std::uint32_t hash;
    std::uint64_t events;
    std::uint64_t discarded;
  } pins[] = {{{2, 2, 1}, kGoldenParallelHash221, kGoldenParallelEvents221,
               kGoldenParallelDiscarded221},
              {{2, 2, 2}, kGoldenParallelHash222, kGoldenParallelEvents222,
               kGoldenParallelDiscarded222}};
  for (const auto& pin : pins) {
    for (const bool threaded : {false, true}) {
      ParallelFixture fx;
      ParallelConfig cfg = fx.config(pin.grid);
      cfg.threaded = threaded;
      ParallelEngine engine(fx.state, fx.model, fx.cet, cfg);
      for (int c = 0; c < 8; ++c) engine.runCycle();
      EXPECT_EQ(engine.assembleGlobalState().contentHash(), pin.hash)
          << pin.grid.x << "x" << pin.grid.y << "x" << pin.grid.z
          << (threaded ? " threaded" : " sequential");
      EXPECT_EQ(engine.totalEvents(), pin.events);
      EXPECT_EQ(engine.discardedEvents(), pin.discarded);
      ASSERT_EQ(engine.eventsByType().size(), 1u);
      EXPECT_EQ(engine.eventsByType()[0], pin.events);
    }
  }
}

TEST(EventCatalogGolden, ResumeFromCheckpointMatchesDirectRun) {
  const std::string dir = "event_catalog_golden_ckpt";
  std::filesystem::remove_all(dir);
  ParallelFixture fx;
  ParallelConfig cfg = fx.config({2, 2, 1});
  cfg.checkpointDir = dir;
  cfg.checkpointCadence = 2;
  ParallelEngine engine(fx.state, fx.model, fx.cet, cfg);
  // Six cycles commit epochs 0..6; retention keeps the two newest fulls,
  // 4 and 6.
  for (int c = 0; c < 6; ++c) engine.runCycle();

  ParallelFixture rfx;
  ParallelConfig rcfg = rfx.config({2, 2, 1});
  CheckpointStore store(dir);
  ParallelEngine resumed(rfx.model, rfx.cet, rcfg, store, 4);
  while (resumed.cycles() < 8) resumed.runCycle();
  EXPECT_EQ(resumed.assembleGlobalState().contentHash(),
            kGoldenParallelHash221);
  EXPECT_EQ(resumed.totalEvents(), kGoldenParallelEvents221);
  std::filesystem::remove_all(dir);
}

TEST(EventCatalog, VacancyHopCatalogShape) {
  const EventCatalog& cat = defaultEventCatalog();
  EXPECT_STREQ(cat.name(), "vacancy_hop");
  EXPECT_EQ(cat.typeCount(), 1);
  EXPECT_EQ(cat.classCount(), 1);
  const EventTypeInfo& hop = cat.typeInfo(0);
  EXPECT_EQ(hop.id, 0);
  EXPECT_STREQ(hop.name, "hop");
  EXPECT_EQ(hop.arity, kNumJumpDirections);
  EXPECT_TRUE(cat.typeApplies(0, 0));
  for (int k = 0; k < kNumJumpDirections; ++k)
    EXPECT_EQ(cat.candidateOffset(0, k),
              BccLattice::firstNeighborOffsets()[static_cast<std::size_t>(k)]);
}

TEST(EventCatalog, FactoryBuildsByNameAndRejectsUnknown) {
  EventCatalogSpec spec;
  EXPECT_STREQ(makeEventCatalog(spec)->name(), "vacancy_hop");
  spec.name = "trap_detrap";
  EXPECT_STREQ(makeEventCatalog(spec)->name(), "trap_detrap");
  spec.name = "no_such_catalog";
  EXPECT_THROW(makeEventCatalog(spec), Error);
}

TEST(EventCatalog, TrapDetrapRejectsInvalidParameters) {
  EXPECT_THROW(TrapDetrapCatalog(1.5, 0.25, 1, 1), Error);
  EXPECT_THROW(TrapDetrapCatalog(-0.1, 0.25, 1, 1), Error);
  EXPECT_THROW(TrapDetrapCatalog(0.05, -0.25, 1, 1), Error);
  EXPECT_THROW(TrapDetrapCatalog(0.05, 0.25, -1, 1), Error);
}

TEST(EventCatalog, TrapDetrapSiteClassesAreDeterministicAndSeeded) {
  BccLattice lattice(8, 8, 8, 2.87);
  const TrapDetrapCatalog a(0.3, 0.25, 1, 77);
  const TrapDetrapCatalog b(0.3, 0.25, 1, 77);
  const TrapDetrapCatalog other(0.3, 0.25, 1, 78);
  const TrapDetrapCatalog none(0.0, 0.25, 1, 77);
  int traps = 0, bulk = 0, differs = 0;
  for (BccLattice::SiteId id = 0; id < lattice.siteCount(); ++id) {
    const Vec3i site = lattice.coordinate(id);
    const int cls = a.siteClass(lattice, site);
    // Pure function of the wrapped coordinate: a second instance with
    // the same parameters must classify identically (the property the
    // serial and parallel engines rely on to agree without shared
    // state).
    EXPECT_EQ(cls, b.siteClass(lattice, site));
    if (site.z < 2) {
      // One unit-cell sink slab at z = 0 (doubled coordinates).
      EXPECT_EQ(cls, TrapDetrapCatalog::kSink);
      continue;
    }
    EXPECT_NE(cls, TrapDetrapCatalog::kSink);
    (cls == TrapDetrapCatalog::kTrap ? traps : bulk)++;
    if (cls != other.siteClass(lattice, site)) ++differs;
    EXPECT_NE(none.siteClass(lattice, site), TrapDetrapCatalog::kTrap);
  }
  // The seeded placement hits the requested fraction and actually
  // depends on the trap seed.
  const double fraction = static_cast<double>(traps) / (traps + bulk);
  EXPECT_NEAR(fraction, 0.3, 0.05);
  EXPECT_GT(differs, 0);
}

TEST(EventCatalog, TrapDetrapSinkClassIsAbsorbing) {
  const TrapDetrapCatalog cat(0.05, 0.25, 1, 1234);
  EXPECT_EQ(cat.typeCount(), 2);
  EXPECT_EQ(cat.classCount(), 3);
  EXPECT_STREQ(cat.typeInfo(0).name, "hop");
  EXPECT_STREQ(cat.typeInfo(1).name, "detrap");
  // Type masks: hop fires from bulk only, detrap from traps only, and
  // no type covers the sink — a vacancy that reaches the slab is
  // Markov-absorbing.
  EXPECT_TRUE(cat.typeApplies(0, TrapDetrapCatalog::kBulk));
  EXPECT_FALSE(cat.typeApplies(0, TrapDetrapCatalog::kTrap));
  EXPECT_FALSE(cat.typeApplies(0, TrapDetrapCatalog::kSink));
  EXPECT_FALSE(cat.typeApplies(1, TrapDetrapCatalog::kBulk));
  EXPECT_TRUE(cat.typeApplies(1, TrapDetrapCatalog::kTrap));
  EXPECT_FALSE(cat.typeApplies(1, TrapDetrapCatalog::kSink));
}

TEST(EventCatalog, TrapDetrapDetrapRatesAreExactlyScaledHopRates) {
  SerialFixture fx(33);
  const Vec3i center = fx.state.vacancies().front();
  Vet vet = Vet::gather(fx.cet, fx.state, center);
  const std::vector<double> energies =
      fx.model.stateEnergies(fx.state, center, kNumJumpDirections);
  const double temperature = 573.0;

  const TrapDetrapCatalog cat(0.05, 0.25, 1, 1234);
  const JumpRates hop = cat.evaluate(0, vet, energies, temperature);
  const JumpRates reference = computeRates(vet, energies, temperature);
  const JumpRates detrap = cat.evaluate(1, vet, energies, temperature);
  const double factor =
      std::exp(-cat.bindingEnergy() / (kBoltzmannEv * temperature));
  ASSERT_GT(hop.total, 0.0);
  for (int k = 0; k < kNumJumpDirections; ++k) {
    // Type 0 is the untouched Fe-Cu physics; type 1 raises every escape
    // barrier by the binding energy, which (barriers being clamped
    // non-negative already) multiplies every rate by exp(-Eb/kT)
    // exactly.
    EXPECT_EQ(hop.rate[static_cast<std::size_t>(k)],
              reference.rate[static_cast<std::size_t>(k)]);
    EXPECT_DOUBLE_EQ(detrap.rate[static_cast<std::size_t>(k)],
                     hop.rate[static_cast<std::size_t>(k)] * factor);
  }
  EXPECT_LT(detrap.total, hop.total);
}

TEST(EventCatalog, TrapDetrapSerialRunConservesVacancies) {
  SerialFixture fx(44);
  EventCatalogSpec spec;
  spec.name = "trap_detrap";
  spec.trapFraction = 0.2;
  spec.trapSeed = 9;
  const auto catalog = makeEventCatalog(spec);
  KmcConfig cfg;
  cfg.seed = 4242;
  cfg.tEnd = 1e300;
  SerialEngine engine(fx.state, fx.model, fx.cet, cfg, catalog.get());
  const std::size_t vacancies = fx.state.vacancies().size();
  std::uint64_t executed = 0;
  for (int i = 0; i < 150; ++i) {
    if (!engine.step().advanced) break;  // every vacancy sank
    ++executed;
  }
  EXPECT_EQ(fx.state.vacancies().size(), vacancies);
  ASSERT_EQ(engine.eventsByType().size(), 2u);
  EXPECT_EQ(engine.eventsByType()[0] + engine.eventsByType()[1], executed);
  EXPECT_GT(executed, 0u);
}

TEST(EventCatalog, RateNanFaultTripsTypedInvariantErrorInSerial) {
  SerialFixture fx(21);
  KmcConfig cfg;
  cfg.seed = 1021;
  cfg.tEnd = 1e300;
  SerialEngine engine(fx.state, fx.model, fx.cet, cfg);
  FaultInjector injector(7);
  injector.armOnce("catalog.rate_nan");
  FaultScope scope(injector);
  EXPECT_THROW(
      {
        for (int i = 0; i < 50; ++i) engine.step();
      },
      InvariantError);
  EXPECT_EQ(injector.fireCount("catalog.rate_nan"), 1u);
}

TEST(EventCatalog, RateNanFaultIsAbsorbedByParallelRecovery) {
  ParallelFixture fx;
  ParallelConfig cfg = fx.config({2, 2, 1});
  cfg.enableRecovery = true;
  ParallelEngine engine(fx.state, fx.model, fx.cet, cfg);
  FaultInjector injector(11);
  injector.armOnce("catalog.rate_nan");
  {
    FaultScope scope(injector);
    for (int c = 0; c < 8; ++c) engine.runCycle();
  }
  EXPECT_EQ(injector.fireCount("catalog.rate_nan"), 1u);
  // The poisoned propensity surfaces as a typed InvariantError inside
  // the cycle, which recovery absorbs as a rollback + replay (the
  // invariant-monitor counter is reserved for post-cycle checks).
  EXPECT_GE(engine.recoveryStats().rollbacks, 1u);
  // The rollback + replay must land on the fault-free trajectory.
  EXPECT_EQ(engine.assembleGlobalState().contentHash(),
            kGoldenParallelHash221);
  EXPECT_EQ(engine.totalEvents(), kGoldenParallelEvents221);
}

TEST(EventCatalog, ManifestRecordsCatalogAndResumeValidatesIt) {
  const std::string dir = "event_catalog_manifest_ckpt";
  std::filesystem::remove_all(dir);
  ParallelFixture fx;
  ParallelConfig cfg = fx.config({2, 2, 1});
  cfg.catalog.name = "trap_detrap";
  cfg.catalog.trapFraction = 0.1;
  cfg.checkpointDir = dir;
  cfg.checkpointCadence = 1;
  ParallelEngine engine(fx.state, fx.model, fx.cet, cfg);
  // Retention keeps the two newest full epochs, 5 and 6.
  for (int c = 0; c < 6; ++c) engine.runCycle();

  CheckpointStore store(dir);
  const auto newest = store.newestCompleteEpoch();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(store.loadManifest(*newest).catalog, "trap_detrap");

  // Resume under the matching catalog continues the trap trajectory
  // bit-exactly; resume under a different catalog must refuse — the
  // saved state is only meaningful under the physics that produced it.
  ParallelFixture rfx;
  ParallelConfig rcfg = rfx.config({2, 2, 1});
  rcfg.catalog = cfg.catalog;
  ParallelEngine resumed(rfx.model, rfx.cet, rcfg, store, 5);
  while (resumed.cycles() < 6) resumed.runCycle();
  EXPECT_EQ(resumed.assembleGlobalState().contentHash(),
            engine.assembleGlobalState().contentHash());
  EXPECT_EQ(resumed.totalEvents(), engine.totalEvents());
  ASSERT_EQ(resumed.eventsByType().size(), 2u);

  ParallelFixture mfx;
  ParallelConfig mismatched = mfx.config({2, 2, 1});  // default vacancy_hop
  EXPECT_THROW(ParallelEngine(mfx.model, mfx.cet, mismatched, store, 5),
               Error);
  std::filesystem::remove_all(dir);
}

TEST(EventCatalog, DefaultCatalogManifestStaysByteCompatible) {
  // A vacancy_hop run writes no `catalog` record, so its manifests are
  // byte-identical to pre-catalog builds (and old manifests load as
  // vacancy_hop).
  const std::string dir = "event_catalog_compat_ckpt";
  std::filesystem::remove_all(dir);
  ParallelFixture fx;
  ParallelConfig cfg = fx.config({2, 2, 1});
  cfg.checkpointDir = dir;
  cfg.checkpointCadence = 1;
  ParallelEngine engine(fx.state, fx.model, fx.cet, cfg);
  for (int c = 0; c < 2; ++c) engine.runCycle();

  CheckpointStore store(dir);
  const auto newest = store.newestCompleteEpoch();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(store.loadManifest(*newest).catalog, "vacancy_hop");
  std::ifstream in(store.epochPath(*newest) + "/manifest.tkm",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_EQ(body.str().find("catalog"), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tkmc
