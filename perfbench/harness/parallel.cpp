// The two ParallelEngine workloads.
//
// parallel_nnp: 2x2x2 ranks over 32^3 cells, NNP on the simulated CPE
// grid (the CLI's parallel production path) at r_cut 6.5 A, 32 vacancies,
// recovery on, no checkpoints, sequential backend. SunwayEnergyModel is
// not safe for concurrent dispatch, so rank threads would only queue on
// the engine's model mutex.
//
// parallel_eam_ckpt: 2x2x1 ranks over 32^3 cells, EAM at r_cut 4.0 A,
// 16 vacancies, coordinated delta checkpoints every cycle. Energy work is
// small, so the halo and the checkpoint commit dominate; after the timed
// phase the run resumes committed epochs into fresh engines. It is timed
// on the sequential backend: on a shared 4-vCPU host the threaded
// backend's four rank threads meet at a barrier several times per cycle,
// and in slow stretches that halved their rate from one run to the next.
// The threaded backend still runs, untimed, in a correctness check.
//
// As in serial_nnp, a run is a fixed number of rounds, each a fresh
// configuration drawn from (seed, round): events per cycle depend on the
// configuration (fast-hopping vacancy clusters), so one configuration
// per run would make events/s a property of the seed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/telemetry/telemetry.hpp"
#include "core/simulation.hpp"
#include "counting_model.hpp"
#include "parallel/parallel_engine.hpp"
#include "sunway/sunway_energy_model.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace tkmc;
namespace fs = std::filesystem;

struct Spec {
  const char* name;
  int cells;
  double cutoff;
  int vacancies;
  bool nnp;  // NNP on the simulated CPE grid; EAM otherwise
  Vec3i rankGrid;
  bool threaded;
  bool checkpoints;  // delta epochs every cycle
  int roundCycles;   // timed cycles per round
  double roundsPerSecond;
  int tracedRounds;
};

constexpr Spec kParallelNnp{"parallel_nnp", 32, kNnpCutoff, 32, true,
                            {2, 2, 2}, false, false, 8, 1.5, 3};
constexpr Spec kParallelEamCkpt{"parallel_eam_ckpt", 32, 4.0, 16, false,
                                {2, 2, 1}, false, true, 16, 6.0, 8};
constexpr int kResumes = 5;
constexpr int kSampledSystems = 8;

/// One set-up round. Members are declared in dependency order so that the
/// engine is destroyed before the models and the facade it refers to.
struct Round {
  std::unique_ptr<Simulation> sim;
  std::unique_ptr<SunwayEnergyModel> sunway;
  std::unique_ptr<CountingModel> model;
  std::unique_ptr<ParallelEngine> engine;

  /// The unwrapped backend the engine evaluates through the wrapper.
  EnergyModel& backend() const {
    return sunway ? static_cast<EnergyModel&>(*sunway) : sim->model();
  }
};

SimulationConfig simulationConfig(const Spec& spec, const Options& opts,
                                  int round) {
  SimulationConfig sc;
  sc.cells = spec.cells;
  sc.cutoff = spec.cutoff;
  sc.vacancyCount = spec.vacancies;
  sc.cuFraction = 0.0134;
  sc.temperature = 573.0;
  sc.seed = roundSeed(opts.seed, static_cast<std::uint64_t>(round));
  if (spec.nnp) {
    sc.potential = SimulationConfig::Potential::kNnp;
    sc.modelPath = opts.modelPath;
    sc.channels = {64, 32, 32, 1};
  } else {
    sc.potential = SimulationConfig::Potential::kEam;
  }
  return sc;
}

ParallelConfig parallelConfig(const Spec& spec, const SimulationConfig& sc,
                              const std::string& checkpointDir) {
  ParallelConfig pc;
  pc.temperature = sc.temperature;
  pc.seed = sc.seed ^ 0x9a11e1ULL;
  pc.rankGrid = spec.rankGrid;
  pc.threaded = spec.threaded;
  pc.enableRecovery = true;
  pc.checkpointDir = checkpointDir;
  pc.checkpointCadence = 1;
  pc.checkpointMode = CheckpointMode::kDelta;
  return pc;
}

/// Builds round `round`, checkpointing into `checkpointDir` when it is not
/// empty. `wrap` false runs the engine on the bare backend.
std::unique_ptr<Round> buildRound(const Spec& spec, const Options& opts,
                                  int round, const std::string& checkpointDir,
                                  bool wrap, double& simBuildSeconds,
                                  double& engineSeconds) {
  const SimulationConfig sc = simulationConfig(spec, opts, round);
  auto r = std::make_unique<Round>();
  auto start = Clock::now();
  r->sim = std::make_unique<Simulation>(sc);
  simBuildSeconds = secondsSince(start);
  if (spec.nnp)
    r->sunway = std::make_unique<SunwayEnergyModel>(
        r->sim->cet(), r->sim->net(), *r->sim->featureTable(), *r->sim->network());
  r->model = std::make_unique<CountingModel>(r->backend());
  EnergyModel& model = wrap ? static_cast<EnergyModel&>(*r->model) : r->backend();
  start = Clock::now();
  r->engine = std::make_unique<ParallelEngine>(
      r->sim->state(), model, r->sim->cet(), parallelConfig(spec, sc, checkpointDir));
  engineSeconds = secondsSince(start);
  return r;
}

void runParallel(const Spec& spec, const Options& opts, Report& report) {
  if (spec.nnp)
    require(fs::exists(opts.modelPath), std::string(spec.name) +
                                            " needs trained weights (--model)");
  const std::string ckptDir =
      spec.checkpoints ? (fs::path(opts.workdir) / "ckpt").string() : "";

  // --- timed phase: whole rounds, each a fresh configuration set up from
  // an empty checkpoint directory and run for a fixed number of cycles.
  std::vector<double> setupTimes, simBuildTimes, engineTimes, cycleMs,
      epochKb, gauges, residentMbs;
  double timed = 0.0, nominal = 0.0, energyBusy = 0.0;
  std::uint64_t events = 0, discarded = 0, commBytes = 0, commMsgs = 0,
                retries = 0, systems = 0, batches = 0;
  Traffic traffic;
  bool conserved = true, ghosts = true;
  std::uint32_t firstRoundHash = 0;
  std::uint64_t firstRoundEvents = 0, firstRoundSystems = 0;
  std::unique_ptr<Round> round;
  const int rounds = roundsFor(opts.seconds, spec.roundsPerSecond);
  // Round -1 is an untimed warm-up on round 0's configuration.
  for (int r = -1; r < rounds; ++r) {
    round.reset();
    releaseFreeHeap();
    // Each round starts from an empty checkpoint directory; clearing the
    // previous round's epochs is not set-up work.
    if (spec.checkpoints) fs::remove_all(ckptDir);
    double simBuild = 0.0, engineBuild = 0.0;
    const double gaugeBefore = hostGaugeMs(kSetupGaugePasses);
    const auto setupStart = Clock::now();
    round = buildRound(spec, opts, std::max(r, 0), ckptDir, true, simBuild, engineBuild);
    const double setupWall = secondsSince(setupStart);
    if (r < 0) {
      for (int i = 0; i < spec.roundCycles; ++i) round->engine->runCycle();
      continue;
    }
    const double gaugeReady = hostGaugeMs(kSetupGaugePasses);
    setupTimes.push_back(nominalSeconds(setupWall, 0.5 * (gaugeBefore + gaugeReady)));
    simBuildTimes.push_back(simBuild);
    engineTimes.push_back(engineBuild);
    ParallelEngine& engine = *round->engine;
    if (round->sunway) (void)round->sunway->collectTraffic();  // drop model load

    double roundTime = 0.0, roundGauge = 0.0;
    for (int i = 0; i < spec.roundCycles; ++i) {
      const auto t0 = Clock::now();
      engine.runCycle();
      const double s = secondsSince(t0);
      roundTime += s;
      cycleMs.push_back(s * 1e3);
      gauges.push_back(hostGaugeMs(1));
      roundGauge += gauges.back();
      if (spec.checkpoints) {
        // commitEpoch renames a finished staging directory into place, so
        // the epoch's directory exists only once the epoch is committed.
        const std::string epoch = engine.checkpointStore()->epochPath(engine.cycles());
        if (fs::exists(epoch))
          epochKb.push_back(static_cast<double>(directoryBytes(epoch)) / 1024.0);
      }
    }
    timed += roundTime;
    nominal += nominalSeconds(roundTime, roundGauge / spec.roundCycles);
    residentMbs.push_back(residentMb());

    events += engine.totalEvents();
    discarded += engine.discardedEvents();
    commBytes += engine.comm().totalBytesSent();
    commMsgs += engine.comm().totalMessagesSent();
    const RecoveryStats rs = engine.recoveryStats();
    retries += rs.ghostRetries + rs.foldRetries + rs.rollbacks;
    systems += round->model->systems();
    batches += round->model->batches();
    energyBusy += round->model->busySeconds();
    if (round->sunway) traffic += round->sunway->grid().peekTraffic();
    const LatticeState final = engine.assembleGlobalState();
    conserved = conserved && countsConserved(final, round->sim->state());
    ghosts = ghosts && engine.ghostsConsistent();
    if (r == 0) {
      firstRoundHash = final.contentHash();
      firstRoundEvents = engine.totalEvents();
      firstRoundSystems = round->model->systems();
    }
  }
  const double cycles = static_cast<double>(cycleMs.size());
  report.succeeded(cycleMs.size());

  report.endToEnd("events_per_s", static_cast<double>(events) / nominal, "1/s");
  report.endToEnd("setup_s", median(setupTimes), "s");
  report.endToEnd("rss_mb", median(residentMbs), "MB");
  report.layer("core.sim_build_s", median(simBuildTimes), "s");
  report.layer("parallel.build_s", median(engineTimes), "s");
  report.layer("energy.systems", static_cast<double>(systems), "count");
  report.layer("energy.batches", static_cast<double>(batches), "count");
  report.layer("energy.busy_s", energyBusy, "s");
  report.layer("energy.us_per_system",
               systems ? energyBusy * 1e6 / static_cast<double>(systems) : 0.0, "us");
  if (spec.nnp && systems > 0) {
    report.layer("sunway.flops",
                 static_cast<double>(traffic.flops) / static_cast<double>(systems),
                 "flop/sys");
    report.layer("sunway.main_bytes",
                 static_cast<double>(traffic.mainBytes()) / static_cast<double>(systems),
                 "B/sys");
  }
  report.layer("parallel.cycle_p50_ms", median(cycleMs), "ms");
  report.layer("parallel.comm_bytes_per_cycle", static_cast<double>(commBytes) / cycles, "B");
  report.layer("parallel.comm_msgs_per_cycle", static_cast<double>(commMsgs) / cycles,
               "count");
  report.layer("parallel.useful_event_ratio",
               events + discarded
                   ? static_cast<double>(events) / static_cast<double>(events + discarded)
                   : 1.0,
               "ratio");
  report.layer("parallel.retries", static_cast<double>(retries), "count");
  report.layer("host.gauge_ms", median(gauges), "ms");
  report.layer("host.wall_events_per_s", static_cast<double>(events) / timed, "1/s");
  std::printf("%s: %llu events in %.0f timed cycles over %d rounds, %.3f s wall, "
              "%.3f s host-normalised (%.2f events/s, %.2f per wall second), "
              "set-up %.4f s, resident %.1f MB, gauge median %.4f ms\n",
              spec.name, static_cast<unsigned long long>(events), cycles, rounds,
              timed, nominal, static_cast<double>(events) / nominal,
              static_cast<double>(events) / timed, median(setupTimes),
              median(residentMbs), median(gauges));

  // --- checks, each independent of the fast path it judges.
  report.check(conserved, "Fe, Cu and vacancy counts conserved");
  report.check(ghosts, "ghostsConsistent() at the end of every round");

  if (spec.nnp) {
    // Single-precision CPE-grid energies against the double-precision
    // NNP backend, on vacancy systems of the last round's final state.
    // Tolerance: the repo's float-vs-double bound, 1e-4 relative
    // (absolute below 1 eV).
    const LatticeState final = round->engine->assembleGlobalState();
    int bad = 0, sampled = 0;
    for (const Vec3i& vac : final.vacancies()) {
      if (sampled == kSampledSystems) break;
      ++sampled;
      const Vec3i center = final.lattice().wrap(vac);
      const auto f = round->sunway->stateEnergies(final, center, kNumJumpDirections);
      const auto d = round->sim->model().stateEnergies(final, center, kNumJumpDirections);
      for (std::size_t s = 0; s < d.size(); ++s)
        if (std::abs(f[s] - d[s]) > 1e-4 * std::max(1.0, std::abs(d[s]))) ++bad;
    }
    report.check(bad == 0 && sampled > 0,
                 "CPE-grid float energies match double NNP within 1e-4");
  }

  if (spec.checkpoints) {
    ParallelEngine& engine = *round->engine;
    const double committed = static_cast<double>(epochKb.size());
    report.layer("ckpt.epochs", committed, "count");
    double totalKb = 0.0;
    for (double kb : epochKb) totalKb += kb;
    report.layer("ckpt.kb_per_epoch", committed > 0 ? totalKb / committed : 0.0, "KB");

    const CheckpointStore store(ckptDir);
    bool allValid = true;
    const std::vector<std::uint64_t> kept = store.epochs();
    for (std::uint64_t e : kept) allValid = allValid && store.chainValid(e);
    report.check(allValid && !kept.empty(), "every kept epoch validates");

    // Repeated resumes of the newest epoch: validation, then construction
    // of the resumed engine (which resolves the delta chain itself).
    // Shard resolution is also timed on its own for the ledger.
    const ParallelConfig resumeConfig =
        parallelConfig(spec, simulationConfig(spec, opts, rounds - 1), "");
    std::vector<double> resumeS, validateMs, resolveMs, engineMs;
    bool newestOk = true;
    for (int i = 0; i < kResumes; ++i) {
      auto start = Clock::now();
      const CheckpointStore probe(ckptDir);
      const std::optional<std::uint64_t> newest = probe.newestCompleteEpoch();
      const double validate = secondsSince(start);
      if (!newest || *newest != engine.cycles()) {
        newestOk = false;
        break;
      }
      start = Clock::now();
      const ParallelEngine resumed(round->backend(), round->sim->cet(), resumeConfig,
                                   probe, *newest);
      const double construct = secondsSince(start);
      start = Clock::now();
      (void)probe.resolveShards(*newest);
      resolveMs.push_back(secondsSince(start) * 1e3);
      resumeS.push_back(validate + construct);
      validateMs.push_back(validate * 1e3);
      engineMs.push_back(construct * 1e3);
      report.succeeded(1);
    }
    report.check(newestOk, "newest complete epoch is the last committed one");
    report.layer("ckpt.resume_s", median(resumeS), "s");
    report.layer("ckpt.validate_ms", median(validateMs), "ms");
    report.layer("ckpt.resolve_ms", median(resolveMs), "ms");
    report.layer("ckpt.engine_resume_ms", median(engineMs), "ms");

    // The last resume starts from a kept epoch mid-chain and runs on to
    // the uninterrupted run's horizon.
    bool horizonOk = false;
    if (!kept.empty()) {
      const std::uint64_t from = kept[kept.size() / 2];
      ParallelEngine resumed(round->backend(), round->sim->cet(), resumeConfig, store,
                             from);
      while (resumed.cycles() < engine.cycles()) resumed.runCycle();
      report.succeeded(1);
      std::printf("resumed epoch %llu (one of %zu kept), ran on to cycle %llu\n",
                  static_cast<unsigned long long>(from), kept.size(),
                  static_cast<unsigned long long>(resumed.cycles()));
      horizonOk = resumed.assembleGlobalState().contentHash() ==
                      engine.assembleGlobalState().contentHash() &&
                  resumed.totalEvents() == engine.totalEvents();
    }
    report.check(horizonOk,
                 "resumed run reaches the horizon with the same hash and events");
  }
  round.reset();

  {
    // The wrapper must not change the trajectory: round 0 on the bare
    // backend, without checkpoints, reaches the same state.
    double unused = 0.0;
    const std::unique_ptr<Round> plain =
        buildRound(spec, opts, 0, "", false, unused, unused);
    for (int i = 0; i < spec.roundCycles; ++i) plain->engine->runCycle();
    report.check(plain->engine->assembleGlobalState().contentHash() == firstRoundHash &&
                     plain->engine->totalEvents() == firstRoundEvents,
                 "wrapped and unwrapped runs end with the same contentHash");
    if (!spec.threaded && plain->backend().concurrentDispatchSafe()) {
      // Round 0 again with one thread per rank, whose trajectory matches
      // the sequential backend's by design: the same final state, and the
      // wrapper's counters, bumped from the rank threads at once, count
      // the same vacancy systems.
      Spec threadedSpec = spec;
      threadedSpec.threaded = true;
      const std::unique_ptr<Round> threaded =
          buildRound(threadedSpec, opts, 0, "", true, unused, unused);
      for (int i = 0; i < spec.roundCycles; ++i) threaded->engine->runCycle();
      report.check(
          threaded->engine->assembleGlobalState().contentHash() == firstRoundHash &&
              threaded->engine->totalEvents() == firstRoundEvents &&
              threaded->model->systems() == firstRoundSystems,
          "threaded run matches the sequential one, wrapper counts included");
    }
  }

  if (!opts.trace) return;

  // --- traced run: the first rounds again, each run untraced and then
  // with telemetry on during its cycles, back to back so that host drift
  // does not enter the overhead.
  const std::string tracedDir =
      spec.checkpoints ? (fs::path(opts.workdir) / "ckpt_traced").string() : "";
  telemetry::resetAll();
  telemetry::tracer().setCapacity(1u << 21);
  double tracedWall = 0.0, untracedWall = 0.0;
  int rankCount = 1;
  for (int r = 0; r < std::min(spec.tracedRounds, rounds); ++r) {
    for (const bool on : {false, true}) {
      double unused = 0.0;
      if (spec.checkpoints) fs::remove_all(tracedDir);
      const std::unique_ptr<Round> traced =
          buildRound(spec, opts, r, tracedDir, true, unused, unused);
      rankCount = traced->engine->rankCount();
      const telemetry::ScopedEnable enable(on);
      double wall = 0.0;
      for (int i = 0; i < spec.roundCycles; ++i) {
        const auto t0 = Clock::now();
        traced->engine->runCycle();
        wall += secondsSince(t0);
      }
      (on ? tracedWall : untracedWall) += wall;
    }
  }
  const SpanTotals spans = collectSpans();
  printSpans(spans, tracedWall);
  if (telemetry::tracer().dropped() > 0)
    std::printf("tracer dropped %llu events\n",
                static_cast<unsigned long long>(telemetry::tracer().dropped()));
  double rankSectorSum = 0.0;
  const auto lanes = spans.perLane.find("engine.sector");
  if (lanes != spans.perLane.end())
    for (const auto& [lane, s] : lanes->second) rankSectorSum += s;
  const double sectors = spans.get("engine.sectors");
  report.layer("parallel.sectors_s", sectors, "s");
  report.layer("parallel.sector_wait_s", sectors - rankSectorSum / rankCount, "s");
  report.layer("parallel.ghost_s", spans.get("engine.ghost_exchange"), "s");
  report.layer("parallel.fold_s", spans.get("engine.fold"), "s");
  report.layer("parallel.snapshot_s", spans.get("engine.snapshot"), "s");
  if (spec.checkpoints) report.layer("ckpt.commit_s", spans.get("engine.checkpoint"), "s");
  if (spec.nnp) {
    report.layer("sunway.feature_s", spans.get("sunway.feature_batch"), "s");
    report.layer("sunway.forward_s", spans.get("sunway.bigfusion_forward"), "s");
  }
  const double covered = spans.get("engine.snapshot") + spans.get("engine.invariants") +
                         sectors + spans.get("engine.fold") +
                         spans.get("engine.ghost_exchange") +
                         spans.get("engine.checkpoint");
  report.layer("trace.overhead_pct", 100.0 * (tracedWall / untracedWall - 1.0), "%");
  report.layer("trace.uncovered_pct", 100.0 * (1.0 - covered / tracedWall), "%");
}

}  // namespace

void runParallelNnp(const Options& opts, Report& report) {
  runParallel(kParallelNnp, opts, report);
}

void runParallelEamCheckpoint(const Options& opts, Report& report) {
  runParallel(kParallelEamCkpt, opts, report);
}

}  // namespace perfbench
