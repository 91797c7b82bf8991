// serial_nnp: the serial AKMC engine on the tabulated NNP at r_cut 6.5 A,
// 20^3 cells, 1.34 at.% Cu, 16 vacancies, 573 K. The feature + NNP
// refresh dominates the step, and no rank, halo or checkpoint code runs.
//
// A run is whole rounds. Each round draws a fresh configuration from
// (seed, round), sets it up, and times a fixed number of events on it.
// The cost of an event depends on how many vacancy systems the hop leaves
// dirty, which varies from one configuration to the next by a factor of
// two; averaging over many rounds keeps events/s a property of the code.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/telemetry/telemetry.hpp"
#include "core/simulation.hpp"
#include "counting_model.hpp"
#include "kmc/direct_energy_model.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace tkmc;

constexpr int kRoundEvents = 16;   // timed events per round
constexpr double kRoundsPerSecond = 3.3;
constexpr int kReplayEvents = 12;  // prefix replayed on the reference path
// Tabulated against direct NNP energies, and the tree's summation order
// against a plain sum: both round differently, by far less than this.
constexpr double kRateTolerance = 1e-9;
constexpr int kTracedRounds = 6;

struct Event {
  Vec3i from;
  Vec3i to;
  double totalRate;  // R, the total propensity the event was drawn from
  double dtTimesRate;
};

SimulationConfig simulationConfig(const Options& opts, int round) {
  SimulationConfig sc;
  sc.cells = 20;
  sc.cutoff = kNnpCutoff;
  sc.vacancyCount = 16;
  sc.cuFraction = 0.0134;
  sc.temperature = 573.0;
  sc.seed = roundSeed(opts.seed, static_cast<std::uint64_t>(round));
  sc.potential = SimulationConfig::Potential::kNnp;
  sc.modelPath = opts.modelPath;
  sc.channels = {64, 32, 32, 1};
  return sc;
}

KmcConfig engineConfig(const SimulationConfig& sc, bool cache) {
  KmcConfig kc;
  kc.temperature = sc.temperature;
  kc.tEnd = 1e300;
  kc.useVacancyCache = cache;
  return kc;
}

/// One set-up round: the Simulation facade builds lattice, tables and
/// weights; the timed engine runs over a copy of its initial state with
/// the counting wrapper around the facade's own energy model. The
/// facade's engine and state stay untouched, as the unwrapped reference.
/// Members are declared in dependency order.
struct Round {
  std::unique_ptr<Simulation> sim;
  std::unique_ptr<CountingModel> model;
  std::unique_ptr<LatticeState> state;
  std::unique_ptr<SerialEngine> engine;
  std::vector<Event> events;
};

Event record(const SerialEngine& engine, const SerialEngine::StepResult& r) {
  if (!r.advanced) throw Error("serial_nnp: no event possible");
  // After step() the tree still holds the total the event was drawn from.
  const double total = engine.totalPropensity();
  return {r.from, r.to, total, r.dt * total};
}

/// Builds a round and executes its first event, whose refresh evaluates
/// every vacancy system (the initial propensity build).
std::unique_ptr<Round> buildRound(const SimulationConfig& sc,
                                  double& simBuildSeconds) {
  auto round = std::make_unique<Round>();
  const auto start = Clock::now();
  round->sim = std::make_unique<Simulation>(sc);
  simBuildSeconds = secondsSince(start);
  round->model = std::make_unique<CountingModel>(round->sim->model());
  round->state = std::make_unique<LatticeState>(round->sim->state());
  round->engine = std::make_unique<SerialEngine>(
      *round->state, *round->model, round->sim->cet(), engineConfig(sc, true));
  // Continue the facade's RNG stream so both engines select the same events.
  round->engine->restore(round->sim->engine().checkpoint());
  round->events.push_back(record(*round->engine, round->engine->step()));
  return round;
}

bool isFirstNeighborHop(const BccLattice& lattice, Vec3i from, Vec3i to) {
  for (const Vec3i& offset : BccLattice::firstNeighborOffsets())
    if (lattice.wrap(from + offset) == lattice.wrap(to)) return true;
  return false;
}

/// Total propensity of `state` by the rate law of Eqs. 1-2, written out
/// here on energies from the direct lattice-walking NNP: no VET, vacancy
/// cache, rate calculator or propensity tree of the engine is involved.
double independentTotalRate(const LatticeState& state, DirectEnergyModel& direct,
                            double temperature) {
  const double kt = kBoltzmannEv * temperature;
  const auto& jumps = BccLattice::firstNeighborOffsets();
  double total = 0.0;
  for (const Vec3i& v : state.vacancies()) {
    const std::vector<double> e = direct.stateEnergies(state, v, kNumJumpDirections);
    for (int k = 0; k < kNumJumpDirections; ++k) {
      const Species migrating = state.speciesAt(v + jumps[static_cast<std::size_t>(k)]);
      if (migrating == Species::kVacancy) continue;
      const double barrier = std::max(
          referenceActivation(migrating) + 0.5 * (e[static_cast<std::size_t>(k) + 1] - e[0]),
          0.0);
      total += kAttemptFrequency * std::exp(-barrier / kt);
    }
  }
  return total;
}

/// Replays a round's hops on a vacancy set of our own: each hop must leave
/// a vacancy site for one of its eight first neighbours that held no
/// vacancy, and the replayed set must match the engine's at the end.
bool hopsValid(const Round& round) {
  const BccLattice& lattice = round.state->lattice();
  std::unordered_set<Vec3i, Vec3iHash> vacancies;
  for (const Vec3i& v : round.sim->state().vacancies())
    vacancies.insert(lattice.wrap(v));
  for (const Event& e : round.events) {
    const Vec3i from = lattice.wrap(e.from), to = lattice.wrap(e.to);
    if (!isFirstNeighborHop(lattice, from, to) || vacancies.erase(from) != 1 ||
        !vacancies.insert(to).second)
      return false;
  }
  std::unordered_set<Vec3i, Vec3iHash> engineVacancies;
  for (const Vec3i& v : round.state->vacancies())
    engineVacancies.insert(lattice.wrap(v));
  return vacancies == engineVacancies;
}

}  // namespace

void runSerialNnp(const Options& opts, Report& report) {
  require(std::filesystem::exists(opts.modelPath),
          "serial_nnp needs trained weights (--model)");
  std::vector<double> setupTimes, simBuildTimes, stepMs, gauges, residentMbs;
  std::vector<Event> firstRoundEvents;
  std::uint32_t firstRoundHash = 0;
  double timed = 0.0, nominal = 0.0, energyBusy = 0.0, dtRSum = 0.0;
  std::uint64_t systems = 0, batches = 0, cacheHits = 0, cacheMisses = 0,
                dtRCount = 0;
  bool conserved = true, hops = true;
  double bytesPerSite = 0.0;
  std::unique_ptr<Round> round;
  const int rounds = roundsFor(opts.seconds, kRoundsPerSecond);
  // Round -1 is an untimed warm-up on round 0's configuration.
  for (int r = -1; r < rounds; ++r) {
    round.reset();
    releaseFreeHeap();
    double simBuild = 0.0;
    const double gaugeBefore = hostGaugeMs(kSetupGaugePasses);
    const auto setupStart = Clock::now();
    round = buildRound(simulationConfig(opts, std::max(r, 0)), simBuild);
    const double setupWall = secondsSince(setupStart);
    if (r < 0) {
      for (int i = 0; i < kRoundEvents; ++i) round->engine->step();
      continue;
    }
    const double gaugeReady = hostGaugeMs(kSetupGaugePasses);
    setupTimes.push_back(nominalSeconds(setupWall, 0.5 * (gaugeBefore + gaugeReady)));
    simBuildTimes.push_back(simBuild);
    const double busyBefore = round->model->busySeconds();
    const std::uint64_t systemsBefore = round->model->systems();
    const std::uint64_t batchesBefore = round->model->batches();

    double roundWall = 0.0, roundGauge = 0.0;
    for (int i = 0; i < kRoundEvents; ++i) {
      const auto t0 = Clock::now();
      const SerialEngine::StepResult step = round->engine->step();
      const double s = secondsSince(t0);
      roundWall += s;
      stepMs.push_back(s * 1e3);
      round->events.push_back(record(*round->engine, step));
      gauges.push_back(hostGaugeMs(1));
      roundGauge += gauges.back();
    }
    timed += roundWall;
    nominal += nominalSeconds(roundWall, roundGauge / kRoundEvents);
    residentMbs.push_back(residentMb());

    energyBusy += round->model->busySeconds() - busyBefore;
    systems += round->model->systems() - systemsBefore;
    batches += round->model->batches() - batchesBefore;
    cacheHits += round->engine->cache().hitCount();
    cacheMisses += round->engine->cache().missCount();
    for (const Event& e : round->events) dtRSum += e.dtTimesRate;
    dtRCount += round->events.size();
    conserved = conserved && countsConserved(*round->state, round->sim->state());
    hops = hops && hopsValid(*round);
    bytesPerSite = round->state->store().bytesPerSite();
    if (r == 0) {
      firstRoundEvents = round->events;
      firstRoundHash = round->state->contentHash();
    }
  }
  round.reset();
  const std::uint64_t timedEvents = stepMs.size();
  report.succeeded(timedEvents);

  const double events = static_cast<double>(timedEvents);
  report.endToEnd("events_per_s", events / nominal, "1/s");
  report.endToEnd("setup_s", median(setupTimes), "s");
  report.endToEnd("rss_mb", median(residentMbs), "MB");
  report.layer("core.sim_build_s", median(simBuildTimes), "s");
  report.layer("energy.systems", static_cast<double>(systems), "count");
  report.layer("energy.batches", static_cast<double>(batches), "count");
  report.layer("energy.busy_s", energyBusy, "s");
  report.layer("energy.us_per_system",
               systems ? energyBusy * 1e6 / static_cast<double>(systems) : 0.0,
               "us");
  report.layer("kmc.step_p50_ms", median(stepMs), "ms");
  report.layer("kmc.engine_self_s", timed - energyBusy, "s");
  report.layer("kmc.cache.hit_rate",
               cacheHits + cacheMisses
                   ? static_cast<double>(cacheHits) /
                         static_cast<double>(cacheHits + cacheMisses)
                   : 0.0,
               "ratio");
  report.layer("lattice.bytes_per_site", bytesPerSite, "B");
  report.layer("host.gauge_ms", median(gauges), "ms");
  report.layer("host.wall_events_per_s", events / timed, "1/s");
  std::printf("serial_nnp: %.0f timed events over %d rounds in %.3f s wall, "
              "%.3f s host-normalised (%.2f events/s, %.2f per wall second), "
              "set-up %.3f s, resident %.1f MB, gauge median %.4f ms\n",
              events, rounds, timed, nominal, events / nominal, events / timed,
              median(setupTimes), median(residentMbs), median(gauges));

  // --- checks, each independent of the fast path it judges.
  report.check(conserved, "Fe, Cu and vacancy counts conserved");
  report.check(hops, "every event is a vacancy hop to a 1NN site");

  // Eq. 3: dt is exponential with rate R, so dt*R has mean 1 and standard
  // error 1/sqrt(n). R is the engine's own total, so this judges the
  // residence-time draw; the replay below checks R itself.
  const double n = static_cast<double>(dtRCount);
  const double meanDtR = dtRSum / n;
  std::printf("mean dt*R over %llu events: %.4f (standard error %.4f)\n",
              static_cast<unsigned long long>(dtRCount), meanDtR,
              1.0 / std::sqrt(n));
  report.check(std::abs(meanDtR - 1.0) < 4.5 / std::sqrt(n),
               "mean dt*R within 4.5 standard errors of 1");

  // Round 0 again from scratch, for the reference paths.
  double unused = 0.0;
  const SimulationConfig sc0 = simulationConfig(opts, 0);
  const std::unique_ptr<Round> again = buildRound(sc0, unused);
  {
    // Fig. 8 reference path: direct lattice-walking NNP, no vacancy cache.
    LatticeState directState = again->sim->state();
    DirectEnergyModel direct(sc0.latticeConstant, sc0.cutoff, *again->sim->network());
    SerialEngine reference(directState, direct, again->sim->cet(),
                           engineConfig(sc0, false));
    reference.restore(again->sim->engine().checkpoint());
    bool same = true;
    double worstRateError = 0.0;
    for (int i = 0; i < kReplayEvents; ++i) {
      const Event& timedEvent = firstRoundEvents[static_cast<std::size_t>(i)];
      const double rate = independentTotalRate(directState, direct, sc0.temperature);
      worstRateError = std::max(
          worstRateError, std::abs(timedEvent.totalRate - rate) / rate);
      const SerialEngine::StepResult s = reference.step();
      same = same && s.from == timedEvent.from && s.to == timedEvent.to;
    }
    report.check(same, "direct-NNP, cache-off replay selects identical events");
    std::printf("engine R vs independent rate sum over %d events: worst relative "
                "error %.3g\n", kReplayEvents, worstRateError);
    report.check(worstRateError < kRateTolerance,
                 "engine total propensity matches the independent rate sum");
  }
  // The wrapper must not change the trajectory: the facade's own engine,
  // on the unwrapped model, reaches the same state after round 0's events.
  for (std::size_t i = 0; i < firstRoundEvents.size(); ++i) again->sim->engine().step();
  report.check(again->sim->state().contentHash() == firstRoundHash,
               "wrapped and unwrapped runs end with the same contentHash");

  if (!opts.trace) return;

  // --- traced run: the first rounds again, each run untraced and then
  // with telemetry on during its timed events, back to back so that host
  // drift does not enter the overhead.
  telemetry::resetAll();
  telemetry::tracer().setCapacity(1u << 20);
  double tracedWall = 0.0, untracedWall = 0.0;
  for (int r = 0; r < std::min(kTracedRounds, rounds); ++r) {
    for (const bool on : {false, true}) {
      double simBuild = 0.0;
      const std::unique_ptr<Round> traced =
          buildRound(simulationConfig(opts, r), simBuild);
      const telemetry::ScopedEnable enable(on);
      const auto start = Clock::now();
      for (int i = 0; i < kRoundEvents; ++i) traced->engine->step();
      (on ? tracedWall : untracedWall) += secondsSince(start);
    }
  }
  const SpanTotals spans = collectSpans();
  printSpans(spans, tracedWall);
  const double covered = spans.get("kmc.refresh") + spans.get("kmc.step");
  report.layer("trace.overhead_pct", 100.0 * (tracedWall / untracedWall - 1.0), "%");
  report.layer("trace.uncovered_pct", 100.0 * (1.0 - covered / tracedWall), "%");
}

}  // namespace perfbench
