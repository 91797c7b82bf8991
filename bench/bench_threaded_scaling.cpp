// Measured strong/weak scaling of the threaded rank backend versus the
// in-process sequential driver, at 1/2/4/8 ranks.
//
// Until now the repo's scalability story (bench_fig12/13) came entirely
// from the analytic ScalingModel. With ranks promoted to real OS
// threads this bench measures actual wall time and demotes the model to
// a cross-check: its predicted strong-scaling curve is reported next to
// the measured one so a drift between them is visible in the metrics.
//
// The container CI floor has a single CPU, where a >= 2.5x speedup at 4
// ranks is physically impossible, so the bench self-gates on the
// detected core count: with >= 4 cores the 2.5x acceptance is enforced;
// below that the acceptance degrades to (a) threaded trajectories stay
// bit-identical to sequential ones on every grid — the determinism
// contract — and (b) the threading machinery's overhead stays bounded
// (threaded wall time <= 5x sequential on the same deck). Timing gauges
// are excluded from the bench gate via tolerances.json; the determinism
// and acceptance gauges are compared exactly. The delta halo's bytes per
// cycle (strong.halo_bytes_per_cycle.*) repeat exactly for the fixed
// deck and are gated by the gauges.bench.*bytes* rule.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table_writer.hpp"
#include "common/telemetry/telemetry.hpp"
#include "kmc/eam_energy_model.hpp"
#include "parallel/parallel_engine.hpp"
#include "parallel/scaling_model.hpp"

using namespace tkmc;

namespace {

constexpr double kCutoff = 4.0;
constexpr double kTStop = 5e-8;
constexpr int kCycles = 8;  // one full sector rotation
constexpr int kReps = 3;    // timed repetitions; min taken

struct GridPoint {
  const char* tag;
  Vec3i grid;
};

constexpr GridPoint kGrids[] = {
    {"p1", {1, 1, 1}},
    {"p2", {2, 1, 1}},
    {"p4", {2, 2, 1}},
    {"p8", {2, 2, 2}},
};

struct Measurement {
  double seqSeconds = 0.0;
  double thrSeconds = 0.0;
  std::uint64_t events = 0;
  double haloBytesPerCycle = 0.0;  // delta-halo traffic, same on both backends
  bool identical = false;  // threaded trajectory == sequential trajectory
};

/// Runs the deck once per backend per repetition, timing runCycle() and
/// comparing the final trajectories bit-for-bit.
Measurement measure(Vec3i globalCells, std::int64_t vacancies, Vec3i grid) {
  Measurement m;
  m.seqSeconds = 1e300;
  m.thrSeconds = 1e300;
  std::uint32_t seqHash = 0, thrHash = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const bool threaded : {false, true}) {
      Cet cet(2.87, kCutoff);
      Net net(cet);
      EamPotential eam(kCutoff);
      BccLattice lattice(globalCells.x, globalCells.y, globalCells.z, 2.87);
      LatticeState state(lattice);
      Rng rng(4242);
      state.randomAlloy(0.12, vacancies, rng);
      EamEnergyModel model(cet, net, eam);
      ParallelConfig cfg;
      cfg.seed = 71;
      cfg.tStop = kTStop;
      cfg.rankGrid = grid;
      cfg.threaded = threaded;
      ParallelEngine engine(state, model, cet, cfg);
      Stopwatch watch;
      for (int c = 0; c < kCycles; ++c) engine.runCycle();
      const double seconds = watch.seconds();
      if (threaded) {
        m.thrSeconds = std::min(m.thrSeconds, seconds);
        thrHash = engine.assembleGlobalState().contentHash();
      } else {
        m.seqSeconds = std::min(m.seqSeconds, seconds);
        seqHash = engine.assembleGlobalState().contentHash();
      }
      m.events = engine.totalEvents();
      m.haloBytesPerCycle =
          static_cast<double>(engine.haloBytesSent()) / kCycles;
    }
  }
  m.identical = seqHash == thrHash;
  return m;
}

}  // namespace

int main() {
  const int hostCores = std::max(1u, std::thread::hardware_concurrency());

  // Strong scaling: a fixed 16^3-cell box split across 1..8 ranks.
  // Weak scaling: a fixed 16^3 cells *per rank* (vacancies scale along).
  std::vector<Measurement> strong, weak;
  for (const GridPoint& g : kGrids)
    strong.push_back(measure({16, 16, 16}, 8, g.grid));
  for (const GridPoint& g : kGrids) {
    const int ranks = g.grid.x * g.grid.y * g.grid.z;
    weak.push_back(measure({16 * g.grid.x, 16 * g.grid.y, 16 * g.grid.z},
                           2 * ranks, g.grid));
  }

  // Analytic cross-check: the model's strong-scaling curve for the same
  // rank counts (machine constants differ, but the *shape* — who wins,
  // where efficiency falls off — should track the measurement on real
  // parallel hardware).
  ScalingModel modelRef;
  const double totalAtoms = 2.0 * 16 * 16 * 16;
  const std::vector<ScalingPoint> predicted =
      modelRef.strongScaling(totalAtoms, {1, 2, 4, 8}, kCycles * kTStop);

  bool accepted = true;
  TableWriter out({"ranks", "strong seq s", "strong thr s", "speedup",
                   "model speedup", "weak thr s", "weak eff", "bit-identical"});
  telemetry::ScopedEnable record;
  telemetry::MetricsRegistry& reg = telemetry::metrics();
  reg.gauge("bench.threaded.host_cores").set(static_cast<double>(hostCores));

  for (std::size_t i = 0; i < std::size(kGrids); ++i) {
    const GridPoint& g = kGrids[i];
    const int ranks = g.grid.x * g.grid.y * g.grid.z;
    const Measurement& s = strong[i];
    const Measurement& w = weak[i];
    // Strong-scaling speedup is measured against the threaded 1-rank
    // run: it isolates the scaling of the backend itself (the 1-rank
    // team pays the same dispatch machinery).
    const double speedup = strong[0].thrSeconds / s.thrSeconds;
    const double weakEff = weak[0].thrSeconds / w.thrSeconds;
    const std::string tag(g.tag);
    reg.gauge("bench.threaded.strong.events." + tag)
        .set(static_cast<double>(s.events));
    reg.gauge("bench.threaded.strong.identical." + tag)
        .set(s.identical ? 1.0 : 0.0);
    reg.gauge("bench.threaded.strong.halo_bytes_per_cycle." + tag)
        .set(s.haloBytesPerCycle);
    reg.gauge("bench.threaded.strong.seq_seconds." + tag).set(s.seqSeconds);
    reg.gauge("bench.threaded.strong.thr_seconds." + tag).set(s.thrSeconds);
    reg.gauge("bench.threaded.strong.measured_speedup." + tag).set(speedup);
    reg.gauge("bench.threaded.strong.model_speedup." + tag)
        .set(predicted[i].speedup);
    reg.gauge("bench.threaded.weak.identical." + tag)
        .set(w.identical ? 1.0 : 0.0);
    reg.gauge("bench.threaded.weak.thr_seconds." + tag).set(w.thrSeconds);
    reg.gauge("bench.threaded.weak.measured_efficiency." + tag).set(weakEff);

    // Determinism is the unconditional acceptance: every grid, both
    // sweeps, threaded == sequential bit-for-bit.
    if (!s.identical || !w.identical) accepted = false;
    if (hostCores >= 4) {
      if (ranks == 4 && speedup < 2.5) accepted = false;
    } else if (s.seqSeconds > 0.0 && s.thrSeconds > 5.0 * s.seqSeconds) {
      accepted = false;  // threading machinery overhead out of bounds
    }

    out.addRow({std::to_string(ranks), TableWriter::num(s.seqSeconds, 4),
                TableWriter::num(s.thrSeconds, 4), TableWriter::num(speedup, 2),
                TableWriter::num(predicted[i].speedup, 2),
                TableWriter::num(w.thrSeconds, 4), TableWriter::num(weakEff, 2),
                s.identical && w.identical ? "yes" : "NO"});
  }

  std::printf("Threaded rank backend scaling — strong: 16^3 cells fixed; "
              "weak: 16^3 cells/rank; %d cycles, tStop %.0e s, host cores %d\n",
              kCycles, kTStop, hostCores);
  out.print();
  if (hostCores >= 4) {
    std::printf("\nacceptance (>= 4 cores): bit-identical trajectories AND "
                "measured strong speedup >= 2.5x at 4 ranks: %s\n",
                accepted ? "PASS" : "FAIL");
  } else {
    std::printf("\nacceptance (%d core(s) — 2.5x at 4 ranks not measurable "
                "here): bit-identical trajectories AND threaded overhead <= "
                "5x sequential: %s\n",
                hostCores, accepted ? "PASS" : "FAIL");
  }

  reg.gauge("bench.threaded.accept_ok").set(accepted ? 1.0 : 0.0);
  reg.writeJson("BENCH_threaded_scaling.metrics.json");
  std::printf("wrote BENCH_threaded_scaling.metrics.json\n");
  return accepted ? 0 : 1;
}
