#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/cluster_analysis.hpp"
#include "common/memory_tracker.hpp"
#include "eam/eam_potential.hpp"
#include "kmc/serial_engine.hpp"
#include "nnp/network.hpp"
#include "tabulation/cet.hpp"
#include "tabulation/feature_table.hpp"
#include "tabulation/net.hpp"

namespace tkmc {

/// Top-level configuration for a TensorKMC run.
struct SimulationConfig {
  // Box: cubic, `cells`^3 unit cells (2 atoms per cell).
  int cells = 20;
  double latticeConstant = kLatticeConstantFe;
  double cutoff = kDefaultCutoff;

  // Alloy: paper Sec. 5 defaults (RPV thermal aging).
  double cuFraction = 0.0134;            // 1.34 at.%
  double vacancyConcentration = 8e-6;    // 8e-4 at.%
  int vacancyCount = -1;                 // overrides concentration when >= 0

  double temperature = 573.0;            // kelvin
  std::uint64_t seed = 2021;

  /// Energy backend. kNnp is the paper's configuration; kEam runs the
  /// same engine on the embedded-atom oracle (fast, no training).
  enum class Potential { kEam, kNnp };
  Potential potential = Potential::kNnp;

  /// NNP source: a file saved by saveNetwork(), or empty to self-train a
  /// small network against the EAM oracle at startup. The paper's
  /// production channels are {64,128,128,128,64,1}; the default here is a
  /// reduced demo network that trains in seconds.
  std::string modelPath;
  std::vector<int> channels = {64, 32, 32, 1};
  int trainStructures = 96;
  int trainEpochs = 60;

  // Engine options (Sec. 3.2 cache, Sec. 4.4 tree strategy).
  bool useVacancyCache = true;
  bool useTree = true;

  // Event catalog (deck key `event_catalog` plus the trap/detrap
  // parameters). The default vacancy_hop spec reproduces the historical
  // hardcoded physics bit-for-bit.
  EventCatalogSpec eventCatalog;

  // Fault tolerance. When invariantCadence > 0, run() verifies vacancy
  // conservation every that many events and throws InvariantError on
  // violation instead of silently continuing with corrupt state.
  // (Checkpoints: commitSerialEpoch / restoreSerialEpoch in
  // parallel/coordinated_checkpoint.hpp.)
  std::uint64_t invariantCadence = 0;
};

/// Facade wiring the whole TensorKMC stack: lattice construction, random
/// alloy initialization, potential preparation (train or load), the
/// triple-encoding tables, and the serial AKMC engine.
class Simulation {
 public:
  explicit Simulation(SimulationConfig config);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Runs until `tEnd` simulated seconds (or `maxSteps` events).
  std::uint64_t run(double tEnd, std::uint64_t maxSteps = ~0ULL);

  double time() const;
  std::uint64_t steps() const;
  const LatticeState& state() const;
  SerialEngine& engine();
  /// Mutable lattice state (restoring a checkpoint overwrites it).
  LatticeState& mutableState() { return *state_; }

  /// Energy backend of this run (parallel drivers reuse it to build a
  /// ParallelEngine over the same physics).
  EnergyModel& model() { return *model_; }

  /// Live-array memory inventory of the run (packed lattice occupation,
  /// vacancy cache, propensity tree) — the host-scale analogue of the
  /// paper's Table 1 rows, reproducible from any normal run.
  MemoryTracker memoryUsage() const;

  /// Publishes the memory inventory as `memory.*` gauges plus the
  /// `lattice.bytes_per_site` gauge (allocated packed bytes over sites).
  /// No-op while telemetry is disabled.
  void publishMemoryTelemetry() const;

  /// Cu-precipitate statistics of the current configuration (Fig. 14).
  ClusterStats cuClusters() const;

  const SimulationConfig& config() const { return config_; }
  const Network* network() const { return network_.get(); }
  const Cet& cet() const { return *cet_; }
  const Net& net() const { return *net_; }
  /// Tabulated features (null for the EAM backend).
  const FeatureTable* featureTable() const { return table_.get(); }

  /// Trains (or loads) the NNP for a configuration; exposed so examples
  /// and benches can reuse the exact pipeline.
  static Network buildPotential(const SimulationConfig& config);

 private:
  SimulationConfig config_;
  std::unique_ptr<BccLattice> lattice_;
  std::unique_ptr<LatticeState> state_;
  std::unique_ptr<Cet> cet_;
  std::unique_ptr<Net> net_;
  std::unique_ptr<FeatureTable> table_;
  std::unique_ptr<EamPotential> eam_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<EnergyModel> model_;
  std::unique_ptr<EventCatalog> catalog_;  // outlives engine_ (declared first)
  std::unique_ptr<SerialEngine> engine_;
};

}  // namespace tkmc
