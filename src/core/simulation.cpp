#include "core/simulation.hpp"

#include <filesystem>

#include "common/error.hpp"
#include "common/telemetry/telemetry.hpp"
#include "kmc/eam_energy_model.hpp"
#include "kmc/nnp_energy_model.hpp"
#include "nnp/dataset.hpp"
#include "nnp/descriptor.hpp"
#include "nnp/model_io.hpp"
#include "nnp/trainer.hpp"

namespace tkmc {

Network Simulation::buildPotential(const SimulationConfig& config) {
  if (!config.modelPath.empty() && std::filesystem::exists(config.modelPath)) {
    return loadNetwork(config.modelPath);
  }
  // Self-train against the EAM oracle: the same pipeline the Fig. 7
  // validation uses, at a size that converges in seconds.
  require(!config.channels.empty() &&
              config.channels.front() ==
                  static_cast<int>(standardPqSets().size()) * kNumElements,
          "network input width must equal numPq * numElements");
  const EamPotential oracle(config.cutoff);
  DatasetConfig data;
  data.count = config.trainStructures;
  data.latticeConstant = config.latticeConstant;
  Rng rng(config.seed ^ 0x5eedULL);
  const auto labeled = generateDataset(oracle, data, rng);
  const Descriptor descriptor(standardPqSets(), config.cutoff);
  // Composition baseline handled by least squares; the network fits the
  // residual (the baseline cancels in KMC energy differences).
  const SpeciesBaseline baseline = SpeciesBaseline::fit(labeled);
  std::vector<TrainSample> samples;
  samples.reserve(labeled.size());
  for (const auto& ls : labeled)
    samples.push_back(makeSample(descriptor, ls, &baseline));

  Network network(config.channels);
  Rng initRng(config.seed ^ 0xabcdULL);
  network.initHe(initRng);
  Trainer::Config tc;
  tc.epochs = config.trainEpochs;
  tc.seed = config.seed ^ 0x7777ULL;
  Trainer trainer(network, tc);
  trainer.fitStandardization(samples);
  trainer.train(samples);
  if (!config.modelPath.empty()) saveNetwork(network, config.modelPath);
  return network;
}

Simulation::Simulation(SimulationConfig config) : config_(config) {
  require(config.cells > 0, "box must be positive");
  lattice_ = std::make_unique<BccLattice>(config.cells, config.cells,
                                          config.cells, config.latticeConstant);
  state_ = std::make_unique<LatticeState>(*lattice_);
  Rng rng(config.seed);
  const std::int64_t vacancies =
      config.vacancyCount >= 0
          ? config.vacancyCount
          : std::max<std::int64_t>(
                1, static_cast<std::int64_t>(
                       static_cast<double>(lattice_->siteCount()) *
                       config.vacancyConcentration));
  state_->randomAlloy(config.cuFraction, vacancies, rng);

  cet_ = std::make_unique<Cet>(config.latticeConstant, config.cutoff);
  net_ = std::make_unique<Net>(*cet_);
  eam_ = std::make_unique<EamPotential>(config.cutoff);

  if (config.potential == SimulationConfig::Potential::kNnp) {
    table_ = std::make_unique<FeatureTable>(net_->distances(), standardPqSets());
    network_ = std::make_unique<Network>(buildPotential(config));
    model_ = std::make_unique<NnpEnergyModel>(*cet_, *net_, *table_, *network_);
  } else {
    model_ = std::make_unique<EamEnergyModel>(*cet_, *net_, *eam_);
  }

  KmcConfig kc;
  kc.temperature = config.temperature;
  kc.seed = config.seed ^ 0x1234beefULL;
  kc.useVacancyCache = config.useVacancyCache;
  kc.useTree = config.useTree;
  kc.tEnd = 1e300;  // run() sets the horizon per call
  catalog_ = makeEventCatalog(config.eventCatalog);
  engine_ = std::make_unique<SerialEngine>(*state_, *model_, *cet_, kc,
                                           catalog_.get());
}

Simulation::~Simulation() = default;

std::uint64_t Simulation::run(double tEnd, std::uint64_t maxSteps) {
  std::uint64_t executed = 0;
  const std::size_t expectedVacancies = state_->vacancies().size();
  while (engine_->time() < tEnd && executed < maxSteps) {
    if (!engine_->step().advanced) break;
    ++executed;
    if (config_.invariantCadence > 0 &&
        executed % config_.invariantCadence == 0 &&
        state_->vacancies().size() != expectedVacancies)
      throw InvariantError(
          "vacancy conservation violated during run: expected " +
          std::to_string(expectedVacancies) + ", counted " +
          std::to_string(state_->vacancies().size()));
  }
  return executed;
}

double Simulation::time() const { return engine_->time(); }
std::uint64_t Simulation::steps() const { return engine_->steps(); }
const LatticeState& Simulation::state() const { return *state_; }
SerialEngine& Simulation::engine() { return *engine_; }

ClusterStats Simulation::cuClusters() const {
  return analyzeClusters(*state_, Species::kCu);
}

MemoryTracker Simulation::memoryUsage() const {
  MemoryTracker tracker;
  // The true allocated footprint of the paged packed store — uniform
  // (pure-fill) pages cost nothing, materialized pages 2 bits/site.
  tracker.set("lattice_species", state_->packedMemoryBytes());
  tracker.set("vacancy_list", state_->vacancies().size() * sizeof(Vec3i));
  tracker.set("vac_cache", engine_->cache().memoryBytes());
  tracker.set("propensity_tree", engine_->tree().memoryBytes());
  return tracker;
}

void Simulation::publishMemoryTelemetry() const {
  namespace tm = telemetry;
  if (!tm::enabled()) return;
  memoryUsage().publishTelemetry("memory");
  tm::metrics()
      .gauge("lattice.bytes_per_site")
      .set(state_->store().bytesPerSite());
}

}  // namespace tkmc
