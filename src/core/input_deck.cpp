#include "core/input_deck.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace tkmc {
namespace {

double parseDouble(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &used);
  } catch (const std::exception&) {
    throw Error("input deck: key '" + key + "' needs a number, got '" +
                value + "'");
  }
  require(used == value.size(),
          "input deck: trailing characters after number for key '" + key + "'");
  return parsed;
}

std::int64_t parseInt(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  long long parsed = 0;
  try {
    parsed = std::stoll(value, &used);
  } catch (const std::exception&) {
    throw Error("input deck: key '" + key + "' needs an integer, got '" +
                value + "'");
  }
  require(used == value.size(),
          "input deck: trailing characters after integer for key '" + key + "'");
  return parsed;
}

bool parseSwitch(const std::string& key, const std::string& value) {
  if (value == "on" || value == "true" || value == "1") return true;
  if (value == "off" || value == "false" || value == "0") return false;
  throw Error("input deck: key '" + key + "' needs on/off, got '" + value + "'");
}

std::vector<int> parseIntList(const std::string& key,
                              const std::string& value) {
  std::vector<int> items;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ','))
    items.push_back(static_cast<int>(parseInt(key, item)));
  return items;
}

std::vector<int> parseChannels(const std::string& value) {
  std::vector<int> channels = parseIntList("channels", value);
  require(channels.size() >= 2, "input deck: channels needs >= 2 widths");
  return channels;
}

}  // namespace

void InputDeck::apply(const std::string& key, const std::string& value) {
  if (key == "cells") {
    config_.cells = static_cast<int>(parseInt(key, value));
    require(config_.cells > 0, "input deck: cells must be positive");
  } else if (key == "lattice_constant") {
    config_.latticeConstant = parseDouble(key, value);
    require(config_.latticeConstant > 0, "input deck: lattice_constant > 0");
  } else if (key == "cutoff") {
    config_.cutoff = parseDouble(key, value);
    require(config_.cutoff > 0, "input deck: cutoff > 0");
  } else if (key == "cu_fraction") {
    config_.cuFraction = parseDouble(key, value);
    require(config_.cuFraction >= 0 && config_.cuFraction < 1,
            "input deck: cu_fraction in [0, 1)");
  } else if (key == "vacancy_count") {
    config_.vacancyCount = static_cast<int>(parseInt(key, value));
    require(config_.vacancyCount >= 0, "input deck: vacancy_count >= 0");
  } else if (key == "vacancy_concentration") {
    config_.vacancyConcentration = parseDouble(key, value);
    require(config_.vacancyConcentration >= 0,
            "input deck: vacancy_concentration >= 0");
  } else if (key == "temperature") {
    config_.temperature = parseDouble(key, value);
    require(config_.temperature > 0, "input deck: temperature > 0");
  } else if (key == "seed") {
    config_.seed = static_cast<std::uint64_t>(parseInt(key, value));
  } else if (key == "potential") {
    if (value == "eam") {
      config_.potential = SimulationConfig::Potential::kEam;
    } else if (value == "nnp") {
      config_.potential = SimulationConfig::Potential::kNnp;
    } else {
      throw Error("input deck: potential must be eam or nnp, got '" + value +
                  "'");
    }
  } else if (key == "model_path") {
    config_.modelPath = value;
  } else if (key == "channels") {
    config_.channels = parseChannels(value);
  } else if (key == "train_structures") {
    config_.trainStructures = static_cast<int>(parseInt(key, value));
  } else if (key == "train_epochs") {
    config_.trainEpochs = static_cast<int>(parseInt(key, value));
  } else if (key == "event_catalog") {
    if (value != "vacancy_hop" && value != "trap_detrap")
      throw Error("input deck: event_catalog must be vacancy_hop or "
                  "trap_detrap, got '" + value + "'");
    config_.eventCatalog.name = value;
  } else if (key == "trap_fraction") {
    config_.eventCatalog.trapFraction = parseDouble(key, value);
    require(config_.eventCatalog.trapFraction >= 0 &&
                config_.eventCatalog.trapFraction < 1,
            "input deck: trap_fraction in [0, 1)");
  } else if (key == "trap_binding") {
    config_.eventCatalog.trapBinding = parseDouble(key, value);
    require(config_.eventCatalog.trapBinding >= 0,
            "input deck: trap_binding >= 0");
  } else if (key == "trap_seed") {
    config_.eventCatalog.trapSeed =
        static_cast<std::uint64_t>(parseInt(key, value));
  } else if (key == "sink_planes") {
    config_.eventCatalog.sinkPlanes = static_cast<int>(parseInt(key, value));
    require(config_.eventCatalog.sinkPlanes >= 0,
            "input deck: sink_planes >= 0");
  } else if (key == "use_cache") {
    config_.useVacancyCache = parseSwitch(key, value);
  } else if (key == "use_tree") {
    config_.useTree = parseSwitch(key, value);
  } else if (key == "t_end") {
    tEnd_ = parseDouble(key, value);
    require(tEnd_ > 0, "input deck: t_end > 0");
  } else if (key == "max_steps") {
    maxSteps_ = static_cast<std::uint64_t>(parseInt(key, value));
  } else if (key == "report_interval") {
    reportInterval_ = static_cast<std::uint64_t>(parseInt(key, value));
  } else if (key == "dump_xyz") {
    dumpPath_ = value;
  } else if (key == "dump_interval") {
    dumpInterval_ = static_cast<std::uint64_t>(parseInt(key, value));
    require(dumpInterval_ > 0, "input deck: dump_interval > 0");
  } else if (key == "checkpoint_interval") {
    checkpointInterval_ = static_cast<std::uint64_t>(parseInt(key, value));
    require(checkpointInterval_ > 0, "input deck: checkpoint_interval > 0");
  } else if (key == "mode") {
    if (value == "serial") {
      parallelMode_ = false;
    } else if (value == "parallel") {
      parallelMode_ = true;
    } else {
      throw Error("input deck: mode must be serial or parallel, got '" +
                  value + "'");
    }
  } else if (key == "rank_grid") {
    const std::vector<int> g = parseIntList(key, value);
    require(g.size() == 3, "input deck: rank_grid needs three values x,y,z");
    require(g[0] >= 1 && g[1] >= 1 && g[2] >= 1,
            "input deck: rank_grid needs at least one rank per axis");
    require(g[0] * g[1] * g[2] >= 2,
            "input deck: rank_grid needs at least two ranks total "
            "(use mode serial for one)");
    rankGrid_ = {g[0], g[1], g[2]};
  } else if (key == "t_stop") {
    tStop_ = parseDouble(key, value);
    require(tStop_ > 0, "input deck: t_stop > 0");
  } else if (key == "recovery") {
    recovery_ = parseSwitch(key, value);
  } else if (key == "threaded") {
    threaded_ = parseSwitch(key, value);
  } else if (key == "checkpoint_dir") {
    checkpointDir_ = value;
  } else if (key == "checkpoint_cadence") {
    checkpointCadence_ = static_cast<int>(parseInt(key, value));
    require(checkpointCadence_ >= 1, "input deck: checkpoint_cadence >= 1");
  } else if (key == "checkpoint_mode") {
    if (value == "full") {
      deltaCheckpoints_ = false;
    } else if (value == "delta") {
      deltaCheckpoints_ = true;
    } else {
      throw Error("input deck: checkpoint_mode must be full or delta, got '" +
                  value + "'");
    }
  } else if (key == "max_delta_chain") {
    maxDeltaChain_ = static_cast<int>(parseInt(key, value));
    require(maxDeltaChain_ >= 1, "input deck: max_delta_chain >= 1");
  } else if (key == "spare_ranks") {
    spareRanks_ = static_cast<int>(parseInt(key, value));
    require(spareRanks_ >= 0, "input deck: spare_ranks >= 0");
  } else if (key == "heartbeat_interval_ms") {
    heartbeatIntervalMs_ = parseDouble(key, value);
    require(heartbeatIntervalMs_ > 0, "input deck: heartbeat_interval_ms > 0");
  } else if (key == "heartbeat_timeout_ms") {
    heartbeatTimeoutMs_ = parseDouble(key, value);
    require(heartbeatTimeoutMs_ >= 0, "input deck: heartbeat_timeout_ms >= 0");
  } else if (key == "remote_dir") {
    remoteDir_ = value;
  } else if (key == "remote_rate_mbps") {
    remoteRateMbps_ = parseDouble(key, value);
    require(remoteRateMbps_ >= 0, "input deck: remote_rate_mbps >= 0");
  } else if (key == "remote_max_lag_epochs") {
    remoteMaxLagEpochs_ = static_cast<int>(parseInt(key, value));
    require(remoteMaxLagEpochs_ >= 1, "input deck: remote_max_lag_epochs >= 1");
  } else if (key == "remote_retries") {
    remoteRetries_ = static_cast<int>(parseInt(key, value));
    require(remoteRetries_ >= 1, "input deck: remote_retries >= 1");
  } else if (key == "resume") {
    resume_ = parseSwitch(key, value);
  } else {
    throw Error("input deck: unknown key '" + key + "'");
  }
}

InputDeck InputDeck::parse(std::istream& in) {
  InputDeck deck;
  std::string line;
  int lineNumber = 0;
  while (std::getline(in, line)) {
    ++lineNumber;
    // Strip comments.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::stringstream ss(line);
    std::string key;
    if (!(ss >> key)) continue;  // blank line
    std::string value;
    std::getline(ss, value);
    // Trim the value.
    const std::size_t first = value.find_first_not_of(" \t");
    require(first != std::string::npos,
            "input deck line " + std::to_string(lineNumber) + ": key '" +
                key + "' has no value");
    const std::size_t last = value.find_last_not_of(" \t\r");
    value = value.substr(first, last - first + 1);
    require(deck.raw_.emplace(key, value).second,
            "input deck line " + std::to_string(lineNumber) +
                ": duplicate key '" + key + "'");
    deck.apply(key, value);
  }
  return deck;
}

InputDeck InputDeck::parseFile(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "cannot open input deck: " + path);
  return parse(in);
}

SimulationConfig InputDeck::simulationConfig() const { return config_; }

std::string InputDeck::rawValue(const std::string& key) const {
  auto it = raw_.find(key);
  return it == raw_.end() ? std::string() : it->second;
}

}  // namespace tkmc
