#pragma once

#include <istream>
#include <map>
#include <string>
#include <vector>

#include "core/simulation.hpp"

namespace tkmc {

/// Key-value input deck for the command-line driver.
///
/// The paper's artifact runs `tensorkmc -in input`; this parser accepts
/// the same style of plain-text deck: one `key value` pair per line,
/// `#` comments, blank lines ignored. Unknown keys are an error (decks
/// with typos should fail loudly, not silently fall back to defaults).
///
/// Recognized keys (defaults in parentheses):
///   cells <int>                 box edge in unit cells (20)
///   lattice_constant <float>    angstrom (2.87)
///   cutoff <float>              angstrom (6.5)
///   cu_fraction <float>         atomic fraction (0.0134)
///   vacancy_count <int>         explicit count; overrides concentration
///   vacancy_concentration <f>   site fraction (8e-6)
///   temperature <float>         kelvin (573)
///   seed <uint>                 RNG seed (2021)
///   potential eam|nnp           energy backend (nnp)
///   model_path <path>           NNP weights file (train if absent)
///   channels <c0,c1,...>        network widths (64,32,32,1)
///   train_structures <int>      self-training set size (96)
///   train_epochs <int>          self-training epochs (60)
///   use_cache on|off            vacancy cache (on)
///   use_tree on|off             tree propensity selection (on)
///   event_catalog <name>        vacancy_hop | trap_detrap (vacancy_hop);
///                               selects the event-type catalog both
///                               engines dispatch through
///   trap_fraction <float>       trap_detrap: seeded fraction of sites
///                               that trap vacancies (0.05)
///   trap_binding <float>        trap_detrap: binding energy added to
///                               every escape barrier, eV (0.25)
///   trap_seed <uint>            trap_detrap: trap-placement stream (1234)
///   sink_planes <int>           trap_detrap: absorbing unit-cell layers
///                               at z = 0 (1)
///   t_end <float>               simulated seconds (1e-6)
///   max_steps <int>             event cap (unlimited)
///   report_interval <int>       events between progress reports (1000)
///   dump_xyz <path>             trajectory output (off)
///   dump_interval <int>         events between dump frames (1000)
///   checkpoint_interval <int>   serial mode: events between checkpoint
///                               epochs in checkpoint_dir (10000)
///   mode serial|parallel        engine selection (serial)
///   rank_grid <x,y,z>           parallel rank decomposition (2,2,2);
///                               single-rank axes are legal (flat grids)
///   t_stop <float>              parallel sync interval, seconds (2e-8)
///   threaded on|off             one OS thread per rank instead of the
///                               sequential in-process driver; same
///                               trajectory bit-for-bit (off)
///   recovery on|off             parallel rollback/replay (on)
///   checkpoint_dir <path>       checkpoint epochs (off); a serial run
///                               writes 1-rank epochs, a parallel run
///                               one shard per rank
///   checkpoint_cadence <int>    parallel mode: cycles per epoch (1)
///   checkpoint_mode full|delta  full epochs, or dirty-page deltas with
///                               periodic consolidation (full)
///   max_delta_chain <int>       delta links per chain before a
///                               consolidating full epoch (8)
///   spare_ranks <int>           replacement-rank pool for elastic grow
///                               recovery after a fail-stop (0)
///   heartbeat_interval_ms <f>   failure-detector poll interval (5.0)
///   heartbeat_timeout_ms <f>    lease timeout; 0 disables fail-stop
///                               detection (0)
///   remote_dir <path>           stream committed epochs to a remote
///                               shard store at this directory (off)
///   remote_rate_mbps <f>        remote copy bandwidth cap, MB/s;
///                               0 = unthrottled (0)
///   remote_max_lag_epochs <int> epochs the streamer may fall behind
///                               before commits throttle (8)
///   remote_retries <int>        put attempts per remote object before
///                               the epoch is given up (5)
///   resume on|off               resume (either mode) from the newest
///                               complete epoch in checkpoint_dir,
///                               healing from remote_dir when shards are
///                               missing locally (off)
class InputDeck {
 public:
  /// Parses a deck from a stream. Throws tkmc::Error on malformed lines,
  /// unknown keys, or invalid values.
  static InputDeck parse(std::istream& in);

  /// Parses a deck from a file path.
  static InputDeck parseFile(const std::string& path);

  /// The SimulationConfig encoded by the deck.
  SimulationConfig simulationConfig() const;

  // Run-control settings beyond SimulationConfig.
  double tEnd() const { return tEnd_; }
  std::uint64_t maxSteps() const { return maxSteps_; }
  std::uint64_t reportInterval() const { return reportInterval_; }
  const std::string& dumpPath() const { return dumpPath_; }
  std::uint64_t dumpInterval() const { return dumpInterval_; }
  std::uint64_t checkpointInterval() const { return checkpointInterval_; }

  // Parallel-engine settings (mode parallel); checkpointDir(), resume()
  // and remoteDir() drive serial checkpoints and resume too.
  bool parallelMode() const { return parallelMode_; }
  Vec3i rankGrid() const { return rankGrid_; }
  bool threaded() const { return threaded_; }
  double tStop() const { return tStop_; }
  bool recovery() const { return recovery_; }
  const std::string& checkpointDir() const { return checkpointDir_; }
  int checkpointCadence() const { return checkpointCadence_; }
  bool deltaCheckpoints() const { return deltaCheckpoints_; }
  int maxDeltaChain() const { return maxDeltaChain_; }
  int spareRanks() const { return spareRanks_; }
  double heartbeatIntervalMs() const { return heartbeatIntervalMs_; }
  double heartbeatTimeoutMs() const { return heartbeatTimeoutMs_; }
  const std::string& remoteDir() const { return remoteDir_; }
  double remoteRateMbps() const { return remoteRateMbps_; }
  int remoteMaxLagEpochs() const { return remoteMaxLagEpochs_; }
  int remoteRetries() const { return remoteRetries_; }
  bool resume() const { return resume_; }

  /// True when the deck set `key` explicitly.
  bool has(const std::string& key) const { return raw_.count(key) > 0; }

  /// Raw value of a key ("" when absent).
  std::string rawValue(const std::string& key) const;

 private:
  void apply(const std::string& key, const std::string& value);

  std::map<std::string, std::string> raw_;
  SimulationConfig config_;
  double tEnd_ = 1e-6;
  std::uint64_t maxSteps_ = ~0ULL;
  std::uint64_t reportInterval_ = 1000;
  std::string dumpPath_;
  std::uint64_t dumpInterval_ = 1000;
  std::uint64_t checkpointInterval_ = 10000;
  bool parallelMode_ = false;
  Vec3i rankGrid_{2, 2, 2};
  bool threaded_ = false;
  double tStop_ = 2e-8;
  bool recovery_ = true;
  std::string checkpointDir_;
  int checkpointCadence_ = 1;
  bool deltaCheckpoints_ = false;
  int maxDeltaChain_ = 8;
  int spareRanks_ = 0;
  double heartbeatIntervalMs_ = 5.0;
  double heartbeatTimeoutMs_ = 0.0;
  std::string remoteDir_;
  double remoteRateMbps_ = 0.0;
  int remoteMaxLagEpochs_ = 8;
  int remoteRetries_ = 5;
  bool resume_ = false;
};

}  // namespace tkmc
