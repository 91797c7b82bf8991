#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gauge.hpp"

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;    // scratch space inside the checkout
  std::string modelPath;  // NNP weights written by the `train` command
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Operations attempted and failed, correctness checks, and named metrics
/// of one run. Printed as the final JSON line, which run.py reads.
class Report {
 public:
  /// Records a metric; end-to-end metrics are the ones the benchmark
  /// bounds, all others are per-layer ledger entries.
  void endToEnd(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);

  /// Counts `n` timed operations (events, cycles, resumes) that succeeded.
  void succeeded(std::uint64_t n) { attempted_ += n; }

  /// Counts one correctness check; a failed one is reported on stderr.
  bool check(bool ok, const std::string& what);

  std::uint64_t failed() const { return failed_; }

  /// {"correct":..,"attempted":..,"failed":..,"end_to_end":{..},"per_layer":{..}}
  std::string json() const;

 private:
  using Entry = std::pair<double, std::string>;
  std::map<std::string, Entry> endToEnd_;
  std::map<std::string, Entry> layer_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

double median(std::vector<double> values);

/// Seed of round `round` of a run: every round of a run simulates its own
/// independently drawn configuration, so one run averages over many.
std::uint64_t roundSeed(std::uint64_t seed, std::uint64_t round);

/// Number of timed rounds of a run. Every run does the same fixed work for
/// a given --seconds, so faster code finishes sooner instead of running
/// more (and different) configurations; `roundsPerSecond` is calibrated
/// so that the parent code measures about `seconds` on the reference host.
int roundsFor(double seconds, double roundsPerSecond);

/// Resident set size of this process now (VmRSS), in MB.
double residentMb();

/// Returns the heap's free pages to the system, so that a round's
/// resident set does not carry the fragmentation of the rounds before it.
void releaseFreeHeap();

/// Span totals of the global tracer, by span name, in seconds. Spans on
/// every lane are summed; `perLane` keeps the per-lane split.
struct SpanTotals {
  std::map<std::string, double> seconds;
  std::map<std::string, std::map<int, double>> perLane;
  double get(const std::string& name) const;
};
SpanTotals collectSpans();

/// Prints span totals as a table on stdout.
void printSpans(const SpanTotals& spans, double wallSeconds);

/// Total size of the regular files under `dir`, in bytes.
std::uint64_t directoryBytes(const std::string& dir);

}  // namespace perfbench
