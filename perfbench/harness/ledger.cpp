#include "ledger.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/telemetry/telemetry.hpp"

namespace perfbench {

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void appendMetrics(std::ostringstream& out,
                   const std::map<std::string, std::pair<double, std::string>>& m) {
  out << '{';
  bool first = true;
  for (const auto& [name, entry] : m) {
    if (!first) out << ',';
    first = false;
    out << '"' << name << "\":{\"value\":" << number(entry.first)
        << ",\"unit\":\"" << entry.second << "\"}";
  }
  out << '}';
}

}  // namespace

void Report::endToEnd(const std::string& name, double value,
                      const std::string& unit) {
  endToEnd_[name] = {value, unit};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_[name] = {value, unit};
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  return ok;
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\":" << (failed_ == 0 ? "true" : "false")
      << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"end_to_end\":";
  appendMetrics(out, endToEnd_);
  out << ",\"per_layer\":";
  appendMetrics(out, layer_);
  out << '}';
  return out.str();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t roundSeed(std::uint64_t seed, std::uint64_t round) {
  // SplitMix64 finalizer over the pair.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + round + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int roundsFor(double seconds, double roundsPerSecond) {
  return std::max(1, static_cast<int>(std::lround(seconds * roundsPerSecond)));
}

void releaseFreeHeap() { malloc_trim(0); }

double residentMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double SpanTotals::get(const std::string& name) const {
  const auto it = seconds.find(name);
  return it == seconds.end() ? 0.0 : it->second;
}

SpanTotals collectSpans() {
  SpanTotals totals;
  // Spans nest per lane; match each 'E' with the innermost open 'B'.
  std::map<int, std::vector<std::pair<std::string, std::uint64_t>>> open;
  for (const auto& ev : tkmc::telemetry::tracer().events()) {
    if (ev.phase == 'B') {
      open[ev.tid].emplace_back(ev.name, ev.tsMicros);
    } else if (ev.phase == 'E') {
      auto& stack = open[ev.tid];
      if (stack.empty() || stack.back().first != ev.name) continue;
      const double s =
          static_cast<double>(ev.tsMicros - stack.back().second) * 1e-6;
      stack.pop_back();
      totals.seconds[ev.name] += s;
      totals.perLane[ev.name][ev.tid] += s;
    }
  }
  return totals;
}

void printSpans(const SpanTotals& spans, double wallSeconds) {
  std::printf("span totals over %.4f s of traced wall time:\n", wallSeconds);
  for (const auto& [name, s] : spans.seconds)
    std::printf("  %-32s %10.4f s  %6.2f%%\n", name.c_str(), s,
                wallSeconds > 0 ? 100.0 * s / wallSeconds : 0.0);
}

std::uint64_t directoryBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec))
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  return bytes;
}

}  // namespace perfbench
