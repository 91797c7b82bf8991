#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "kmc/energy_model.hpp"

namespace perfbench {

/// Forwards every call to the wrapped backend and counts the vacancy
/// systems, dispatches and busy time that pass through it. Capabilities
/// (VET support, concurrent dispatch, name) are forwarded unchanged, so an
/// engine makes the same decisions with or without the wrapper. Counters
/// are atomics: the threaded parallel backend calls a concurrency-safe
/// model from several rank threads at once.
class CountingModel final : public tkmc::EnergyModel {
 public:
  explicit CountingModel(tkmc::EnergyModel& inner) : inner_(inner) {}

  std::vector<double> stateEnergies(const tkmc::LatticeState& state,
                                    tkmc::Vec3i center,
                                    int numFinal) override {
    const Timer t(*this, 1);
    return inner_.stateEnergies(state, center, numFinal);
  }

  bool supportsVet() const override { return inner_.supportsVet(); }

  std::vector<double> stateEnergiesFromVet(tkmc::Vet& vet,
                                           int numFinal) override {
    const Timer t(*this, 1);
    return inner_.stateEnergiesFromVet(vet, numFinal);
  }

  std::vector<std::vector<double>> stateEnergiesBatch(
      std::span<tkmc::Vet* const> vets, int numFinal) override {
    const Timer t(*this, vets.size());
    return inner_.stateEnergiesBatch(vets, numFinal);
  }

  bool concurrentDispatchSafe() const override {
    return inner_.concurrentDispatchSafe();
  }

  const char* name() const override { return inner_.name(); }

  std::uint64_t systems() const { return systems_.load(); }
  std::uint64_t batches() const { return batches_.load(); }
  /// Sum of per-call wall time; with concurrent callers this is the sum
  /// over threads, not elapsed time.
  double busySeconds() const { return static_cast<double>(busyNs_.load()) * 1e-9; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Times one dispatch and charges it on scope exit.
  class Timer {
   public:
    Timer(CountingModel& m, std::size_t systems)
        : m_(m), systems_(systems), start_(Clock::now()) {}
    ~Timer() {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - start_)
                          .count();
      m_.busyNs_.fetch_add(static_cast<std::uint64_t>(ns),
                           std::memory_order_relaxed);
      m_.systems_.fetch_add(systems_, std::memory_order_relaxed);
      m_.batches_.fetch_add(1, std::memory_order_relaxed);
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    CountingModel& m_;
    std::size_t systems_;
    Clock::time_point start_;
  };

  tkmc::EnergyModel& inner_;
  std::atomic<std::uint64_t> systems_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> busyNs_{0};
};

}  // namespace perfbench
