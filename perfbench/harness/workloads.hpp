#pragma once

#include "lattice/lattice_state.hpp"
#include "ledger.hpp"

namespace perfbench {

/// Fixed workload parameters shared by the workloads and the `train`
/// command: both NNP workloads run at the paper's production cutoff.
inline constexpr double kNnpCutoff = 6.5;
inline constexpr std::uint64_t kTrainSeed = 2021;

/// True when Fe, Cu and vacancy counts of two states agree.
inline bool countsConserved(const tkmc::LatticeState& a,
                            const tkmc::LatticeState& b) {
  for (tkmc::Species s :
       {tkmc::Species::kFe, tkmc::Species::kCu, tkmc::Species::kVacancy})
    if (a.countSpecies(s) != b.countSpecies(s)) return false;
  return true;
}

void runSerialNnp(const Options& opts, Report& report);
void runParallelNnp(const Options& opts, Report& report);
void runParallelEamCheckpoint(const Options& opts, Report& report);

}  // namespace perfbench
