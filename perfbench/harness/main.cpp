// End-to-end benchmark harness: runs one named workload against the
// library's public API and prints its metrics and checks as one JSON line.
//
//   tkmc_perfbench train --out <weights>
//   tkmc_perfbench run --workload <name> --seed <n> --seconds <s>
//                  --trace <0|1> --workdir <dir> [--model <weights>]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/simulation.hpp"
#include "nnp/model_io.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: tkmc_perfbench train --out <weights>\n"
               "       tkmc_perfbench run --workload "
               "<serial_nnp|parallel_nnp|parallel_eam_ckpt> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> "
               "[--model <weights>]\n");
  return 2;
}

/// Trains the NNP once with the program's own pipeline and a fixed seed,
/// so every workload seed evaluates the same potential.
int train(const std::string& out) {
  tkmc::SimulationConfig sc;
  sc.cutoff = kNnpCutoff;
  sc.seed = kTrainSeed;
  sc.channels = {64, 32, 32, 1};
  std::filesystem::remove(out);
  const tkmc::Network network = tkmc::Simulation::buildPotential(sc);
  tkmc::saveNetwork(network, out);
  // The saved text must load back to the identical network.
  const tkmc::Network loaded = tkmc::loadNetwork(out);
  const std::string again = out + ".reload";
  tkmc::saveNetwork(loaded, again);
  std::ifstream a(out), b(again);
  const std::string sa((std::istreambuf_iterator<char>(a)), {});
  const std::string sb((std::istreambuf_iterator<char>(b)), {});
  std::filesystem::remove(again);
  if (sa != sb) {
    std::fprintf(stderr, "saved NNP weights do not reload exactly\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  Options opts;
  std::string out;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") opts.workload = value;
    else if (key == "--seed") opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") opts.seconds = std::atof(value.c_str());
    else if (key == "--trace") opts.trace = value == "1";
    else if (key == "--workdir") opts.workdir = value;
    else if (key == "--model") opts.modelPath = value;
    else if (key == "--out") out = value;
    else return usage();
  }
  try {
    if (command == "train" && !out.empty()) return train(out);
    if (command != "run" || opts.workdir.empty() || opts.seconds <= 0)
      return usage();
    Report report;
    if (opts.workload == "serial_nnp") runSerialNnp(opts, report);
    else if (opts.workload == "parallel_nnp") runParallelNnp(opts, report);
    else if (opts.workload == "parallel_eam_ckpt")
      runParallelEamCheckpoint(opts, report);
    else return usage();
    std::printf("%s\n", report.json().c_str());
    return report.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tkmc_perfbench: %s\n", e.what());
    return 1;
  }
}
