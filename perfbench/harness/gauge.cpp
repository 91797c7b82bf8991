#include "gauge.hpp"

#include <chrono>
#include <cmath>
#include <vector>

namespace perfbench {

double hostGaugeMs(int passes) {
  // A 64-64-32-32 tanh network in double precision over 48 fixed inputs:
  // the same kind of work as the NNP refresh, on ~60 KB of weights.
  constexpr int kIn = 64, kH1 = 64, kH2 = 32, kH3 = 32, kInputs = 48;
  static const std::vector<double> weights = [] {
    std::vector<double> w(kH1 * kIn + kH2 * kH1 + kH3 * kH2 + kInputs * kIn);
    for (std::size_t i = 0; i < w.size(); ++i)
      w[i] = 0.1 * std::sin(0.37 * static_cast<double>(i));
    return w;
  }();
  const double* w1 = weights.data();
  const double* w2 = w1 + kH1 * kIn;
  const double* w3 = w2 + kH2 * kH1;
  const double* inputs = w3 + kH3 * kH2;
  auto layer = [](const double* w, const double* x, int in, int out, double* y) {
    for (int j = 0; j < out; ++j) {
      double a = 0.0;
      for (int k = 0; k < in; ++k) a += w[j * in + k] * x[k];
      y[j] = std::tanh(a);
    }
  };
  static volatile double sink = 0.0;
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    double total = 0.0;
    for (int n = 0; n < kInputs; ++n) {
      double h1[kH1], h2[kH2], h3[kH3];
      layer(w1, inputs + n * kIn, kIn, kH1, h1);
      layer(w2, h1, kH1, kH2, h2);
      layer(w3, h2, kH2, kH3, h3);
      for (double h : h3) total += h;
    }
    sink = sink + total;
  }
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count() / passes;
}

double nominalSeconds(double wallSeconds, double gaugeMs) {
  return wallSeconds * kGaugeNominalMs / gaugeMs;
}

}  // namespace perfbench
