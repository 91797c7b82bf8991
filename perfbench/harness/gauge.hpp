#pragma once

// Host speed gauge, built as a library of its own (see CMakeLists.txt)
// with fixed flags and no link to the program's libraries, so that no
// change to the program or its build can make the gauge faster or slower.

namespace perfbench {

/// Host speed gauge: the mean time in ms of `passes` passes of a fixed
/// small neural network forward pass that uses no library code. The
/// vCPUs of a shared host run the NNP workloads up to 1.75x slower for
/// seconds to minutes at a time; this kernel, which does the same kind of
/// double-precision multiply-add and tanh work, slows with them. Sampled
/// between the timed events or cycles of a round, it measures the host's
/// speed while the round ran. A mean, not a minimum: a host that loses
/// time in short stalls slows the workload by their share, and a minimum
/// would skip them.
double hostGaugeMs(int passes);

/// Passes sampled just before and just after each set-up; the timed
/// phase samples one pass after every event or cycle.
inline constexpr int kSetupGaugePasses = 4;

/// The gauge's time on the reference host (4-vCPU KVM guest on an Intel
/// Xeon, unloaded). It fixes the unit of host-normalised times only.
inline constexpr double kGaugeNominalMs = 0.25;

/// Wall seconds measured while the gauge read `gaugeMs`, converted to
/// seconds on a host where it reads kGaugeNominalMs. Wall seconds of
/// code that gets faster or slower convert in proportion; a host that
/// slows down for a while slows the gauge with it and converts back.
double nominalSeconds(double wallSeconds, double gaugeMs);

}  // namespace perfbench
