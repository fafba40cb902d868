// The benchmark's named workloads and the inputs they generate.
//
// Every workload is an open loop: the master distributes a pre-generated,
// timestamp-ordered trace on its own epoch schedule (k * t_dist), whatever
// the slaves manage to process. The trace comes from the repo's own
// generator (two Poisson streams, b-model keys) seeded by `--seed`, so the
// same seed gives the same tuples and therefore the same join answer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/time.h"
#include "core/runner.h"
#include "tuple/tuple.h"

namespace wallbench {

struct Workload {
  std::string name;
  std::uint32_t slaves = 2;
  double rate_per_stream = 0.0;  ///< tuples/s offered on each input stream
  sjoin::Duration window = 0;
  sjoin::Duration t_dist = 20 * sjoin::kUsPerMs;
  sjoin::Duration t_rep = sjoin::kUsPerSec;
  std::uint64_t key_domain = 1'000'000;
  double b_skew = 0.7;
  /// Input span of one repetition. It covers the first window (warm-up,
  /// excluded from the delay quantiles) plus the measured part.
  sjoin::Duration trace_span = 0;
  /// Per-tuple sleep of slave 1 (the paper's non-dedicated node); 0 = none.
  sjoin::Duration straggler_spin_us = 0;
};

/// The named workload, or nullptr when the name is unknown.
const Workload* FindWorkload(const std::string& name);

/// Names of every workload, in the order `--workload all` runs them.
std::vector<std::string> WorkloadNames();

/// The cluster configuration of a workload: wall mode over the lock-free
/// hub, one join worker per slave, every other knob at the program default.
sjoin::SystemConfig MakeConfig(const Workload& w, std::uint64_t seed);

/// Per-rank run options (straggler spin); the trace and the sinks are set
/// by the caller.
sjoin::WallOptions MakeWallOptions(const Workload& w);

/// The seeded input trace of one repetition: every tuple of both streams
/// with a timestamp below `w.trace_span`, in global timestamp order.
std::vector<sjoin::Rec> MakeTrace(const Workload& w, std::uint64_t seed);

}  // namespace wallbench
