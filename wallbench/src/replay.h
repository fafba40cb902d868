// Single-thread replay of a workload's job through the layers' public
// functions, in the runner's per-epoch call order: generate, partition and
// buffer, drain per slave, encode, hand off over an InProcHub, decode, join.
// Every call is a span (name, start, end, epoch); the spans are written out
// when the replay ends, and their sum must account for at least 90% of the
// replay's wall time.
#pragma once

#include <cstdint>
#include <string>

#include "check.h"
#include "workload.h"

namespace wallbench {

inline constexpr double kMinAccountedFrac = 0.90;

struct ReplayResult {
  std::string json;  ///< one-line JSON object of the replay's layer metrics
  double accounted_frac = 0.0;
  std::uint64_t mismatch = 0;  ///< output pairs wrong against the reference
};

ReplayResult RunReplay(const Workload& w, std::uint64_t seed,
                       const PairDigest& expected,
                       const std::string& spans_path);

}  // namespace wallbench
