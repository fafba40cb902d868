// One repetition of a workload on the real cluster: RunMasterNode, one
// RunSlaveNode per slave and RunCollectorNode, each on its own thread, over
// an InProcHub with lock-free mailboxes. Every rank's Transport is wrapped
// by a Tap that watches frames go by; nothing inside the program changes.
#pragma once

#include <cstdint>
#include <string>

#include "check.h"
#include "workload.h"

namespace wallbench {

struct RepOptions {
  /// Traced repetitions time every transport call, count frames and bytes
  /// by type, follow epochs and migrations, and write spans to
  /// `spans_path`. Untraced ones only stamp the master's batch sends.
  bool traced = false;
  std::string spans_path;
};

/// Runs one repetition and returns its result as a one-line JSON object.
/// `expected` is the reference digest of the workload's trace for `seed`.
std::string RunClusterRep(const Workload& w, std::uint64_t seed,
                          const PairDigest& expected, const RepOptions& opts);

}  // namespace wallbench
