#include "workload.h"

#include "gen/stream_source.h"

namespace wallbench {

using sjoin::kUsPerMs;
using sjoin::kUsPerSec;

namespace {

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<Workload>& All() {
  static const std::vector<Workload> kAll = [] {
    std::vector<Workload> v;
    Workload steady;
    steady.name = "steady";
    steady.slaves = 2;
    steady.rate_per_stream = 100'000;
    steady.window = 2 * kUsPerSec;
    steady.trace_span = 4 * kUsPerSec;
    v.push_back(steady);

    Workload saturate;
    saturate.name = "saturate";
    saturate.slaves = 2;
    saturate.rate_per_stream = 1'500'000;
    saturate.window = 1 * kUsPerSec;
    saturate.trace_span = 1200 * kUsPerMs;
    v.push_back(saturate);

    Workload chatty;
    chatty.name = "chatty";
    chatty.slaves = 3;
    chatty.rate_per_stream = 50'000;
    chatty.window = 500 * kUsPerMs;
    chatty.t_dist = 2 * kUsPerMs;
    chatty.trace_span = 2 * kUsPerSec;
    v.push_back(chatty);

    Workload straggler;
    straggler.name = "straggler";
    straggler.slaves = 3;
    straggler.rate_per_stream = 40'000;
    straggler.window = 2 * kUsPerSec;
    straggler.trace_span = 5 * kUsPerSec;
    straggler.straggler_spin_us = 45;
    v.push_back(straggler);
    return v;
  }();
  return kAll;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : All()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : All()) names.push_back(w.name);
  return names;
}

sjoin::SystemConfig MakeConfig(const Workload& w, std::uint64_t seed) {
  sjoin::SystemConfig cfg;
  cfg.num_slaves = w.slaves;
  cfg.join.window = w.window;
  cfg.epoch.t_dist = w.t_dist;
  cfg.epoch.t_rep = w.t_rep;
  cfg.workload.lambda = w.rate_per_stream;
  cfg.workload.b_skew = w.b_skew;
  cfg.workload.key_domain = w.key_domain;
  cfg.workload.seed = seed;
  cfg.slave.workers = 1;
  cfg.slave.wall_mode = true;
  return cfg;
}

sjoin::WallOptions MakeWallOptions(const Workload& w) {
  sjoin::WallOptions opts;
  // The trace ends the run; run_for is only a safety cap.
  opts.run_for = w.trace_span + 120 * kUsPerSec;
  if (w.straggler_spin_us > 0) {
    opts.slave_spin_us_per_tuple.assign(w.slaves, 0);
    opts.slave_spin_us_per_tuple[0] = w.straggler_spin_us;
  }
  return opts;
}

std::vector<sjoin::Rec> MakeTrace(const Workload& w, std::uint64_t seed) {
  sjoin::MergedSource source(w.rate_per_stream, w.b_skew, w.key_domain, seed);
  std::vector<sjoin::Rec> trace;
  trace.reserve(static_cast<std::size_t>(
      2.2 * w.rate_per_stream * sjoin::UsToSeconds(w.trace_span)));
  source.DrainUntil(w.trace_span, trace);
  return trace;
}

}  // namespace wallbench
