// What the benchmark reads about its own process from the OS: per-thread
// placement and CPU time (/proc/thread-self/status, the thread CPU clock),
// process-wide rusage, and the host facts every run report records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wallbench {

struct ThreadSample {
  std::string role;  ///< master | slave_join | slave_comm | collector
  std::uint32_t rank = 0;
  long tid = 0;
  std::string cpus_allowed;  ///< Cpus_allowed_list, e.g. "0" or "0-3"
  double cpu_s = 0.0;
  std::uint64_t voluntary_switches = 0;
  std::uint64_t involuntary_switches = 0;
};

/// Samples the calling thread; call it as the thread's last act.
ThreadSample SampleThisThread(const std::string& role, std::uint32_t rank);

/// The largest number of sampled threads confined to one and the same CPU
/// (0 when no thread is confined to a single CPU).
std::uint32_t MaxThreadsPerCpu(const std::vector<ThreadSample>& threads);

struct ProcessUsage {
  double cpu_s = 0.0;
  std::uint64_t involuntary_switches = 0;
  double peak_rss_mb = 0.0;
};

ProcessUsage ReadProcessUsage();

/// JSON object of the host facts: nproc, the resolved pin list, the
/// caller's SJOIN_PIN_CPUS (null when unset) and the build type.
std::string HostFactsJson();

/// JSON object of one thread sample.
std::string ThreadJson(const ThreadSample& t);

}  // namespace wallbench
