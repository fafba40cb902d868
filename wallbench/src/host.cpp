#include "host.h"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "common/lockfree.h"
#include "obs/json.h"

#ifndef WALLBENCH_BUILD_TYPE
#define WALLBENCH_BUILD_TYPE "unknown"
#endif

namespace wallbench {

namespace {

std::string Trim(std::string s) {
  const auto b = s.find_first_not_of(" \t");
  const auto e = s.find_last_not_of(" \t\r\n");
  return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
}

std::string Quoted(const std::string& s) {
  std::string out;
  sjoin::obs::AppendJsonString(out, s);
  return out;
}

}  // namespace

ThreadSample SampleThisThread(const std::string& role, std::uint32_t rank) {
  ThreadSample t;
  t.role = role;
  t.rank = rank;
  t.tid = static_cast<long>(::syscall(SYS_gettid));
  std::ifstream in("/proc/thread-self/status");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, colon);
    const std::string value = Trim(line.substr(colon + 1));
    if (key == "Cpus_allowed_list") {
      t.cpus_allowed = value;
    } else if (key == "voluntary_ctxt_switches") {
      t.voluntary_switches = std::stoull(value);
    } else if (key == "nonvoluntary_ctxt_switches") {
      t.involuntary_switches = std::stoull(value);
    }
  }
  timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    t.cpu_s = static_cast<double>(ts.tv_sec) +
              static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  return t;
}

std::uint32_t MaxThreadsPerCpu(const std::vector<ThreadSample>& threads) {
  std::map<std::string, std::uint32_t> per_cpu;
  std::uint32_t most = 0;
  for (const ThreadSample& t : threads) {
    const bool single = !t.cpus_allowed.empty() &&
                        t.cpus_allowed.find_first_of(",-") == std::string::npos;
    if (single) most = std::max(most, ++per_cpu[t.cpus_allowed]);
  }
  return most;
}

ProcessUsage ReadProcessUsage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  ProcessUsage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.involuntary_switches = static_cast<std::uint64_t>(ru.ru_nivcsw);
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

std::string HostFactsJson() {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"pin_cpus\": [";
  const std::vector<std::uint32_t> pins = sjoin::ResolvePinCpus();
  for (std::size_t i = 0; i < pins.size(); ++i) {
    os << (i ? ", " : "") << pins[i];
  }
  const char* env = std::getenv("SJOIN_PIN_CPUS");
  os << "], \"SJOIN_PIN_CPUS\": " << (env ? Quoted(env) : "null")
     << ", \"build_type\": " << Quoted(WALLBENCH_BUILD_TYPE) << "}";
  return os.str();
}

std::string ThreadJson(const ThreadSample& t) {
  std::ostringstream os;
  os << "{\"role\": " << Quoted(t.role) << ", \"rank\": " << t.rank
     << ", \"tid\": " << t.tid
     << ", \"cpus_allowed\": " << Quoted(t.cpus_allowed)
     << ", \"cpu_s\": " << sjoin::obs::JsonNumber(t.cpu_s)
     << ", \"voluntary_switches\": " << t.voluntary_switches
     << ", \"involuntary_switches\": " << t.involuntary_switches << "}";
  return os.str();
}

}  // namespace wallbench
