// wallbench: wall-clock benchmark of the real master/slave/collector nodes.
//
//   wallbench selftest
//       Checks the sort-and-sweep join against ReferenceSlidingJoin on small
//       traces and that the digest comparison catches a wrong answer.
//   wallbench reference --workload W --seed N --out FILE
//       Writes the reference digest of the workload's trace for the seed.
//   wallbench run --workload W --seed N --ref FILE [--traced --spans FILE]
//       Runs one repetition on the cluster; prints one JSON line.
//   wallbench replay --workload W --seed N --ref FILE --spans FILE
//       Replays the job on one thread layer by layer; prints one JSON line.
//
// Exit codes: 0 ok, 1 wrong output or failed self-test, 2 usage or I/O
// error, 3 replay accounted for less than 90% of its wall time.
// run.py drives these modes and aggregates the repetitions.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "check.h"
#include "cluster.h"
#include "gen/stream_source.h"
#include "join/reference_join.h"
#include "replay.h"
#include "workload.h"

namespace {

using wallbench::PairDigest;

int Usage(const std::string& why) {
  std::cerr << "wallbench: " << why << "\n"
            << "usage: wallbench selftest | reference|run|replay --workload W"
               " --seed N [--ref FILE] [--out FILE] [--traced] [--spans FILE]\n";
  return 2;
}

/// Digest of a materialized pair list, folded exactly like CheckSink does.
PairDigest DigestOf(const std::vector<sjoin::JoinPair>& pairs) {
  PairDigest d;
  for (const sjoin::JoinPair& p : pairs) {
    const std::size_t b = wallbench::BucketOf(p.key);
    d.count[b] += 1;
    d.sum[b] += wallbench::PairMix(wallbench::PairHalf0(p.ts0, p.key) +
                                   wallbench::PairHalf1(p.ts1));
  }
  return d;
}

int SelfTest() {
  struct Case {
    double rate;
    std::uint64_t keys;
    sjoin::Duration window;
    sjoin::Duration span;
    std::uint64_t seed;
  };
  // Small key domains force many pairs per key; a window of a few
  // microseconds at these rates exercises the |ts0 - ts1| == W boundary.
  const Case cases[] = {
      {2000, 16, 50'000, 1'000'000, 1},
      {5000, 64, 3, 400'000, 2},
      {1000, 4, 250'000, 2'000'000, 3},
      {20000, 1000, 1'000, 100'000, 4},
  };
  int failures = 0;
  for (const Case& c : cases) {
    sjoin::MergedSource source(c.rate, 0.7, c.keys, c.seed);
    std::vector<sjoin::Rec> trace;
    source.DrainUntil(c.span, trace);
    // Exact-boundary and equal-timestamp pairs.
    trace.push_back(sjoin::Rec{c.span + 10, 7, 0});
    trace.push_back(sjoin::Rec{c.span + 10, 7, 1});
    trace.push_back(sjoin::Rec{c.span + 10 + c.window, 7, 1});
    trace.push_back(sjoin::Rec{c.span + 11 + c.window, 7, 0});
    const std::vector<sjoin::JoinPair> ref =
        sjoin::ReferenceSlidingJoin(trace, c.window);
    const PairDigest want = DigestOf(ref);
    const PairDigest got = wallbench::SweepJoin(trace, c.window);
    const std::uint64_t bad = PairDigest::Mismatch(want, got);
    std::cout << "selftest: tuples=" << trace.size() << " pairs=" << ref.size()
              << " sweep_pairs=" << got.Pairs() << " mismatch=" << bad << "\n";
    if (bad != 0 || got.Pairs() != ref.size()) ++failures;
    // The comparison must notice one lost and one substituted pair.
    if (!ref.empty()) {
      std::vector<sjoin::JoinPair> lost(ref.begin() + 1, ref.end());
      std::vector<sjoin::JoinPair> swapped = ref;
      swapped[0].ts1 += 1;
      if (PairDigest::Mismatch(want, DigestOf(lost)) == 0 ||
          PairDigest::Mismatch(want, DigestOf(swapped)) == 0) {
        std::cout << "selftest: digest missed a wrong answer\n";
        ++failures;
      }
    }
  }
  std::cout << "{\"selftest\": \"" << (failures == 0 ? "ok" : "FAILED")
            << "\", \"failures\": " << failures << "}\n";
  return failures == 0 ? 0 : 1;
}

bool ReadDigest(const std::string& path, PairDigest* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  return PairDigest::Parse(buf.str(), out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage("missing mode");
  const std::string mode = argv[1];
  if (mode == "selftest") return SelfTest();

  std::map<std::string, std::string> args;
  bool traced = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--traced") {
      traced = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      return Usage("bad argument " + a);
    }
  }
  const wallbench::Workload* w = wallbench::FindWorkload(args["workload"]);
  if (w == nullptr) return Usage("unknown workload '" + args["workload"] + "'");
  if (args["seed"].empty()) return Usage("missing --seed");
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);

  if (mode == "reference") {
    if (args["out"].empty()) return Usage("missing --out");
    const std::vector<sjoin::Rec> trace = wallbench::MakeTrace(*w, seed);
    const PairDigest d = wallbench::SweepJoin(trace, w->window);
    std::ofstream out(args["out"], std::ios::trunc);
    out << d.Serialize();
    out.close();
    if (!out) return Usage("cannot write " + args["out"]);
    std::cout << "{\"tuples\": " << trace.size() << ", \"pairs\": " << d.Pairs()
              << "}\n";
    return 0;
  }

  PairDigest expected;
  if (!ReadDigest(args["ref"], &expected)) {
    return Usage("cannot read reference digest '" + args["ref"] + "'");
  }
  if (mode == "run") {
    wallbench::RepOptions opts;
    opts.traced = traced;
    opts.spans_path = args["spans"];
    std::cout << wallbench::RunClusterRep(*w, seed, expected, opts) << "\n";
    return 0;
  }
  if (mode == "replay") {
    const wallbench::ReplayResult r =
        wallbench::RunReplay(*w, seed, expected, args["spans"]);
    std::cout << r.json << "\n";
    if (r.mismatch != 0) {
      std::cerr << "wallbench: replay output differs from the reference\n";
      return 1;
    }
    if (r.accounted_frac < wallbench::kMinAccountedFrac) {
      std::cerr << "wallbench: replay spans account for only "
                << r.accounted_frac * 100.0 << "% of its wall time (< "
                << wallbench::kMinAccountedFrac * 100.0 << "%)\n";
      return 3;
    }
    return 0;
  }
  return Usage("unknown mode " + mode);
}
