// Output checking that scales to millions of tuples, and the delay probe.
//
// The cluster's answer is compared against a sort-and-sweep evaluation of
// the same sliding-window equi-join (every cross-stream pair with equal keys
// and |ts0 - ts1| <= W). Neither side materializes pairs: both fold them
// into an order-independent digest -- per key bucket, a pair count and a
// wrapping sum of a 64-bit pair hash -- so duplicates, losses and wrong
// pairs all show, in whatever order the slaves emit them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/time.h"
#include "join/sink.h"
#include "tuple/tuple.h"

namespace wallbench {

inline constexpr std::size_t kDigestBuckets = 256;

/// Multiset digest of a join answer.
struct PairDigest {
  std::array<std::uint64_t, kDigestBuckets> count{};
  std::array<std::uint64_t, kDigestBuckets> sum{};

  std::uint64_t Pairs() const;
  void Merge(const PairDigest& other);

  /// A lower bound on the pairs missing from or extra in `actual`: the
  /// count difference of each bucket, and at least 2 (one lost, one wrong)
  /// where the counts agree but the hashes do not.
  static std::uint64_t Mismatch(const PairDigest& expected,
                                const PairDigest& actual);

  std::string Serialize() const;
  static bool Parse(const std::string& text, PairDigest* out);
};

/// Hash of one canonical output pair. Linear inside the mixer so a probe
/// can fold its own half once and add each partner's half.
inline std::uint64_t PairHalf0(sjoin::Time ts0, std::uint64_t key) {
  return key * 0x9E3779B97F4A7C15ull +
         static_cast<std::uint64_t>(ts0) * 0xC2B2AE3D27D4EB4Full;
}
inline std::uint64_t PairHalf1(sjoin::Time ts1) {
  return static_cast<std::uint64_t>(ts1) * 0x165667B19E3779F9ull;
}
inline std::uint64_t PairMix(std::uint64_t x) {
  x ^= x >> 31;
  x *= 0x7FB5D329728EA185ull;
  x ^= x >> 27;
  x *= 0x81DADEF4BC2DD44Dull;
  x ^= x >> 33;
  return x;
}
inline std::size_t BucketOf(std::uint64_t key) {
  return static_cast<std::size_t>(key % kDigestBuckets);
}

/// Sort-and-sweep evaluation of the reference join over `trace`.
PairDigest SweepJoin(std::span<const sjoin::Rec> trace, sjoin::Duration window);

/// Log-linear histogram of integer microseconds (relative error < 1/128),
/// with per-sample weights.
class DelayHistogram {
 public:
  DelayHistogram();
  void Add(std::int64_t us, std::uint64_t weight);
  void Merge(const DelayHistogram& other);
  std::uint64_t Count() const { return total_; }
  /// Weighted quantile in microseconds (bucket midpoint); 0 when empty.
  double Quantile(double q) const;

 private:
  static std::size_t Index(std::uint64_t v);
  static double Mid(std::size_t idx);
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
};

/// Master time (the trace's time base) read from this process's steady
/// clock, once the master's clock origin is known.
class MasterClock {
 public:
  void SetOrigin(std::int64_t steady_ns_at_zero) {
    origin_ns_.store(steady_ns_at_zero, std::memory_order_release);
  }
  bool Known() const {
    return origin_ns_.load(std::memory_order_acquire) != kUnset;
  }
  std::int64_t OriginNs() const {
    return origin_ns_.load(std::memory_order_acquire);
  }
  sjoin::Time NowUs() const;
  sjoin::Time ToMasterUs(std::int64_t steady_ns) const;

 private:
  static constexpr std::int64_t kUnset = INT64_MIN;
  std::atomic<std::int64_t> origin_ns_{kUnset};
};

std::int64_t SteadyNs();

/// Extra per-slave sink: folds every output pair into a digest and records
/// the paper's production delay (instant the sink receives the pair, in
/// master time, minus the newer input's timestamp), weighted per pair, for
/// probes newer than `warmup` (the first full window). The program stamps
/// all outputs of a batch with the batch's start instant, so the sink reads
/// its own clock to include the batch's processing time.
class CheckSink final : public sjoin::JoinSink {
 public:
  CheckSink(const MasterClock* clock, sjoin::Time warmup)
      : clock_(clock), warmup_(warmup) {}

  void OnMatches(const sjoin::Rec& probe, std::span<const sjoin::Time> partners,
                 sjoin::Time produced_at) override;

  const PairDigest& Digest() const { return digest_; }
  const DelayHistogram& Delay() const { return delay_; }

 private:
  const MasterClock* clock_;
  sjoin::Time warmup_;
  PairDigest digest_;
  DelayHistogram delay_;
};

}  // namespace wallbench
