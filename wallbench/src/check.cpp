#include "check.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <sstream>

namespace wallbench {

std::uint64_t PairDigest::Pairs() const {
  std::uint64_t n = 0;
  for (std::uint64_t c : count) n += c;
  return n;
}

void PairDigest::Merge(const PairDigest& other) {
  for (std::size_t b = 0; b < kDigestBuckets; ++b) {
    count[b] += other.count[b];
    sum[b] += other.sum[b];
  }
}

std::uint64_t PairDigest::Mismatch(const PairDigest& expected,
                                   const PairDigest& actual) {
  std::uint64_t bad = 0;
  for (std::size_t b = 0; b < kDigestBuckets; ++b) {
    const std::uint64_t e = expected.count[b];
    const std::uint64_t a = actual.count[b];
    if (e != a) {
      bad += e > a ? e - a : a - e;
    } else if (expected.sum[b] != actual.sum[b]) {
      bad += 2;
    }
  }
  return bad;
}

std::string PairDigest::Serialize() const {
  std::ostringstream os;
  for (std::size_t b = 0; b < kDigestBuckets; ++b) {
    os << count[b] << ' ' << sum[b] << '\n';
  }
  return os.str();
}

bool PairDigest::Parse(const std::string& text, PairDigest* out) {
  std::istringstream is(text);
  for (std::size_t b = 0; b < kDigestBuckets; ++b) {
    if (!(is >> out->count[b] >> out->sum[b])) return false;
  }
  return true;
}

PairDigest SweepJoin(std::span<const sjoin::Rec> trace,
                     sjoin::Duration window) {
  std::vector<sjoin::Rec> recs(trace.begin(), trace.end());
  std::sort(recs.begin(), recs.end(),
            [](const sjoin::Rec& a, const sjoin::Rec& b) {
              if (a.key != b.key) return a.key < b.key;
              if (a.stream != b.stream) return a.stream < b.stream;
              return a.ts < b.ts;
            });
  PairDigest d;
  std::size_t i = 0;
  while (i < recs.size()) {
    const std::uint64_t key = recs[i].key;
    std::size_t mid = i;
    while (mid < recs.size() && recs[mid].key == key && recs[mid].stream == 0) {
      ++mid;
    }
    std::size_t end = mid;
    while (end < recs.size() && recs[end].key == key) ++end;
    // recs[i, mid) is stream 0, recs[mid, end) stream 1, both by ts.
    std::size_t lo = mid;
    std::size_t hi = mid;
    const std::size_t b = BucketOf(key);
    for (std::size_t x = i; x < mid; ++x) {
      const sjoin::Time t0 = recs[x].ts;
      while (lo < end && recs[lo].ts < t0 - window) ++lo;
      if (hi < lo) hi = lo;
      while (hi < end && recs[hi].ts <= t0 + window) ++hi;
      const std::uint64_t half0 = PairHalf0(t0, key);
      for (std::size_t y = lo; y < hi; ++y) {
        d.sum[b] += PairMix(half0 + PairHalf1(recs[y].ts));
      }
      d.count[b] += hi - lo;
    }
    i = end;
  }
  return d;
}

// -- DelayHistogram -----------------------------------------------------------

namespace {
constexpr std::size_t kLinear = 256;  // exact below 256 us
constexpr std::size_t kSub = 128;     // sub-buckets per power of two above
constexpr std::size_t kBuckets = kLinear + 56 * kSub;
}  // namespace

DelayHistogram::DelayHistogram() : buckets_(kBuckets, 0) {}

std::size_t DelayHistogram::Index(std::uint64_t v) {
  if (v < kLinear) return static_cast<std::size_t>(v);
  const int msb = 63 - std::countl_zero(v);  // >= 8
  const int shift = msb - 7;                 // >= 1
  const std::size_t idx = kLinear + static_cast<std::size_t>(shift - 1) * kSub +
                          static_cast<std::size_t>((v >> shift) - kSub);
  return std::min(idx, kBuckets - 1);
}

double DelayHistogram::Mid(std::size_t idx) {
  if (idx < kLinear) return static_cast<double>(idx);
  const std::size_t shift = (idx - kLinear) / kSub + 1;
  const std::uint64_t top = (idx - kLinear) % kSub + kSub;
  const double lo = static_cast<double>(top << shift);
  return lo + static_cast<double>(std::uint64_t{1} << shift) / 2.0;
}

void DelayHistogram::Add(std::int64_t us, std::uint64_t weight) {
  buckets_[Index(us < 0 ? 0 : static_cast<std::uint64_t>(us))] += weight;
  total_ += weight;
}

void DelayHistogram::Merge(const DelayHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  total_ += other.total_;
}

double DelayHistogram::Quantile(double q) const {
  if (total_ == 0) return 0.0;
  const double target = q * static_cast<double>(total_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (buckets_[i] != 0 && static_cast<double>(seen) >= target) return Mid(i);
  }
  return Mid(kBuckets - 1);
}

// -- Clocks -------------------------------------------------------------------

std::int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

sjoin::Time MasterClock::ToMasterUs(std::int64_t steady_ns) const {
  return (steady_ns - origin_ns_.load(std::memory_order_acquire)) / 1000;
}

sjoin::Time MasterClock::NowUs() const { return ToMasterUs(SteadyNs()); }

// -- CheckSink ----------------------------------------------------------------

void CheckSink::OnMatches(const sjoin::Rec& probe,
                          std::span<const sjoin::Time> partners,
                          sjoin::Time /*produced_at*/) {
  const std::size_t b = BucketOf(probe.key);
  std::uint64_t acc = 0;
  if (probe.stream == 0) {
    const std::uint64_t half0 = PairHalf0(probe.ts, probe.key);
    for (sjoin::Time t : partners) acc += PairMix(half0 + PairHalf1(t));
  } else {
    const std::uint64_t half1 = PairHalf1(probe.ts);
    for (sjoin::Time t : partners) {
      acc += PairMix(PairHalf0(t, probe.key) + half1);
    }
  }
  digest_.sum[b] += acc;
  digest_.count[b] += partners.size();
  if (probe.ts >= warmup_) {
    delay_.Add(clock_->NowUs() - probe.ts, partners.size());
  }
}

}  // namespace wallbench
