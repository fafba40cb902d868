#include "replay.h"

#include <fstream>
#include <memory>
#include <vector>

#include "common/serialize.h"
#include "core/master_buffer.h"
#include "core/partition_map.h"
#include "gen/stream_source.h"
#include "join/join_module.h"
#include "net/codec.h"
#include "net/inproc_transport.h"
#include "stats.h"

namespace wallbench {

namespace {

/// The layers of one epoch, in call order.
enum Layer : std::size_t {
  kGen,
  kAdd,
  kDrain,
  kEncode,
  kHandoff,
  kDecode,
  kJoin,
  kLayers
};

constexpr const char* kLayerName[kLayers] = {
    "gen.stream_source.drain_us",  "core.master_buffer.add_us",
    "core.master_buffer.drain_us", "net.codec.encode_us",
    "net.inproc.handoff_us",       "net.codec.decode_us",
    "join.join_module.process_us",
};

struct Span {
  Layer layer;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t epoch;
};

/// The program's wall-mode join runs with every virtual cost zeroed.
sjoin::SystemConfig WallJoinConfig(sjoin::SystemConfig cfg) {
  cfg.cost = sjoin::CostModel{};
  cfg.cost.cmp_ns = 0.0;
  cfg.cost.tuple_fixed_ns = 0.0;
  cfg.cost.cpu_byte_ns = 0.0;
  cfg.cost.wire_byte_ns = 0.0;
  cfg.cost.msg_fixed_us = 0;
  cfg.cost.move_ns = 0.0;
  return cfg;
}

constexpr sjoin::Duration kDrainBudget = 365LL * 24 * 3600 * sjoin::kUsPerSec;

}  // namespace

ReplayResult RunReplay(const Workload& w, std::uint64_t seed,
                       const PairDigest& expected,
                       const std::string& spans_path) {
  const sjoin::SystemConfig cfg = WallJoinConfig(MakeConfig(w, seed));
  const std::uint32_t n = cfg.num_slaves;
  const std::uint32_t npart = cfg.join.num_partitions;
  const std::size_t tb = cfg.workload.tuple_bytes;

  sjoin::MergedSource source(w.rate_per_stream, w.b_skew, w.key_domain, seed);
  sjoin::MasterBuffer buffer(npart, tb);
  const sjoin::PartitionMap pmap(npart, n);
  sjoin::InProcHub hub(n + 1, sjoin::MailboxMode::kLockFree);
  auto master = hub.Endpoint(0);
  std::vector<std::unique_ptr<sjoin::InProcEndpoint>> slave_ep;
  std::vector<std::unique_ptr<CheckSink>> sinks;
  std::vector<std::unique_ptr<sjoin::JoinModule>> joins;
  MasterClock clock;
  clock.SetOrigin(SteadyNs());
  for (std::uint32_t s = 0; s < n; ++s) {
    slave_ep.push_back(hub.Endpoint(s + 1));
    // Delay means nothing on one thread: only the digest is kept.
    sinks.push_back(std::make_unique<CheckSink>(&clock, INT64_MAX));
    joins.push_back(std::make_unique<sjoin::JoinModule>(cfg, sinks.back().get()));
  }

  std::vector<Span> spans;
  std::vector<sjoin::Rec> arrivals;
  std::uint64_t tuples = 0;
  std::int64_t epoch = 0;
  // Each span covers exactly one layer call; the glue between calls stays
  // unaccounted, which is what replay.accounted_frac measures.
  auto span = [&](Layer layer, std::int64_t t0) {
    spans.push_back(Span{layer, t0, SteadyNs(), epoch});
  };

  const std::int64_t start_ns = SteadyNs();
  for (sjoin::Time epoch_start = cfg.epoch.t_dist;;
       epoch_start += cfg.epoch.t_dist) {
    if (epoch_start - cfg.epoch.t_dist >= w.trace_span) break;
    ++epoch;
    arrivals.clear();
    std::int64_t t0 = SteadyNs();
    source.DrainUntil(std::min<sjoin::Time>(epoch_start + 1, w.trace_span),
                      arrivals);
    span(kGen, t0);
    t0 = SteadyNs();
    for (const sjoin::Rec& rec : arrivals) {
      buffer.Add(rec, sjoin::PartitionOf(rec.key, npart));
    }
    span(kAdd, t0);
    tuples += arrivals.size();
    for (std::uint32_t s = 0; s < n; ++s) {
      sjoin::TupleBatchMsg batch;
      t0 = SteadyNs();
      batch.recs = buffer.DrainFor(pmap.PartitionsOf(s));
      span(kDrain, t0);
      sjoin::Message msg;
      msg.type = sjoin::MsgType::kTupleBatch;
      t0 = SteadyNs();
      sjoin::Writer wr(sjoin::TupleBatchMsg::WireSize(batch.recs.size(), tb));
      sjoin::Encode(wr, batch, tb);
      msg.payload = std::move(wr).TakeBuffer();
      span(kEncode, t0);
      t0 = SteadyNs();
      master->Send(s + 1, std::move(msg));
      std::optional<sjoin::Message> got = slave_ep[s]->Recv();
      span(kHandoff, t0);
      t0 = SteadyNs();
      sjoin::Reader rd(got->payload);
      const sjoin::TupleBatchMsg decoded = sjoin::DecodeTupleBatch(rd, tb);
      span(kDecode, t0);
      t0 = SteadyNs();
      joins[s]->EnqueueBatch(decoded.recs);
      joins[s]->ProcessFor(clock.NowUs(), kDrainBudget);
      span(kJoin, t0);
    }
  }
  const std::int64_t end_ns = SteadyNs();
  hub.Shutdown();

  double layer_us[kLayers] = {};
  for (const Span& s : spans) {
    layer_us[s.layer] += static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
  }
  double accounted_us = 0.0;
  for (double v : layer_us) accounted_us += v;
  const double wall_us = static_cast<double>(end_ns - start_ns) / 1000.0;

  PairDigest got;
  for (const auto& s : sinks) got.Merge(s->Digest());

  ReplayResult res;
  res.accounted_frac = wall_us > 0 ? accounted_us / wall_us : 0.0;
  res.mismatch = PairDigest::Mismatch(expected, got);
  JsonLine j;
  for (std::size_t l = 0; l < kLayers; ++l) j.Num(kLayerName[l], layer_us[l]);
  j.Num("core.master_buffer.peak_bytes",
        static_cast<double>(buffer.PeakBytes()));
  j.Num("replay.tps", static_cast<double>(tuples) / (wall_us * 1e-6));
  j.Num("replay.accounted_frac", res.accounted_frac);
  j.Num("replay.tuples", static_cast<double>(tuples));
  j.Num("replay.mismatch", static_cast<double>(res.mismatch));
  res.json = j.Str();

  if (!spans_path.empty()) {
    std::ofstream out(spans_path, std::ios::trunc);
    for (const Span& s : spans) {
      out << "{\"name\": \"" << kLayerName[s.layer] << "\", \"start_us\": "
          << sjoin::obs::JsonNumber(static_cast<double>(s.start_ns - start_ns) /
                                    1000.0)
          << ", \"end_us\": "
          << sjoin::obs::JsonNumber(static_cast<double>(s.end_ns - start_ns) /
                                    1000.0)
          << ", \"epoch\": " << s.epoch << "}\n";
    }
  }
  return res;
}

}  // namespace wallbench
