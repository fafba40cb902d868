#include "cluster.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/serialize.h"
#include "core/runner.h"
#include "host.h"
#include "join/join_module.h"
#include "net/codec.h"
#include "net/inproc_transport.h"
#include "obs/json.h"
#include "stats.h"

namespace wallbench {

namespace {

using sjoin::Message;
using sjoin::MsgType;
using sjoin::Rank;
using sjoin::RecvResult;

constexpr std::size_t kTypes = 32;

/// One timed transport call, written out with the run's spans.
struct Span {
  const char* name;
  const char* kind;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t epoch;
};

/// Per-rank counters. A slave rank has two threads (comm and join) that
/// both send, so the counters are atomic.
struct RankProbe {
  std::atomic<std::uint64_t> send_ns{0};
  std::atomic<std::uint64_t> sends{0};
  std::atomic<std::uint64_t> recv_ns{0};
  std::array<std::atomic<std::uint64_t>, kTypes> frames{};
  std::array<std::atomic<std::uint64_t>, kTypes> bytes{};
  std::atomic<std::int64_t> comm_start_ns{0};
  std::atomic<std::int64_t> comm_end_ns{0};
  std::mutex mu;
  std::vector<Span> spans;  // guarded by mu
};

/// The master's epoch schedule as seen on its transport.
struct EpochRec {
  sjoin::Time vt = 0;             ///< scheduled start, k * t_dist
  std::int64_t first_send_ns = 0;  ///< first kTupleBatch of the epoch
  std::int64_t last_report_ns = 0;
  std::int64_t wait_ns = 0;  ///< master blocked in receives
};

struct MoveRec {
  std::int64_t cmd_ns = 0;
  int acks = 0;
  std::int64_t done_ns = 0;
};

/// Shared state of one repetition.
struct Probe {
  Probe(Rank ranks, sjoin::Duration t_dist_us, bool trace)
      : traced(trace), t_dist(t_dist_us) {
    for (Rank r = 0; r < ranks; ++r) rank.push_back(std::make_unique<RankProbe>());
  }

  void AddThread(ThreadSample t) {
    std::lock_guard<std::mutex> lock(mu);
    threads.push_back(std::move(t));
  }

  const bool traced;
  const sjoin::Duration t_dist;
  MasterClock clock;
  std::vector<std::unique_ptr<RankProbe>> rank;

  // Written only by the master thread (through rank 0's tap).
  std::vector<EpochRec> epochs;
  std::int64_t last_batch_ns = 0;
  std::map<std::uint64_t, MoveRec> moves;

  std::mutex mu;
  std::vector<ThreadSample> threads;  // guarded by mu
};

class Tap final : public sjoin::Transport {
 public:
  Tap(std::unique_ptr<sjoin::Transport> inner, Probe* probe, Rank self)
      : inner_(std::move(inner)),
        probe_(probe),
        self_(self),
        rp_(*probe->rank[self]),
        slave_(self != 0 && self + 1 != probe->rank.size()) {}

  Rank Self() const override { return inner_->Self(); }

  void Send(Rank to, Message msg) override {
    if (self_ == 0) OnMasterSend(msg);
    if (!probe_->traced) {
      inner_->Send(to, std::move(msg));
      return;
    }
    const auto type = static_cast<std::size_t>(msg.type) % kTypes;
    const std::uint64_t bytes = msg.WireBytes();
    const std::int64_t epoch = EpochOf(msg);
    const char* kind = sjoin::MsgTypeName(msg.type);
    const std::int64_t t0 = SteadyNs();
    inner_->Send(to, std::move(msg));
    const std::int64_t t1 = SteadyNs();
    rp_.send_ns.fetch_add(static_cast<std::uint64_t>(t1 - t0),
                          std::memory_order_relaxed);
    rp_.sends.fetch_add(1, std::memory_order_relaxed);
    rp_.frames[type].fetch_add(1, std::memory_order_relaxed);
    rp_.bytes[type].fetch_add(bytes, std::memory_order_relaxed);
    AddSpan("net.inproc.send", kind, t0, t1, epoch);
  }

  std::optional<Message> Recv() override {
    const std::int64_t t0 = BeginRecv();
    std::optional<Message> m = inner_->Recv();
    EndRecv(m ? &*m : nullptr, !m, t0);
    return m;
  }

  std::optional<Message> RecvFrom(Rank from) override {
    const std::int64_t t0 = BeginRecv();
    std::optional<Message> m = inner_->RecvFrom(from);
    EndRecv(m ? &*m : nullptr, !m, t0);
    return m;
  }

  RecvResult RecvTimed(sjoin::Duration timeout_us) override {
    const std::int64_t t0 = BeginRecv();
    RecvResult r = inner_->RecvTimed(timeout_us);
    EndRecv(r.Ok() ? &r.msg : nullptr,
            r.status == sjoin::RecvStatus::kClosed, t0);
    return r;
  }

  RecvResult RecvFromTimed(Rank from, sjoin::Duration timeout_us) override {
    const std::int64_t t0 = BeginRecv();
    RecvResult r = inner_->RecvFromTimed(from, timeout_us);
    EndRecv(r.Ok() ? &r.msg : nullptr,
            r.status == sjoin::RecvStatus::kClosed, t0);
    return r;
  }

  void AttachMetrics(sjoin::obs::MetricsRegistry* registry) override {
    inner_->AttachMetrics(registry);
  }

 private:
  std::int64_t EpochOf(const Message& m) const {
    return probe_->t_dist > 0 ? m.send_vt / probe_->t_dist : 0;
  }

  void AddSpan(const char* name, const char* kind, std::int64_t t0,
               std::int64_t t1, std::int64_t epoch) {
    std::lock_guard<std::mutex> lock(rp_.mu);
    rp_.spans.push_back(Span{name, kind, t0, t1, epoch});
  }

  void OnMasterSend(const Message& msg) {
    if (msg.type == MsgType::kClockSync && !probe_->clock.Known()) {
      sjoin::Reader r(msg.payload);
      const sjoin::ClockSyncMsg cs = sjoin::DecodeClockSync(r);
      probe_->clock.SetOrigin(SteadyNs() - cs.master_now * 1000);
    } else if (msg.type == MsgType::kTupleBatch) {
      const std::int64_t now = SteadyNs();
      if (probe_->epochs.empty() || probe_->epochs.back().vt != msg.send_vt) {
        probe_->epochs.push_back(EpochRec{msg.send_vt, now, 0, 0});
      }
      probe_->last_batch_ns = now;
    } else if (msg.type == MsgType::kMoveCmd && probe_->traced) {
      sjoin::Reader r(msg.payload);
      probe_->moves[sjoin::DecodeMoveCmd(r).move_seq].cmd_ns = SteadyNs();
    }
  }

  std::int64_t BeginRecv() {
    const std::int64_t t0 = SteadyNs();
    if (slave_) {
      std::int64_t unset = 0;
      rp_.comm_start_ns.compare_exchange_strong(unset, t0);
    }
    return t0;
  }

  void EndRecv(const Message* m, bool closed, std::int64_t t0) {
    const std::int64_t t1 = SteadyNs();
    if (probe_->traced) {
      rp_.recv_ns.fetch_add(static_cast<std::uint64_t>(t1 - t0),
                            std::memory_order_relaxed);
      if (self_ == 0 && !probe_->epochs.empty()) {
        EpochRec& e = probe_->epochs.back();
        e.wait_ns += t1 - t0;
        if (m != nullptr && m->type == MsgType::kLoadReport) {
          e.last_report_ns = t1;
        } else if (m != nullptr && m->type == MsgType::kAck) {
          sjoin::Reader r(m->payload);
          MoveRec& mv = probe_->moves[sjoin::DecodeAck(r).move_seq];
          if (++mv.acks == 2) mv.done_ns = t1;
        }
      }
      if (m != nullptr) {
        AddSpan("net.inproc.recv", sjoin::MsgTypeName(m->type), t0, t1,
                EpochOf(*m));
      }
    }
    // The slave's comm thread ends on kShutdown (or a closed transport):
    // sample it while it still exists.
    if (slave_ && (closed || (m != nullptr && m->type == MsgType::kShutdown))) {
      rp_.comm_end_ns.store(t1);
      probe_->AddThread(SampleThisThread("slave_comm", self_));
    }
  }

  std::unique_ptr<sjoin::Transport> inner_;
  Probe* probe_;
  const Rank self_;
  RankProbe& rp_;
  const bool slave_;
};

/// What slave_inspect reads off each slave's JoinModule after its loop.
struct JoinStats {
  std::uint64_t comparisons = 0;
  std::uint64_t outputs = 0;
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  std::uint64_t window_tuples = 0;
};

constexpr std::size_t kReportTypes[] = {
    static_cast<std::size_t>(MsgType::kTupleBatch),
    static_cast<std::size_t>(MsgType::kLoadReport),
    static_cast<std::size_t>(MsgType::kStateTransfer),
    static_cast<std::size_t>(MsgType::kResultStats),
    static_cast<std::size_t>(MsgType::kMetrics),
};

void WriteSpans(const std::string& path, const Probe& probe) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  const std::int64_t zero = probe.clock.OriginNs();
  auto rel = [&](std::int64_t ns) {
    return sjoin::obs::JsonNumber(static_cast<double>(ns - zero) / 1000.0);
  };
  for (std::size_t i = 0; i < probe.epochs.size(); ++i) {
    const EpochRec& e = probe.epochs[i];
    if (e.last_report_ns == 0) continue;
    out << "{\"rank\": 0, \"name\": \"core.runner.epoch\", \"kind\": \"epoch\""
        << ", \"start_us\": " << rel(e.first_send_ns)
        << ", \"end_us\": " << rel(e.last_report_ns)
        << ", \"epoch\": " << e.vt / probe.t_dist << "}\n";
  }
  for (std::size_t r = 0; r < probe.rank.size(); ++r) {
    for (const Span& s : probe.rank[r]->spans) {
      out << "{\"rank\": " << r << ", \"name\": \"" << s.name
          << "\", \"kind\": \"" << s.kind << "\", \"start_us\": "
          << rel(s.start_ns) << ", \"end_us\": " << rel(s.end_ns)
          << ", \"epoch\": " << s.epoch << "}\n";
    }
  }
}

}  // namespace

std::string RunClusterRep(const Workload& w, std::uint64_t seed,
                          const PairDigest& expected, const RepOptions& opts) {
  sjoin::SetLogLevel(sjoin::LogLevel::kWarn);
  // The trace is the load generator's output, made before the clock of
  // the timed set-up starts: setup_s is the cluster's own bring-up.
  const std::int64_t t_gen = SteadyNs();
  const std::vector<sjoin::Rec> trace = MakeTrace(w, seed);
  const std::int64_t t_start = SteadyNs();

  const sjoin::SystemConfig cfg = MakeConfig(w, seed);
  const Rank n = cfg.num_slaves;
  Probe probe(n + 2, cfg.epoch.t_dist, opts.traced);
  sjoin::InProcHub hub(n + 2, sjoin::MailboxMode::kLockFree);
  std::vector<std::unique_ptr<Tap>> taps;
  for (Rank r = 0; r < n + 2; ++r) {
    taps.push_back(std::make_unique<Tap>(hub.Endpoint(r), &probe, r));
  }
  std::vector<std::unique_ptr<CheckSink>> sinks;
  std::vector<JoinStats> join_stats(n);
  sjoin::WallOptions wall = MakeWallOptions(w);
  wall.input_trace = &trace;
  for (Rank s = 0; s < n; ++s) {
    sinks.push_back(std::make_unique<CheckSink>(&probe.clock, w.window));
    wall.slave_extra_sinks.push_back(sinks.back().get());
  }
  wall.slave_inspect = [&join_stats](Rank self, sjoin::JoinModule& join,
                                     std::uint64_t) {
    JoinStats& js = join_stats[self - 1];
    js.comparisons = join.Comparisons();
    js.outputs = join.Outputs();
    js.splits = join.Splits();
    js.merges = join.Merges();
    js.window_tuples = join.Store().TotalCount();
  };

  const ProcessUsage usage_before = ReadProcessUsage();
  std::vector<std::int64_t> rank_wall_ns(n + 2, 0);
  std::vector<std::int64_t> rank_end_ns(n + 2, 0);
  std::int64_t collector_exit_ns = 0;
  sjoin::MasterSummary master;

  std::vector<std::thread> threads;
  for (Rank s = 1; s <= n; ++s) {
    threads.emplace_back([&, s] {
      const std::int64_t t0 = SteadyNs();
      sjoin::RunSlaveNode(*taps[s], cfg, wall);
      rank_end_ns[s] = SteadyNs();
      rank_wall_ns[s] = rank_end_ns[s] - t0;
      probe.AddThread(SampleThisThread("slave_join", s));
    });
  }
  std::thread collector([&] {
    const std::int64_t t0 = SteadyNs();
    sjoin::RunCollectorNode(*taps[n + 1], cfg);
    collector_exit_ns = SteadyNs();
    rank_end_ns[n + 1] = collector_exit_ns;
    rank_wall_ns[n + 1] = collector_exit_ns - t0;
    probe.AddThread(SampleThisThread("collector", n + 1));
  });
  std::thread master_thread([&] {
    const std::int64_t t0 = SteadyNs();
    master = sjoin::RunMasterNode(*taps[0], cfg, wall);
    rank_end_ns[0] = SteadyNs();
    rank_wall_ns[0] = rank_end_ns[0] - t0;
    probe.AddThread(SampleThisThread("master", 0));
  });
  master_thread.join();
  collector.join();
  hub.Shutdown();
  for (std::thread& t : threads) t.join();
  const ProcessUsage usage_after = ReadProcessUsage();

  // -- End-to-end ------------------------------------------------------------
  PairDigest got;
  DelayHistogram delay;
  for (const auto& s : sinks) {
    got.Merge(s->Digest());
    delay.Merge(s->Delay());
  }
  const std::int64_t first_ns =
      probe.epochs.empty() ? t_start : probe.epochs.front().first_send_ns;
  std::vector<double> lag_ms;
  for (const EpochRec& e : probe.epochs) {
    lag_ms.push_back(
        static_cast<double>(probe.clock.ToMasterUs(e.first_send_ns) - e.vt) /
        1000.0);
  }
  const double run_s = static_cast<double>(collector_exit_ns - first_ns) * 1e-9;

  JsonLine j;
  j.Num("tuples", static_cast<double>(trace.size()));
  j.Num("tuples_sent", static_cast<double>(master.tuples_sent));
  j.Num("gen_s", static_cast<double>(t_start - t_gen) * 1e-9);
  j.Num("setup_s", static_cast<double>(first_ns - t_start) * 1e-9);
  j.Num("throughput_tps", static_cast<double>(trace.size()) / run_s);
  j.Num("delay_p50_ms", delay.Quantile(0.50) / 1000.0);
  j.Num("delay_p99_ms", delay.Quantile(0.99) / 1000.0);
  j.Num("delay_samples", static_cast<double>(delay.Count()));
  j.Num("drain_s",
        static_cast<double>(collector_exit_ns - probe.last_batch_ns) * 1e-9);
  j.Num("epoch_lag_p99_ms", Quantile(lag_ms, 0.99));
  j.Num("epochs", static_cast<double>(probe.epochs.size()));
  j.Num("peak_rss_mb", usage_after.peak_rss_mb);
  j.Num("expected_pairs", static_cast<double>(expected.Pairs()));
  j.Num("pairs", static_cast<double>(got.Pairs()));
  j.Num("mismatch", static_cast<double>(PairDigest::Mismatch(expected, got)));
  j.Num("dead_slaves", master.dead_slaves);
  // When each rank's thread returned, in ms after the master's last batch
  // send: where the drain went.
  std::string ends = "[";
  for (Rank r = 0; r < n + 2; ++r) {
    ends += (r ? ", " : "") +
            sjoin::obs::JsonNumber(
                static_cast<double>(rank_end_ns[r] - probe.last_batch_ns) / 1e6);
  }
  j.Raw("rank_end_ms", ends + "]");

  // -- Layers read from outside ---------------------------------------------
  JsonLine layers;
  JoinStats total;
  double max_outputs = 0.0;
  for (const JoinStats& js : join_stats) {
    total.comparisons += js.comparisons;
    total.outputs += js.outputs;
    total.splits += js.splits;
    total.merges += js.merges;
    total.window_tuples += js.window_tuples;
    max_outputs = std::max(max_outputs, static_cast<double>(js.outputs));
  }
  const double mean_outputs = static_cast<double>(total.outputs) / n;
  layers.Num("core.balancer.migrations", static_cast<double>(master.migrations));
  layers.Num("join.join_module.comparisons",
             static_cast<double>(total.comparisons));
  layers.Num("join.join_module.outputs", static_cast<double>(total.outputs));
  layers.Num("join.join_module.splits", static_cast<double>(total.splits));
  layers.Num("join.join_module.merges", static_cast<double>(total.merges));
  layers.Num("join.useful_ratio",
             total.comparisons == 0 ? 0.0
                                    : static_cast<double>(total.outputs) /
                                          static_cast<double>(total.comparisons));
  layers.Num("join.output_skew",
             mean_outputs > 0 ? max_outputs / mean_outputs : 0.0);
  layers.Num("window.window_store.tuples_end",
             static_cast<double>(total.window_tuples));
  layers.Num("os.cpu_s", usage_after.cpu_s - usage_before.cpu_s);
  layers.Num("os.nivcsw", static_cast<double>(usage_after.involuntary_switches -
                                              usage_before.involuntary_switches));
  layers.Num("os.max_threads_per_cpu", MaxThreadsPerCpu(probe.threads));

  std::string ranks_json = "[]";
  if (opts.traced) {
    std::vector<double> epoch_us;
    double wait_us = 0.0;
    for (const EpochRec& e : probe.epochs) {
      wait_us += static_cast<double>(e.wait_ns) / 1000.0;
      if (e.last_report_ns != 0) {
        epoch_us.push_back(
            static_cast<double>(e.last_report_ns - e.first_send_ns) / 1000.0);
      }
    }
    std::vector<double> move_ms;
    for (const auto& [seq, mv] : probe.moves) {
      if (mv.done_ns != 0) {
        move_ms.push_back(static_cast<double>(mv.done_ns - mv.cmd_ns) / 1e6);
      }
    }
    layers.Num("core.runner.epoch_us.p50", Quantile(epoch_us, 0.50));
    layers.Num("core.runner.epoch_us.p99", Quantile(epoch_us, 0.99));
    layers.Num("core.runner.report_wait_us",
               probe.epochs.empty()
                   ? 0.0
                   : wait_us / static_cast<double>(probe.epochs.size()));
    layers.Num("core.runner.migration_ms.p50", Quantile(move_ms, 0.50));
    for (std::size_t type : kReportTypes) {
      std::uint64_t frames = 0;
      std::uint64_t bytes = 0;
      for (const auto& rp : probe.rank) {
        frames += rp->frames[type].load();
        bytes += rp->bytes[type].load();
      }
      const std::string name =
          sjoin::MsgTypeName(static_cast<MsgType>(type));
      layers.Num("net.inproc.frames." + name, static_cast<double>(frames));
      layers.Num("net.inproc.bytes." + name, static_cast<double>(bytes));
    }
    auto mean_send_us = [&](Rank lo, Rank hi) {
      double ns = 0.0;
      double calls = 0.0;
      for (Rank r = lo; r <= hi; ++r) {
        ns += static_cast<double>(probe.rank[r]->send_ns.load());
        calls += static_cast<double>(probe.rank[r]->sends.load());
      }
      return calls > 0 ? ns / calls / 1000.0 : 0.0;
    };
    layers.Num("net.inproc.send_us.master", mean_send_us(0, 0));
    layers.Num("net.inproc.send_us.slave", mean_send_us(1, n));
    double idle_ns = 0.0;
    double life_ns = 0.0;
    for (Rank s = 1; s <= n; ++s) {
      idle_ns += static_cast<double>(probe.rank[s]->recv_ns.load());
      life_ns += static_cast<double>(probe.rank[s]->comm_end_ns.load() -
                                     probe.rank[s]->comm_start_ns.load());
    }
    layers.Num("net.inproc.slave_recv_idle_frac",
               life_ns > 0 ? idle_ns / life_ns : 0.0);

    // Per rank: the share of the rank thread's wall time spent inside the
    // wrapped transport calls; the rest is the node's own work or
    // unattributed.
    std::ostringstream rs;
    rs << "[";
    for (Rank r = 0; r < n + 2; ++r) {
      const RankProbe& rp = *probe.rank[r];
      const double wall_s = static_cast<double>(rank_wall_ns[r]) * 1e-9;
      const double send_s = static_cast<double>(rp.send_ns.load()) * 1e-9;
      const double recv_s = static_cast<double>(rp.recv_ns.load()) * 1e-9;
      JsonLine rj;
      rj.Num("rank", r);
      rj.Str("role", r == 0 ? "master" : r == n + 1 ? "collector" : "slave");
      rj.Num("wall_s", wall_s);
      rj.Num("send_s", send_s);
      rj.Num("recv_wait_s", recv_s);
      rj.Num("accounted_frac", wall_s > 0 ? (send_s + recv_s) / wall_s : 0.0);
      rs << (r ? ", " : "") << rj.Str();
    }
    rs << "]";
    ranks_json = rs.str();
    WriteSpans(opts.spans_path, probe);
  }

  std::ostringstream threads_json;
  threads_json << "[";
  for (std::size_t i = 0; i < probe.threads.size(); ++i) {
    threads_json << (i ? ", " : "") << ThreadJson(probe.threads[i]);
  }
  threads_json << "]";
  j.Raw("layers", layers.Str());
  j.Raw("ranks", ranks_json);
  j.Raw("threads", threads_json.str());
  j.Raw("host", HostFactsJson());
  return j.Str();
}

}  // namespace wallbench
