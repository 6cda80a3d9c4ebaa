// mirror: remote commit-to-visible latency through a journal append, a
// scheduler hop and a loopback frame. A durable server manager exports 8
// origins with short triggered chains; a client manager mirrors the chain
// tails over a zero-latency LoopbackLink. Three threads: the driver, a
// checkpointer, and one pool worker shared by both managers and the link.

#include <unistd.h>

#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/journal.h"
#include "metadata/descriptor.h"
#include "metadata/manager.h"
#include "metadata/persistence.h"
#include "metadata/remote.h"
#include "net/loopback.h"
#include "plan.h"

namespace perfbench {
namespace {

using namespace pipes;

constexpr int kOrigins = 8;
constexpr size_t kScheduleLen = 4096;
constexpr int kWarmupOps = 20'000;
constexpr int64_t kVisibleTimeoutNs = 1'000'000'000;
constexpr int64_t kStartupTimeoutNs = 5'000'000'000;
constexpr auto kCheckpointEvery = std::chrono::seconds(1);
/// Server handlers a commit refreshes: a_k, b_k and the per-peer export
/// item that pushes b_k to the client.
constexpr uint64_t kServerClosure = 3;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

struct Step {
  uint32_t origin;
  double delta;
};

class MirrorInstance {
 public:
  MirrorInstance(uint64_t seed, int warmup, std::string journal_dir)
      : dir_(std::move(journal_dir)) {
    std::filesystem::remove_all(dir_);
    src_.AttachMetadataManager(&server_);
    auto& reg = src_.metadata_registry();
    for (int k = 0; k < kOrigins; ++k) {
      const std::string n = std::to_string(k);
      origin_keys_[k] = "o" + n;
      tail_keys_[k] = "b" + n;
      std::atomic<double>* v = &committed_[k];
      JoinPlan::Require(reg.Define(
          MetadataDescriptor::OnDemand(origin_keys_[k])
              .WithEvaluator([v](EvalContext&) {
                return MetadataValue(v->load(std::memory_order_relaxed));
              })));
      JoinPlan::Require(reg.Define(
          MetadataDescriptor::Triggered("a" + n)
              .DependsOnSelf(origin_keys_[k])
              .WithEvaluator([](EvalContext& ctx) {
                return MetadataValue(ctx.DepDouble(0) + 1);
              })));
      JoinPlan::Require(reg.Define(
          MetadataDescriptor::Triggered(tail_keys_[k])
              .DependsOnSelf("a" + n)
              .WithEvaluator([](EvalContext& ctx) {
                return MetadataValue(ctx.DepDouble(0) * 2);
              })));
    }
    // kNone: every append is written through to the page cache and never
    // fsynced, so the journal path measures the program, not the disk.
    DurabilityConfig cfg;
    cfg.dir = dir_;
    cfg.fsync_policy = FsyncPolicy::kNone;
    cfg.checkpoint_period = 0;  // the checkpointer thread drives them
    JoinPlan::Require(server_.EnableDurability(cfg, {&src_}));
    JoinPlan::Require(fed_.ExportProvider(src_));
    fed_.Serve(link_.a());
    mirror_ = std::make_unique<RemoteMetadataProvider>("src", client_,
                                                       link_.b());
    for (int k = 0; k < kOrigins; ++k) {
      JoinPlan::Require(mirror_->Mirror(tail_keys_[k]));
      auto sub = client_.Subscribe(*mirror_, tail_keys_[k]);
      JoinPlan::Require(sub.status());
      visible_[k] = std::move(sub.value());
    }
    const int64_t deadline = NowNs() + kStartupTimeoutNs;
    for (int k = 0; k < kOrigins; ++k) {
      while (visible_[k].GetDouble() != 2.0) {
        if (NowNs() > deadline) {
          throw std::runtime_error("mirror set-up: mirrors never synced");
        }
        std::this_thread::yield();
      }
    }
    SeededRng rng(seed * 0x6c8e9cf5 + 11);
    steps_.resize(kScheduleLen);
    for (Step& s : steps_) {
      s.origin = static_cast<uint32_t>(rng.Below(kOrigins));
      s.delta = static_cast<double>(1 + rng.Below(1000));
    }
    Tracer off;
    for (int i = 0; i < warmup; ++i) {
      if (!Commit(off).ok) {
        throw std::runtime_error("mirror warm-up: commit never visible");
      }
    }
  }

  ~MirrorInstance() {
    server_.DisableDurability();
    pool_.Shutdown();  // no task may run while the members below go away
    for (auto& v : visible_) v.Reset();
    mirror_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  OpTiming Commit(Tracer& tr) {
    const Step& s = steps_[next_++ & (kScheduleLen - 1)];
    const uint32_t k = s.origin;
    ScopedSpan op(tr, Span::kOp);
    OpTiming t;
    t.start_ns = NowNs();
    const double v = committed_[k].load(std::memory_order_relaxed) + s.delta;
    committed_[k].store(v, std::memory_order_relaxed);
    {
      ScopedSpan f(tr, Span::kFireEvent);
      server_.FireEvent(src_, origin_keys_[k]);
    }
    const double want = (v + 1) * 2;
    bool seen = false;
    {
      ScopedSpan w(tr, Span::kWaitVisible);
      const int64_t deadline = t.start_ns + kVisibleTimeoutNs;
      while (!(seen = visible_[k].GetDouble() == want) && NowNs() < deadline) {
        CpuRelax();
      }
    }
    t.end_ns = NowNs();
    // Every commit must advance the mirror's sequence cursor.
    Result<MirrorStats> ms = mirror_->mirror_stats(tail_keys_[k]);
    const bool advanced = ms.ok() && ms->last_seen_seq > last_seq_[k];
    if (ms.ok()) last_seq_[k] = ms->last_seen_seq;
    t.ok = seen && advanced;
    return t;
  }

  MetadataManager& server() { return server_; }
  ThreadPoolScheduler& pool() { return pool_; }
  const MetadataFederationServer& fed() const { return fed_; }
  const RemoteMetadataProvider& mirror() const { return *mirror_; }

 private:
  std::string dir_;
  ThreadPoolScheduler pool_{1};
  MetadataManager server_{pool_};
  MetadataManager client_{pool_};
  net::LoopbackLink link_{pool_};
  MetadataProvider src_{"src"};
  std::atomic<double> committed_[kOrigins] = {};
  MetadataKey origin_keys_[kOrigins];
  MetadataKey tail_keys_[kOrigins];
  MetadataFederationServer fed_{server_};
  std::unique_ptr<RemoteMetadataProvider> mirror_;
  MetadataSubscription visible_[kOrigins];
  uint64_t last_seq_[kOrigins] = {};
  std::vector<Step> steps_;
  uint64_t next_ = 0;
};

/// \brief Checkpoints the server once per second while a pass runs, on a
/// thread of its own, the way a periodic checkpoint competes with commits.
class Checkpointer {
 public:
  Checkpointer(MetadataManager& server, bool traced)
      : server_(server), tracer_(traced ? 1024 : 0, 0) {}
  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;
  ~Checkpointer() { Stop(); }

  void Start() {
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!cv_.wait_for(lock, kCheckpointEvery, [this] { return stop_; })) {
        lock.unlock();
        {
          ScopedSpan s(tracer_, Span::kCheckpointNow);
          if (!server_.durability()->CheckpointNow().ok()) ++failures_;
        }
        ++checkpoints_;
        lock.lock();
      }
    });
  }
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  const Tracer& tracer() const { return tracer_; }
  uint64_t checkpoints() const { return checkpoints_; }
  uint64_t failures() const { return failures_; }

 private:
  MetadataManager& server_;
  Tracer tracer_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  uint64_t checkpoints_ = 0;
  uint64_t failures_ = 0;
  std::thread thread_;
};

PassResult RunWithCheckpoints(MirrorInstance& inst, const PassSpec& spec,
                              Checkpointer* ckpt) {
  ckpt->Start();
  PassResult pass = RunPass(spec, 1, [&](int, Tracer& tr) {
    return inst.Commit(tr);
  });
  ckpt->Stop();
  return pass;
}

void CheckMirror(const LayerSnapshot& a, const LayerSnapshot& b,
                 const PeerStats& pa, const PeerStats& pb,
                 const Checkpointer& ckpt, WorkloadReport* report) {
  const uint64_t waves = b.md.waves - a.md.waves;
  report->Check(waves > 0 && b.md.wave_refreshes - a.md.wave_refreshes ==
                                 kServerClosure * waves,
                "mirror: server refreshes per wave differ from the closure");
  report->Check(pb.duplicates_suppressed == pa.duplicates_suppressed,
                "mirror: duplicates suppressed on a perfect link");
  report->Check(ckpt.failures() == 0 && b.md.journal_write_failures == 0 &&
                    !b.md.durability_degraded,
                "mirror: journal or checkpoint IO failed");
}

std::string JournalDir(const RunOptions& opt) {
  return opt.work_dir + "/mirror-journal-" + std::to_string(getpid());
}

}  // namespace

WorkloadReport RunMirror(const RunOptions& opt) {
  WorkloadReport rep;
  std::unique_ptr<MirrorInstance> inst;
  const int warmup = opt.tiny ? 200 : kWarmupOps;
  const double setup_s = TimedSetup(
      [&] {
        return std::make_unique<MirrorInstance>(opt.seed, warmup,
                                                JournalDir(opt));
      },
      &inst);

  if (!opt.trace) {
    Checkpointer ckpt(inst->server(), false);
    const LayerSnapshot a = Snap(inst->server(), inst->pool());
    const PeerStats pa = inst->mirror().peer_stats();
    PassResult pass = RunWithCheckpoints(
        *inst, {opt.seconds, RoundsFor(opt.seconds), 0}, &ckpt);
    const LayerSnapshot b = Snap(inst->server(), inst->pool());
    const PeerStats pb = inst->mirror().peer_stats();
    AddEndToEnd(pass, setup_s, &rep);
    CheckMirror(a, b, pa, pb, ckpt, &rep);
    char line[256];
    std::snprintf(line, sizeof line,
                  "mirror: %llu checkpoints, %llu duplicates suppressed "
                  "before timing (subscribe ack and first push carry the "
                  "same sequence), %llu retries",
                  static_cast<unsigned long long>(ckpt.checkpoints()),
                  static_cast<unsigned long long>(pa.duplicates_suppressed),
                  static_cast<unsigned long long>(pb.retries));
    rep.notes.emplace_back(line);
    return rep;
  }

  Checkpointer plain(inst->server(), false);
  PassResult untraced = RunWithCheckpoints(*inst, {opt.seconds, 1, 0}, &plain);
  Checkpointer ckpt(inst->server(), true);
  const LayerSnapshot a = Snap(inst->server(), inst->pool());
  const FederationServerStats fa = inst->fed().stats();
  const PeerStats pa = inst->mirror().peer_stats();
  PassResult traced =
      RunWithCheckpoints(*inst, {opt.seconds, 1, kSpansPerPass}, &ckpt);
  const LayerSnapshot b = Snap(inst->server(), inst->pool());
  const FederationServerStats fb = inst->fed().stats();
  const PeerStats pb = inst->mirror().peer_stats();
  CheckMirror(a, b, pa, pb, ckpt, &rep);
  for (const PassResult* p : {&untraced, &traced}) {
    rep.attempted += p->attempted;
    rep.failed += p->failed;
  }
  rep.Check(rep.failed == 0, "mirror: a commit was not visible in time");

  const Budget budget = ComputeBudget(traced, untraced, &ckpt.tracer());
  DescribeBudget("mirror", budget, &rep);
  const std::string p = "mirror";
  const double ops = static_cast<double>(traced.attempted);
  const double secs = static_cast<double>(b.at_ns - a.at_ns) * 1e-9;
  AddSpanMetric(p + ".metadata.fire_event_ns", budget, Span::kFireEvent, 1,
                "ns", &rep);
  AddWaveMetrics(p, a, b, &rep);
  rep.metrics.push_back(
      {p + ".persistence.records_per_op",
       Ratio(static_cast<double>(b.md.journal_records - a.md.journal_records),
             ops),
       "ratio"});
  rep.metrics.push_back(
      {p + ".persistence.bytes_per_op",
       Ratio(static_cast<double>(b.md.journal_bytes - a.md.journal_bytes), ops),
       "B"});
  rep.metrics.push_back(
      {p + ".persistence.flushes_per_s",
       Ratio(static_cast<double>(b.md.group_flushes - a.md.group_flushes),
             secs),
       "1/s"});
  rep.metrics.push_back(
      {p + ".persistence.checkpoint_ms",
       budget.background_ms_per_call[static_cast<int>(Span::kCheckpointNow)],
       "ms"});
  AddSpanMetric(p + ".remote.visible_wait_us", budget, Span::kWaitVisible,
                1e-3, "us", &rep);
  rep.metrics.push_back(
      {p + ".remote.pushes_per_op",
       Ratio(static_cast<double>(fb.pushes_sent - fa.pushes_sent), ops),
       "ratio"});
  rep.metrics.push_back(
      {p + ".remote.duplicates_suppressed",
       static_cast<double>(pb.duplicates_suppressed - pa.duplicates_suppressed),
       "count"});
  rep.metrics.push_back(
      {p + ".remote.heartbeats_per_s",
       Ratio(static_cast<double>(pb.heartbeats_sent - pa.heartbeats_sent),
             secs),
       "1/s"});
  AddSchedulerMetrics(p, a, b, traced.attempted, /*lateness=*/true, &rep);
  AddBudgetMetrics(p, budget, &rep);
  WriteSpans(traced, opt.work_dir + "/mirror.spans.tsv");
  return rep;
}

}  // namespace perfbench
