// waves: commit-to-visible latency of triggered items and how it behaves
// across cores. Three drivers fire on disjoint origins in a closed loop; no
// data path runs. A one-worker pool exists only for deferred waves.

#include <stdexcept>

#include "common/scheduler.h"
#include "metadata/descriptor.h"
#include "metadata/manager.h"
#include "plan.h"

namespace perfbench {
namespace {

using namespace pipes;

constexpr int kProviders = 8;
/// Three drivers were the steadiest count on a 4-core host and leave one
/// core for the pool worker.
constexpr int kDrivers = 3;
/// Triggered handlers refreshed per wave: t1..t7 with t4 split into a
/// diamond (t4a, t4b).
constexpr uint64_t kClosure = 8;
constexpr size_t kScheduleLen = 4096;
constexpr int kWarmupRounds = 30'000;

const MetadataKey kOrigin = "o";
const MetadataKey kLeaf = "t7";

/// Chain o -> t1 -> t2 -> t3 -> {t4a, t4b} -> t5 -> t6 -> t7 with
/// t4b = t3 + 3 and t5 = (t4a + t4b) / 2, every other step + 1: the leaf
/// reads o + 7 after every wave.
void DefineChain(MetadataProvider& p, std::atomic<double>* committed) {
  auto& reg = p.metadata_registry();
  auto plus = [](double d) {
    return [d](EvalContext& ctx) { return MetadataValue(ctx.DepDouble(0) + d); };
  };
  auto step = [&](const char* key, const char* dep, double d) {
    JoinPlan::Require(reg.Define(MetadataDescriptor::Triggered(key)
                                     .DependsOnSelf(dep)
                                     .WithEvaluator(plus(d))));
  };
  JoinPlan::Require(reg.Define(
      MetadataDescriptor::OnDemand(kOrigin).WithEvaluator(
          [committed](EvalContext&) {
            return MetadataValue(committed->load(std::memory_order_relaxed));
          })));
  step("t1", "o", 1);
  step("t2", "t1", 1);
  step("t3", "t2", 1);
  step("t4a", "t3", 1);
  step("t4b", "t3", 3);
  JoinPlan::Require(reg.Define(
      MetadataDescriptor::Triggered("t5")
          .DependsOnSelf("t4a")
          .DependsOnSelf("t4b")
          .WithEvaluator([](EvalContext& ctx) {
            return MetadataValue((ctx.DepDouble(0) + ctx.DepDouble(1)) / 2);
          })));
  step("t6", "t5", 1);
  step("t7", "t6", 1);
}

struct Chain {
  explicit Chain(int k) : provider(ProviderLabel(k)) {}
  static std::string ProviderLabel(int k) {
    std::string label = "p";
    label += std::to_string(k);
    return label;
  }
  MetadataProvider provider;
  std::atomic<double> committed{0};
  MetadataSubscription leaf;
};

struct Step {
  uint32_t origin;
  double delta;
};

/// One driver's seeded origin schedule, over the origins it owns.
struct alignas(64) Cursor {
  std::vector<Step> steps;
  uint64_t next = 0;
};

class WavesInstance {
 public:
  WavesInstance(uint64_t seed, int warmup_rounds)
      : pool_(1), manager_(pool_) {
    for (int k = 0; k < kProviders; ++k) {
      chains_.push_back(std::make_unique<Chain>(k));
      Chain& c = *chains_.back();
      c.provider.AttachMetadataManager(&manager_);
      DefineChain(c.provider, &c.committed);
      auto sub = manager_.Subscribe(c.provider, kLeaf);
      JoinPlan::Require(sub.status());
      c.leaf = std::move(sub.value());
    }
    SeededRng rng(seed * 0x2545f491 + 7);
    for (int d = 0; d < kDrivers; ++d) {
      std::vector<uint32_t> own;
      for (int k = d; k < kProviders; k += kDrivers) own.push_back(k);
      cursors_[d].steps.resize(kScheduleLen);
      for (Step& s : cursors_[d].steps) {
        s.origin = own[rng.Below(own.size())];
        s.delta = static_cast<double>(1 + rng.Below(1000));
      }
    }
    Tracer off;
    for (int i = 0; i < warmup_rounds; ++i) {
      for (int d = 0; d < kDrivers; ++d) {
        if (!Fire(d, off).ok) {
          throw std::runtime_error("waves warm-up: stale leaf value");
        }
      }
    }
  }

  ~WavesInstance() { pool_.Shutdown(); }

  OpTiming Fire(int d, Tracer& tr) {
    Cursor& cur = cursors_[d];
    const Step& s = cur.steps[cur.next++ & (kScheduleLen - 1)];
    Chain& c = *chains_[s.origin];
    ScopedSpan op(tr, Span::kOp);
    OpTiming t;
    t.start_ns = NowNs();
    const double v = c.committed.load(std::memory_order_relaxed) + s.delta;
    c.committed.store(v, std::memory_order_relaxed);
    {
      ScopedSpan f(tr, Span::kFireEvent);
      manager_.FireEvent(c.provider, kOrigin);
    }
    double got;
    {
      ScopedSpan g(tr, Span::kGet);
      got = c.leaf.GetDouble();
    }
    t.end_ns = NowNs();
    t.ok = got == v + 7;
    return t;
  }

  LayerSnapshot Snapshot() { return Snap(manager_, pool_); }

 private:
  ThreadPoolScheduler pool_;
  MetadataManager manager_;
  std::vector<std::unique_ptr<Chain>> chains_;
  Cursor cursors_[kDrivers];
};

void CheckRefreshes(const LayerSnapshot& a, const LayerSnapshot& b,
                    WorkloadReport* report) {
  const uint64_t waves = b.md.waves - a.md.waves;
  report->Check(waves > 0 && b.md.wave_refreshes - a.md.wave_refreshes ==
                                 kClosure * waves,
                "waves: refreshes per wave differ from the closure size");
}

}  // namespace

WorkloadReport RunWaves(const RunOptions& opt) {
  WorkloadReport rep;
  std::unique_ptr<WavesInstance> inst;
  const int warmup = opt.tiny ? 20 : kWarmupRounds;
  const double setup_s = TimedSetup(
      [&] { return std::make_unique<WavesInstance>(opt.seed, warmup); },
      &inst);
  const OpFn fire = [&](int d, Tracer& tr) { return inst->Fire(d, tr); };

  if (!opt.trace) {
    const LayerSnapshot a = inst->Snapshot();
    PassResult pass =
        RunPass({opt.seconds, RoundsFor(opt.seconds), 0}, kDrivers, fire);
    const LayerSnapshot b = inst->Snapshot();
    AddEndToEnd(pass, setup_s, &rep);
    CheckRefreshes(a, b, &rep);
    return rep;
  }

  PassResult untraced = RunPass({opt.seconds, 1, 0}, kDrivers, fire);
  const LayerSnapshot a = inst->Snapshot();
  PassResult traced = RunPass({opt.seconds, 1, kSpansPerPass}, kDrivers, fire);
  const LayerSnapshot b = inst->Snapshot();
  PassResult single = RunPass({opt.seconds, 1, 0}, 1, fire);
  CheckRefreshes(a, b, &rep);
  for (const PassResult* p : {&untraced, &traced, &single}) {
    rep.attempted += p->attempted;
    rep.failed += p->failed;
  }
  rep.Check(rep.failed == 0, "waves: a Get returned a stale value");

  const Budget budget = ComputeBudget(traced, untraced);
  DescribeBudget("waves", budget, &rep);
  const double scaling = Ratio(static_cast<double>(untraced.ok()) / untraced.wall_s,
                               static_cast<double>(single.ok()) / single.wall_s);
  char line[256];
  std::snprintf(line, sizeof line,
                "  baseline (1 driver): %.0f ops/s; %d drivers: %.0f ops/s "
                "(%.3fx)",
                static_cast<double>(single.ok()) / single.wall_s, kDrivers,
                static_cast<double>(untraced.ok()) / untraced.wall_s, scaling);
  rep.notes.emplace_back(line);

  const std::string p = "waves";
  const double waves = static_cast<double>(b.md.waves - a.md.waves);
  AddSpanMetric(p + ".metadata.fire_event_ns", budget, Span::kFireEvent, 1,
                "ns", &rep);
  AddSpanMetric(p + ".metadata.get_ns", budget, Span::kGet, 1, "ns", &rep);
  AddWaveMetrics(p, a, b, &rep);
  rep.metrics.push_back(
      {p + ".metadata.deferred_per_wave",
       Ratio(static_cast<double>(b.md.waves_deferred - a.md.waves_deferred),
             waves),
       "ratio"});
  rep.metrics.push_back({p + ".metadata.wave_scaling_vs_1", scaling, "ratio"});
  rep.metrics.push_back(
      {p + ".metadata.evaluations_per_s",
       Ratio(static_cast<double>(b.md.evaluations - a.md.evaluations),
             static_cast<double>(b.at_ns - a.at_ns) * 1e-9),
       "1/s"});
  AddSchedulerMetrics(p, a, b, traced.attempted, /*lateness=*/false, &rep);
  AddBudgetMetrics(p, budget, &rep);
  WriteSpans(traced, opt.work_dir + "/waves.spans.tsv");
  return rep;
}

}  // namespace perfbench
