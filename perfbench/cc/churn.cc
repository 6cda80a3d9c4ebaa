// churn: automatic inclusion and exclusion as consumers come and go (paper
// §2.4), and the wave-plan rebuild each structural change forces. The
// Figure 3 plan carries no data; one driver cycles a subscription.

#include <stdexcept>

#include "plan.h"

namespace perfbench {
namespace {

using namespace pipes;

/// No data flows, so periodic items have nothing to measure: a period
/// longer than any run keeps the cycles' resizes the only waves.
constexpr Duration kMetadataPeriod = 3600 * kMicrosPerSecond;
constexpr size_t kSizesLen = 4096;
constexpr int kWarmupCycles = 15'000;
/// Triggered handlers a window resize refreshes while the cycle's
/// subscription is live: lwin.est_element_validity and join.est_cpu_usage.
constexpr uint64_t kClosure = 2;
/// Handlers each Subscribe creates next to the standing ones: the join's
/// est_cpu_usage and predicate_cost, est_output_rate on both windows and
/// both sources.
constexpr uint64_t kHandlersPerCycle = 6;

class ChurnInstance {
 public:
  ChurnInstance(uint64_t seed, int warmup)
      : plan_(kMicrosPerSecond, 500, kMetadataPeriod) {
    // Standing subscriptions keep both windows' validity estimates (and the
    // window_size items under them) and the periodic items of the closure
    // included, so each cycle shares them. Periodic items stay out of the
    // cycle: the manager keeps a weak reference to every periodic handler
    // it ever included (periodic_handlers_, pruned only on pressure
    // transitions), so cycling them would grow the process by about 300
    // bytes per cycle and the figures with it.
    lvalid_ = plan_.Subscribe(*plan_.lwin, keys::kEstElementValidity);
    rvalid_ = plan_.Subscribe(*plan_.rwin, keys::kEstElementValidity);
    for (MetadataProvider* p : {static_cast<MetadataProvider*>(plan_.left.get()),
                                static_cast<MetadataProvider*>(plan_.right.get())}) {
      standing_.push_back(plan_.Subscribe(*p, keys::kOutputRate));
    }
    for (MetadataProvider* p : {static_cast<MetadataProvider*>(plan_.lwin.get()),
                                static_cast<MetadataProvider*>(plan_.rwin.get())}) {
      standing_.push_back(plan_.Subscribe(*p, keys::kDistinctKeys));
    }
    SeededRng rng(seed * 0x9e3779b1 + 3);
    Duration prev = plan_.lwin->window_size();
    sizes_.resize(kSizesLen);
    for (Duration& w : sizes_) {
      w = 500 * kMicrosPerMilli + static_cast<Duration>(rng.Below(1'000'000));
      if (w == prev) ++w;
      prev = w;
    }
    if (sizes_.front() == sizes_.back()) ++sizes_.front();
    Tracer off;
    for (int i = 0; i < warmup; ++i) {
      if (!Cycle(off).ok) {
        throw std::runtime_error("churn warm-up: stale element validity");
      }
    }
  }

  OpTiming Cycle(Tracer& tr) {
    const Duration w = sizes_[next_++ & (kSizesLen - 1)];
    ScopedSpan op(tr, Span::kOp);
    OpTiming t;
    t.start_ns = NowNs();
    Result<MetadataSubscription> sub = [&] {
      ScopedSpan s(tr, Span::kSubscribe);
      return plan_.metadata().Subscribe(*plan_.join, keys::kEstCpuUsage);
    }();
    {
      ScopedSpan s(tr, Span::kFireEvent);
      plan_.lwin->set_window_size(w);
    }
    double got;
    {
      ScopedSpan s(tr, Span::kGet);
      got = lvalid_.GetDouble();
    }
    if (sub.ok()) {
      ScopedSpan s(tr, Span::kReset);
      sub->Reset();
    }
    t.end_ns = NowNs();
    t.ok = sub.ok() && got == ToSeconds(w);
    return t;
  }

  LayerSnapshot Snapshot() {
    return Snap(plan_.metadata(), plan_.engine.scheduler());
  }

 private:
  JoinPlan plan_;
  MetadataSubscription lvalid_;
  MetadataSubscription rvalid_;
  std::vector<MetadataSubscription> standing_;
  std::vector<Duration> sizes_;
  uint64_t next_ = 0;
};

void CheckChurn(const LayerSnapshot& a, const LayerSnapshot& b, uint64_t ops,
                WorkloadReport* report) {
  const uint64_t waves = b.md.waves - a.md.waves;
  const uint64_t refreshes = b.md.wave_refreshes - a.md.wave_refreshes;
  const uint64_t created = b.md.handlers_created - a.md.handlers_created;
  report->Check(waves == ops && refreshes == kClosure * waves,
                "churn: " + std::to_string(refreshes) + " refreshes in " +
                    std::to_string(waves) + " waves for " +
                    std::to_string(ops) + " cycles");
  report->Check(created == kHandlersPerCycle * ops,
                "churn: " + std::to_string(created) +
                    " handlers created for " + std::to_string(ops) +
                    " cycles");
}

}  // namespace

WorkloadReport RunChurn(const RunOptions& opt) {
  WorkloadReport rep;
  std::unique_ptr<ChurnInstance> inst;
  const int warmup = opt.tiny ? 50 : kWarmupCycles;
  const double setup_s = TimedSetup(
      [&] { return std::make_unique<ChurnInstance>(opt.seed, warmup); }, &inst);
  const OpFn cycle = [&](int, Tracer& tr) { return inst->Cycle(tr); };

  if (!opt.trace) {
    const LayerSnapshot a = inst->Snapshot();
    PassResult pass = RunPass({opt.seconds, RoundsFor(opt.seconds), 0}, 1, cycle);
    const LayerSnapshot b = inst->Snapshot();
    AddEndToEnd(pass, setup_s, &rep);
    CheckChurn(a, b, pass.attempted, &rep);
    return rep;
  }

  PassResult untraced = RunPass({opt.seconds, 1, 0}, 1, cycle);
  const LayerSnapshot a = inst->Snapshot();
  PassResult traced = RunPass({opt.seconds, 1, kSpansPerPass}, 1, cycle);
  const LayerSnapshot b = inst->Snapshot();
  CheckChurn(a, b, traced.attempted, &rep);
  for (const PassResult* p : {&untraced, &traced}) {
    rep.attempted += p->attempted;
    rep.failed += p->failed;
  }
  rep.Check(rep.failed == 0, "churn: a Get returned a stale validity");

  const Budget budget = ComputeBudget(traced, untraced);
  DescribeBudget("churn", budget, &rep);
  const std::string p = "churn";
  AddSpanMetric(p + ".metadata.subscribe_us", budget, Span::kSubscribe, 1e-3,
                "us", &rep);
  AddSpanMetric(p + ".metadata.unsubscribe_us", budget, Span::kReset, 1e-3,
                "us", &rep);
  AddSpanMetric(p + ".metadata.fire_event_ns", budget, Span::kFireEvent, 1,
                "ns", &rep);
  AddSpanMetric(p + ".metadata.get_ns", budget, Span::kGet, 1, "ns", &rep);
  rep.metrics.push_back(
      {p + ".metadata.handlers_per_cycle",
       Ratio(static_cast<double>(b.md.handlers_created - a.md.handlers_created),
             static_cast<double>(traced.attempted)),
       "ratio"});
  AddWaveMetrics(p, a, b, &rep);
  AddSchedulerMetrics(p, a, b, traced.attempted, /*lateness=*/false, &rep);
  AddBudgetMetrics(p, budget, &rep);
  WriteSpans(traced, opt.work_dir + "/churn.spans.tsv");
  return rep;
}

}  // namespace perfbench
