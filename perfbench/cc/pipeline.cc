// pipeline: metadata upkeep per processed element (paper §4.2-4.3). One
// driver pushes seeded elements through the Figure 3 plan in a closed loop;
// execution is inline, so each push returns once the graph processed it.

#include <cmath>
#include <stdexcept>

#include "plan.h"

namespace perfbench {
namespace {

using namespace pipes;

// Element i carries event time i * kGapUs + 1, so the join state holds the
// last kWindowLen - 1 elements of both inputs together (about 1000 elements,
// a few hundred KB: well under one core's L2) and the join output is a pure
// function of the seeded input sequence.
constexpr Duration kWindowUs = 1000;
constexpr int64_t kGapUs = 1;
constexpr uint64_t kWindowLen = kWindowUs / kGapUs;
constexpr uint32_t kKeys = 500;
constexpr size_t kInputLen = size_t{1} << 16;
/// The driver reads every cost-model estimate once per this many elements,
/// the way an optimizer polls them.
constexpr uint64_t kGetEvery = 256;
constexpr Duration kMetadataPeriod = 10 * kMicrosPerMilli;
constexpr uint64_t kWarmupElements = 200'000;

/// Inputs packed as side << 31 | key.
std::vector<uint32_t> MakeInputs(uint64_t seed) {
  SeededRng rng(seed * 0x51ed27 + 1);
  std::vector<uint32_t> in(kInputLen);
  for (auto& x : in) {
    const uint32_t side = static_cast<uint32_t>(rng.Next() & 1);
    x = side << 31 | static_cast<uint32_t>(rng.Below(kKeys));
  }
  return in;
}

/// \brief The reference join: element i produces one result per element of
/// the other input with the same key among the previous kWindowLen - 1
/// elements (element j is still in the window at t_i iff t_j + window > t_i).
class JoinReference {
 public:
  JoinReference() : ring_(kWindowLen - 1) {
    counts_[0].assign(kKeys, 0);
    counts_[1].assign(kKeys, 0);
  }

  /// Results element `packed` produces; then admits it to the window.
  uint64_t Admit(uint32_t packed) {
    const uint32_t side = packed >> 31;
    const uint32_t key = packed & 0xffff;
    const uint64_t matches = counts_[1 - side][key];
    if (size_ == ring_.size()) {
      const uint32_t old = ring_[head_];
      --counts_[old >> 31][old & 0xffff];
      ring_[head_] = packed;
      head_ = (head_ + 1) % ring_.size();
    } else {
      ring_[(head_ + size_) % ring_.size()] = packed;
      ++size_;
    }
    ++counts_[side][key];
    total_ += matches;
    return matches;
  }
  uint64_t total() const { return total_; }

 private:
  std::vector<uint32_t> counts_[2];
  std::vector<uint32_t> ring_;
  size_t head_ = 0;
  size_t size_ = 0;
  uint64_t total_ = 0;
};

class PipelineInstance {
 public:
  PipelineInstance(const std::vector<uint32_t>& inputs, bool subscribed,
                   uint64_t warmup)
      : plan_(kWindowUs, kKeys, kMetadataPeriod),
        inputs_(inputs),
        subscribed_(subscribed) {
    if (subscribed_) {
      for (const MetadataKey* k : {&keys::kEstCpuUsage, &keys::kEstOutputRate,
                                   &keys::kEstStateSize,
                                   &keys::kEstMemoryUsage}) {
        estimates_.push_back(plan_.Subscribe(*plan_.join, *k));
      }
      for (OperatorNode* op : {static_cast<OperatorNode*>(plan_.lwin.get()),
                               static_cast<OperatorNode*>(plan_.rwin.get()),
                               static_cast<OperatorNode*>(plan_.join.get())}) {
        for (const MetadataKey* k :
             {&keys::kInputRate, &keys::kSelectivity, &keys::kCpuUsage}) {
          monitors_.push_back(plan_.Subscribe(*op, *k));
        }
      }
      monitors_.push_back(plan_.Subscribe(*plan_.join, keys::kProcessingLatency));
      monitors_.push_back(plan_.Subscribe(*plan_.sink, keys::kProcessingLatency));
    }
    for (auto& e : elements_) {
      e = StreamElement(Tuple({Value(int64_t{0}), Value(0.5)}), 0);
    }
    Tracer off;
    for (uint64_t i = 0; i < warmup; ++i) {
      if (!Push(off).ok) {
        throw std::runtime_error("pipeline warm-up: join output != reference");
      }
    }
  }

  OpTiming Push(Tracer& tr) {
    const uint64_t i = next_++;
    const uint32_t in = inputs_[i & (kInputLen - 1)];
    const uint32_t side = in >> 31;
    StreamElement& e = elements_[side];
    e.timestamp = static_cast<Timestamp>(i) * kGapUs + 1;
    e.tuple.at(0) = static_cast<int64_t>(in & 0xffff);
    const uint64_t expected = reference_.Admit(in);
    const uint64_t before = plan_.sink->count();
    ManualSource& src = side == 0 ? *plan_.left : *plan_.right;

    ScopedSpan op(tr, Span::kOp);
    OpTiming t;
    t.start_ns = NowNs();
    {
      ScopedSpan s(tr, Span::kPushElement);
      src.PushElement(e);
    }
    t.end_ns = NowNs();
    t.ok = plan_.sink->count() - before == expected;
    if (subscribed_ && i % kGetEvery == 0) {
      for (const auto& est : estimates_) {
        ScopedSpan s(tr, Span::kGet);
        if (!std::isfinite(est.GetDouble())) t.ok = false;
      }
    }
    return t;
  }

  JoinPlan& plan() { return plan_; }
  uint64_t pushed() const { return next_; }
  const JoinReference& reference() const { return reference_; }

 private:
  JoinPlan plan_;
  const std::vector<uint32_t>& inputs_;
  const bool subscribed_;
  std::vector<MetadataSubscription> estimates_;
  std::vector<MetadataSubscription> monitors_;
  StreamElement elements_[2];
  JoinReference reference_;
  uint64_t next_ = 0;
};

void CheckJoin(PipelineInstance& inst, WorkloadReport* report) {
  report->Check(inst.plan().sink->count() == inst.reference().total(),
                "pipeline: sink count differs from the reference join count");
}

}  // namespace

WorkloadReport RunPipeline(const RunOptions& opt) {
  WorkloadReport rep;
  const std::vector<uint32_t> inputs = MakeInputs(opt.seed);
  const uint64_t warmup = opt.tiny ? 2'000 : kWarmupElements;
  std::unique_ptr<PipelineInstance> inst;
  const double setup_s = TimedSetup(
      [&] { return std::make_unique<PipelineInstance>(inputs, true, warmup); },
      &inst);
  const OpFn push = [&](int, Tracer& tr) { return inst->Push(tr); };
  char line[256];

  if (!opt.trace) {
    PassResult pass = RunPass({opt.seconds, RoundsFor(opt.seconds), 0}, 1, push);
    AddEndToEnd(pass, setup_s, &rep);
    CheckJoin(*inst, &rep);
    std::snprintf(line, sizeof line,
                  "pipeline: %u keys, window %lld us (%llu elements), join "
                  "state %zu elements / %zu bytes, %.4f results per element",
                  kKeys, static_cast<long long>(kWindowUs),
                  static_cast<unsigned long long>(kWindowLen),
                  inst->plan().join->StateCount(),
                  inst->plan().join->StateMemoryBytes(),
                  static_cast<double>(inst->plan().sink->count()) /
                      static_cast<double>(inst->pushed()));
    rep.notes.emplace_back(line);
    return rep;
  }

  const double pass_s = opt.seconds;
  PassResult untraced = RunPass({pass_s, 1, 0}, 1, push);
  const LayerSnapshot a =
      Snap(inst->plan().metadata(), inst->plan().engine.scheduler());
  PassResult traced = RunPass({pass_s, 1, kSpansPerPass}, 1, push);
  const LayerSnapshot b =
      Snap(inst->plan().metadata(), inst->plan().engine.scheduler());
  CheckJoin(*inst, &rep);
  const size_t state = inst->plan().join->StateCount();
  const double results_per_element =
      static_cast<double>(inst->plan().sink->count()) /
      static_cast<double>(inst->pushed());

  // Baseline pass: the same plan with nothing subscribed.
  auto bare = std::make_unique<PipelineInstance>(inputs, false, warmup);
  PassResult baseline = RunPass(
      {pass_s, 1, kSpansPerPass}, 1,
      [&](int, Tracer& tr) { return bare->Push(tr); });
  CheckJoin(*bare, &rep);
  for (const PassResult* p : {&untraced, &traced, &baseline}) {
    rep.attempted += p->attempted;
    rep.failed += p->failed;
  }
  rep.Check(rep.failed == 0, "pipeline: failed ops in a traced run");

  const Budget budget = ComputeBudget(traced, untraced);
  const Budget bare_budget = ComputeBudget(baseline, baseline);
  DescribeBudget("pipeline", budget, &rep);
  std::snprintf(line, sizeof line,
                "  baseline (nothing subscribed): stream.PushElement %.1f ns "
                "per element; metadata upkeep %.1f ns per element",
                bare_budget.ns_per_call(Span::kPushElement),
                budget.ns_per_call(Span::kPushElement) -
                    bare_budget.ns_per_call(Span::kPushElement));
  rep.notes.emplace_back(line);

  const std::string p = "pipeline";
  AddSpanMetric(p + ".stream.push_ns", budget, Span::kPushElement, 1, "ns",
                &rep);
  rep.metrics.push_back(
      {p + ".stream.results_per_element", results_per_element, "ratio"});
  rep.metrics.push_back(
      {p + ".stream.join_state_elements", static_cast<double>(state), "count"});
  rep.metrics.push_back({p + ".metadata.upkeep_ns_per_element",
                         budget.ns_per_call(Span::kPushElement) -
                             bare_budget.ns_per_call(Span::kPushElement),
                         "ns"});
  AddSpanMetric(p + ".metadata.get_ns", budget, Span::kGet, 1, "ns", &rep);
  rep.metrics.push_back(
      {p + ".metadata.evaluations_per_s",
       Ratio(static_cast<double>(b.md.evaluations - a.md.evaluations),
             static_cast<double>(b.at_ns - a.at_ns) * 1e-9),
       "1/s"});
  AddSchedulerMetrics(p, a, b, traced.attempted, /*lateness=*/true, &rep);
  AddBudgetMetrics(p, budget, &rep);
  WriteSpans(traced, opt.work_dir + "/pipeline.spans.tsv");
  return rep;
}

}  // namespace perfbench
