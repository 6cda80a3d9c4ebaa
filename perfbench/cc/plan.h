/// \file plan.h
/// \brief The Figure 3 query plan shared by the pipeline and churn
/// workloads, and the stats snapshots every workload's per-layer metrics
/// are computed from.

#pragma once

#include <memory>
#include <string>

#include "common/scheduler.h"
#include "costmodel/costmodel.h"
#include "harness.h"
#include "metadata/manager.h"
#include "stream/engine.h"
#include "stream/operators/join.h"
#include "stream/operators/window.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace perfbench {

/// \brief Figure 3: two manual sources, two time windows, a hash sliding
/// window join on column 0, and a counting sink, on a real-time engine with
/// one pool worker for periodic upkeep. The cost model is registered with
/// the adaptive (distinct-keys) resolver.
struct JoinPlan {
  pipes::StreamEngine engine;
  std::shared_ptr<pipes::ManualSource> left, right;
  std::shared_ptr<pipes::TimeWindowOperator> lwin, rwin;
  std::shared_ptr<pipes::SlidingWindowJoin> join;
  std::shared_ptr<pipes::CountingSink> sink;

  JoinPlan(pipes::Duration window, double key_cardinality,
           pipes::Duration metadata_period)
      : engine(pipes::EngineMode::kRealTime, 1, metadata_period) {
    using namespace pipes;
    auto& g = engine.graph();
    left = g.AddNode<ManualSource>("left", PairSchema());
    right = g.AddNode<ManualSource>("right", PairSchema());
    lwin = g.AddNode<TimeWindowOperator>("lwin", window);
    rwin = g.AddNode<TimeWindowOperator>("rwin", window);
    join = g.AddNode<SlidingWindowJoin>("join", 0, 0);
    sink = g.AddNode<CountingSink>("sink");
    Require(g.Connect(*left, *lwin));
    Require(g.Connect(*right, *rwin));
    Require(g.Connect(*lwin, *join));
    Require(g.Connect(*rwin, *join));
    Require(g.Connect(*join, *sink));
    Require(costmodel::RegisterSourceEstimates(*left));
    Require(costmodel::RegisterSourceEstimates(*right));
    Require(costmodel::RegisterWindowEstimates(*lwin));
    Require(costmodel::RegisterWindowEstimates(*rwin));
    Require(costmodel::RegisterJoinEstimates(*join, key_cardinality,
                                             /*adaptive=*/true));
  }

  pipes::MetadataManager& metadata() { return engine.metadata(); }

  pipes::MetadataSubscription Subscribe(pipes::MetadataProvider& p,
                                        const pipes::MetadataKey& key) {
    auto sub = metadata().Subscribe(p, key);
    Require(sub.status());
    return std::move(sub.value());
  }

  static void Require(const pipes::Status& st);
};

/// Manager and scheduler counters at one instant.
struct LayerSnapshot {
  pipes::MetadataManagerStats md;
  pipes::SchedulerStats sched;
  int64_t at_ns = 0;
};

inline LayerSnapshot Snap(pipes::MetadataManager& m,
                          pipes::TaskScheduler& s) {
  return LayerSnapshot{m.stats(), s.stats(), NowNs()};
}

/// Ratio with a zero guard (a layer that did no work reports 0).
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Adds "<prefix>.metadata.refreshes_per_wave" and "plan_hit_ratio" over
/// the interval a..b.
void AddWaveMetrics(const std::string& prefix, const LayerSnapshot& a,
                    const LayerSnapshot& b, WorkloadReport* report);

/// Adds "<prefix>.scheduler.*" metrics over a..b for `ops` ops. Lateness is
/// reported only where the pool runs timed work (it is 0 otherwise).
void AddSchedulerMetrics(const std::string& prefix, const LayerSnapshot& a,
                         const LayerSnapshot& b, uint64_t ops, bool lateness,
                         WorkloadReport* report);

/// Adds metric `name`: the self time per call of span `s` times `scale`
/// (1 for ns, 1e-3 for us, 1e-6 for ms).
void AddSpanMetric(const std::string& name, const Budget& b, Span s,
                   double scale, const std::string& unit,
                   WorkloadReport* report);

/// Adds "<prefix>.unexplained_ns_per_op" and "<prefix>.trace_overhead".
void AddBudgetMetrics(const std::string& prefix, const Budget& b,
                      WorkloadReport* report);

}  // namespace perfbench
