#include "plan.h"

#include <stdexcept>

namespace perfbench {

void JoinPlan::Require(const pipes::Status& st) {
  if (!st.ok()) throw std::runtime_error("plan set-up: " + st.ToString());
}

void AddWaveMetrics(const std::string& prefix, const LayerSnapshot& a,
                    const LayerSnapshot& b, WorkloadReport* report) {
  const double waves = static_cast<double>(b.md.waves - a.md.waves);
  report->metrics.push_back(
      {prefix + ".metadata.refreshes_per_wave",
       Ratio(static_cast<double>(b.md.wave_refreshes - a.md.wave_refreshes),
             waves),
       "ratio"});
  report->metrics.push_back(
      {prefix + ".metadata.plan_hit_ratio",
       Ratio(static_cast<double>(b.md.wave_plan_hits - a.md.wave_plan_hits),
             waves),
       "ratio"});
}

void AddSchedulerMetrics(const std::string& prefix, const LayerSnapshot& a,
                         const LayerSnapshot& b, uint64_t ops, bool lateness,
                         WorkloadReport* report) {
  const double tasks = static_cast<double>(b.sched.tasks_run - a.sched.tasks_run);
  report->metrics.push_back({prefix + ".scheduler.tasks_per_op",
                             Ratio(tasks, static_cast<double>(ops)), "ratio"});
  report->metrics.push_back(
      {prefix + ".scheduler.notifies_per_task",
       Ratio(static_cast<double>(b.sched.cv_notifies - a.sched.cv_notifies),
             tasks),
       "ratio"});
  report->metrics.push_back({prefix + ".scheduler.rejections",
                             static_cast<double>(b.sched.tasks_rejected),
                             "count"});
  if (lateness) {
    report->metrics.push_back(
        {prefix + ".scheduler.lateness_mean_us",
         Ratio(static_cast<double>(b.sched.total_lateness -
                                   a.sched.total_lateness),
               tasks),
         "us"});
    report->metrics.push_back({prefix + ".scheduler.lateness_max_us",
                               static_cast<double>(b.sched.max_lateness),
                               "us"});
  }
}

void AddSpanMetric(const std::string& name, const Budget& b, Span s,
                   double scale, const std::string& unit,
                   WorkloadReport* report) {
  report->metrics.push_back({name, b.ns_per_call(s) * scale, unit});
}

void AddBudgetMetrics(const std::string& prefix, const Budget& b,
                      WorkloadReport* report) {
  double explained = 0;
  for (int n = 1; n < static_cast<int>(Span::kCount); ++n) {
    explained += b.self_ns_per_op[n];
  }
  report->metrics.push_back({prefix + ".unexplained_ns_per_op",
                             b.traced_ns_per_op - explained, "ns"});
  report->metrics.push_back({prefix + ".trace_overhead", b.overhead(), "ratio"});
}

}  // namespace perfbench
