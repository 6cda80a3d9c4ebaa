/// \file queued_runtime.h
/// \brief Queued (scheduled) execution: a bounded processing budget drains
/// the inter-operator queues according to a pluggable scheduling strategy.
///
/// This is the substrate behind the paper's motivation 1: "The Chain
/// scheduling strategy [5] has to react to significant changes in operator
/// selectivities to minimize the memory usage of inter-operator queues."
/// The ChainStrategy consumes the priorities a metadata-driven
/// ChainScheduler maintains; FIFO and round-robin serve as baselines for
/// the scheduling ablation bench.

#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/scheduler.h"
#include "runtime/chain_scheduler.h"
#include "stream/graph.h"

namespace pipes {

/// \brief Picks the next queued node to run.
class SchedulingStrategy {
 public:
  virtual ~SchedulingStrategy() = default;

  /// Chooses among nodes with non-empty queues (never called with an empty
  /// list). Returns one of `ready`.
  virtual Node* Pick(const std::vector<Node*>& ready) = 0;

  /// Strategy name for reports.
  virtual std::string name() const = 0;
};

/// Drains the globally oldest queued element first (arrival order).
class FifoStrategy final : public SchedulingStrategy {
 public:
  Node* Pick(const std::vector<Node*>& ready) override;
  std::string name() const override { return "fifo"; }
};

/// Rotates over queued nodes.
class RoundRobinStrategy final : public SchedulingStrategy {
 public:
  Node* Pick(const std::vector<Node*>& ready) override;
  std::string name() const override { return "round-robin"; }

 private:
  size_t cursor_ = 0;
};

/// Runs the ready node with the highest Chain priority (metadata-driven).
class ChainStrategy final : public SchedulingStrategy {
 public:
  /// `chain` must outlive the strategy; its priorities are refreshed by its
  /// own periodic recomputation.
  explicit ChainStrategy(ChainScheduler& chain) : chain_(chain) {}
  Node* Pick(const std::vector<Node*>& ready) override;
  std::string name() const override { return "chain"; }

 private:
  ChainScheduler& chain_;
};

/// \brief Budgeted queue-draining executor.
///
/// Every `step_interval` the runtime processes up to `budget_per_step`
/// queued elements, choosing nodes via the strategy. When the offered load
/// exceeds the budget, queues build up — which is exactly when the strategy
/// choice matters.
class QueuedRuntime {
 public:
  struct Options {
    Duration step_interval = Millis(10);
    /// Work units spent per step (the CPU capacity model). Each managed
    /// node declares its per-element cost in Manage().
    double budget_per_step = 100.0;
  };

  QueuedRuntime(QueryGraph& graph, Options options,
                std::unique_ptr<SchedulingStrategy> strategy);
  ~QueuedRuntime();

  QueuedRuntime(const QueuedRuntime&) = delete;
  QueuedRuntime& operator=(const QueuedRuntime&) = delete;

  /// Switches `node` to queued mode and registers it with this runtime.
  /// `cost_per_element` is the work charged against the step budget per
  /// drained element.
  void Manage(Node& node, double cost_per_element = 1.0);

  /// Starts the periodic draining task on the graph's scheduler.
  void Start();
  void Stop();

  /// One budget round (public for deterministic harnesses).
  /// Returns the number of elements processed.
  size_t Step();

  /// Elements currently buffered across all managed queues.
  size_t TotalQueuedElements() const;

  /// Elements processed since construction.
  uint64_t total_processed() const { return processed_; }

  SchedulingStrategy& strategy() { return *strategy_; }

 private:
  QueryGraph& graph_;
  Options options_;
  std::unique_ptr<SchedulingStrategy> strategy_;
  std::vector<Node*> managed_;
  std::unordered_map<const Node*, double> costs_;
  TaskHandle task_;
  uint64_t processed_ = 0;
};

}  // namespace pipes
