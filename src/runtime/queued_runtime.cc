#include "runtime/queued_runtime.h"

#include <algorithm>
#include <cassert>

namespace pipes {

Node* FifoStrategy::Pick(const std::vector<Node*>& ready) {
  assert(!ready.empty());
  Node* best = ready.front();
  Timestamp best_ts = best->input_queue()->oldest_timestamp();
  for (Node* n : ready) {
    Timestamp ts = n->input_queue()->oldest_timestamp();
    if (ts < best_ts) {
      best = n;
      best_ts = ts;
    }
  }
  return best;
}

Node* RoundRobinStrategy::Pick(const std::vector<Node*>& ready) {
  assert(!ready.empty());
  cursor_ = (cursor_ + 1) % ready.size();
  return ready[cursor_];
}

Node* ChainStrategy::Pick(const std::vector<Node*>& ready) {
  assert(!ready.empty());
  Node* best = ready.front();
  double best_prio = -1.0;
  for (Node* n : ready) {
    const auto* op = dynamic_cast<const OperatorNode*>(n);
    double prio = op != nullptr ? chain_.priority(op) : 0.0;
    if (prio > best_prio) {
      best = n;
      best_prio = prio;
    }
  }
  return best;
}

QueuedRuntime::QueuedRuntime(QueryGraph& graph, Options options,
                             std::unique_ptr<SchedulingStrategy> strategy)
    : graph_(graph), options_(options), strategy_(std::move(strategy)) {
  assert(strategy_ != nullptr);
}

QueuedRuntime::~QueuedRuntime() { Stop(); }

void QueuedRuntime::Manage(Node& node, double cost_per_element) {
  assert(cost_per_element > 0);
  node.EnableInputQueue();
  managed_.push_back(&node);
  costs_[&node] = cost_per_element;
}

void QueuedRuntime::Start() {
  Stop();
  task_ = graph_.scheduler().SchedulePeriodic(options_.step_interval,
                                              [this] { Step(); });
}

void QueuedRuntime::Stop() { task_.Cancel(); }

size_t QueuedRuntime::Step() {
  size_t processed = 0;
  double budget = options_.budget_per_step;
  std::vector<Node*> ready;
  ready.reserve(managed_.size());
  while (budget > 0) {
    ready.clear();
    for (Node* n : managed_) {
      if (!n->input_queue()->empty()) ready.push_back(n);
    }
    if (ready.empty()) break;
    Node* next = strategy_->Pick(ready);
    if (next->ProcessQueuedOne()) {
      ++processed;
      budget -= costs_[next];  // overdraft of one element is allowed
    }
  }
  processed_ += processed;
  return processed;
}

size_t QueuedRuntime::TotalQueuedElements() const {
  size_t total = 0;
  for (Node* n : managed_) total += n->input_queue()->size();
  return total;
}

}  // namespace pipes
