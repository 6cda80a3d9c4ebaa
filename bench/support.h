/// \file support.h
/// \brief Shared plan builders and output helpers for the figure/scalability
/// harnesses. Every harness prints its scenario, the paper's expectation,
/// and a measured table (see EXPERIMENTS.md for the recorded results).

#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "common/table_printer.h"
#include "costmodel/costmodel.h"
#include "stream/engine.h"
#include "stream/operators/basic.h"
#include "stream/operators/join.h"
#include "stream/operators/window.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace pipes::bench {

inline void Banner(const std::string& id, const std::string& title,
                   const std::string& expectation) {
  std::printf("=============================================================\n");
  std::printf("%s: %s\n", id.c_str(), title.c_str());
  std::printf("expectation: %s\n", expectation.c_str());
  std::printf("=============================================================\n");
}

/// Writes a bench's JSON record to `path` and says so; a failed open,
/// write or close reports "could not write" instead.
inline void WriteBenchFile(const char* path, const std::string& json) {
  std::FILE* f = std::fopen(path, "w");
  bool ok = f != nullptr && std::fputs(json.c_str(), f) >= 0;
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  std::printf(ok ? "wrote %s\n\n" : "could not write %s\n\n", path);
}

/// The Figure 3 plan: two constant-rate sources, two time windows, a
/// sliding-window join, one sink; cost-model estimates registered.
struct WindowJoinPlan {
  StreamEngine engine;
  std::shared_ptr<SyntheticSource> left, right;
  std::shared_ptr<TimeWindowOperator> lwin, rwin;
  std::shared_ptr<SlidingWindowJoin> join;
  std::shared_ptr<CountingSink> sink;

  WindowJoinPlan(double rate_per_sec, Duration window, int64_t keys,
                 bool hash_join = false,
                 Duration metadata_period = kMicrosPerSecond)
      : engine(EngineMode::kVirtualTime, 1, metadata_period) {
    auto& g = engine.graph();
    Duration interval =
        static_cast<Duration>(kMicrosPerSecond / rate_per_sec);
    left = g.AddNode<SyntheticSource>(
        "left", PairSchema(), std::make_unique<ConstantArrivals>(interval),
        MakeUniformPairGenerator(keys), /*seed=*/11);
    right = g.AddNode<SyntheticSource>(
        "right", PairSchema(), std::make_unique<ConstantArrivals>(interval),
        MakeUniformPairGenerator(keys), /*seed=*/22);
    lwin = g.AddNode<TimeWindowOperator>("lwin", window);
    rwin = g.AddNode<TimeWindowOperator>("rwin", window);
    if (hash_join) {
      join = g.AddNode<SlidingWindowJoin>("join", 0, 0);
    } else {
      join = g.AddNode<SlidingWindowJoin>("join", EquiJoinPredicate(0, 0));
    }
    sink = g.AddNode<CountingSink>("sink");
    (void)g.Connect(*left, *lwin);
    (void)g.Connect(*right, *rwin);
    (void)g.Connect(*lwin, *join);
    (void)g.Connect(*rwin, *join);
    (void)g.Connect(*join, *sink);
    (void)costmodel::RegisterWindowJoinPlanEstimates(
        *left, *right, *lwin, *rwin, *join,
        hash_join ? static_cast<double>(keys) : 1.0);
  }

  void Start() {
    left->Start();
    right->Start();
  }
};

}  // namespace pipes::bench
