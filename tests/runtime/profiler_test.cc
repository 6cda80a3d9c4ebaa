/// System profiling (motivation 4): inventory dumps and summaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "runtime/profiler.h"
#include "stream/operators/basic.h"
#include "stream/engine.h"
#include "stream/operators/join.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace pipes {
namespace {

TEST(ProfilerTest, DumpProviderListsItemsAndInclusionState) {
  StreamEngine engine;
  auto src = engine.graph().AddNode<ManualSource>("mysource", PairSchema());
  auto sub = engine.metadata().Subscribe(*src, keys::kElementCount);
  ASSERT_TRUE(sub.ok());

  std::string dump = SystemProfiler::DumpProvider(*src);
  EXPECT_NE(dump.find("provider 'mysource'"), std::string::npos);
  EXPECT_NE(dump.find("element_count [on-demand] included"), std::string::npos);
  EXPECT_NE(dump.find("output_rate [periodic] available"), std::string::npos);
}

TEST(ProfilerTest, DumpRecursesIntoModules) {
  StreamEngine engine;
  auto& g = engine.graph();
  auto l = g.AddNode<ManualSource>("l", PairSchema());
  auto r = g.AddNode<ManualSource>("r", PairSchema());
  auto join = g.AddNode<SlidingWindowJoin>("join", 0, 0);
  ASSERT_TRUE(g.Connect(*l, *join).ok());
  ASSERT_TRUE(g.Connect(*r, *join).ok());

  std::string dump = SystemProfiler::DumpProvider(*join);
  EXPECT_NE(dump.find("join/left_state"), std::string::npos);
  EXPECT_NE(dump.find("join/right_state"), std::string::npos);
}

TEST(ProfilerTest, GraphDumpIncludesManagerCounters) {
  StreamEngine engine;
  auto src = engine.graph().AddNode<ManualSource>("src", PairSchema());
  auto sub = engine.metadata().Subscribe(*src, keys::kSchema);
  ASSERT_TRUE(sub.ok());
  std::string dump = SystemProfiler::DumpGraph(engine.graph());
  EXPECT_NE(dump.find("query graph: 1 nodes"), std::string::npos);
  EXPECT_NE(dump.find("metadata manager: active=1"), std::string::npos);
}

TEST(ProfilerTest, SummaryCountsAvailableVsIncluded) {
  StreamEngine engine;
  auto& g = engine.graph();
  auto l = g.AddNode<ManualSource>("l", PairSchema());
  auto r = g.AddNode<ManualSource>("r", PairSchema());
  auto join = g.AddNode<SlidingWindowJoin>("join", 0, 0);
  ASSERT_TRUE(g.Connect(*l, *join).ok());
  ASSERT_TRUE(g.Connect(*r, *join).ok());

  auto before = SystemProfiler::Summarize(g);
  EXPECT_EQ(before.providers, 5u);  // 3 nodes + 2 modules
  EXPECT_GT(before.available_items, 20u);
  EXPECT_EQ(before.included_items, 0u);

  auto sub = engine.metadata().Subscribe(*join, keys::kMemoryUsage);
  ASSERT_TRUE(sub.ok());
  auto after = SystemProfiler::Summarize(g);
  EXPECT_EQ(after.included_items, 3u);  // join item + 2 module items
}

TEST(ProfilerTest, DependencyGraphDotExport) {
  StreamEngine engine;
  auto& g = engine.graph();
  auto src = g.AddNode<ManualSource>("src", PairSchema());
  auto filter = g.AddNode<FilterOperator>(
      "filter", [](const Tuple&) { return true; });
  ASSERT_TRUE(g.Connect(*src, *filter).ok());
  auto sub = engine.metadata().Subscribe(*filter, keys::kIoRatio).value();

  std::string dot = SystemProfiler::DumpDependencyGraphDot(g);
  EXPECT_NE(dot.find("digraph metadata_dependencies"), std::string::npos);
  // The io-ratio handler and its two dependencies appear, with edges.
  EXPECT_NE(dot.find("io_ratio"), std::string::npos);
  EXPECT_NE(dot.find("input_rate"), std::string::npos);
  EXPECT_NE(dot.find("output_rate"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("label=\"filter\""), std::string::npos);
  // Balanced braces (parseable DOT).
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(ProfilerTest, DotExportEmptyWhenNothingIncluded) {
  StreamEngine engine;
  auto src = engine.graph().AddNode<ManualSource>("src", PairSchema());
  std::string dot = SystemProfiler::DumpDependencyGraphDot(engine.graph());
  EXPECT_EQ(dot.find("cluster_"), std::string::npos);
}

TEST(ProfilerTest, DumpReadsReferenceCountsBesideSubscriptionChurn) {
  // Subscribe and unsubscribe change an included item's reference counts
  // under the exclusive structure lock, while a dump reads them on another
  // thread. Run under TSan this checks that the dump reads them under the
  // structure lock too.
  StreamEngine engine;
  auto src = engine.graph().AddNode<ManualSource>("src", PairSchema());
  auto keep = engine.metadata().Subscribe(*src, keys::kSchema);
  ASSERT_TRUE(keep.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> rounds{0};  // relaxed: orders nothing between the threads
  std::thread churner([&] {
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_TRUE(engine.metadata().Subscribe(*src, keys::kSchema).ok());
      rounds.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Dump until the churner has run 5000 rounds, so the two overlap often
  // enough for TSan to catch an unguarded read in nearly every run.
  while (rounds.load(std::memory_order_relaxed) < 5000) {
    std::string dump = SystemProfiler::DumpProvider(*src);
    EXPECT_NE(dump.find("schema [static] included refs="), std::string::npos);
  }
  stop.store(true, std::memory_order_release);
  churner.join();
  EXPECT_NE(SystemProfiler::DumpProvider(*src).find("included refs=1+0"),
            std::string::npos);
}

}  // namespace
}  // namespace pipes
