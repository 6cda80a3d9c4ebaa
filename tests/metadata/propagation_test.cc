/// Update propagation (paper §3.2.3): waves along the inverted dependency
/// graph, topological update order, at-most-once refresh, node boundaries,
/// event notifications.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "metadata/handler.h"
#include "test_support.h"

namespace pipes {
namespace {

using testing::MetaFixture;
using testing::SimpleProvider;

/// A triggered item that appends its key to `log` on evaluation.
MetadataDescriptor LoggingTriggered(
    const MetadataKey& key, std::vector<MetadataKey> deps,
    std::shared_ptr<std::vector<std::string>> log) {
  std::vector<DependencySpec> specs;
  for (auto& dep : deps) specs.push_back(DependencySpec::Self(dep));
  return MetadataDescriptor::Triggered(key)
      .DependsOn(std::move(specs))
      .WithEvaluator([key, log](EvalContext&) {
        log->push_back(key);
        return MetadataValue(1.0);
      });
}

MetadataDescriptor TickingPeriodic(const MetadataKey& key, Duration period,
                                   std::shared_ptr<int> counter) {
  return MetadataDescriptor::Periodic(key, period)
      .WithEvaluator([counter](EvalContext&) {
        return MetadataValue(double(++*counter));
      });
}

TEST(PropagationTest, ChainRefreshesInDependencyOrder) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto counter = std::make_shared<int>(0);
  auto log = std::make_shared<std::vector<std::string>>();
  ASSERT_TRUE(reg.Define(TickingPeriodic("base", 100, counter)).ok());
  ASSERT_TRUE(reg.Define(LoggingTriggered("t1", {"base"}, log)).ok());
  ASSERT_TRUE(reg.Define(LoggingTriggered("t2", {"t1"}, log)).ok());

  auto sub = fx.manager.Subscribe(p, "t2");
  ASSERT_TRUE(sub.ok());
  log->clear();  // drop activation evaluations
  fx.RunFor(100);  // one tick
  ASSERT_EQ(log->size(), 2u);
  EXPECT_EQ((*log)[0], "t1");
  EXPECT_EQ((*log)[1], "t2");
}

TEST(PropagationTest, DiamondRefreshesEachHandlerOncePerWave) {
  // t3 depends on t1 and t2, both depend on base. Without topological
  // ordering t3 would refresh twice (once per parent) or refresh before a
  // parent — the "glitch" §3.2.3 rules out.
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto counter = std::make_shared<int>(0);
  auto log = std::make_shared<std::vector<std::string>>();
  ASSERT_TRUE(reg.Define(TickingPeriodic("base", 100, counter)).ok());
  ASSERT_TRUE(reg.Define(LoggingTriggered("t1", {"base"}, log)).ok());
  ASSERT_TRUE(reg.Define(LoggingTriggered("t2", {"base"}, log)).ok());
  ASSERT_TRUE(reg.Define(LoggingTriggered("t3", {"t1", "t2"}, log)).ok());

  auto sub = fx.manager.Subscribe(p, "t3");
  ASSERT_TRUE(sub.ok());
  log->clear();
  fx.RunFor(100);
  ASSERT_EQ(log->size(), 3u);
  EXPECT_EQ(log->back(), "t3");  // after both parents
  EXPECT_EQ(std::count(log->begin(), log->end(), "t3"), 1);
}

TEST(PropagationTest, DeepChainOrderHolds) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto counter = std::make_shared<int>(0);
  auto log = std::make_shared<std::vector<std::string>>();
  ASSERT_TRUE(reg.Define(TickingPeriodic("base", 100, counter)).ok());
  const int kDepth = 12;
  std::string prev = "base";
  for (int i = 0; i < kDepth; ++i) {
    std::string key = "t" + std::to_string(i);
    ASSERT_TRUE(reg.Define(LoggingTriggered(key, {prev}, log)).ok());
    prev = key;
  }
  auto sub = fx.manager.Subscribe(p, prev);
  ASSERT_TRUE(sub.ok());
  log->clear();
  fx.RunFor(100);
  ASSERT_EQ(log->size(), size_t(kDepth));
  for (int i = 0; i < kDepth; ++i) {
    EXPECT_EQ((*log)[i], "t" + std::to_string(i));
  }
}

TEST(PropagationTest, WaveDoesNotContinueThroughPeriodicHandlers) {
  // "Periodic handlers update on their own cadence": base -> mid(periodic)
  // -> t. A wave from base must not refresh t.
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto c1 = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(TickingPeriodic("base", 100, c1)).ok());
  auto mid_evals = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Periodic("mid", 1000)
                             .DependsOnSelf("base")
                             .WithEvaluator([mid_evals](EvalContext& ctx) {
                               ++*mid_evals;
                               return ctx.Dep(0);
                             }))
                  .ok());
  auto log = std::make_shared<std::vector<std::string>>();
  ASSERT_TRUE(reg.Define(LoggingTriggered("t", {"mid"}, log)).ok());

  auto sub = fx.manager.Subscribe(p, "t");
  ASSERT_TRUE(sub.ok());
  log->clear();
  fx.RunFor(500);  // five base ticks, no mid tick yet
  EXPECT_TRUE(log->empty());
  fx.RunFor(600);  // mid ticks at t=1000
  EXPECT_EQ(log->size(), 1u);
}

TEST(PropagationTest, WaveContinuesThroughOnDemandHandlers) {
  // base(periodic) -> od(on-demand) -> t(triggered): t must refresh when
  // base publishes, because od's derived value changed.
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto counter = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(TickingPeriodic("base", 100, counter)).ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("od")
                             .DependsOnSelf("base")
                             .WithEvaluator([](EvalContext& ctx) {
                               return MetadataValue(2 * ctx.DepDouble(0));
                             }))
                  .ok());
  auto log = std::make_shared<std::vector<std::string>>();
  ASSERT_TRUE(reg.Define(LoggingTriggered("t", {"od"}, log)).ok());

  auto sub = fx.manager.Subscribe(p, "t");
  ASSERT_TRUE(sub.ok());
  log->clear();
  fx.RunFor(300);
  EXPECT_EQ(log->size(), 3u);
}

TEST(PropagationTest, CrossNodePropagation) {
  // "Updates can therefore propagate through the query graph."
  MetaFixture fx;
  SimpleProvider up("up");
  SimpleProvider mid("mid");
  SimpleProvider down("down");
  mid.ups = {&up};
  down.ups = {&mid};
  auto counter = std::make_shared<int>(0);
  ASSERT_TRUE(
      up.metadata_registry().Define(TickingPeriodic("rate", 100, counter)).ok());
  ASSERT_TRUE(mid.metadata_registry()
                  .Define(MetadataDescriptor::Triggered("est")
                              .DependsOnUpstream(0, "rate")
                              .WithEvaluator([](EvalContext& ctx) {
                                return ctx.Dep(0);
                              }))
                  .ok());
  ASSERT_TRUE(down.metadata_registry()
                  .Define(MetadataDescriptor::Triggered("est")
                              .DependsOnUpstream(0, "est")
                              .WithEvaluator([](EvalContext& ctx) {
                                return ctx.Dep(0);
                              }))
                  .ok());

  auto sub = fx.manager.Subscribe(down, "est");
  ASSERT_TRUE(sub.ok());
  fx.RunFor(250);  // two ticks
  EXPECT_EQ(sub->Get().AsDouble(), 3.0);  // activation + 2 ticks
}

TEST(PropagationTest, FireEventOnOnDemandItemTriggersDependents) {
  // The window-size pattern of §3.3: an on-demand item over mutable state,
  // with a manual event notification on state change.
  MetaFixture fx;
  SimpleProvider p("win");
  auto& reg = p.metadata_registry();
  double window = 10.0;
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("window_size")
                             .WithEvaluator([&window](EvalContext&) {
                               return MetadataValue(window);
                             }))
                  .ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("est_validity")
                             .DependsOnSelf("window_size")
                             .WithEvaluator([](EvalContext& ctx) {
                               return ctx.Dep(0);
                             }))
                  .ok());

  auto sub = fx.manager.Subscribe(p, "est_validity");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->Get().AsDouble(), 10.0);

  window = 20.0;
  EXPECT_EQ(sub->Get().AsDouble(), 10.0);  // no event, stale by design
  p.FireMetadataEvent("window_size");
  EXPECT_EQ(sub->Get().AsDouble(), 20.0);
}

TEST(PropagationTest, FireEventOnNotIncludedItemIsNoop) {
  MetaFixture fx;
  SimpleProvider p("p");
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("x").WithEvaluator(
                      [](EvalContext&) { return MetadataValue(1.0); }))
                  .ok());
  p.FireMetadataEvent("x");  // must not crash
  EXPECT_EQ(fx.manager.stats().events_fired, 0u);
}

TEST(PropagationTest, WaveStatisticsAreCounted) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto counter = std::make_shared<int>(0);
  auto log = std::make_shared<std::vector<std::string>>();
  ASSERT_TRUE(reg.Define(TickingPeriodic("base", 100, counter)).ok());
  ASSERT_TRUE(reg.Define(LoggingTriggered("t", {"base"}, log)).ok());
  auto sub = fx.manager.Subscribe(p, "t");
  ASSERT_TRUE(sub.ok());
  fx.RunFor(500);
  auto stats = fx.manager.stats();
  EXPECT_EQ(stats.waves, 5u);
  EXPECT_EQ(stats.wave_refreshes, 5u);
}

}  // namespace
}  // namespace pipes
