/// Cached wave plans and structure-epoch invalidation: steady-state waves
/// reuse the per-origin flattened plan (zero heap allocations), and every
/// structural change — inclusion, exclusion, retirement, dynamic
/// redefinition — bumps the epoch so the next wave rebuilds.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/alloc_counter.h"
#include "metadata/handler.h"
#include "test_support.h"

namespace pipes {
namespace {

using testing::MetaFixture;
using testing::SimpleProvider;

/// A triggered item whose evaluator counts invocations without allocating.
MetadataDescriptor CountingTriggered(const MetadataKey& key,
                                     std::vector<MetadataKey> deps,
                                     std::shared_ptr<int> evals) {
  std::vector<DependencySpec> specs;
  for (auto& dep : deps) specs.push_back(DependencySpec::Self(dep));
  return MetadataDescriptor::Triggered(key)
      .DependsOn(std::move(specs))
      .WithEvaluator([evals](EvalContext&) {
        return MetadataValue(double(++*evals));
      });
}

TEST(WavePlanTest, SubscribeAndUnsubscribeBumpEpoch) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto evals = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("base", 1.0)).ok());
  ASSERT_TRUE(reg.Define(CountingTriggered("t1", {"base"}, evals)).ok());

  uint64_t e0 = fx.manager.structure_epoch();
  auto sub = fx.manager.Subscribe(p, "t1");
  ASSERT_TRUE(sub.ok());
  uint64_t e1 = fx.manager.structure_epoch();
  EXPECT_GT(e1, e0) << "inclusion must invalidate cached wave plans";

  sub.value().Reset();
  uint64_t e2 = fx.manager.structure_epoch();
  EXPECT_GT(e2, e1) << "exclusion must invalidate cached wave plans";
}

TEST(WavePlanTest, SteadyStateWavesHitTheCachedPlan) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto evals = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("base", 1.0)).ok());
  ASSERT_TRUE(reg.Define(CountingTriggered("t1", {"base"}, evals)).ok());
  ASSERT_TRUE(reg.Define(CountingTriggered("t2", {"t1"}, evals)).ok());

  auto sub = fx.manager.Subscribe(p, "t2");
  ASSERT_TRUE(sub.ok());

  fx.manager.FireEvent(p, "base");  // builds the plan
  auto s1 = fx.manager.stats();
  EXPECT_EQ(s1.wave_plan_rebuilds, 1u);
  EXPECT_EQ(s1.wave_plan_hits, 0u);

  fx.manager.FireEvent(p, "base");
  fx.manager.FireEvent(p, "base");
  auto s2 = fx.manager.stats();
  EXPECT_EQ(s2.wave_plan_rebuilds, 1u) << "unchanged graph must not rebuild";
  EXPECT_EQ(s2.wave_plan_hits, 2u);
  // Every wave either hits its cached plan or rebuilds it.
  EXPECT_EQ(s2.waves, s2.wave_plan_hits + s2.wave_plan_rebuilds);
  // Each wave refreshed both triggered handlers, dependencies first.
  EXPECT_EQ(s2.wave_refreshes, 6u);
}

TEST(WavePlanTest, SubscribeBetweenWavesRebuildsPlan) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto evals = std::make_shared<int>(0);
  auto late_evals = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("base", 1.0)).ok());
  ASSERT_TRUE(reg.Define(CountingTriggered("t1", {"base"}, evals)).ok());
  ASSERT_TRUE(reg.Define(CountingTriggered("late", {"base"}, late_evals)).ok());

  auto sub = fx.manager.Subscribe(p, "t1");
  ASSERT_TRUE(sub.ok());
  fx.manager.FireEvent(p, "base");
  ASSERT_EQ(fx.manager.stats().wave_plan_rebuilds, 1u);

  // A new dependent of base appears: the cached plan no longer covers the
  // graph and must be rebuilt — and the new handler must join the wave.
  auto sub2 = fx.manager.Subscribe(p, "late");
  ASSERT_TRUE(sub2.ok());
  *late_evals = 0;  // drop the activation evaluation
  fx.manager.FireEvent(p, "base");
  auto s = fx.manager.stats();
  EXPECT_EQ(s.wave_plan_rebuilds, 2u);
  EXPECT_EQ(*late_evals, 1) << "rebuilt plan must include the new dependent";

  // Unsubscribing removes `late` again: next wave rebuilds once more and no
  // longer refreshes it.
  sub2.value().Reset();
  *late_evals = 0;
  fx.manager.FireEvent(p, "base");
  EXPECT_EQ(fx.manager.stats().wave_plan_rebuilds, 3u);
  EXPECT_EQ(*late_evals, 0);
}

TEST(WavePlanTest, DynamicRedefinitionBumpsEpoch) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto evals = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("base", 1.0)).ok());
  ASSERT_TRUE(reg.Define(CountingTriggered("t1", {"base"}, evals)).ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("spare").WithEvaluator(
                             [](EvalContext&) { return MetadataValue(0.0); }))
                  .ok());

  // The registry only learns its manager on first inclusion.
  auto sub = fx.manager.Subscribe(p, "t1");
  ASSERT_TRUE(sub.ok());

  uint64_t e0 = fx.manager.structure_epoch();
  ASSERT_TRUE(reg.Redefine(MetadataDescriptor::OnDemand("spare").WithEvaluator(
                               [](EvalContext&) { return MetadataValue(1.0); }))
                  .ok());
  uint64_t e1 = fx.manager.structure_epoch();
  EXPECT_GT(e1, e0) << "Redefine must invalidate cached wave plans";

  ASSERT_TRUE(
      reg.DefineOrRedefine(MetadataDescriptor::Static("fresh", 2.0)).ok());
  uint64_t e2 = fx.manager.structure_epoch();
  EXPECT_GT(e2, e1) << "DefineOrRedefine must invalidate cached wave plans";

  ASSERT_TRUE(reg.Undefine("fresh").ok());
  uint64_t e3 = fx.manager.structure_epoch();
  EXPECT_GT(e3, e2) << "Undefine must invalidate cached wave plans";

  // And the next wave indeed rebuilds instead of hitting.
  fx.manager.FireEvent(p, "base");
  auto s1 = fx.manager.stats();
  ASSERT_TRUE(reg.Redefine(MetadataDescriptor::OnDemand("spare").WithEvaluator(
                               [](EvalContext&) { return MetadataValue(2.0); }))
                  .ok());
  fx.manager.FireEvent(p, "base");
  auto s2 = fx.manager.stats();
  EXPECT_EQ(s2.wave_plan_rebuilds, s1.wave_plan_rebuilds + 1);
  EXPECT_EQ(s2.wave_plan_hits, s1.wave_plan_hits);
}

TEST(WavePlanTest, SteadyStateWaveIsAllocationFree) {
  if (!AllocCountingActive()) {
    GTEST_SKIP() << "allocation counting disabled (sanitizer build)";
  }
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto evals = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("base", 1.0)).ok());
  std::string prev = "base";
  for (int i = 0; i < 8; ++i) {
    std::string key = "t" + std::to_string(i);
    ASSERT_TRUE(reg.Define(CountingTriggered(key, {prev}, evals)).ok());
    prev = key;
  }
  auto sub = fx.manager.Subscribe(p, prev);
  ASSERT_TRUE(sub.ok());

  // Warm up: builds the plan and faults in thread-local state of the
  // lock-order validator.
  for (int i = 0; i < 3; ++i) fx.manager.FireEvent(p, "base");

  ScopedAllocCounter counter;
  fx.manager.FireEvent(p, "base");
  EXPECT_EQ(counter.delta(), 0)
      << "steady-state propagation wave must not allocate";

  auto s = fx.manager.stats();
  EXPECT_EQ(s.wave_plan_rebuilds, 1u);
  EXPECT_EQ(s.wave_plan_hits, 3u);
}

TEST(WavePlanTest, IndependentOriginsCacheIndependentPlans) {
  VirtualTimeScheduler sched;
  MetadataManager manager(sched);
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto evals = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("base_a", 1.0)).ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("base_b", 1.0)).ok());
  ASSERT_TRUE(reg.Define(CountingTriggered("ta", {"base_a"}, evals)).ok());
  ASSERT_TRUE(reg.Define(CountingTriggered("tb", {"base_b"}, evals)).ok());

  auto sa = manager.Subscribe(p, "ta");
  auto sb = manager.Subscribe(p, "tb");
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());

  // Each origin builds its own plan once; subsequent waves from either
  // origin hit their own cached plans.
  manager.FireEvent(p, "base_a");
  manager.FireEvent(p, "base_b");
  auto s1 = manager.stats();
  EXPECT_EQ(s1.wave_plan_rebuilds, 2u);
  EXPECT_EQ(s1.wave_plan_hits, 0u);

  manager.FireEvent(p, "base_a");
  manager.FireEvent(p, "base_b");
  auto s2 = manager.stats();
  EXPECT_EQ(s2.wave_plan_rebuilds, 2u);
  EXPECT_EQ(s2.wave_plan_hits, 2u);
  EXPECT_EQ(s2.waves, 4u);
  EXPECT_EQ(s2.waves_deferred, 0u);
}

TEST(WavePlanTest, LongChainRebuildsIntoOneOrderedPlan) {
  // A rebuild over a long chain orders the whole closure dependencies-first,
  // so one wave refreshes every chain handler exactly once.
  VirtualTimeScheduler sched;
  MetadataManager manager(sched);
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto evals = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("base", 1.0)).ok());
  std::string prev = "base";
  for (int i = 0; i < 12; ++i) {
    std::string key = "t" + std::to_string(i);
    ASSERT_TRUE(reg.Define(CountingTriggered(key, {prev}, evals)).ok());
    prev = key;
  }
  auto sub = manager.Subscribe(p, prev);
  ASSERT_TRUE(sub.ok());

  *evals = 0;  // drop activation evaluations
  manager.FireEvent(p, "base");
  EXPECT_EQ(*evals, 12) << "every chain handler refreshes exactly once";
  auto s = manager.stats();
  EXPECT_EQ(s.wave_plan_rebuilds, 1u);
  EXPECT_EQ(s.wave_refreshes, 12u);
}

}  // namespace
}  // namespace pipes
