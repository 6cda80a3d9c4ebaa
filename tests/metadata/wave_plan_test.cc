/// Cached wave plans and structure-epoch invalidation: steady-state waves
/// reuse the per-origin flattened plan (zero heap allocations), inclusion
/// and exclusion bump the epoch so the next wave rebuilds, and changes that
/// leave the graph's shape alone — redefining items that are not included,
/// retiring a torn-down provider's handlers — keep the cached plans.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
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

/// Defines static `base` and triggered t0..t7 on `p`, each over the one
/// before, and returns the last key.
MetadataKey DefineChainOfEight(SimpleProvider& p, std::shared_ptr<int> evals) {
  auto& reg = p.metadata_registry();
  EXPECT_TRUE(reg.Define(MetadataDescriptor::Static("base", 1.0)).ok());
  MetadataKey prev = "base";
  for (int i = 0; i < 8; ++i) {
    MetadataKey key = "t" + std::to_string(i);
    EXPECT_TRUE(reg.Define(CountingTriggered(key, {prev}, evals)).ok());
    prev = key;
  }
  return prev;
}

TEST(WavePlanTest, SubscribeAndUnsubscribeBumpEpoch) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto evals = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("base", 1.0)).ok());
  ASSERT_TRUE(reg.Define(CountingTriggered("t1", {"base"}, evals)).ok());
  ASSERT_TRUE(reg.Define(CountingTriggered("t2", {"base"}, evals)).ok());

  auto sub = fx.manager.Subscribe(p, "t1");
  ASSERT_TRUE(sub.ok());
  fx.manager.FireEvent(p, "base");  // builds the plan
  fx.manager.FireEvent(p, "base");
  auto s0 = fx.manager.stats();
  ASSERT_EQ(s0.wave_plan_rebuilds, 1u);
  ASSERT_EQ(s0.wave_plan_hits, 1u);

  auto sub2 = fx.manager.Subscribe(p, "t2");
  ASSERT_TRUE(sub2.ok());
  fx.manager.FireEvent(p, "base");
  auto s1 = fx.manager.stats();
  EXPECT_EQ(s1.wave_plan_rebuilds, s0.wave_plan_rebuilds + 1)
      << "inclusion must invalidate cached wave plans";
  EXPECT_EQ(s1.wave_plan_hits, s0.wave_plan_hits);

  sub2.value().Reset();
  fx.manager.FireEvent(p, "base");
  auto s2 = fx.manager.stats();
  EXPECT_EQ(s2.wave_plan_rebuilds, s1.wave_plan_rebuilds + 1)
      << "exclusion must invalidate cached wave plans";
  EXPECT_EQ(s2.wave_plan_hits, s1.wave_plan_hits);
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

TEST(WavePlanTest, RedefiningItemsThatAreNotIncludedKeepsThePlan) {
  // Redefine, DefineOrRedefine and Undefine refuse an included item, so no
  // handler and no cached plan can refer to what they change: the next
  // wave reuses the plan, and computes the right value through it.
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto input = std::make_shared<double>(1.0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("base").WithEvaluator(
                             [input](EvalContext&) {
                               return MetadataValue(*input);
                             }))
                  .ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("t1")
                             .DependsOnSelf("base")
                             .WithEvaluator([](EvalContext& ctx) {
                               return MetadataValue(ctx.DepDouble(0) * 10);
                             }))
                  .ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("spare").WithEvaluator(
                             [](EvalContext&) { return MetadataValue(0.0); }))
                  .ok());

  auto sub = fx.manager.Subscribe(p, "t1");
  ASSERT_TRUE(sub.ok());
  fx.manager.FireEvent(p, "base");  // builds the plan
  auto s0 = fx.manager.stats();
  ASSERT_EQ(s0.wave_plan_rebuilds, 1u);

  ASSERT_TRUE(reg.Redefine(MetadataDescriptor::OnDemand("spare").WithEvaluator(
                               [](EvalContext&) { return MetadataValue(1.0); }))
                  .ok());
  ASSERT_TRUE(
      reg.DefineOrRedefine(MetadataDescriptor::Static("fresh", 2.0)).ok());
  ASSERT_TRUE(
      reg.DefineOrRedefine(MetadataDescriptor::Static("spare", 3.0)).ok());
  ASSERT_TRUE(reg.Undefine("fresh").ok());

  *input = 4.0;
  fx.manager.FireEvent(p, "base");
  auto s1 = fx.manager.stats();
  EXPECT_EQ(s1.wave_plan_hits, s0.wave_plan_hits + 1)
      << "redefining items that are not included must keep the plan";
  EXPECT_EQ(s1.wave_plan_rebuilds, s0.wave_plan_rebuilds);
  EXPECT_EQ(sub.value().GetDouble(), 40.0);
}

TEST(WavePlanTest, ProviderTeardownKeepsOtherOriginsPlans) {
  // Provider q's triggered item sits in the plan of p's origin, and its
  // subscription outlives q. Retirement leaves every edge in place, so the
  // next wave from p reuses the plan: the retired item serves its fallback
  // and p's items converge on the new input.
  MetaFixture fx;
  SimpleProvider p("p");
  auto q = std::make_unique<SimpleProvider>("q");
  auto input = std::make_shared<double>(1.0);
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("src").WithEvaluator(
                      [input](EvalContext&) { return MetadataValue(*input); }))
                  .ok());
  ASSERT_TRUE(q->metadata_registry()
                  .Define(MetadataDescriptor::Triggered("mid")
                              .DependsOn({DependencySpec::Explicit(&p, "src")})
                              .WithEvaluator([](EvalContext& ctx) {
                                return MetadataValue(ctx.DepDouble(0) * 10);
                              })
                              .WithFallbackValue(-1.0))
                  .ok());
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Triggered("tail")
                              .DependsOn({DependencySpec::Self("src"),
                                          DependencySpec::Explicit(q.get(),
                                                                   "mid")})
                              .WithEvaluator([](EvalContext& ctx) {
                                return MetadataValue(ctx.DepDouble(0) +
                                                     ctx.DepDouble(1));
                              }))
                  .ok());
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Triggered("echo")
                              .DependsOnSelf("src")
                              .WithEvaluator([](EvalContext& ctx) {
                                return MetadataValue(ctx.DepDouble(0) * 2);
                              }))
                  .ok());

  auto mid = fx.manager.Subscribe(*q, "mid");
  auto tail = fx.manager.Subscribe(p, "tail");
  auto echo = fx.manager.Subscribe(p, "echo");
  ASSERT_TRUE(mid.ok());
  ASSERT_TRUE(tail.ok());
  ASSERT_TRUE(echo.ok());
  fx.manager.FireEvent(p, "src");  // builds the plan: mid, tail, echo
  ASSERT_EQ(tail.value().GetDouble(), 11.0);
  auto s0 = fx.manager.stats();

  q.reset();  // retires mid; its subscription and tail's edge keep it alive
  ASSERT_TRUE(mid.value().handler()->retired());

  *input = 2.0;
  fx.manager.FireEvent(p, "src");
  auto s1 = fx.manager.stats();
  EXPECT_EQ(s1.wave_plan_hits, s0.wave_plan_hits + 1)
      << "retiring a handler must keep the plans that walk it";
  EXPECT_EQ(s1.wave_plan_rebuilds, s0.wave_plan_rebuilds);
  EXPECT_EQ(mid.value().GetDouble(), -1.0);
  EXPECT_EQ(tail.value().GetDouble(), 2.0 + -1.0);
  EXPECT_EQ(echo.value().GetDouble(), 4.0);

  // Dropping the last references excludes the retired handler, which does
  // change the graph: the next wave rebuilds and still converges.
  mid.value().Reset();
  tail.value().Reset();
  *input = 3.0;
  fx.manager.FireEvent(p, "src");
  auto s2 = fx.manager.stats();
  EXPECT_EQ(s2.wave_plan_rebuilds, s1.wave_plan_rebuilds + 1);
  EXPECT_EQ(echo.value().GetDouble(), 6.0);
}

TEST(WavePlanTest, SteadyStateWaveIsAllocationFree) {
  if (!AllocCountingActive()) {
    GTEST_SKIP() << "allocation counting disabled (sanitizer build)";
  }
  MetaFixture fx;
  SimpleProvider p("p");
  auto evals = std::make_shared<int>(0);
  auto sub = fx.manager.Subscribe(p, DefineChainOfEight(p, evals));
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

TEST(WavePlanTest, RebuildWaveAllocatesOnlyThePlan) {
  if (!AllocCountingActive()) {
    GTEST_SKIP() << "allocation counting disabled (sanitizer build)";
  }
  MetaFixture fx;
  SimpleProvider p("p");
  auto evals = std::make_shared<int>(0);
  auto sub = fx.manager.Subscribe(p, DefineChainOfEight(p, evals));
  ASSERT_TRUE(sub.ok());

  // Warm up: the first rebuild on this thread sizes its rebuild scratch.
  for (int i = 0; i < 2; ++i) {
    fx.manager.BumpStructureEpoch();
    fx.manager.FireEvent(p, "base");
  }
  const auto before = fx.manager.stats();
  const int evals_before = *evals;

  fx.manager.BumpStructureEpoch();
  ScopedAllocCounter counter;
  fx.manager.FireEvent(p, "base");
  // The plan and its refresh list.
  EXPECT_LE(counter.delta(), 2) << "a rebuild wave allocates only its plan";

  const auto after = fx.manager.stats();
  EXPECT_EQ(after.wave_plan_rebuilds, before.wave_plan_rebuilds + 1);
  EXPECT_EQ(after.wave_refreshes, before.wave_refreshes + 8);
  EXPECT_EQ(*evals, evals_before + 8);
}

TEST(WavePlanTest, WavesCountEachEvaluationOnce) {
  // A wave adds its refreshes' evaluations to the manager's count once, at
  // its end, instead of once per refresh; the count still matches the
  // evaluator's invocations, on a rebuild wave and on plan hits alike.
  MetaFixture fx;
  SimpleProvider p("p");
  auto evals = std::make_shared<int>(0);
  auto sub = fx.manager.Subscribe(p, DefineChainOfEight(p, evals));
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(fx.manager.stats().evaluations, 8u) << "one per activation";

  for (int wave = 0; wave < 3; ++wave) {
    const uint64_t before = fx.manager.stats().evaluations;
    fx.manager.FireEvent(p, "base");
    EXPECT_EQ(fx.manager.stats().evaluations, before + 8) << "wave " << wave;
  }
  EXPECT_EQ(fx.manager.stats().evaluations, static_cast<uint64_t>(*evals));
  EXPECT_EQ(fx.manager.stats().wave_plan_hits, 2u);
}

TEST(WavePlanTest, WavesCountFailedEvaluationsButNotSkippedOnes) {
  // A throwing evaluator ran: the wave counts it as an evaluation and as a
  // contained failure. Inside its quarantine backoff the handler's
  // evaluator does not run, so the wave counts a skipped evaluation instead.
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto fail = std::make_shared<bool>(false);
  RetryPolicy policy;
  policy.failures_to_quarantine = 1;
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("base", 1.0)).ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("t")
                             .DependsOnSelf("base")
                             .WithEvaluator([fail](EvalContext& ctx) {
                               if (*fail) throw std::runtime_error("boom");
                               return ctx.Dep(0);
                             })
                             .WithRetryPolicy(policy))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "t");
  ASSERT_TRUE(sub.ok());
  const auto s0 = fx.manager.stats();

  *fail = true;
  fx.manager.FireEvent(p, "base");  // throws: counted, then quarantined
  const auto s1 = fx.manager.stats();
  EXPECT_EQ(s1.evaluations, s0.evaluations + 1);
  EXPECT_EQ(s1.eval_failures, s0.eval_failures + 1);
  EXPECT_EQ(s1.evals_skipped, s0.evals_skipped);
  ASSERT_EQ(sub->handler()->health(), HandlerHealth::kQuarantined);

  fx.manager.FireEvent(p, "base");  // same instant: inside the backoff
  const auto s2 = fx.manager.stats();
  EXPECT_EQ(s2.evaluations, s1.evaluations);
  EXPECT_EQ(s2.eval_failures, s1.eval_failures);
  EXPECT_EQ(s2.evals_skipped, s1.evals_skipped + 1);
  EXPECT_EQ(s2.wave_refreshes, s1.wave_refreshes + 1);
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
