/// Lifecycle edge cases: mechanism switches via redefinition, module
/// nesting, null evaluators, events on every mechanism, stats coherence.

#include <gtest/gtest.h>

#include <memory>

#include "metadata/handler.h"
#include "test_support.h"

namespace pipes {
namespace {

using testing::MetaFixture;
using testing::SimpleProvider;

TEST(LifecycleTest, MechanismSwitchViaRedefinition) {
  // An item is periodic in one phase of the system's life and triggered in
  // another (§4.4.2/§4.4.3 redefinition machinery).
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto evals = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Periodic("x", 100)
                             .WithEvaluator([evals](EvalContext&) {
                               return MetadataValue(double(++*evals));
                             }))
                  .ok());
  {
    auto sub = fx.manager.Subscribe(p, "x").value();
    fx.RunFor(500);
    EXPECT_EQ(*evals, 6);  // activation + 5 ticks
    EXPECT_EQ(sub.handler()->mechanism(), UpdateMechanism::kPeriodic);
  }
  ASSERT_TRUE(reg.Redefine(MetadataDescriptor::Triggered("x").WithEvaluator(
                  [evals](EvalContext&) {
                    return MetadataValue(double(++*evals));
                  }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x").value();
  EXPECT_EQ(sub.handler()->mechanism(), UpdateMechanism::kTriggered);
  int at_subscribe = *evals;
  fx.RunFor(Seconds(10));
  EXPECT_EQ(*evals, at_subscribe);  // no more periodic ticks
}

TEST(LifecycleTest, NestedModulesResolveRecursively) {
  // §4.5: "The metadata framework is applied recursively to access metadata
  // items of nested modules."
  MetaFixture fx;
  SimpleProvider op("op");
  SimpleProvider outer("op/state");
  SimpleProvider inner("op/state/index");
  op.RegisterModule("state", &outer);
  outer.RegisterModule("index", &inner);

  ASSERT_TRUE(inner.metadata_registry()
                  .Define(MetadataDescriptor::Static("bytes", 64))
                  .ok());
  ASSERT_TRUE(outer.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("bytes")
                              .DependsOnModule("index", "bytes")
                              .WithEvaluator([](EvalContext& ctx) {
                                return MetadataValue(ctx.Dep(0).AsInt() + 100);
                              }))
                  .ok());
  ASSERT_TRUE(op.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("memory")
                              .DependsOnModule("state", "bytes")
                              .WithEvaluator([](EvalContext& ctx) {
                                return ctx.Dep(0);
                              }))
                  .ok());

  auto sub = fx.manager.Subscribe(op, "memory").value();
  EXPECT_EQ(sub.Get().AsInt(), 164);
  EXPECT_TRUE(inner.metadata_registry().IsIncluded("bytes"));
  sub.Reset();
  EXPECT_FALSE(inner.metadata_registry().IsIncluded("bytes"));
  EXPECT_EQ(fx.manager.active_handler_count(), 0u);
}

TEST(LifecycleTest, SubscribeDirectlyOnModuleProvider) {
  MetaFixture fx;
  SimpleProvider op("op");
  SimpleProvider module("op/state");
  op.RegisterModule("state", &module);
  ASSERT_TRUE(module.metadata_registry()
                  .Define(MetadataDescriptor::Static("impl", "hash"))
                  .ok());
  auto sub = fx.manager.Subscribe(module, "impl").value();
  EXPECT_EQ(sub.Get().AsString(), "hash");
}

TEST(LifecycleTest, StaticWithoutValueOrEvaluatorIsNull) {
  MetaFixture fx;
  SimpleProvider p("p");
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Static("empty", MetadataValue()))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "empty").value();
  EXPECT_TRUE(sub.Get().is_null());
}

TEST(LifecycleTest, ItemsWithoutEvaluatorReturnNull) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("od")).ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Periodic("per", 100)).ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("tr")).ok());
  auto od = fx.manager.Subscribe(p, "od").value();
  auto per = fx.manager.Subscribe(p, "per").value();
  auto tr = fx.manager.Subscribe(p, "tr").value();
  fx.RunFor(500);
  EXPECT_TRUE(od.Get().is_null());
  EXPECT_TRUE(per.Get().is_null());
  EXPECT_TRUE(tr.Get().is_null());
}

TEST(LifecycleTest, FireEventOnPeriodicItemPropagates) {
  // Events are not limited to on-demand origins: a periodic item's handler
  // can be poked manually (e.g. after an out-of-band correction).
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Periodic("base", Seconds(100))
                             .WithEvaluator([](EvalContext&) {
                               return MetadataValue(1.0);
                             }))
                  .ok());
  auto calls = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("t")
                             .DependsOnSelf("base")
                             .WithEvaluator([calls](EvalContext& ctx) {
                               ++*calls;
                               return ctx.Dep(0);
                             }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "t").value();
  EXPECT_EQ(*calls, 1);
  p.FireMetadataEvent("base");
  EXPECT_EQ(*calls, 2);
}

TEST(LifecycleTest, StatsStayCoherentAcrossChurn) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("base", 1)).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("m" + std::to_string(i))
                               .DependsOnSelf("base")
                               .WithEvaluator([](EvalContext& ctx) {
                                 return ctx.Dep(0);
                               }))
                    .ok());
  }
  for (int round = 0; round < 20; ++round) {
    std::vector<MetadataSubscription> subs;
    for (int i = 0; i < 5; ++i) {
      subs.push_back(
          fx.manager.Subscribe(p, "m" + std::to_string(i)).value());
    }
  }
  auto stats = fx.manager.stats();
  EXPECT_EQ(stats.handlers_created, stats.handlers_removed);
  EXPECT_EQ(stats.subscriptions, stats.unsubscriptions);
  EXPECT_EQ(stats.active_handlers, 0u);
  EXPECT_EQ(fx.manager.active_handler_count(), 0u);
}

TEST(LifecycleTest, HandlerSurvivesSubscriptionWhileDependentsExist) {
  // C has an external consumer that unsubscribes while A (depending on C)
  // stays live: C must survive on internal refs alone, then die with A.
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("c", 5)).ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("a")
                             .DependsOnSelf("c")
                             .WithEvaluator([](EvalContext& ctx) {
                               return ctx.Dep(0);
                             }))
                  .ok());
  auto c_sub = fx.manager.Subscribe(p, "c").value();
  auto a_sub = fx.manager.Subscribe(p, "a").value();
  c_sub.Reset();
  EXPECT_TRUE(reg.IsIncluded("c"));  // internal ref from a
  EXPECT_EQ(a_sub.Get().AsInt(), 5);
  a_sub.Reset();
  EXPECT_FALSE(reg.IsIncluded("c"));
}

TEST(LifecycleTest, GetOnMovedFromSubscriptionIsNull) {
  MetaFixture fx;
  SimpleProvider p("p");
  ASSERT_TRUE(
      p.metadata_registry().Define(MetadataDescriptor::Static("v", 1)).ok());
  auto a = fx.manager.Subscribe(p, "v").value();
  MetadataSubscription b = std::move(a);
  EXPECT_TRUE(a.Get().is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.Get().AsInt(), 1);
}

TEST(LifecycleTest, SubscriptionOutlivesProviderServesFallback) {
  // A consumer holds its subscription while the provider (and its evaluator
  // state) is torn down: Get() must serve the descriptor's fallback, not
  // reach into the destroyed provider.
  MetaFixture fx;
  MetadataSubscription sub;
  {
    SimpleProvider p("p");
    ASSERT_TRUE(p.metadata_registry()
                    .Define(MetadataDescriptor::OnDemand("x")
                                .WithEvaluator([&p](EvalContext&) {
                                  // Touches provider state: must never run
                                  // after ~SimpleProvider.
                                  return MetadataValue(double(p.label().size()));
                                })
                                .WithFallbackValue(-7.0))
                    .ok());
    sub = fx.manager.Subscribe(p, "x").value();
    EXPECT_EQ(sub.GetDouble(), 1.0);
    EXPECT_FALSE(sub.handler()->retired());
  }  // ~SimpleProvider retires the handler
  EXPECT_TRUE(sub.handler()->retired());
  EXPECT_EQ(sub.GetDouble(), -7.0);  // fallback, evaluator not invoked
  sub.Reset();                       // must not crash on a retired handler
}

TEST(LifecycleTest, SubscriptionOutlivesProviderWithoutFallback) {
  // Same teardown race, but no fallback declared: the last-known-good value
  // is frozen and served.
  MetaFixture fx;
  MetadataSubscription sub;
  {
    SimpleProvider p("p");
    auto evals = std::make_shared<int>(0);
    ASSERT_TRUE(p.metadata_registry()
                    .Define(MetadataDescriptor::OnDemand("x").WithEvaluator(
                        [evals](EvalContext&) {
                          return MetadataValue(double(++*evals));
                        }))
                    .ok());
    sub = fx.manager.Subscribe(p, "x").value();
    EXPECT_EQ(sub.GetDouble(), 1.0);
  }
  EXPECT_EQ(sub.GetDouble(), 1.0);  // frozen, not re-evaluated
  EXPECT_EQ(sub.GetDouble(), 1.0);
}

TEST(LifecycleTest, PeriodicTaskStopsWhenProviderDies) {
  MetaFixture fx;
  auto evals = std::make_shared<int>(0);
  MetadataSubscription sub;
  {
    SimpleProvider p("p");
    ASSERT_TRUE(p.metadata_registry()
                    .Define(MetadataDescriptor::Periodic("x", 100)
                                .WithEvaluator([evals](EvalContext&) {
                                  return MetadataValue(double(++*evals));
                                }))
                    .ok());
    sub = fx.manager.Subscribe(p, "x").value();
    fx.RunFor(250);
    EXPECT_EQ(*evals, 3);  // activation + 2 ticks
  }
  fx.RunFor(Seconds(5));
  EXPECT_EQ(*evals, 3);  // no tick fires into the dead provider
  EXPECT_EQ(sub.GetDouble(), 3.0);
}

TEST(LifecycleTest, PeriodicZeroUpdatesWhenNeverIncluded) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto evals = std::make_shared<int>(0);
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Periodic("x", 10)
                              .WithEvaluator([evals](EvalContext&) {
                                return MetadataValue(double(++*evals));
                              }))
                  .ok());
  fx.RunFor(Seconds(10));
  EXPECT_EQ(*evals, 0);  // "unused metadata items are not maintained" (§4.3)
}

}  // namespace
}  // namespace pipes
