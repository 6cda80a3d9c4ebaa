/// Publish-subscribe core: handler creation/sharing, automatic inclusion and
/// exclusion (paper §2.1, §2.4), atomicity, and monitoring hooks (§4.4.1).

#include <gtest/gtest.h>

#include <cstddef>
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

TEST(SubscribeTest, UnknownItemIsNotFound) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto result = fx.manager.Subscribe(p, "nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(SubscribeTest, StaticItemReturnsValue) {
  MetaFixture fx;
  SimpleProvider p("p");
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Static("answer", 42))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "answer");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->Get().AsInt(), 42);
}

TEST(SubscribeTest, HandlersAreSharedBetweenConsumers) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto calls = std::make_shared<int>(0);
  ASSERT_TRUE(
      p.metadata_registry().Define(testing::CountingOnDemand("x", calls)).ok());

  auto a = fx.manager.Subscribe(p, "x");
  auto b = fx.manager.Subscribe(p, "x");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // "The subscription returns the existing handler and increments a counter."
  EXPECT_EQ(a->handler().get(), b->handler().get());
  EXPECT_EQ(a->handler()->external_refs(), 2);
  EXPECT_EQ(fx.manager.stats().handlers_created, 1u);
}

TEST(SubscribeTest, HandlerRemovedWhenLastConsumerUnsubscribes) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto calls = std::make_shared<int>(0);
  ASSERT_TRUE(
      p.metadata_registry().Define(testing::CountingOnDemand("x", calls)).ok());

  {
    auto a = fx.manager.Subscribe(p, "x");
    ASSERT_TRUE(a.ok());
    {
      auto b = fx.manager.Subscribe(p, "x");
      ASSERT_TRUE(b.ok());
    }
    // One consumer left: handler must survive.
    EXPECT_TRUE(p.metadata_registry().IsIncluded("x"));
  }
  EXPECT_FALSE(p.metadata_registry().IsIncluded("x"));
  EXPECT_EQ(fx.manager.stats().handlers_removed, 1u);
  EXPECT_EQ(fx.manager.active_handler_count(), 0u);
}

TEST(SubscribeTest, DependencyChainIncludedAndExcluded) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("c", 1.0)).ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("b")
                             .DependsOnSelf("c")
                             .WithEvaluator([](EvalContext& ctx) {
                               return MetadataValue(ctx.DepDouble(0) + 1);
                             }))
                  .ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("a")
                             .DependsOnSelf("b")
                             .WithEvaluator([](EvalContext& ctx) {
                               return MetadataValue(ctx.DepDouble(0) + 1);
                             }))
                  .ok());

  {
    auto sub = fx.manager.Subscribe(p, "a");
    ASSERT_TRUE(sub.ok());
    EXPECT_TRUE(reg.IsIncluded("a"));
    EXPECT_TRUE(reg.IsIncluded("b"));
    EXPECT_TRUE(reg.IsIncluded("c"));
    EXPECT_EQ(sub->Get().AsDouble(), 3.0);
  }
  // "For an unsubscription, the same traversal cancels the provision of
  // dependent metadata items by an implicit exclusion."
  EXPECT_FALSE(reg.IsIncluded("a"));
  EXPECT_FALSE(reg.IsIncluded("b"));
  EXPECT_FALSE(reg.IsIncluded("c"));
}

TEST(SubscribeTest, TraversalStopsAtAlreadyProvidedItems) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto c_calls = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(testing::CountingOnDemand("c", c_calls)).ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("a")
                             .DependsOnSelf("c")
                             .WithEvaluator([](EvalContext& ctx) {
                               return ctx.Dep(0);
                             }))
                  .ok());

  auto direct_c = fx.manager.Subscribe(p, "c");
  ASSERT_TRUE(direct_c.ok());
  auto a = fx.manager.Subscribe(p, "a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(fx.manager.stats().handlers_created, 2u);  // c reused, not rebuilt

  // Dropping the dependent must keep 'c': it still has an external consumer.
  a->Reset();
  EXPECT_TRUE(reg.IsIncluded("c"));
  EXPECT_FALSE(reg.IsIncluded("a"));
  direct_c.value().Reset();
  EXPECT_FALSE(reg.IsIncluded("c"));
}

TEST(SubscribeTest, DiamondDependencyIncludedOnce) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("d", 1)).ok());
  for (const char* mid : {"b", "c"}) {
    ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand(mid)
                               .DependsOnSelf("d")
                               .WithEvaluator([](EvalContext& ctx) {
                                 return ctx.Dep(0);
                               }))
                    .ok());
  }
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("a")
                             .DependsOnSelf("b")
                             .DependsOnSelf("c")
                             .WithEvaluator([](EvalContext& ctx) {
                               return MetadataValue(ctx.DepDouble(0) +
                                                    ctx.DepDouble(1));
                             }))
                  .ok());

  auto sub = fx.manager.Subscribe(p, "a");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(fx.manager.stats().handlers_created, 4u);
  auto d = reg.GetHandler("d");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->internal_refs(), 2);  // one edge from b, one from c
  sub->Reset();
  EXPECT_EQ(fx.manager.active_handler_count(), 0u);
}

TEST(SubscribeTest, DependencyCycleIsRejectedAtomically) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("a")
                             .DependsOnSelf("b")
                             .WithEvaluator([](EvalContext& ctx) {
                               return ctx.Dep(0);
                             }))
                  .ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("b")
                             .DependsOnSelf("a")
                             .WithEvaluator([](EvalContext& ctx) {
                               return ctx.Dep(0);
                             }))
                  .ok());

  auto sub = fx.manager.Subscribe(p, "a");
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.status().code(), StatusCode::kCycleDetected);
  EXPECT_EQ(fx.manager.active_handler_count(), 0u);
  EXPECT_FALSE(reg.IsIncluded("a"));
  EXPECT_FALSE(reg.IsIncluded("b"));
}

TEST(SubscribeTest, MissingDependencyIsRejectedAtomically) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("a")
                             .DependsOnSelf("ghost")
                             .WithEvaluator([](EvalContext& ctx) {
                               return ctx.Dep(0);
                             }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "a");
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fx.manager.active_handler_count(), 0u);
}

TEST(SubscribeTest, MonitoringHooksFireOncePerInclusion) {
  MetaFixture fx;
  SimpleProvider p("p");
  int activated = 0, deactivated = 0;
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("x")
                              .WithEvaluator([](EvalContext&) {
                                return MetadataValue(1.0);
                              })
                              .WithMonitoring(
                                  [&](MetadataProvider&) { ++activated; },
                                  [&](MetadataProvider&) { ++deactivated; }))
                  .ok());

  {
    auto a = fx.manager.Subscribe(p, "x");
    ASSERT_TRUE(a.ok());
    auto b = fx.manager.Subscribe(p, "x");
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(activated, 1);
    EXPECT_EQ(deactivated, 0);
  }
  EXPECT_EQ(activated, 1);
  EXPECT_EQ(deactivated, 1);

  // Re-inclusion re-activates.
  auto c = fx.manager.Subscribe(p, "x");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(activated, 2);
}

TEST(SubscribeTest, InterNodeDependencyViaUpstream) {
  MetaFixture fx;
  SimpleProvider up("up");
  SimpleProvider down("down");
  down.ups = {&up};
  ASSERT_TRUE(
      up.metadata_registry().Define(MetadataDescriptor::Static("rate", 5.0)).ok());
  ASSERT_TRUE(down.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("double_rate")
                              .DependsOnUpstream(0, "rate")
                              .WithEvaluator([](EvalContext& ctx) {
                                return MetadataValue(2 * ctx.DepDouble(0));
                              }))
                  .ok());

  auto sub = fx.manager.Subscribe(down, "double_rate");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->Get().AsDouble(), 10.0);
  EXPECT_TRUE(up.metadata_registry().IsIncluded("rate"));
  sub->Reset();
  EXPECT_FALSE(up.metadata_registry().IsIncluded("rate"));
}

TEST(SubscribeTest, UpstreamIndexOutOfRangeFails) {
  MetaFixture fx;
  SimpleProvider p("p");  // no upstreams
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("x")
                              .DependsOnUpstream(0, "rate")
                              .WithEvaluator([](EvalContext& ctx) {
                                return ctx.Dep(0);
                              }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x");
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.status().code(), StatusCode::kInvalidArgument);
}

TEST(SubscribeTest, ModuleDependency) {
  MetaFixture fx;
  SimpleProvider op("op");
  SimpleProvider module("op/state");
  op.RegisterModule("state", &module);
  ASSERT_TRUE(module.metadata_registry()
                  .Define(MetadataDescriptor::Static("bytes", 128))
                  .ok());
  ASSERT_TRUE(op.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("memory")
                              .DependsOnModule("state", "bytes")
                              .WithEvaluator([](EvalContext& ctx) {
                                return ctx.Dep(0);
                              }))
                  .ok());

  auto sub = fx.manager.Subscribe(op, "memory");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->Get().AsInt(), 128);
  EXPECT_TRUE(module.metadata_registry().IsIncluded("bytes"));
}

TEST(SubscribeTest, SubscriptionMoveSemantics) {
  MetaFixture fx;
  SimpleProvider p("p");
  ASSERT_TRUE(
      p.metadata_registry().Define(MetadataDescriptor::Static("v", 7)).ok());
  auto a = fx.manager.Subscribe(p, "v");
  ASSERT_TRUE(a.ok());
  MetadataSubscription moved = std::move(a.value());
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(a.value().valid());
  EXPECT_EQ(moved.Get().AsInt(), 7);
  MetadataSubscription assigned;
  assigned = std::move(moved);
  EXPECT_TRUE(assigned.valid());
  assigned.Reset();
  assigned.Reset();  // idempotent
  EXPECT_EQ(fx.manager.active_handler_count(), 0u);
}

TEST(SubscribeTest, DuplicateDependencySpecsAreDeduplicated) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("base", 3.0)).ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("a")
                             .DependsOnSelf("base")
                             .DependsOnSelf("base")
                             .WithEvaluator([](EvalContext& ctx) {
                               EXPECT_EQ(ctx.dep_count(), 1u);
                               return ctx.Dep(0);
                             }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "a");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->Get().AsDouble(), 3.0);
  auto base = reg.GetHandler("base");
  EXPECT_EQ(base->internal_refs(), 1);
}

TEST(SubscribeTest, DuplicateRefsKeepResolverOrder) {
  // Keys past the short-string buffer and keys inside it, so that the
  // de-duplication is checked for both kinds of string move.
  const std::vector<MetadataKey> keys = {"a_key_longer_than_sixteen", "b",
                                         "c_key_longer_than_sixteen", "d"};
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(reg.Define(MetadataDescriptor::Static(keys[i], double(i))).ok());
  }
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("sum")
                             .WithDynamicDependencies([&](ResolutionContext& ctx) {
                               std::vector<MetadataRef> refs;
                               for (size_t i : {0, 1, 0, 2, 1, 3, 2, 0}) {
                                 refs.push_back({&ctx.self(), keys[i]});
                               }
                               return refs;
                             })
                             .WithEvaluator([](EvalContext& ctx) {
                               // Positional weights pin the order.
                               double v = 0;
                               for (size_t i = 0; i < ctx.dep_count(); ++i) {
                                 v = v * 10 + ctx.Dep(i).AsDouble();
                               }
                               return MetadataValue(v);
                             }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "sum");
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(sub->handler()->dependencies().size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(sub->handler()->dependencies()[i]->key(), keys[i]);
    EXPECT_EQ(reg.GetHandler(keys[i])->internal_refs(), 1);
  }
  EXPECT_EQ(sub->Get().AsDouble(), 123.0);  // 0, 1, 2, 3 in resolver order
}

// A member aligned past the allocator's guarantee sends `new` through
// aligned_alloc, about ten times the cost of malloc, on every inclusion.
static_assert(alignof(StaticMetadataHandler) <= alignof(std::max_align_t));
static_assert(alignof(OnDemandMetadataHandler) <= alignof(std::max_align_t));
static_assert(alignof(PeriodicMetadataHandler) <= alignof(std::max_align_t));
static_assert(alignof(TriggeredMetadataHandler) <= alignof(std::max_align_t));

TEST(SubscribeTest, WarmChainInclusionAllocatesWhatTheHandlersKeep) {
  if (!AllocCountingActive()) {
    GTEST_SKIP() << "allocation counting disabled (sanitizer build)";
  }
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("base", 1.0)).ok());
  MetadataKey prev = "base";
  for (int i = 0; i < 8; ++i) {
    MetadataKey key = "t" + std::to_string(i);
    ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered(key)
                               .DependsOnSelf(prev)
                               .WithEvaluator([](EvalContext& ctx) {
                                 return ctx.Dep(0);
                               }))
                    .ok());
    prev = key;
  }
  // Warm up: the first inclusion faults in the lock-order validator's and
  // the registry's lasting state.
  for (int i = 0; i < 2; ++i) {
    auto sub = fx.manager.Subscribe(p, prev);
    ASSERT_TRUE(sub.ok());
  }

  ScopedAllocCounter counter;
  auto sub = fx.manager.Subscribe(p, prev);
  const int64_t allocs = counter.delta();
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(fx.manager.active_handler_count(), 9u);
  // Only what a handler keeps: itself, its shared_ptr control block, its
  // registry entry, its dependency list and its dependency's dependents
  // list; the static base has no dependency and the top item no
  // dependent. Planning, static dependency specs included, resolves into
  // an arena on Subscribe's stack.
  EXPECT_EQ(allocs, 9 * 5 - 2) << "allocations for a 9-handler inclusion";
}

}  // namespace
}  // namespace pipes
