/// Dynamic dependency resolution (paper §4.4.3): "if item C has already been
/// included at runtime, but B has not, the dependency for A can be redefined
/// such that A points to C."

#include <gtest/gtest.h>

#include <memory>

#include "metadata/handler.h"
#include "test_support.h"

namespace pipes {
namespace {

using testing::MetaFixture;
using testing::SimpleProvider;

/// A resolves from C if C is already included, otherwise from B.
MetadataDescriptor AlternativeSourceItem(MetadataProvider* p) {
  return MetadataDescriptor::OnDemand("a")
      .WithDynamicDependencies([p](ResolutionContext& ctx) {
        MetadataRef c{p, "c"};
        if (ctx.IsIncluded(c)) return std::vector<MetadataRef>{c};
        return std::vector<MetadataRef>{MetadataRef{p, "b"}};
      })
      .WithEvaluator([](EvalContext& ctx) { return ctx.Dep(0); });
}

TEST(DynamicDepsTest, PrefersAlreadyIncludedAlternative) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto b_calls = std::make_shared<int>(0);
  auto c_calls = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(testing::CountingOnDemand("b", b_calls, 1.0)).ok());
  ASSERT_TRUE(reg.Define(testing::CountingOnDemand("c", c_calls, 2.0)).ok());
  ASSERT_TRUE(reg.Define(AlternativeSourceItem(&p)).ok());

  // C is already included -> A must use C and never include B.
  auto c_sub = fx.manager.Subscribe(p, "c");
  ASSERT_TRUE(c_sub.ok());
  auto a = fx.manager.Subscribe(p, "a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->Get().AsDouble(), 2.0);
  EXPECT_FALSE(reg.IsIncluded("b"));
}

TEST(DynamicDepsTest, FallsBackWhenAlternativeNotIncluded) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto b_calls = std::make_shared<int>(0);
  auto c_calls = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(testing::CountingOnDemand("b", b_calls, 1.0)).ok());
  ASSERT_TRUE(reg.Define(testing::CountingOnDemand("c", c_calls, 2.0)).ok());
  ASSERT_TRUE(reg.Define(AlternativeSourceItem(&p)).ok());

  auto a = fx.manager.Subscribe(p, "a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->Get().AsDouble(), 1.0);
  EXPECT_TRUE(reg.IsIncluded("b"));
  EXPECT_FALSE(reg.IsIncluded("c"));
}

TEST(DynamicDepsTest, ExclusionMirrorsTheResolvedDependencies) {
  // The handler remembers which alternative it resolved; unsubscribing must
  // release exactly that one.
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto calls = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(testing::CountingOnDemand("b", calls, 1.0)).ok());
  ASSERT_TRUE(reg.Define(testing::CountingOnDemand("c", calls, 2.0)).ok());
  ASSERT_TRUE(reg.Define(AlternativeSourceItem(&p)).ok());

  auto c_sub = fx.manager.Subscribe(p, "c");
  ASSERT_TRUE(c_sub.ok());
  {
    auto a = fx.manager.Subscribe(p, "a");
    ASSERT_TRUE(a.ok());
    auto c = reg.GetHandler("c");
    EXPECT_EQ(c->internal_refs(), 1);
  }
  // a gone: c keeps its external consumer, internal ref released.
  auto c = reg.GetHandler("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->internal_refs(), 0);
  EXPECT_EQ(c->external_refs(), 1);
}

TEST(DynamicDepsTest, ResolverSeesItemsPlannedInTheSameSubscription) {
  // Within one Subscribe, items already planned count as included.
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto calls = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(testing::CountingOnDemand("b", calls, 1.0)).ok());
  ASSERT_TRUE(reg.Define(testing::CountingOnDemand("c", calls, 2.0)).ok());
  ASSERT_TRUE(reg.Define(AlternativeSourceItem(&p)).ok());
  // root depends on c and then on a; when a's resolver runs, c is planned.
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("root")
                             .DependsOnSelf("c")
                             .DependsOnSelf("a")
                             .WithEvaluator([](EvalContext& ctx) {
                               return ctx.Dep(1);
                             }))
                  .ok());
  auto root = fx.manager.Subscribe(p, "root");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->Get().AsDouble(), 2.0);  // a resolved to c
  EXPECT_FALSE(reg.IsIncluded("b"));
}

TEST(DynamicDepsTest, TheLastDependencyDeclarationWins) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("b", 1.0)).ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("c", 2.0)).ok());
  auto to_c = [&p](ResolutionContext&) {
    return std::vector<MetadataRef>{MetadataRef{&p, "c"}};
  };
  auto first_dep = [](EvalContext& ctx) { return ctx.Dep(0); };
  // A resolver declared after static specs replaces them...
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("resolver_last")
                             .DependsOnSelf("b")
                             .WithDynamicDependencies(to_c)
                             .WithEvaluator(first_dep))
                  .ok());
  // ...and static specs declared after a resolver replace it.
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("specs_last")
                             .WithDynamicDependencies(to_c)
                             .DependsOnSelf("b")
                             .WithEvaluator(first_dep))
                  .ok());
  EXPECT_TRUE(reg.Find("resolver_last")->has_dynamic_dependencies());
  EXPECT_TRUE(reg.Find("resolver_last")->dependency_specs().empty());
  EXPECT_FALSE(reg.Find("specs_last")->has_dynamic_dependencies());
  EXPECT_EQ(reg.Find("specs_last")->dependency_specs().size(), 1u);

  auto resolver_last = fx.manager.Subscribe(p, "resolver_last");
  ASSERT_TRUE(resolver_last.ok());
  EXPECT_EQ(resolver_last->Get().AsDouble(), 2.0);
  EXPECT_FALSE(reg.IsIncluded("b"));
  auto specs_last = fx.manager.Subscribe(p, "specs_last");
  ASSERT_TRUE(specs_last.ok());
  EXPECT_EQ(specs_last->Get().AsDouble(), 1.0);
  EXPECT_TRUE(reg.IsIncluded("b"));
}

TEST(DynamicDepsTest, ResolverReturningUnknownItemFailsAtomically) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("a")
                             .WithDynamicDependencies([&p](ResolutionContext&) {
                               return std::vector<MetadataRef>{
                                   MetadataRef{&p, "missing"}};
                             })
                             .WithEvaluator([](EvalContext& ctx) {
                               return ctx.Dep(0);
                             }))
                  .ok());
  auto a = fx.manager.Subscribe(p, "a");
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fx.manager.active_handler_count(), 0u);
}

}  // namespace
}  // namespace pipes
