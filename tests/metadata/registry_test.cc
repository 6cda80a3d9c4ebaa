/// MetadataRegistry: definition, redefinition (inheritance, §4.4.2),
/// undefinition, discovery.

#include <gtest/gtest.h>

#include <vector>

#include "metadata/handler.h"
#include "metadata/registry.h"
#include "test_support.h"

namespace pipes {
namespace {

using testing::MetaFixture;
using testing::SimpleProvider;

TEST(RegistryTest, DefineAndFind) {
  MetadataRegistry reg;
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("a", 1)).ok());
  EXPECT_TRUE(reg.IsAvailable("a"));
  EXPECT_FALSE(reg.IsAvailable("b"));
  auto desc = reg.Find("a");
  ASSERT_NE(desc, nullptr);
  EXPECT_EQ(desc->mechanism(), UpdateMechanism::kStatic);
  EXPECT_EQ(reg.Find("b"), nullptr);
}

TEST(RegistryTest, DoubleDefineFails) {
  MetadataRegistry reg;
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("a", 1)).ok());
  Status st = reg.Define(MetadataDescriptor::Static("a", 2));
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

TEST(RegistryTest, RedefineReplacesDescriptor) {
  MetadataRegistry reg;
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("a", 1)).ok());
  ASSERT_TRUE(reg.Redefine(MetadataDescriptor::Static("a", 2)).ok());
  EXPECT_EQ(reg.Find("a")->static_value().AsInt(), 2);
}

TEST(RegistryTest, RedefineUnknownFails) {
  MetadataRegistry reg;
  Status st = reg.Redefine(MetadataDescriptor::Static("a", 1));
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST(RegistryTest, RedefineIncludedItemFails) {
  MetaFixture fx;
  SimpleProvider p("p");
  ASSERT_TRUE(
      p.metadata_registry().Define(MetadataDescriptor::Static("a", 1)).ok());
  auto sub = fx.manager.Subscribe(p, "a");
  ASSERT_TRUE(sub.ok());
  Status st = p.metadata_registry().Redefine(MetadataDescriptor::Static("a", 2));
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);

  // After the consumer is gone, redefinition succeeds.
  sub->Reset();
  EXPECT_TRUE(
      p.metadata_registry().Redefine(MetadataDescriptor::Static("a", 2)).ok());
  auto sub2 = fx.manager.Subscribe(p, "a");
  ASSERT_TRUE(sub2.ok());
  EXPECT_EQ(sub2->Get().AsInt(), 2);
}

TEST(RegistryTest, UndefineSemantics) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("a", 1)).ok());
  {
    auto sub = fx.manager.Subscribe(p, "a");
    ASSERT_TRUE(sub.ok());
    EXPECT_EQ(reg.Undefine("a").code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_TRUE(reg.Undefine("a").ok());
  EXPECT_EQ(reg.Undefine("a").code(), StatusCode::kNotFound);
  EXPECT_FALSE(reg.IsAvailable("a"));
}

TEST(RegistryTest, DiscoveryListsAvailableAndIncluded) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("b", 1)).ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("a", 1)).ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("c", 1)).ok());
  auto avail = reg.AvailableKeys();
  ASSERT_EQ(avail.size(), 3u);
  EXPECT_EQ(avail[0], "a");  // sorted
  EXPECT_EQ(avail[2], "c");
  EXPECT_TRUE(reg.IncludedKeys().empty());

  auto sub = fx.manager.Subscribe(p, "b");
  ASSERT_TRUE(sub.ok());
  auto included = reg.IncludedKeys();
  ASSERT_EQ(included.size(), 1u);
  EXPECT_EQ(included[0], "b");
  EXPECT_EQ(reg.included_count(), 1u);
}

TEST(RegistryTest, DefineOrRedefineUpserts) {
  MetadataRegistry reg;
  ASSERT_TRUE(reg.DefineOrRedefine(MetadataDescriptor::Static("a", 1)).ok());
  ASSERT_TRUE(reg.DefineOrRedefine(MetadataDescriptor::Static("a", 5)).ok());
  EXPECT_EQ(reg.Find("a")->static_value().AsInt(), 5);
}

TEST(RegistryTest, WithoutManagerNothingIsIncluded) {
  // The handler table's guard is the structure lock of the owner's manager.
  // A registry with no owner, or whose owner has no manager yet, has no lock
  // to take and nothing included: its readers see an empty table and its
  // definitions change freely.
  MetadataRegistry bare;
  SimpleProvider p("p");
  ASSERT_EQ(p.metadata_manager(), nullptr);
  for (MetadataRegistry* reg : {&bare, &p.metadata_registry()}) {
    ASSERT_TRUE(reg->Define(MetadataDescriptor::Static("a", 1)).ok());
    EXPECT_EQ(reg->GetHandler("a"), nullptr);
    EXPECT_FALSE(reg->IsIncluded("a"));
    EXPECT_TRUE(reg->IncludedKeys().empty());
    EXPECT_EQ(reg->included_count(), 0u);
    EXPECT_TRUE(reg->Redefine(MetadataDescriptor::Static("a", 2)).ok());
    EXPECT_TRUE(reg->DefineOrRedefine(MetadataDescriptor::Static("a", 3)).ok());
    EXPECT_EQ(reg->Find("a")->static_value().AsInt(), 3);
    EXPECT_TRUE(reg->Undefine("a").ok());
    EXPECT_FALSE(reg->IsAvailable("a"));
  }
}

TEST(RegistryTest, HandlerReadersNestInsideTheStructureLock) {
  // An evaluator runs under the structure lock: exclusively held when
  // Subscribe activates it, shared during a wave. The handler readers take
  // that lock shared themselves, so from an evaluator they nest a level on
  // the caller's hold instead of blocking on it.
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  struct Seen {
    bool self_included;
    bool dep_handler;
    size_t keys;
    size_t count;
  };
  std::vector<Seen> seen;
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("s", 1)).ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("t")
                             .DependsOnSelf("s")
                             .WithEvaluator([&](EvalContext& ctx) {
                               seen.push_back({reg.IsIncluded("t"),
                                               reg.GetHandler("s") != nullptr,
                                               reg.IncludedKeys().size(),
                                               reg.included_count()});
                               return ctx.Dep(0);
                             }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "t");  // activation: exclusive hold
  ASSERT_TRUE(sub.ok());
  fx.manager.FireEvent(p, "s");  // wave: shared hold
  ASSERT_EQ(seen.size(), 2u);
  for (const Seen& s : seen) {
    EXPECT_TRUE(s.self_included);
    EXPECT_TRUE(s.dep_handler);
    EXPECT_EQ(s.keys, 2u);
    EXPECT_EQ(s.count, 2u);
  }
}

// Metadata inheritance (paper §4.4.2): a subclass inherits items and may
// override their definition.
class BaseProvider : public SimpleProvider {
 public:
  using SimpleProvider::SimpleProvider;

  virtual void RegisterMetadata() {
    ASSERT_TRUE(metadata_registry()
                    .Define(MetadataDescriptor::OnDemand("memory_usage")
                                .WithEvaluator([this](EvalContext&) {
                                  return MetadataValue(BaseBytes());
                                }))
                    .ok());
  }
  virtual double BaseBytes() { return 100.0; }
};

class SpecializedProvider : public BaseProvider {
 public:
  using BaseProvider::BaseProvider;

  void RegisterMetadata() override {
    BaseProvider::RegisterMetadata();
    // "the allocated memory for the additional data structures has to be
    // reflected in the memory usage metadata item."
    ASSERT_TRUE(metadata_registry()
                    .Redefine(MetadataDescriptor::OnDemand("memory_usage")
                                  .WithEvaluator([this](EvalContext&) {
                                    return MetadataValue(BaseBytes() +
                                                         extra_bytes);
                                  }))
                    .ok());
  }
  double extra_bytes = 42.0;
};

TEST(RegistryTest, MetadataInheritanceWithOverride) {
  MetaFixture fx;
  SpecializedProvider p("special");
  p.RegisterMetadata();
  auto sub = fx.manager.Subscribe(p, "memory_usage");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->Get().AsDouble(), 142.0);
}

}  // namespace
}  // namespace pipes
