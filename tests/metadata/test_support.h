/// \file test_support.h
/// \brief Shared helpers for metadata-framework tests.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/scheduler.h"
#include "metadata/manager.h"
#include "metadata/provider.h"

namespace pipes::testing {

/// A provider with directly settable topology.
class SimpleProvider : public MetadataProvider {
 public:
  using MetadataProvider::MetadataProvider;

  std::vector<MetadataProvider*> ups;
  std::vector<MetadataProvider*> downs;

  std::vector<MetadataProvider*> MetadataUpstreams() const override {
    return ups;
  }
  std::vector<MetadataProvider*> MetadataDownstreams() const override {
    return downs;
  }
};

/// Virtual-time manager fixture.
struct MetaFixture {
  explicit MetaFixture(SchedulerOverloadPolicy policy = {})
      : scheduler(nullptr, std::move(policy)) {}

  VirtualTimeScheduler scheduler;
  MetadataManager manager{scheduler};

  Timestamp Now() { return scheduler.clock().Now(); }
  void RunFor(Duration d) { scheduler.RunFor(d); }
};

/// A descriptor whose evaluator returns the value of a shared counter and
/// counts its own invocations.
inline MetadataDescriptor CountingOnDemand(MetadataKey key,
                                           std::shared_ptr<int> calls,
                                           double value = 1.0) {
  return MetadataDescriptor::OnDemand(std::move(key))
      .WithEvaluator([calls, value](EvalContext&) -> MetadataValue {
        ++*calls;
        return value;
      });
}

}  // namespace pipes::testing
