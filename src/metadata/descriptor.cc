#include "metadata/descriptor.h"

#include "metadata/provider.h"

namespace pipes {

DependencySpec DependencySpec::Explicit(MetadataProvider* p, MetadataKey k) {
  return DependencySpec{Target::kExplicit, 0, "", p, std::move(k),
                        p != nullptr ? p->label() : ""};
}

const char* UpdateMechanismToString(UpdateMechanism m) {
  switch (m) {
    case UpdateMechanism::kStatic:
      return "static";
    case UpdateMechanism::kOnDemand:
      return "on-demand";
    case UpdateMechanism::kPeriodic:
      return "periodic";
    case UpdateMechanism::kTriggered:
      return "triggered";
  }
  return "unknown";
}

MetadataDescriptor MetadataDescriptor::Static(MetadataKey key,
                                              MetadataValue value) {
  MetadataDescriptor d(std::move(key), UpdateMechanism::kStatic);
  d.static_value_ = std::move(value);
  return d;
}

MetadataDescriptor MetadataDescriptor::OnDemand(MetadataKey key) {
  return MetadataDescriptor(std::move(key), UpdateMechanism::kOnDemand);
}

MetadataDescriptor MetadataDescriptor::Periodic(MetadataKey key,
                                                Duration period) {
  MetadataDescriptor d(std::move(key), UpdateMechanism::kPeriodic);
  d.period_ = period;
  return d;
}

MetadataDescriptor MetadataDescriptor::Triggered(MetadataKey key) {
  return MetadataDescriptor(std::move(key), UpdateMechanism::kTriggered);
}

void MetadataDescriptor::AppendSpecs(std::vector<DependencySpec> specs) {
  for (auto& s : specs) static_specs_.push_back(std::move(s));
  resolver_ = nullptr;  // static specs replace an earlier dynamic resolver
}

MetadataDescriptor&& MetadataDescriptor::DependsOn(
    std::vector<DependencySpec> specs) && {
  AppendSpecs(std::move(specs));
  return std::move(*this);
}

MetadataDescriptor&& MetadataDescriptor::DependsOnSelf(MetadataKey key) && {
  AppendSpecs({DependencySpec::Self(std::move(key))});
  return std::move(*this);
}

MetadataDescriptor&& MetadataDescriptor::DependsOnUpstream(int input,
                                                           MetadataKey key) && {
  AppendSpecs({DependencySpec::Upstream(input, std::move(key))});
  return std::move(*this);
}

MetadataDescriptor&& MetadataDescriptor::DependsOnAllUpstreams(
    MetadataKey key) && {
  AppendSpecs({DependencySpec::AllUpstreams(std::move(key))});
  return std::move(*this);
}

MetadataDescriptor&& MetadataDescriptor::DependsOnDownstream(
    int output, MetadataKey key) && {
  AppendSpecs({DependencySpec::Downstream(output, std::move(key))});
  return std::move(*this);
}

MetadataDescriptor&& MetadataDescriptor::DependsOnModule(std::string module,
                                                         MetadataKey key) && {
  AppendSpecs({DependencySpec::Module(std::move(module), std::move(key))});
  return std::move(*this);
}

MetadataDescriptor&& MetadataDescriptor::WithDynamicDependencies(
    DependencyResolver resolver) && {
  resolver_ = std::move(resolver);
  static_specs_.clear();
  return std::move(*this);
}

MetadataDescriptor&& MetadataDescriptor::WithEvaluator(Evaluator fn) && {
  evaluator_ = std::move(fn);
  return std::move(*this);
}

MetadataDescriptor&& MetadataDescriptor::WithMonitoring(
    MonitoringHook activate, MonitoringHook deactivate) && {
  activate_ = std::move(activate);
  deactivate_ = std::move(deactivate);
  return std::move(*this);
}

MetadataDescriptor&& MetadataDescriptor::WithDescription(std::string text) && {
  description_ = std::move(text);
  return std::move(*this);
}

MetadataDescriptor&& MetadataDescriptor::WithRetryPolicy(RetryPolicy policy) && {
  retry_policy_ = policy;
  return std::move(*this);
}

MetadataDescriptor&& MetadataDescriptor::WithFallbackValue(
    MetadataValue value) && {
  fallback_ = std::move(value);
  return std::move(*this);
}

MetadataDescriptor&& MetadataDescriptor::WithMaxStaleness(Duration bound) && {
  max_staleness_ = bound;
  return std::move(*this);
}

MetadataDescriptor&& MetadataDescriptor::AsRecoveredShell() && {
  recovered_shell_ = true;
  return std::move(*this);
}

}  // namespace pipes
