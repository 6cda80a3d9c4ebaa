/// \file descriptor.h
/// \brief Declaration of available metadata items: update mechanism,
/// dependencies, evaluation function, and monitoring hooks (paper §4.4.1).
///
/// A `MetadataDescriptor` is the developer-facing definition of one metadata
/// item on one provider. The publish-subscribe machinery turns a descriptor
/// into a `MetadataHandler` when the item is included for the first time.

#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "metadata/keys.h"
#include "metadata/value.h"

namespace pipes {

class MetadataProvider;
class MetadataHandler;

/// The four maintenance concepts of Figure 2.
enum class UpdateMechanism {
  kStatic,    ///< invariable value
  kOnDemand,  ///< recomputed on every access (§3.2.1)
  kPeriodic,  ///< recomputed per fixed time window (§3.2.2)
  kTriggered, ///< recomputed when an underlying item changes (§3.2.3)
};

/// Human-readable name of an update mechanism.
const char* UpdateMechanismToString(UpdateMechanism m);

/// \brief Reference to a concrete metadata item: (provider, key).
struct MetadataRef {
  MetadataProvider* provider = nullptr;
  MetadataKey key;

  bool operator==(const MetadataRef& other) const {
    return provider == other.provider && key == other.key;
  }
};

/// \brief Where a declared dependency points (paper §2.3).
///
/// Intra-node dependencies use kSelf; inter-node dependencies use
/// kUpstream/kDownstream (resolved against the owning node's topology) or an
/// explicit provider; module dependencies (paper §4.5) use kModule.
struct DependencySpec {
  enum class Target { kSelf, kUpstream, kDownstream, kModule, kExplicit };

  Target target = Target::kSelf;
  /// Input/output index for kUpstream/kDownstream. -1 means "all".
  int index = 0;
  /// Module name for kModule.
  std::string module;
  /// Provider for kExplicit.
  MetadataProvider* provider = nullptr;
  /// The key of the item depended upon.
  MetadataKey key;
  /// Label of `provider`, captured when the spec is built. Checkpoint
  /// imaging must use this instead of dereferencing `provider`: the target
  /// provider may have been torn down while descriptors naming it survive.
  std::string provider_label;

  static DependencySpec Self(MetadataKey k) {
    return DependencySpec{Target::kSelf, 0, "", nullptr, std::move(k), ""};
  }
  static DependencySpec Upstream(int input_index, MetadataKey k) {
    return DependencySpec{Target::kUpstream, input_index, "", nullptr,
                          std::move(k), ""};
  }
  static DependencySpec AllUpstreams(MetadataKey k) {
    return DependencySpec{Target::kUpstream, -1, "", nullptr, std::move(k), ""};
  }
  static DependencySpec Downstream(int output_index, MetadataKey k) {
    return DependencySpec{Target::kDownstream, output_index, "", nullptr,
                          std::move(k), ""};
  }
  static DependencySpec AllDownstreams(MetadataKey k) {
    return DependencySpec{Target::kDownstream, -1, "", nullptr, std::move(k),
                          ""};
  }
  static DependencySpec Module(std::string name, MetadataKey k) {
    return DependencySpec{Target::kModule, 0, std::move(name), nullptr,
                          std::move(k), ""};
  }
  // Defined out of line (descriptor.cc): captures p->label() and
  // MetadataProvider is only forward-declared here.
  static DependencySpec Explicit(MetadataProvider* p, MetadataKey k);
};

/// \brief Inclusion-time view offered to dynamic dependency resolvers
/// (paper §4.4.3).
class ResolutionContext {
 public:
  virtual ~ResolutionContext() = default;

  /// The provider whose item is being resolved.
  virtual MetadataProvider& self() const = 0;

  /// True if the item is already included (has a handler) or is planned for
  /// inclusion within the current subscription.
  virtual bool IsIncluded(const MetadataRef& ref) const = 0;

  /// True if the target provider declares a descriptor for the key.
  virtual bool IsAvailable(const MetadataRef& ref) const = 0;

  /// Resolves a DependencySpec against self's topology. May return several
  /// refs for "all upstreams/downstreams" specs; empty if unresolvable.
  virtual std::vector<MetadataRef> ResolveSpec(const DependencySpec& spec) const = 0;
};

/// Computes the concrete dependency list of an item at inclusion time.
using DependencyResolver =
    std::function<std::vector<MetadataRef>(ResolutionContext&)>;

/// \brief Evaluation-time view offered to an item's evaluator.
class EvalContext {
 public:
  virtual ~EvalContext() = default;

  /// The provider owning the item.
  virtual MetadataProvider& provider() const = 0;

  /// Current time.
  virtual Timestamp now() const = 0;

  /// Time elapsed since the item's previous update (for periodic handlers:
  /// the window size; 0 on the very first evaluation).
  virtual Duration elapsed() const = 0;

  /// Number of resolved dependencies, in resolver order.
  virtual size_t dep_count() const = 0;

  /// Current value of the i-th dependency.
  virtual MetadataValue Dep(size_t i) const = 0;

  /// Numeric value of the i-th dependency.
  double DepDouble(size_t i) const { return Dep(i).AsDouble(); }

  /// The previously published value of the item itself (null on first
  /// evaluation) — lets evaluators build online aggregates.
  virtual MetadataValue Previous() const = 0;

  /// 0-based index of this evaluation within the handler's lifetime; with
  /// Previous(), enough for incremental averages without external state.
  virtual uint64_t eval_index() const = 0;
};

/// Computes the current value of an item.
using Evaluator = std::function<MetadataValue(EvalContext&)>;

/// \brief How a handler reacts to evaluator failures (thrown exceptions and
/// non-finite numeric results).
///
/// Failures advance the handler's health state machine
/// (kHealthy -> kDegraded -> kQuarantined); while quarantined, re-evaluation
/// is retried with exponential backoff and the handler serves its last-known
/// -good value (or the descriptor's fallback). N consecutive successes
/// recover the handler to kHealthy.
struct RetryPolicy {
  /// Consecutive failures after which the handler is kDegraded.
  int failures_to_degrade = 1;
  /// Consecutive failures after which the handler is kQuarantined.
  int failures_to_quarantine = 3;
  /// Consecutive successes that recover a degraded/quarantined handler.
  int successes_to_recover = 2;
  /// First retry delay once quarantined.
  Duration initial_backoff = 10 * kMicrosPerMilli;
  /// Backoff growth per successive quarantined failure.
  double backoff_multiplier = 2.0;
  /// Backoff ceiling.
  Duration max_backoff = 10 * kMicrosPerSecond;
  /// ± jitter fraction applied to each retry delay (clamped to [0, 1]).
  /// A correlated fault quarantines many handlers at once; without jitter
  /// they all probe in lockstep at the same instants. The backoff *growth*
  /// stays deterministic — only the applied delay is perturbed, drawn from
  /// a per-handler seeded RNG so runs replay exactly. 0 (default) keeps the
  /// historical fully-deterministic schedule.
  double backoff_jitter = 0.0;
};

/// Enables/disables node-side monitoring code for an item.
using MonitoringHook = std::function<void(MetadataProvider&)>;

/// \brief Full declaration of one available metadata item.
///
/// Build with the static factories + fluent setters:
/// \code
///   registry.Define(
///       MetadataDescriptor::Periodic(keys::kInputRate, Seconds(1))
///           .WithEvaluator([&](EvalContext& ctx) { ... })
///           .WithMonitoring([&](auto&) { probe.Enable(); },
///                           [&](auto&) { probe.Disable(); })
///           .WithDescription("measured input rate [elements/s]"));
/// \endcode
class MetadataDescriptor {
 public:
  /// An invariable item with a fixed value.
  static MetadataDescriptor Static(MetadataKey key, MetadataValue value);

  /// An item recomputed on each access.
  static MetadataDescriptor OnDemand(MetadataKey key);

  /// An item recomputed every `period` microseconds.
  static MetadataDescriptor Periodic(MetadataKey key, Duration period);

  /// An item recomputed when an underlying item changes.
  static MetadataDescriptor Triggered(MetadataKey key);

  // Fluent setters -----------------------------------------------------------

  /// Appends static dependency specs (resolved at inclusion time).
  MetadataDescriptor&& DependsOn(std::vector<DependencySpec> specs) &&;
  MetadataDescriptor&& DependsOnSelf(MetadataKey key) &&;
  MetadataDescriptor&& DependsOnUpstream(int input, MetadataKey key) &&;
  MetadataDescriptor&& DependsOnAllUpstreams(MetadataKey key) &&;
  MetadataDescriptor&& DependsOnDownstream(int output, MetadataKey key) &&;
  MetadataDescriptor&& DependsOnModule(std::string module, MetadataKey key) &&;

  /// Replaces the whole dependency resolution with a dynamic resolver
  /// (paper §4.4.3). Overrides any DependsOn* specs declared before it; a
  /// DependsOn* call after it replaces the resolver in turn.
  ///
  /// The resolver runs when the item is included, and its result holds
  /// until the item is excluded. To change the dependencies, redefine the
  /// item (MetadataRegistry::Redefine / DefineOrRedefine / Undefine) while
  /// it is not included: those refuse an included item, so no handler or
  /// cached wave plan refers to the old shape. The next inclusion resolves
  /// anew and, like every inclusion, invalidates the cached wave plans.
  MetadataDescriptor&& WithDynamicDependencies(DependencyResolver resolver) &&;

  MetadataDescriptor&& WithEvaluator(Evaluator fn) &&;
  MetadataDescriptor&& WithMonitoring(MonitoringHook activate,
                                      MonitoringHook deactivate) &&;
  MetadataDescriptor&& WithDescription(std::string text) &&;

  /// Overrides the default fault-handling policy of the item's handler.
  MetadataDescriptor&& WithRetryPolicy(RetryPolicy policy) &&;

  /// Value served when the handler has no last-known-good value to fall back
  /// on (e.g. the very first evaluation fails, or the provider is being torn
  /// down before the item was ever computed).
  MetadataDescriptor&& WithFallbackValue(MetadataValue value) &&;

  /// Marks this descriptor as a *recovered shell*: a definition rebuilt by
  /// crash recovery (persistence.h) whose evaluator could not be persisted.
  /// Shells serve the recovered last-known-good value through the fault
  /// containment path until the application re-defines the item.
  MetadataDescriptor&& AsRecoveredShell() &&;

  /// \brief Staleness bound for overload degradation (periodic items).
  ///
  /// Under sustained scheduler overload the MetadataManager's pressure
  /// governor stretches periodic refresh cadences by a bounded backoff
  /// factor; the stretched period never exceeds this bound, so the item's
  /// observed staleness stays <= max_staleness no matter how deep the
  /// brownout. 0 (default) means "no explicit bound": the governor caps the
  /// stretch at PeriodicMetadataHandler::kDefaultStalenessFactor x period
  /// instead.
  MetadataDescriptor&& WithMaxStaleness(Duration bound) &&;

  // Accessors -----------------------------------------------------------------
  const MetadataKey& key() const { return key_; }
  UpdateMechanism mechanism() const { return mechanism_; }
  Duration period() const { return period_; }
  const MetadataValue& static_value() const { return static_value_; }
  const Evaluator& evaluator() const { return evaluator_; }
  /// The dynamic resolver (paper §4.4.3); null when the dependencies are
  /// the static specs, which inclusion planning resolves itself.
  const DependencyResolver& dependency_resolver() const { return resolver_; }
  /// The declared static dependency specs (empty when a dynamic resolver
  /// replaced them). Persisted by the durability layer.
  const std::vector<DependencySpec>& dependency_specs() const {
    return static_specs_;
  }
  /// True when dependencies come from a dynamic resolver (paper §4.4.3) —
  /// code, hence unknowable to the durability layer.
  bool has_dynamic_dependencies() const { return static_cast<bool>(resolver_); }
  bool is_recovered_shell() const { return recovered_shell_; }
  const MonitoringHook& activate_monitoring() const { return activate_; }
  const MonitoringHook& deactivate_monitoring() const { return deactivate_; }
  const std::string& description() const { return description_; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }
  const MetadataValue& fallback_value() const { return fallback_; }
  bool has_fallback() const { return !fallback_.is_null(); }
  Duration max_staleness() const { return max_staleness_; }

 private:
  MetadataDescriptor(MetadataKey key, UpdateMechanism mechanism)
      : key_(std::move(key)), mechanism_(mechanism) {}

  void AppendSpecs(std::vector<DependencySpec> specs);

  MetadataKey key_;
  UpdateMechanism mechanism_;
  Duration period_ = 0;
  MetadataValue static_value_;
  Evaluator evaluator_;
  DependencyResolver resolver_;             // null => static_specs_ apply
  std::vector<DependencySpec> static_specs_;
  MonitoringHook activate_;
  MonitoringHook deactivate_;
  std::string description_;
  RetryPolicy retry_policy_;
  MetadataValue fallback_;
  Duration max_staleness_ = 0;  // 0 => governor default cap applies
  bool recovered_shell_ = false;
};

}  // namespace pipes
