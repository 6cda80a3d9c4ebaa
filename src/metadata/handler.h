/// \file handler.h
/// \brief Metadata handlers: the shared proxies created per included item
/// (paper §2.1) with one implementation per update mechanism (§3.2).
///
/// "A metadata handler can be considered as a proxy that supplies the
/// subscribed metadata consumers with the current metadata value. This
/// indirection is required because (i) it synchronizes the possibly
/// concurrent access of multiple consumers, and (ii) it guarantees a
/// consistent view on a metadata item for all consumers during updates."

#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/scheduler.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "metadata/descriptor.h"

namespace pipes {

class MetadataManager;
class MetadataProvider;

/// \brief Health of a handler's evaluator, driven by the fault-containment
/// state machine (see RetryPolicy).
///
/// kHealthy: evaluations succeed. kDegraded: recent consecutive failures;
/// evaluation still attempted on every occasion. kQuarantined: failures
/// crossed the quarantine threshold; evaluation is retried with exponential
/// backoff while consumers are served the last-known-good (stale) value or
/// the descriptor's fallback.
enum class HandlerHealth {
  kHealthy = 0,
  kDegraded = 1,
  kQuarantined = 2,
};

/// Human-readable name of a health state.
const char* HandlerHealthToString(HandlerHealth h);

/// \brief Shared, synchronized proxy for one included metadata item.
///
/// There is a 1-to-1 relationship between included items and handlers; all
/// consumers of an item share its handler. Lifetime: created by the
/// MetadataManager on first inclusion, removed when the last external
/// subscription and the last dependent are gone.
class MetadataHandler : public std::enable_shared_from_this<MetadataHandler> {
 public:
  virtual ~MetadataHandler();

  MetadataHandler(const MetadataHandler&) = delete;
  MetadataHandler& operator=(const MetadataHandler&) = delete;

  /// The key of the item this handler maintains.
  const MetadataKey& key() const { return desc_->key(); }

  /// The provider (node/module) the item belongs to.
  MetadataProvider& owner() const { return owner_; }

  /// The item's update mechanism.
  UpdateMechanism mechanism() const { return desc_->mechanism(); }

  /// The descriptor this handler was built from.
  const MetadataDescriptor& descriptor() const { return *desc_; }

  /// Returns the current metadata value (mechanism-specific: cached for
  /// static/periodic/triggered, computed on the spot for on-demand). Only
  /// on-demand reads consult the clock, and a cached read writes nothing.
  MetadataValue Get();

  /// Numeric convenience for Get().
  double GetDouble() { return Get().AsDouble(); }

  /// Time of the last value update (kTimestampNever before the first).
  Timestamp last_updated() const;

  /// Age of the current value: now - last_updated(), 0 before the first
  /// update. Together with health() this tags values served during fault
  /// containment with their staleness.
  Duration staleness(Timestamp now) const;

  /// Current health of the item's evaluator.
  HandlerHealth health() const;

  /// Message of the most recent contained evaluator failure ("" if none).
  std::string last_error() const;

  /// \name Fault-containment statistics
  ///@{
  /// Contained evaluator failures (exceptions + non-finite results).
  uint64_t fault_count() const {
    return fault_count_.load(std::memory_order_relaxed);
  }
  /// Evaluations skipped because the handler was quarantined and inside its
  /// retry-backoff window.
  uint64_t skipped_eval_count() const {
    return skipped_evals_.load(std::memory_order_relaxed);
  }
  /// Transitions back to kHealthy after degradation/quarantine.
  uint64_t recovery_count() const {
    return recovery_count_.load(std::memory_order_relaxed);
  }
  /// Current run of consecutive failures (0 when the last eval succeeded).
  int consecutive_failures() const;
  ///@}

  /// True once the owning provider started tearing down while this handler
  /// was still referenced; Get() then serves the descriptor's fallback (or
  /// the last-known-good value) without touching the provider.
  bool retired() const { return retired_.load(std::memory_order_acquire); }

  /// Internal: detaches the handler from its provider ahead of provider
  /// destruction — cancels mechanism tasks and freezes the current value.
  /// The handler keeps its graph edges until its last reference is dropped.
  /// Idempotent; called by MetadataRegistry::RetireAllHandlers().
  void Retire();

  /// Resolved dependency handlers, in resolver order.
  const std::vector<std::shared_ptr<MetadataHandler>>& dependencies() const {
    return deps_;
  }

  /// \name Usage statistics (profiling, scale benches)
  ///@{
  uint64_t update_count() const {
    return update_count_.load(std::memory_order_relaxed);
  }
  /// Number of evaluator invocations (the maintenance-cost unit used by the
  /// scalability experiments).
  uint64_t eval_count() const {
    return eval_count_.load(std::memory_order_relaxed);
  }
  ///@}

  /// \name Reference counts (mutated only under the manager structure lock)
  ///@{
  int external_refs() const { return external_refs_; }
  int internal_refs() const { return internal_refs_; }
  ///@}

  /// Internal: handlers are created by the MetadataManager only.
  MetadataHandler(MetadataProvider& owner,
                  std::shared_ptr<const MetadataDescriptor> desc,
                  MetadataManager& manager,
                  std::vector<std::shared_ptr<MetadataHandler>> deps);

 protected:
  /// Mechanism-specific read: the stored value, or the descriptor's fallback
  /// while none was ever computed. Only a mechanism whose read depends on the
  /// time (on-demand) overrides it, so cached reads stay off the clock.
  virtual MetadataValue DoGet() { return LoadValueOrFallback(); }

  /// \brief Fault-contained evaluation (the only evaluation path handlers
  /// use): runs the evaluator with a context exposing `deps_`, `elapsed`,
  /// and the previous value, rejecting thrown exceptions and non-finite
  /// numeric results.
  ///
  /// On success the value is stored (advancing last_updated()) and the
  /// health state machine records a success. On failure the last-known-good
  /// value is kept — its staleness keeps growing — and the state machine
  /// records a failure (kHealthy -> kDegraded -> kQuarantined per the
  /// descriptor's RetryPolicy). While quarantined, evaluation is skipped
  /// entirely until the exponential-backoff deadline passes.
  ///
  /// Returns the value consumers should see: the fresh value on success,
  /// otherwise the last-known-good value or the descriptor's fallback.
  /// Never throws. `updated` (optional) reports whether a fresh value was
  /// stored. Each evaluator invocation is counted in the manager's stats,
  /// here, unless the caller passes `evaluated`: that reports whether the
  /// evaluator ran, and the caller counts it (a wave adds its refreshes'
  /// evaluations once). The caller holds eval_mu_ from before it reads the
  /// time the evaluation spans, so publishes land in evaluation order.
  MetadataValue EvaluateAndStore(Timestamp now, Duration elapsed,
                                 bool* updated = nullptr,
                                 bool* evaluated = nullptr)
      PIPES_REQUIRES(eval_mu_);

  /// Stores `v` as the current value with update time `now`.
  void StoreValue(const MetadataValue& v, Timestamp now)
      PIPES_REQUIRES(eval_mu_);

  /// Reads the stored value.
  MetadataValue LoadValue() const;

  /// Reads the stored value, substituting the descriptor's fallback while no
  /// value has ever been computed (e.g. every evaluation failed so far).
  MetadataValue LoadValueOrFallback() const;

  MetadataProvider& owner_;
  // pipes-analyze: unguarded(immutable after construction; redefinition swaps handlers, never descriptors)
  std::shared_ptr<const MetadataDescriptor> desc_;
  MetadataManager& manager_;
  // pipes-analyze: unguarded(wired in the ctor under the exclusive structure lock, read-only afterwards)
  std::vector<std::shared_ptr<MetadataHandler>> deps_;

  /// The handler's one lock (paper §4.2's handler level). Whoever writes the
  /// handler holds it from evaluation through publication and the health
  /// update; consumer reads of the value slot never take it.
  mutable Mutex eval_mu_{"MetadataHandler::eval_mu",
                         lockorder::kRankHandlerEval};

 private:
  friend class MetadataManager;

  /// Post-wiring initialization: compute the initial value, start periodic
  /// tasks, etc. Called once by the manager.
  virtual void Activate(Timestamp now) = 0;

  /// Tear-down before removal: cancel tasks. Called once by the manager.
  virtual void Deactivate() {}

  /// Recomputes the value during an update-propagation wave and returns
  /// whether the evaluator ran, for the wave's evaluation count. Default
  /// no-op; only triggered handlers recompute.
  virtual bool RefreshFromWave(Timestamp now);

  /// True if a propagation wave continues to this handler's dependents
  /// (triggered and on-demand handlers forward change; periodic handlers
  /// update on their own cadence; static never change).
  bool PropagatesThrough() const {
    return mechanism() == UpdateMechanism::kTriggered ||
           mechanism() == UpdateMechanism::kOnDemand;
  }

  void AddDependent(MetadataHandler* h);
  void RemoveDependent(MetadataHandler* h);

  /// \brief Per-origin storm-damping state (manager propagation path; see
  /// MetadataManager::EnableStormDamping).
  ///
  /// Token-bucket admission of propagation waves originating here, event
  /// coalescing while no token is available, and a circuit breaker that
  /// converts a storming origin to fixed-cadence batch refresh. Guarded by
  /// the manager's `storm_mu`.
  struct StormState {
    double tokens = 0.0;
    /// kTimestampNever until the first damped wave request (lazy init:
    /// the bucket starts full).
    Timestamp refill_at = kTimestampNever;
    /// Events coalesced since the last executed wave from this origin.
    uint64_t coalesced_run = 0;
    /// A flush task is pending for the coalesced events.
    bool flush_scheduled = false;
    /// Handle of that pending flush — cancelled and re-armed onto the batch
    /// cadence when the circuit breaker trips mid-deferral.
    TaskHandle flush_task;
    /// Circuit breaker: origin is in batch-refresh mode.
    bool breaker = false;
  };

  /// \brief Flattened wave plan for waves originating at this handler
  /// (manager fast path; see MetadataManager::PropagateFrom).
  ///
  /// `refresh` lists the triggered handlers of the affected closure in
  /// topological (dependencies-first) order. `epoch` is the manager's
  /// structure epoch the plan was built at; a mismatch means a handler was
  /// included or excluded since, and the plan (including any raw pointers
  /// it holds) must not be used. Immutable once published: a rebuild
  /// replaces the whole plan, and waves only read it, so a wave walks it
  /// through a plain pointer without a lock or a reference count.
  struct WavePlan {
    uint64_t epoch = 0;
    std::vector<MetadataHandler*> refresh;
    /// Link in the manager's list of replaced plans, written once by the
    /// wave that replaced this one; no wave reads it.
    mutable const WavePlan* next_retired = nullptr;
  };

  /// Evaluation context over `deps_` and the value slot (handler.cc).
  class HandlerEvalContext;

  /// Health state machine (see RetryPolicy).
  void RecordSuccess() PIPES_REQUIRES(eval_mu_);
  void RecordFailure(Timestamp now, std::string error) PIPES_REQUIRES(eval_mu_);
  /// True when a quarantined handler is still inside its backoff window.
  bool InBackoff(Timestamp now) const PIPES_REQUIRES(eval_mu_);

  /// \name Seqlock value slot
  ///
  /// The published value lives in a sequence-counter-validated slot so that
  /// consumer reads (`Get()`, `LoadValue()`, `last_updated()`) never take a
  /// lock: readers snapshot the payload fields between two even reads of
  /// `value_seq_` and retry on mismatch. Writers serialize on `eval_mu_`,
  /// held from evaluation through publication, and flip the counter odd
  /// around their stores — the paper's "consistent view on a metadata item
  /// for all consumers during updates" (§2.1) without reader-side blocking.
  /// All payload fields are relaxed atomics so torn-read freedom is
  /// machine-checkable under TSan; string payloads are immutable and swapped
  /// whole via an atomic shared_ptr, which is non-null only while the tag is
  /// kString: a publish stores it only when the new or the previous tag is
  /// kString.
  ///@{
  enum class SlotTag : uint8_t { kNull, kBool, kInt, kDouble, kString };

  /// Writer side.
  void PublishSlot(const MetadataValue& v, Timestamp now)
      PIPES_REQUIRES(eval_mu_);
  /// Reader side (lock-free).
  MetadataValue ReadSlot() const;

  std::atomic<uint64_t> value_seq_{0};
  std::atomic<uint8_t> value_tag_{static_cast<uint8_t>(SlotTag::kNull)};
  std::atomic<uint64_t> value_bits_{0};  ///< bit-cast bool/int64/double
  std::atomic<Timestamp> last_updated_{kTimestampNever};
  std::atomic<MetadataValue::SharedString> value_str_{nullptr};
  ///@}

  /// \name Health state (written only under eval_mu_)
  ///
  /// `health_` and `consecutive_failures_` are atomics so that health() and
  /// consecutive_failures() never wait for an evaluation.
  ///@{
  std::atomic<HandlerHealth> health_{HandlerHealth::kHealthy};
  std::atomic<int> consecutive_failures_{0};
  int consecutive_successes_ PIPES_GUARDED_BY(eval_mu_) = 0;
  Duration current_backoff_ PIPES_GUARDED_BY(eval_mu_) = 0;
  /// Next allowed eval in quarantine.
  Timestamp retry_at_ PIPES_GUARDED_BY(eval_mu_) = kTimestampNever;
  std::string last_error_ PIPES_GUARDED_BY(eval_mu_);
  /// Jitter source for quarantine retry delays (RetryPolicy::backoff_jitter).
  /// Seeded from the item identity in the constructor, so runs replay
  /// exactly while distinct handlers still decorrelate.
  Rng backoff_rng_ PIPES_GUARDED_BY(eval_mu_);
  ///@}

  std::atomic<bool> retired_{false};
  std::atomic<uint64_t> fault_count_{0};
  std::atomic<uint64_t> skipped_evals_{0};
  std::atomic<uint64_t> recovery_count_{0};

  /// This origin's current wave plan, owned by this handler; null until the
  /// first wave. A wave that finds it null or stale installs a fresh one by
  /// compare-exchange and hands the replaced plan to the manager, which
  /// frees it under its next exclusive structure hold, when no wave can
  /// still walk it. Never mutated once published.
  std::atomic<const WavePlan*> wave_plan_{nullptr};
  /// Per-origin damping state; the manager's lock cannot be named here.
  // pipes-analyze: unguarded(MetadataManager::storm_mu)
  StormState storm_;

  // Guarded by the manager's structure lock, which cannot be named in a
  // PIPES_GUARDED_BY from here without a cyclic include: written under the
  // exclusive hold (Instantiate, MaybeRemove). The inverted dependency edges
  // are read under the shared one too (RebuildWavePlan).
  std::vector<MetadataHandler*> dependents_;  // pipes-analyze: unguarded(MetadataManager structure lock)
  int external_refs_ = 0;  // pipes-analyze: unguarded(MetadataManager structure lock)
  int internal_refs_ = 0;  // pipes-analyze: unguarded(MetadataManager structure lock)

  /// Written under eval_mu_, so a relaxed load plus store suffices; atomic
  /// because their readers take no lock.
  std::atomic<uint64_t> update_count_{0};
  std::atomic<uint64_t> eval_count_{0};
};

/// \brief Handler for invariable items: stores the descriptor's value once.
class StaticMetadataHandler final : public MetadataHandler {
 public:
  using MetadataHandler::MetadataHandler;

 private:
  void Activate(Timestamp now) override;
};

/// \brief Handler computing the value on every access (§3.2.1).
///
/// Access is serialized across consumers; `elapsed()` in the evaluator is the
/// time since the previous access, which is exactly the semantics whose
/// pitfalls Figure 4 illustrates (and which the figure-4 bench reproduces).
class OnDemandMetadataHandler final : public MetadataHandler {
 public:
  using MetadataHandler::MetadataHandler;

 private:
  MetadataValue DoGet() override;
  void Activate(Timestamp now) override;
};

/// \brief Handler recomputing the value per fixed time window (§3.2.2).
///
/// All consumers read the value computed for the last completed window: the
/// isolation condition. The window size calibrates freshness vs. overhead.
class PeriodicMetadataHandler final : public MetadataHandler {
 public:
  using MetadataHandler::MetadataHandler;

  /// The descriptor's base period (the calibrated freshness target).
  Duration period() const { return desc_->period(); }

  /// \brief Current refresh cadence: the base period, possibly stretched by
  /// the manager's overload governor (see MetadataManager pressure states).
  ///
  /// Equal to period() when not degraded; never exceeds the descriptor's
  /// max_staleness (or kDefaultStalenessFactor x period) while degraded.
  Duration effective_period() const {
    Duration p = effective_period_.load(std::memory_order_acquire);
    return p > 0 ? p : period();
  }

  /// Cap on a stretched cadence, as a multiple of the base period, for an
  /// item declared without WithMaxStaleness.
  static constexpr double kDefaultStalenessFactor = 8.0;

 private:
  friend class MetadataManager;

  void Activate(Timestamp now) override;
  void Deactivate() override;

  /// One window boundary: recompute, publish, propagate.
  void Tick(Timestamp now);

  /// \brief Overload-governor hook: stretches (factor > 1) or restores
  /// (factor <= 1) the refresh cadence.
  ///
  /// The stretched period is capped by the descriptor's max_staleness — or,
  /// when that is 0, by kDefaultStalenessFactor x period — so the item's
  /// achievable staleness stays bounded however deep the brownout. Replaces
  /// the mechanism task only when the cadence actually changes (rare,
  /// hysteresis-gated transitions). No-op on retired or deactivated
  /// handlers. Returns the cadence now in effect.
  Duration ApplyDegradationFactor(double factor);

  /// Swaps the mechanism task for one firing every `new_period`, first fire
  /// one `new_period` from now.
  void Reschedule(Duration new_period) PIPES_REQUIRES(period_mu_);

  /// Guards the mechanism task handle while the overload governor swaps
  /// cadences (Activate/Deactivate/ApplyDegradationFactor may race).
  mutable Mutex period_mu_{"PeriodicMetadataHandler::period_mu",
                           lockorder::kRankHandlerPeriod};
  TaskHandle task_ PIPES_GUARDED_BY(period_mu_);
  /// 0 until Activate; then the cadence in effect (== the scheduled task's).
  std::atomic<Duration> effective_period_{0};
};

/// \brief Handler recomputing the value when an underlying item changes
/// (§3.2.3): pre-computed on first subscription, then refreshed by
/// propagation waves and manual event notifications.
class TriggeredMetadataHandler final : public MetadataHandler {
 public:
  using MetadataHandler::MetadataHandler;

 private:
  void Activate(Timestamp now) override;
  bool RefreshFromWave(Timestamp now) override;
};

}  // namespace pipes
