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
#include "common/sharded_counter.h"
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
  /// on-demand reads consult the clock.
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
  /// Idempotent; called by MetadataRegistry::RetireAllHandlers().
  void Retire();

  /// Resolved dependency handlers, in resolver order.
  const std::vector<std::shared_ptr<MetadataHandler>>& dependencies() const {
    return deps_;
  }

  /// Snapshot of the handlers currently depending on this one.
  std::vector<MetadataHandler*> dependents() const;

  /// \name Usage statistics (profiling, scale benches)
  ///@{
  uint64_t access_count() const { return access_count_.Value(); }
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
  /// Mechanism-specific read. Only a mechanism whose read depends on the
  /// time (on-demand) reads the clock, so cached reads stay off it.
  virtual MetadataValue DoGet() = 0;

  /// Runs the descriptor's evaluator with a context exposing `deps_`,
  /// `elapsed`, and the previous value. Serialized per handler. May throw
  /// (whatever the evaluator throws); use EvaluateAndStore for containment.
  MetadataValue Evaluate(Timestamp now, Duration elapsed);

  /// \brief Fault-contained evaluation (the only evaluation path handlers
  /// use): runs the evaluator, rejecting thrown exceptions and non-finite
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
  /// stored.
  MetadataValue EvaluateAndStore(Timestamp now, Duration elapsed,
                                 bool* updated = nullptr);

  /// Stores `v` as the current value with update time `now`.
  void StoreValue(MetadataValue v, Timestamp now);

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

 private:
  friend class MetadataManager;

  /// Post-wiring initialization: compute the initial value, start periodic
  /// tasks, etc. Called once by the manager.
  virtual void Activate(Timestamp now) = 0;

  /// Tear-down before removal: cancel tasks. Called once by the manager.
  virtual void Deactivate() {}

  /// Recomputes the value during an update-propagation wave. Default no-op;
  /// only triggered handlers recompute.
  virtual void RefreshFromWave(Timestamp now);

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
  /// structure epoch the plan was built at; a mismatch means the dependency
  /// graph changed shape and the plan (including any raw pointers it holds)
  /// must not be used. Immutable once published: a rebuild replaces the
  /// whole plan, so a wave walks its own reference without a lock.
  struct WavePlan {
    uint64_t epoch = 0;
    std::vector<MetadataHandler*> refresh;
  };

  /// Health state machine (guarded by health_mu_). While `health_clean_` is
  /// set, InBackoff and RecordSuccess return without taking the lock.
  void RecordSuccess(Timestamp now);
  void RecordFailure(Timestamp now, std::string error);
  /// True when a quarantined handler is still inside its backoff window.
  bool InBackoff(Timestamp now) const;

  /// \name Seqlock value slot
  ///
  /// The published value lives in a sequence-counter-validated slot so that
  /// consumer reads (`Get()`, `LoadValue()`, `last_updated()`) never take a
  /// lock: readers snapshot the payload fields between two even reads of
  /// `value_seq_` and retry on mismatch. Writers serialize on `value_mu_`
  /// (concurrent on-demand accesses may race to store after their serialized
  /// evaluations finish) and flip the counter odd around their stores — the
  /// paper's "consistent view on a metadata item for all consumers during
  /// updates" (§2.1) without reader-side blocking. All payload fields are
  /// relaxed atomics so torn-read freedom is machine-checkable under TSan;
  /// string payloads are immutable and swapped whole via an atomic
  /// shared_ptr, which is non-null only while the tag is kString: a publish
  /// stores it only when the new or the previous tag is kString.
  ///@{
  enum class SlotTag : uint8_t { kNull, kBool, kInt, kDouble, kString };

  /// Writer side (requires value_mu_).
  void PublishSlot(const MetadataValue& v, Timestamp now);
  /// Reader side (lock-free).
  MetadataValue ReadSlot() const;

  mutable Mutex value_mu_{"MetadataHandler::value_mu",
                          lockorder::kRankHandlerValue};
  std::atomic<uint64_t> value_seq_{0};
  std::atomic<uint8_t> value_tag_{static_cast<uint8_t>(SlotTag::kNull)};
  std::atomic<uint64_t> value_bits_{0};  ///< bit-cast bool/int64/double
  std::atomic<Timestamp> last_updated_{kTimestampNever};
  std::atomic<MetadataValue::SharedString> value_str_{nullptr};
  ///@}

  mutable Mutex health_mu_{"MetadataHandler::health_mu",
                           lockorder::kRankHandlerHealth};
  HandlerHealth health_ PIPES_GUARDED_BY(health_mu_) = HandlerHealth::kHealthy;
  int consecutive_failures_ PIPES_GUARDED_BY(health_mu_) = 0;
  int consecutive_successes_ PIPES_GUARDED_BY(health_mu_) = 0;
  Duration current_backoff_ PIPES_GUARDED_BY(health_mu_) = 0;
  /// Next allowed eval in quarantine.
  Timestamp retry_at_ PIPES_GUARDED_BY(health_mu_) = kTimestampNever;
  std::string last_error_ PIPES_GUARDED_BY(health_mu_);
  /// True iff health_ == kHealthy and consecutive_failures_ == 0, which
  /// imply retry_at_ == kTimestampNever and current_backoff_ == 0: the
  /// state a success leaves unchanged. Written only under health_mu_; read
  /// without it by the healthy fast path.
  std::atomic<bool> health_clean_{true};
  /// Jitter source for quarantine retry delays (RetryPolicy::backoff_jitter).
  /// Seeded from the item identity in the constructor, so runs replay
  /// exactly while distinct handlers still decorrelate.
  Rng backoff_rng_ PIPES_GUARDED_BY(health_mu_);

  std::atomic<bool> retired_{false};
  std::atomic<uint64_t> fault_count_{0};
  std::atomic<uint64_t> skipped_evals_{0};
  std::atomic<uint64_t> recovery_count_{0};

  /// Serializes evaluator invocations; guards no data directly.
  Mutex eval_mu_{"MetadataHandler::eval_mu", lockorder::kRankHandlerEval};

  mutable Mutex dependents_mu_{"MetadataHandler::dependents_mu",
                               lockorder::kRankHandlerDependents};
  std::vector<MetadataHandler*> dependents_ PIPES_GUARDED_BY(dependents_mu_);

  /// This origin's current wave plan; null until the first wave. Loaded and
  /// replaced whole by the manager's propagation path, never mutated.
  std::atomic<std::shared_ptr<const WavePlan>> wave_plan_{nullptr};
  /// Per-origin damping state; the manager's lock cannot be named here.
  // pipes-analyze: unguarded(MetadataManager::storm_mu)
  StormState storm_;

  // Guarded by the manager's structure lock, which cannot be named in a
  // PIPES_GUARDED_BY from here without a cyclic include.
  int external_refs_ = 0;  // pipes-analyze: unguarded(MetadataManager structure lock)
  int internal_refs_ = 0;  // pipes-analyze: unguarded(MetadataManager structure lock)

  /// Sharded: Get() is the many-reader hot path and must not make all
  /// consumers contend on one counter cache line.
  ShardedCounter access_count_;
  /// Written under value_mu_ and eval_mu_ respectively, so a relaxed load
  /// plus store suffices; atomic because their readers take no lock.
  std::atomic<uint64_t> update_count_{0};
  std::atomic<uint64_t> eval_count_{0};
};

/// \brief Handler for invariable items: stores the descriptor's value once.
class StaticMetadataHandler final : public MetadataHandler {
 public:
  using MetadataHandler::MetadataHandler;

 private:
  MetadataValue DoGet() override;
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
  /// max_staleness (or the governor's default cap) while degraded.
  Duration effective_period() const {
    Duration p = effective_period_.load(std::memory_order_acquire);
    return p > 0 ? p : period();
  }

 private:
  friend class MetadataManager;

  MetadataValue DoGet() override;
  void Activate(Timestamp now) override;
  void Deactivate() override;

  /// One window boundary: recompute, publish, propagate.
  void Tick(Timestamp now);

  /// \brief Overload-governor hook: stretches (factor > 1) or restores
  /// (factor <= 1) the refresh cadence.
  ///
  /// The stretched period is capped by the descriptor's max_staleness — or,
  /// when that is 0, by default_cap_factor x period — so the item's
  /// achievable staleness stays bounded however deep the brownout. Replaces
  /// the mechanism task only when the cadence actually changes (rare,
  /// hysteresis-gated transitions). No-op on retired or deactivated
  /// handlers. Returns the cadence now in effect.
  Duration ApplyDegradationFactor(double factor, double default_cap_factor);

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
  MetadataValue DoGet() override;
  void Activate(Timestamp now) override;
  void RefreshFromWave(Timestamp now) override;
};

}  // namespace pipes
