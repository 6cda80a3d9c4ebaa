/// \file manager.h
/// \brief The publish-subscribe coordinator for dynamic metadata
/// (paper §2, §3.2.3).
///
/// A MetadataManager serves one query graph. It resolves metadata
/// dependencies into handlers (automatic inclusion/exclusion via a
/// depth-first traversal of the dependency graph, §2.4), shares handlers
/// between consumers via reference counting (§2.1), runs update-propagation
/// waves along the inverted dependency graph in topological order (§3.2.3),
/// and owns the graph-level lock of the three-level locking scheme (§4.2).

#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <memory_resource>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/reentrant_shared_mutex.h"
#include "common/scheduler.h"
#include "common/sharded_counter.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "metadata/handler.h"
#include "metadata/provider.h"

namespace pipes {

class MetadataManager;
class MetadataDurability;
struct DurabilityConfig;
struct RecoveryReport;

/// \brief RAII consumer-side subscription to one metadata item (paper §2.1).
///
/// Move-only. Destruction unsubscribes; dependent items included on behalf
/// of this subscription are automatically excluded when no longer needed.
class MetadataSubscription {
 public:
  MetadataSubscription() = default;
  ~MetadataSubscription();

  MetadataSubscription(const MetadataSubscription&) = delete;
  MetadataSubscription& operator=(const MetadataSubscription&) = delete;
  MetadataSubscription(MetadataSubscription&& other) noexcept;
  MetadataSubscription& operator=(MetadataSubscription&& other) noexcept;

  /// Current value of the subscribed item.
  MetadataValue Get() const;

  /// Numeric convenience.
  double GetDouble() const { return Get().AsDouble(); }

  /// The shared handler (nullptr for an empty subscription).
  const std::shared_ptr<MetadataHandler>& handler() const { return handler_; }

  /// True if this subscription is live.
  bool valid() const { return handler_ != nullptr; }

  /// Unsubscribes now (idempotent).
  void Reset();

 private:
  friend class MetadataManager;
  MetadataSubscription(MetadataManager* manager,
                       std::shared_ptr<MetadataHandler> handler)
      : manager_(manager), handler_(std::move(handler)) {}

  MetadataManager* manager_ = nullptr;
  std::shared_ptr<MetadataHandler> handler_;
};

/// \brief Counters describing metadata-framework activity; the cost unit of
/// the scalability experiments.
struct MetadataManagerStats {
  uint64_t subscriptions = 0;      ///< external Subscribe calls
  uint64_t unsubscriptions = 0;    ///< external unsubscribes
  uint64_t handlers_created = 0;
  uint64_t handlers_removed = 0;
  uint64_t active_handlers = 0;    ///< currently included items
  uint64_t evaluations = 0;        ///< evaluator invocations (maintenance cost)
  uint64_t waves = 0;              ///< propagation waves (hits + rebuilds)
  uint64_t wave_refreshes = 0;     ///< triggered-handler refreshes in waves
  uint64_t events_fired = 0;       ///< manual event notifications
  uint64_t wave_plan_hits = 0;     ///< waves served by a cached plan
  uint64_t wave_plan_rebuilds = 0; ///< waves that re-derived their plan
  /// Always 0: every wave, nested ones included, runs on the calling thread
  /// and rebuilds a stale plan in place, so none is handed to the scheduler.
  /// Kept so existing readers of this field keep compiling.
  uint64_t waves_deferred = 0;

  // Fault containment (see HandlerHealth / RetryPolicy).
  uint64_t eval_failures = 0;      ///< contained evaluator faults
  uint64_t evals_skipped = 0;      ///< evals skipped by quarantine backoff
  uint64_t degradations = 0;       ///< transitions into kDegraded
  uint64_t quarantines = 0;        ///< transitions into kQuarantined
  uint64_t recoveries = 0;         ///< transitions back to kHealthy
  uint64_t degraded_handlers = 0;    ///< currently kDegraded (gauge)
  uint64_t quarantined_handlers = 0; ///< currently kQuarantined (gauge)

  // Overload control (pressure governor; see EnableOverloadControl).
  int pressure_state = 0;          ///< current PressureState (gauge)
  uint64_t pressure_enters = 0;    ///< transitions kNormal -> kPressured
  uint64_t brownout_enters = 0;    ///< transitions into kBrownout
  uint64_t pressure_exits = 0;     ///< full recoveries back to kNormal
  uint64_t periods_stretched = 0;  ///< periodic items currently degraded (gauge)
  uint64_t period_stretches = 0;   ///< cadence-stretch applications
  uint64_t period_restores = 0;    ///< cadence-restore applications

  // Storm damping (see EnableStormDamping).
  uint64_t events_coalesced = 0;   ///< damped events absorbed into pending waves
  uint64_t storm_flushes = 0;      ///< coalesced-wave flushes executed
  uint64_t breaker_trips = 0;      ///< origins converted to batch refresh
  uint64_t breakers_active = 0;    ///< origins currently batch-refreshing (gauge)

  // Durability (journal/checkpoint; see EnableDurability and
  // persistence.h). All zero while durability is off.
  bool durability_enabled = false;
  uint64_t journal_records = 0;     ///< records appended to the journal
  uint64_t journal_bytes = 0;       ///< frame bytes appended
  uint64_t journal_fsyncs = 0;
  uint64_t group_flushes = 0;       ///< commit-buffer pushes to disk
  uint64_t checkpoints = 0;         ///< snapshot generations written
  uint64_t snapshot_generation = 0; ///< current generation (gauge)
  Duration last_checkpoint_duration = 0;
  uint64_t journal_write_failures = 0;  ///< append/flush errors (see below)
  uint64_t checkpoint_failures = 0;     ///< failed CheckpointNow runs
  /// Latched true on the first journal/checkpoint IO failure: acknowledged
  /// mutations may no longer be durable (disk full, rotation failed, ...).
  /// What a recovery rebuilt is in the RecoveryReport RecoverFrom returns.
  bool durability_degraded = false;
};

/// \brief Pressure state of the manager's overload governor — a brownout
/// state machine in the style of the handler health machine
/// (kHealthy -> kDegraded -> kQuarantined).
///
/// kNormal: maintenance runs at declared cadences. kPressured: the scheduler
/// reported sustained overload; periodic cadences are stretched by a first,
/// moderate factor. kBrownout: overload persisted; cadences are stretched
/// deeper — but never beyond each item's staleness bound, so consumers keep
/// a predictable freshness floor. Transitions are hysteretic (consecutive
/// governor ticks, not instantaneous signals) and recovery steps down one
/// state at a time.
enum class PressureState {
  kNormal = 0,
  kPressured = 1,
  kBrownout = 2,
};

/// Human-readable name of a pressure state.
const char* PressureStateToString(PressureState s);

/// Period-stretch factor the overload governor applies in kPressured.
inline constexpr double kPressuredStretchFactor = 2.0;

/// \brief Tuning of the overload governor (see
/// MetadataManager::EnableOverloadControl).
struct OverloadControlOptions {
  /// Cadence of the governor's pressure evaluation.
  Duration governor_period = 100 * kMicrosPerMilli;
  /// Period-stretch factor applied in kBrownout (kPressured applies
  /// kPressuredStretchFactor).
  double brownout_factor = 4.0;
  /// Consecutive overloaded ticks in kNormal before entering kPressured.
  int ticks_to_pressure = 2;
  /// Consecutive overloaded ticks in kPressured before entering kBrownout.
  int ticks_to_brownout = 4;
  /// Consecutive calm ticks before stepping one state toward kNormal
  /// (hysteresis: recovery is gradual, re-entry needs fresh evidence).
  int ticks_to_recover = 3;
};

/// \brief Tuning of triggered-wave storm damping (see
/// MetadataManager::EnableStormDamping).
struct StormDampingOptions {
  /// Steady-state budget of propagation waves per origin, per second
  /// (token-bucket refill rate).
  double max_waves_per_sec = 100.0;
  /// Token-bucket capacity: short bursts up to this many back-to-back waves
  /// pass undamped.
  double burst = 4.0;
  /// Events coalesced since the last executed wave at which the origin's
  /// circuit breaker trips into batch-refresh mode.
  uint64_t breaker_trip_coalesced = 64;
  /// Batch-refresh cadence of a tripped origin. The breaker resets when a
  /// whole batch interval passes without a single event.
  Duration breaker_batch_interval = 100 * kMicrosPerMilli;
};

/// \brief Publish-subscribe metadata coordinator for one query graph.
///
/// Thread safety: all public methods are safe to call concurrently.
class MetadataManager {
 public:
  /// `scheduler` runs periodic updates and deferred events; it must outlive
  /// the manager.
  explicit MetadataManager(TaskScheduler& scheduler);
  ~MetadataManager();

  MetadataManager(const MetadataManager&) = delete;
  MetadataManager& operator=(const MetadataManager&) = delete;

  /// \brief Subscribes to item `key` of `provider`.
  ///
  /// Performs the automatic-inclusion traversal: all transitively required
  /// dependencies are resolved (honoring dynamic resolvers) and included
  /// depth-first, stopping at already-provided items. The whole subscription
  /// is atomic: on error (unknown item, unresolvable dependency, dependency
  /// cycle) nothing is included.
  Result<MetadataSubscription> Subscribe(MetadataProvider& provider,
                                         const MetadataKey& key);

  /// \brief Fires the event notification for an included item (paper §3.2.3):
  /// starts a propagation wave over its dependents. No-op when the item is
  /// not included.
  ///
  /// Never call it while holding a provider state lock exclusively: the wave
  /// takes the structure lock and evaluators take state locks, the reverse
  /// of Subscribe's structure -> state order. Use FireEventDeferred there.
  void FireEvent(MetadataProvider& provider, const MetadataKey& key);

  /// Like FireEvent but runs asynchronously on the scheduler — for calls
  /// from element-processing threads that hold node state locks exclusively.
  /// It takes no structure lock: the handler is resolved through the
  /// provider's registry alone.
  void FireEventDeferred(MetadataProvider& provider, const MetadataKey& key);

  /// \brief Runs one update-propagation wave starting at `origin`: all
  /// transitive dependents reachable through triggered/on-demand handlers
  /// are collected and triggered handlers among them are refreshed in
  /// topological (dependencies-first) order, each at most once per wave.
  ///
  /// The wave runs to completion on the calling thread, including a wave
  /// started from inside another wave's refresh (an evaluator firing an
  /// event): no wave is ever handed to the scheduler, so none can be shed.
  void PropagateFrom(MetadataHandler& origin, Timestamp now);

  /// The scheduler driving periodic updates.
  TaskScheduler& scheduler() { return scheduler_; }

  /// The clock shared with the scheduler.
  Clock& clock() { return scheduler_.clock(); }

  /// Graph-level metadata lock (paper §4.2): exclusive during structural
  /// changes (inclusion/exclusion), shared during propagation.
  ReentrantSharedMutex& structure_mutex()
      PIPES_RETURN_CAPABILITY(structure_mu_) {
    return structure_mu_;
  }

  /// \name Overload control (pressure governor)
  ///
  /// Arms a periodic governor that watches the scheduler's hysteretic
  /// overload signal (or an injected probe) and drives the
  /// kNormal -> kPressured -> kBrownout state machine: under sustained
  /// pressure every periodic item's refresh cadence is stretched by the
  /// state's factor, bounded per item by its WithMaxStaleness declaration
  /// (or PeriodicMetadataHandler::kDefaultStalenessFactor x period), and
  /// restored the same way when pressure clears. Off by default.
  ///@{
  void EnableOverloadControl(const OverloadControlOptions& opts = {});
  /// Cancels the governor and restores all cadences to their base periods.
  void DisableOverloadControl();
  /// Current state of the pressure machine (kNormal while control is off).
  PressureState pressure_state() const {
    return static_cast<PressureState>(
        pressure_state_.load(std::memory_order_acquire));
  }
  /// \brief Test seam: replaces the governor's overload input with `probe`
  /// (called once per governor tick; true = overloaded). Pass nullptr to
  /// return to the scheduler signal. Deterministic tests under
  /// VirtualTimeScheduler need this — virtual time has no natural lateness.
  void SetPressureProbe(std::function<bool()> probe);
  ///@}

  /// \name Triggered-wave storm damping
  ///
  /// Arms per-origin event coalescing: waves from one origin are admitted
  /// through a token bucket; events arriving without a token are coalesced
  /// into one deferred flush wave (metadata is last-writer-wins, so dropping
  /// the intermediate waves loses nothing consumers could still observe). An
  /// origin storming hard enough to coalesce breaker_trip_coalesced events
  /// trips a circuit breaker that converts it to fixed-cadence batch refresh
  /// until a whole batch interval passes quietly. Off by default: undamped
  /// propagation stays exactly as before.
  ///@{
  void EnableStormDamping(const StormDampingOptions& opts = {});
  void DisableStormDamping();
  ///@}

  /// \name Durability (write-ahead journal + checkpoint/restore)
  ///
  /// With durability enabled, every definition, subscription, retirement,
  /// and committed value is appended to a write-ahead journal, and a
  /// periodic task checkpoints the full metadata image (descriptors,
  /// subscription counts, last-known-good values with wall-clock
  /// timestamps) into atomic snapshot files, rotating the journal. After a
  /// crash, RecoverFrom rebuilds the state a fresh manager serves
  /// immediately: recovered values appear as last-known-good with real
  /// staleness; items whose evaluators are not yet re-defined come back as
  /// shells degrading through the fault-containment path. Off by default —
  /// a journal hook then costs one load of durability(). See persistence.h.
  ///@{
  /// Starts journaling into `config.dir` and checkpoints the current state.
  /// `providers` seeds the checkpoint roster with providers whose items
  /// were defined before enabling (later definitions register themselves);
  /// providers without a manager are attached to this one. Fails when
  /// durability is already enabled or the directory cannot be prepared.
  Status EnableDurability(const DurabilityConfig& config,
                          const std::vector<MetadataProvider*>& providers = {});
  /// Flushes, closes the journal, and stops journaling. Providers torn down
  /// after this are not recorded as gone — the documented way to preserve
  /// durable state across a planned shutdown.
  void DisableDurability();
  bool durability_enabled() const {
    return durability_.load(std::memory_order_acquire) != nullptr;
  }
  /// The active durability engine (nullptr while disabled).
  MetadataDurability* durability() const {
    return durability_.load(std::memory_order_acquire);
  }
  /// \brief Rebuilds metadata state from the journal/snapshot directory
  /// `dir`, resolving persisted provider labels against `providers`.
  ///
  /// Requires durability to be disabled (recover first, then enable). The
  /// returned report owns the re-established subscriptions. See
  /// MetadataDurability::Recover for the full protocol.
  Result<RecoveryReport> RecoverFrom(
      const std::string& dir, const std::vector<MetadataProvider*>& providers);
  ///@}

  /// Snapshot of activity counters.
  MetadataManagerStats stats() const;

  /// \brief Test seam: the handler's currently stored value, without
  /// invoking its evaluator.
  ///
  /// Unlike MetadataSubscription::Get(), which evaluates on-demand items
  /// (and would therefore perturb the very state a checker wants to
  /// observe), this is a pure lock-free slot read — the same read the
  /// durability checkpoint uses. The deterministic simulation harness uses
  /// it to extract the system's served state for comparison against its
  /// reference model without side effects.
  static MetadataValue PeekValue(const MetadataHandler& handler) {
    return handler.LoadValue();
  }

  /// Number of currently included items across all providers.
  uint64_t active_handler_count() const {
    return stats_active_.load(std::memory_order_relaxed);
  }

  /// Internal: one evaluator invocation happened outside a wave (called by
  /// handlers; a wave counts its refreshes' evaluations once).
  void CountEvaluation() {
    stats_evaluations_.Increment();
  }

  /// Internal: one evaluator fault was contained (called by handlers).
  void CountEvaluationFailure() {
    stats_eval_failures_.Increment();
  }

  /// Internal: one evaluation was skipped by quarantine backoff.
  void CountSkippedEvaluation() {
    stats_evals_skipped_.Increment();
  }

  /// Internal: a handler's health changed from `from` to `to`; updates the
  /// transition counters and the degraded/quarantined gauges.
  void CountHealthTransition(HandlerHealth from, HandlerHealth to);

  /// \brief Bench seam: invalidates every cached wave plan, so the next wave
  /// from each origin rebuilds its plan. Takes the structure lock
  /// exclusively, like every other writer of the epoch.
  void BumpStructureEpoch() PIPES_EXCLUDES(structure_mu_) {
    ExclusiveLock lock(structure_mu_);
    ++structure_epoch_;
    ReclaimWavePlans();
  }

 private:
  friend class MetadataSubscription;
  friend class MetadataDurability;
  /// Remote pushes inject peer values as last-known-good (InjectRecoveredValue)
  /// before starting an ordinary propagation wave — the same protocol crash
  /// recovery uses.
  friend class RemoteMetadataProvider;

  /// One item of an inclusion plan. `ref` is the subscribed root or an
  /// element of its dependent's `deps`; both stay put until Subscribe
  /// returns. `deps` draws from the planning arena.
  struct PlanEntry {
    const MetadataRef* ref;
    std::shared_ptr<const MetadataDescriptor> desc;
    std::pmr::vector<MetadataRef> deps;
  };

  /// One Subscribe's planning state, drawn from an arena on its stack
  /// (manager.cc).
  struct Planning;

  /// Depth-first planning of the inclusion closure (cycle + existence
  /// checks); appends entries dependencies-first. Runs under the exclusive
  /// structure lock (machine-checked under Clang -Wthread-safety).
  Status PlanInclude(const MetadataRef& ref, Planning* planning)
      PIPES_REQUIRES(structure_mu_);

  /// Creates the handler for one plan entry (dependencies already exist).
  std::shared_ptr<MetadataHandler> Instantiate(const PlanEntry& entry,
                                               Timestamp now)
      PIPES_REQUIRES(structure_mu_);

  /// Drops one external reference and removes the handler (and, recursively,
  /// its now-unneeded dependencies) when the last reference is gone.
  void UnsubscribeExternal(const std::shared_ptr<MetadataHandler>& handler);

  /// Removes `handler` if it has neither external nor internal references.
  void MaybeRemove(const std::shared_ptr<MetadataHandler>& handler)
      PIPES_REQUIRES(structure_mu_);

  /// Refreshes one handler in a wave with exception containment, so a
  /// faulting refresh cannot abort the wave. Returns whether the handler's
  /// evaluator ran.
  bool RefreshContained(MetadataHandler& h, Timestamp now);

  /// \brief Runs the wave proper (post-admission): loads `origin`'s wave
  /// plan, rebuilds and installs a fresh one when it is null or stale, and
  /// refreshes the plan's handlers in order.
  ///
  /// The caller's shared hold keeps the epoch and the graph still from the
  /// epoch load to the end of the walk: both change only under the exclusive
  /// hold. So the raw handler pointers of a current plan stay valid, a plan
  /// replaced meanwhile is retired rather than freed, and waves racing to
  /// rebuild one origin's stale plan build equal plans, of which one
  /// compare-exchange installs the first.
  void RunWave(MetadataHandler& origin, Timestamp now)
      PIPES_REQUIRES_SHARED(structure_mu_);

  /// Hands a plan that a rebuild replaced to `retired_plans_`. Lock-free:
  /// waves of several origins may retire plans at once.
  void RetireWavePlan(const MetadataHandler::WavePlan* plan);

  /// Frees the retired plans. Under the exclusive hold no wave of another
  /// thread can walk one; a wave of this thread can, if an evaluator
  /// changed the graph from inside it, so the plans then wait for a later
  /// hold (or the destructor).
  void ReclaimWavePlans() PIPES_REQUIRES(structure_mu_);

  /// \brief Storm-damping admission for a wave originating at `origin`.
  ///
  /// True = a token was available (wave runs now). False = the event was
  /// coalesced into `origin`'s pending flush (scheduled here if none is);
  /// may trip the origin's circuit breaker.
  bool AdmitWave(MetadataHandler& origin, Timestamp now)
      PIPES_REQUIRES(storm_mu_);

  /// Schedules a coalesced-flush task for `origin` at `when`. A rejected
  /// admission (scheduler queue bound) leaves flush_scheduled false so the
  /// next event retries — the coalesced events are shed, not leaked.
  void ScheduleStormFlush(MetadataHandler& origin, Timestamp when)
      PIPES_REQUIRES(storm_mu_);

  /// Deferred flush of an origin's coalesced events: runs one wave for the
  /// whole run, re-arms the batch cadence while the breaker is tripped, and
  /// resets the breaker after a quiet interval. `storm_mu_` is released
  /// around the wave, whose refreshes may fire damped events themselves.
  void FlushStorm(const std::weak_ptr<MetadataHandler>& weak);

  /// One governor tick: sample the pressure signal, advance the state
  /// machine, apply/restore cadence factors on transitions.
  void GovernorTick() PIPES_EXCLUDES(structure_mu_);

  /// Applies `factor` to every registered periodic handler that is not
  /// retired and refreshes the stretched-items gauge.
  void ApplyPressureFactorLocked(double factor) PIPES_REQUIRES(structure_mu_);

  /// Recovery-time value injection: publishes `v` with update time `ts` as
  /// `handler`'s last-known-good value without invoking its evaluator. Takes
  /// the handler's eval_mu, like every other writer of the handler.
  void InjectRecoveredValue(MetadataHandler& handler, const MetadataValue& v,
                            Timestamp ts);

  /// \brief Builds a fresh wave plan for `origin`, stamped with `epoch`.
  ///
  /// Derives the affected closure (BFS over dependents through
  /// propagate-through handlers) and Kahn-orders its triggered handlers into
  /// the plan's refresh list. Its scratch is the calling thread's and keeps
  /// its capacity, so a warm rebuild allocates only the plan: a rebuild runs
  /// no evaluator and never re-enters itself, and two rebuilds of one origin
  /// on different threads may race, each returning the same plan. The caller
  /// holds the structure lock shared, so neither the graph nor `epoch` can
  /// change underneath.
  static std::unique_ptr<MetadataHandler::WavePlan> RebuildWavePlan(
      MetadataHandler& origin, uint64_t epoch);

  TaskScheduler& scheduler_;
  /// Graph-level lock of the three-level scheme (§4.2). Outer to every
  /// handler lock; see lock_order.h ranks.
  ReentrantSharedMutex structure_mu_{"MetadataManager::structure_mu",
                                     lockorder::kRankMetadataStructure};

  /// Wave-plan cache invalidation: a plan (MetadataHandler::WavePlan) is
  /// stamped with the epoch it was built at, and a wave reuses it only while
  /// the stamps match. Only the two graph changes bump it, under the
  /// exclusive hold: inclusion (Subscribe) and exclusion (MaybeRemove). A
  /// redefinition touches only items that are not included, and a retired
  /// handler keeps its edges until it is excluded, so neither bumps.
  uint64_t structure_epoch_ PIPES_GUARDED_BY(structure_mu_) = 1;
  /// Wave plans replaced under shared holds since the last reclamation,
  /// linked through WavePlan::next_retired. Pushed by waves, taken whole
  /// by ReclaimWavePlans; it takes no lock.
  std::atomic<const MetadataHandler::WavePlan*> retired_plans_{nullptr};

  /// \name Overload-governor state
  ///
  /// Under the structure lock, like the graph it stretches: Instantiate
  /// reads it under its exclusive hold, and a tick and the control calls
  /// take that hold themselves, so a tick briefly holds off waves.
  ///@{
  /// Every included periodic handler: Instantiate adds one, MaybeRemove
  /// drops it.
  std::vector<PeriodicMetadataHandler*> periodic_handlers_
      PIPES_GUARDED_BY(structure_mu_);
  OverloadControlOptions overload_options_ PIPES_GUARDED_BY(structure_mu_);
  bool overload_enabled_ PIPES_GUARDED_BY(structure_mu_) = false;
  std::function<bool()> pressure_probe_ PIPES_GUARDED_BY(structure_mu_);
  TaskHandle governor_task_ PIPES_GUARDED_BY(structure_mu_);
  int hot_ticks_ PIPES_GUARDED_BY(structure_mu_) = 0;
  int cool_ticks_ PIPES_GUARDED_BY(structure_mu_) = 0;
  double current_factor_ PIPES_GUARDED_BY(structure_mu_) = 1.0;
  /// Atomic mirror of the machine state so pressure_state() is lock-free.
  std::atomic<int> pressure_state_{0};
  ///@}

  /// \name Storm-damping state
  ///
  /// `storm_mu_` guards the options and every origin's
  /// MetadataHandler::StormState. It is taken only while damping is enabled,
  /// so the undamped path is one relaxed load of the switch. A nested wave
  /// takes it under a handler's eval lock, and it is held across scheduler
  /// calls, so it ranks between the two.
  ///@{
  Mutex storm_mu_{"MetadataManager::storm_mu", lockorder::kRankStormDamping};
  /// Atomic so the undamped fast path is one relaxed load; flipped by
  /// Enable/DisableStormDamping.
  std::atomic<bool> storm_damping_enabled_{false};
  StormDampingOptions storm_options_ PIPES_GUARDED_BY(storm_mu_);
  ///@}

  /// Per-event counters: bumped on every event, wave and evaluation, by
  /// every driving thread. Sharded so that waves from disjoint origins on
  /// different threads do not all write one cache line.
  ShardedCounter stats_events_;
  ShardedCounter stats_wave_refreshes_;
  ShardedCounter stats_wave_plan_hits_;
  ShardedCounter stats_wave_plan_rebuilds_;
  ShardedCounter stats_evaluations_;
  ShardedCounter stats_eval_failures_;
  ShardedCounter stats_evals_skipped_;

  std::atomic<uint64_t> stats_subscriptions_{0};
  std::atomic<uint64_t> stats_unsubscriptions_{0};
  std::atomic<uint64_t> stats_created_{0};
  std::atomic<uint64_t> stats_removed_{0};
  std::atomic<uint64_t> stats_active_{0};
  std::atomic<uint64_t> stats_degradations_{0};
  std::atomic<uint64_t> stats_quarantines_{0};
  std::atomic<uint64_t> stats_recoveries_{0};
  std::atomic<uint64_t> stats_degraded_now_{0};
  std::atomic<uint64_t> stats_quarantined_now_{0};
  std::atomic<uint64_t> stats_pressure_enters_{0};
  std::atomic<uint64_t> stats_brownout_enters_{0};
  std::atomic<uint64_t> stats_pressure_exits_{0};
  std::atomic<uint64_t> stats_period_stretches_{0};
  std::atomic<uint64_t> stats_period_restores_{0};
  std::atomic<uint64_t> stats_stretched_now_{0};
  std::atomic<uint64_t> stats_events_coalesced_{0};
  std::atomic<uint64_t> stats_storm_flushes_{0};
  std::atomic<uint64_t> stats_breaker_trips_{0};
  std::atomic<uint64_t> stats_breakers_now_{0};

  /// \name Durability state
  ///
  /// The engine is owned under the admin lock; hot-path hooks read the
  /// atomic mirror only. Disable parks the old engine in the graveyard
  /// instead of destroying it, so a hook that loaded the raw pointer just
  /// before the swap still dereferences live (stopped, journal closed —
  /// appends fail harmlessly) memory.
  ///@{
  mutable Mutex durability_admin_mu_{"MetadataManager::durability_admin_mu",
                                     lockorder::kRankDurabilityAdmin};
  std::unique_ptr<MetadataDurability> durability_owner_
      PIPES_GUARDED_BY(durability_admin_mu_);
  std::vector<std::unique_ptr<MetadataDurability>> durability_graveyard_
      PIPES_GUARDED_BY(durability_admin_mu_);
  std::atomic<MetadataDurability*> durability_{nullptr};
  ///@}
};

}  // namespace pipes
