/// \file lock_order.h
/// \brief Lockdep-style runtime lock-order validator.
///
/// Static Thread Safety Analysis (thread_annotations.h) proves that guarded
/// state is only touched under its lock, but says little about the *order* in
/// which different locks nest. This validator closes that gap at runtime, in
/// the style of the Linux kernel's lockdep: every lock belongs to a named
/// *lock class* (all `MetadataHandler::eval_mu` instances are one class), and
/// whenever a thread acquires a lock exclusively while holding others, the
/// held-before edges are recorded in a global lock-order graph. A cycle in
/// that graph is a *potential* deadlock and is reported immediately with the
/// lock names of both acquisition stacks — even if the deadly interleaving
/// never actually fires in this run.
///
/// Semantics (tuned to the paper's §4.2 reentrant read/write locking):
///  - Edges are recorded only for *exclusive* acquisitions. Shared
///    acquisitions of the reentrant rwlocks are tracked as held (so they can
///    appear on the held side of an edge) but never create wait edges
///    themselves: a reentrant reader admission can not close a wait cycle on
///    its own. A first-level reader can (it queues behind a waiting writer);
///    ThreadSanitizer's deadlock detector covers those cycles, because
///    ReentrantSharedMutex annotates its slot lock for TSan as a mutex
///    read-locked on the shared side (DESIGN.md §3.4.1).
///  - Re-acquiring an instance the thread already holds is reentrant: the
///    hold depth grows, no edge is recorded, nothing is reported (unless the
///    lock class is non-reentrant — that is a self-deadlock report).
///  - Two different instances of the *same* class never form an edge; sibling
///    handler locks nest freely during dependency evaluation.
///  - Classes may carry a rank (lower = acquired earlier / outer). Acquiring
///    a lower-ranked lock exclusively while holding a higher-ranked one is
///    reported even before any cycle closes. Rank 0 = unranked (graph-only).
///
/// The validator is compiled out when PIPES_LOCK_ORDER_CHECKS is 0 (CMake
/// option PIPES_LOCK_ORDER, default OFF for Release/MinSizeRel): the hooks
/// become empty inlines and hot paths pay nothing. Upgrade reporting
/// (ReportUpgrade) stays active in *all* builds — a shared→exclusive upgrade
/// attempt on ReentrantSharedMutex is a guaranteed self-deadlock, not a
/// heuristic, so `lock()` reports it and then aborts. Set the environment
/// variable PIPES_LOCK_ORDER_DUMP=<path> to append the observed lock-order
/// graph to a file at process exit.

#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#ifndef PIPES_LOCK_ORDER_CHECKS
#ifdef NDEBUG
#define PIPES_LOCK_ORDER_CHECKS 0
#else
#define PIPES_LOCK_ORDER_CHECKS 1
#endif
#endif

namespace pipes {
namespace lockorder {

/// Canonical ranks for this codebase's lock hierarchy, outer to inner (a
/// lock may only be acquired exclusively while all held ranked locks have a
/// strictly smaller rank). See DESIGN.md "Locking discipline" for the call
/// paths that pin each constraint.
inline constexpr int kRankQueryGraph = 100;        ///< QueryGraph::graph_mu
inline constexpr int kRankMonitor = 150;           ///< MetadataMonitor::mu
/// MetadataManager::durability_admin_mu — serializes Enable/DisableDurability
/// and RecoverFrom; held while the durability layer starts (structure reads,
/// scheduler registration), so it sits above everything metadata.
inline constexpr int kRankDurabilityAdmin = 170;
/// MetadataDurability::ckpt_mu — serializes checkpoints; held across the
/// consistent-image gather (shared structure lock, provider registries).
inline constexpr int kRankDurabilityCheckpoint = 180;
/// RemoteMetadataProvider::fed_mu / MetadataFederationServer::server_mu —
/// per-peer federation state (mirror table, sequence cursors, breaker).
/// Held while subscribing/propagating mirrored items, so it sits above the
/// structure lock and every handler lock.
inline constexpr int kRankFederation = 190;
inline constexpr int kRankMetadataStructure = 200; ///< MetadataManager::structure_mu
/// MetadataDurability::providers_mu — the label→provider map journal hooks
/// consult. Taken under the exclusive structure lock (hooks fired from
/// Subscribe/Retire) and while reading provider registries (checkpoint).
inline constexpr int kRankDurabilityProviders = 250;
inline constexpr int kRankOperatorState = 300;     ///< MetadataProvider::state_mu
/// MetadataHandler::eval_mu — the handler's one lock: serializes evaluation,
/// value publication with its journal append, and the health state machine.
/// An evaluator reading an on-demand dependency nests one instance inside
/// another, always from dependent to dependency.
inline constexpr int kRankHandlerEval = 500;
/// PeriodicMetadataHandler::period_mu_ — guards the mechanism task handle
/// while the overload governor swaps cadences under the exclusive structure
/// lock; held across Schedule* calls.
inline constexpr int kRankHandlerPeriod = 520;
/// MetadataManager::storm_mu — storm-damping options and every origin's
/// token bucket. Taken by wave admission, which a nested wave reaches with
/// a handler's eval_mu held, and held across the flush's Schedule* call.
inline constexpr int kRankStormDamping = 530;
/// MetadataRegistry::mu — descriptor/handler lookup. Resolved while the
/// provider state lock is held (FireEvent fan-out) *and* from inside an
/// evaluator that fires a nested event (eval_mu held), so it sits below
/// the journal but above every handler lock.
inline constexpr int kRankRegistry = 570;
/// MetadataDurability::journal_mu — LSN assignment + group-commit buffer.
/// Innermost of the metadata locks that nest: value commits journal under
/// the handler's eval_mu, structure mutations journal under the exclusive
/// structure lock.
inline constexpr int kRankDurabilityJournal = 580;
/// net::Endpoint send/receiver state (LoopbackEndpoint::mu, TcpEndpoint::mu).
/// Near-leaf: transports never call back into metadata while holding it
/// (receivers are copied out and invoked unlocked), but Send() is reached
/// from evaluators and federation paths holding most metadata locks.
inline constexpr int kRankNetEndpoint = 610;
inline constexpr int kRankModules = 650;           ///< MetadataProvider::modules_mu
inline constexpr int kRankScheduler = 700;         ///< scheduler queue locks
/// TaskScheduler::overload_mu_ — the deadline-miss rate average; taken by
/// the run path while deadline tracking is on, holding no other lock.
inline constexpr int kRankSchedulerOverload = 710;
inline constexpr int kRankLeaf = 900;              ///< queues, sinks, observers

/// One named lock class (interned; all locks constructed with the same name
/// share a class). Opaque to callers.
class LockClass;

/// Interns a lock class by name. `rank` 0 means unranked; `reentrant` marks
/// classes whose instances may legally be re-acquired by the holding thread.
/// The first registration of a name wins; later calls return the same class.
/// Every lock constructor calls this, so a name the calling thread has
/// interned before is served from a per-thread cache without a lock.
const LockClass* RegisterLockClass(const char* name, int rank = 0,
                                   bool reentrant = false);

/// Name / rank of an interned class (for diagnostics and tests).
const char* LockClassName(const LockClass* cls);
int LockClassRank(const LockClass* cls);

/// One recorded held-before edge: `from` was held when `to` was acquired.
struct LockOrderEdge {
  std::string from;
  std::string to;
  /// Names of every lock held at first recording (the acquisition context).
  std::vector<std::string> while_holding;
};

/// One reported problem.
struct LockOrderViolation {
  enum class Kind {
    kCycle,          ///< new edge closes a cycle in the lock-order graph
    kRankInversion,  ///< acquired a lower rank while holding a higher one
    kSelfDeadlock,   ///< re-acquired a non-reentrant lock instance
    kUpgrade,        ///< shared→exclusive upgrade attempt on a rwlock
  };
  Kind kind;
  std::string message;
  /// Lock names held by this thread when the violation was detected.
  std::vector<std::string> holding;
  /// For kCycle: the holding stack recorded with the *prior* conflicting
  /// edge (the "other" thread's stack in the classic ABBA report).
  std::vector<std::string> prior_holding;
};

const char* ViolationKindToString(LockOrderViolation::Kind k);

/// \brief Global validator: the lock-order graph plus per-thread hold
/// stacks. A leaky singleton — safe to use from static constructors and
/// during process shutdown.
class LockOrderValidator {
 public:
  static LockOrderValidator& Instance();

  /// Records a (possibly blocking) acquisition. Called *before* the real
  /// lock operation so the report exists even if the thread then deadlocks.
  void Acquire(const LockClass* cls, const void* instance, bool shared);

  /// Records a successful try-lock. The hold is tracked but no edges are
  /// recorded: a non-blocking acquisition can not contribute to a deadlock.
  void AcquireTry(const LockClass* cls, const void* instance, bool shared);

  /// Records a release (reverse of Acquire/AcquireTry).
  void Release(const LockClass* cls, const void* instance);

  /// Reports a shared→exclusive upgrade attempt. Active in ALL builds,
  /// independent of PIPES_LOCK_ORDER_CHECKS and SetEnabled: upgrading a
  /// reentrant-shared lock self-deadlocks by construction (the writer waits
  /// for its own read to drain), so the caller aborts right after.
  void ReportUpgrade(const char* lock_name);

  /// Runtime kill switch (in addition to the compile-time one). Disabling
  /// skips all tracking; already-recorded state is kept.
  void SetEnabled(bool enabled);
  bool enabled() const;

  /// Snapshot of reported violations (order of detection).
  std::vector<LockOrderViolation> violations() const;
  std::size_t violation_count() const;
  void ClearViolations();

  /// Snapshot of the recorded lock-order graph.
  std::vector<LockOrderEdge> edges() const;

  /// Writes the graph as "from -> to  [holding ...]" lines.
  void WriteEdges(std::ostream& out) const;

  /// Test hook: drops all recorded edges (classes stay interned).
  void ResetGraphForTest();

 private:
  LockOrderValidator();
  ~LockOrderValidator() = delete;  // leaky singleton

  struct Impl;
  Impl* impl_;
};

// ---------------------------------------------------------------------------
// Hook points used by the lock wrappers. Compiled to nothing when the
// validator is configured out, so instrumented locks cost a branch at most.
// ---------------------------------------------------------------------------

#if PIPES_LOCK_ORDER_CHECKS
inline void OnAcquire(const LockClass* cls, const void* instance,
                      bool shared) {
  LockOrderValidator::Instance().Acquire(cls, instance, shared);
}
inline void OnTryAcquired(const LockClass* cls, const void* instance,
                          bool shared) {
  LockOrderValidator::Instance().AcquireTry(cls, instance, shared);
}
inline void OnRelease(const LockClass* cls, const void* instance) {
  LockOrderValidator::Instance().Release(cls, instance);
}
#else
inline void OnAcquire(const LockClass*, const void*, bool) {}
inline void OnTryAcquired(const LockClass*, const void*, bool) {}
inline void OnRelease(const LockClass*, const void*) {}
#endif

}  // namespace lockorder
}  // namespace pipes
