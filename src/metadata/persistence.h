/// \file persistence.h
/// \brief Durability for the metadata layer: write-ahead journaling,
/// checkpoint snapshots, and crash recovery.
///
/// The paper keeps every definition, subscription, and last-known-good value
/// in process memory; a crash forgets the whole dependency graph. This
/// subsystem makes that state durable:
///
///  - **Write-ahead journal.** Every registry mutation (Define/Undefine),
///    manager lifecycle change (Subscribe/Unsubscribe/Retire), and committed
///    value (StoreValue) appends one typed, CRC32-framed record (see
///    common/journal.h for the container format) to the current journal
///    generation. Appends stage in a group-commit buffer; the configured
///    FsyncPolicy decides when the buffer reaches disk.
///
///  - **Checkpoint/restore.** A periodic task writes an atomic snapshot
///    (temp file -> fsync -> rename) of all registered providers' descriptors,
///    subscription counts, and last-known-good values + wall-clock
///    timestamps, then rotates the journal to a fresh generation and prunes
///    obsolete files. `MetadataManager::RecoverFrom` loads the newest
///    checksum-valid snapshot (falling back one generation on corruption),
///    replays the surviving journals, truncates torn tails, and rebuilds the
///    graph: recovered items whose evaluators cannot be persisted come back
///    as *shells* that serve the recovered value as last-known-good — with
///    real staleness, thanks to the Clock wall anchor — through the PR-1
///    fault-containment fallback path until the application re-defines them.
///
/// Record payload layout (inside a journal.h frame):
///
///     [type u8][lsn u64][body...]
///
/// The LSN (log sequence number) is assigned under the journal lock at
/// append time and is monotone across restarts. A snapshot carries the LSN
/// watermark current at its consistent gather; replay applies only records
/// with lsn > watermark, which makes replay immune to stragglers appended
/// between the gather and the journal rotation, and idempotent across the
/// snapshot/journal overlap.

#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/journal.h"
#include "common/mutex.h"
#include "common/scheduler.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "metadata/descriptor.h"
#include "metadata/manager.h"
#include "metadata/value.h"

namespace pipes {

class MetadataProvider;

/// \brief Typed records of the metadata journal and snapshot files.
enum class DurabilityRecordType : uint8_t {
  kDefine = 1,        ///< provider label + descriptor image
  kUndefine = 2,      ///< provider label + key
  kSubscribe = 3,     ///< provider label + key (one external subscription)
  kUnsubscribe = 4,   ///< provider label + key
  kRetire = 5,        ///< provider label + key (handler frozen at teardown)
  kValue = 6,         ///< provider label + key + value + wall timestamp
  kProviderGone = 7,  ///< provider label (clean teardown: forget its items)
  // Snapshot-only records:
  kSnapshotBegin = 8,   ///< LSN watermark + wall time of the gather
  kSubscribeCount = 9,  ///< provider label + key + external-ref count
  kSnapshotEnd = 10,    ///< record count (completeness check)
};

/// Human-readable name of a record type ("?" for unknown values).
const char* DurabilityRecordTypeToString(DurabilityRecordType t);

/// \name MetadataValue codec
/// Tag byte (0 null, 1 bool, 2 int, 3 double, 4 string) + payload.
///@{
void EncodeValue(RecordEncoder* enc, const MetadataValue& v);
bool DecodeValue(RecordDecoder* dec, MetadataValue* out);
///@}

/// \brief Persistable image of one DependencySpec. kExplicit targets persist
/// the provider's *label*; recovery resolves it against the live providers.
struct DependencySpecImage {
  uint8_t target = 0;  ///< DependencySpec::Target
  int32_t index = 0;
  std::string module;
  std::string provider_label;  ///< kExplicit only ("" otherwise)
  std::string key;
};

/// \brief Persistable subset of a MetadataDescriptor.
///
/// Code (evaluators, dynamic dependency resolvers, monitoring hooks) cannot
/// be serialized; everything declarative — mechanism, period, static value,
/// static dependency specs, retry policy, fallback, staleness bound,
/// description — survives. `has_dynamic_deps` records that the original had
/// a resolver, so recovery knows the dependency list is unknowable.
struct DescriptorImage {
  std::string key;
  uint8_t mechanism = 0;  ///< UpdateMechanism
  Duration period = 0;
  MetadataValue static_value;
  bool has_dynamic_deps = false;
  std::vector<DependencySpecImage> deps;
  RetryPolicy retry;
  MetadataValue fallback;
  Duration max_staleness = 0;
  std::string description;
};

/// Captures the persistable image of `desc` as declared on `provider`.
DescriptorImage MakeDescriptorImage(const MetadataDescriptor& desc);

void EncodeDescriptorImage(RecordEncoder* enc, const DescriptorImage& img);
bool DecodeDescriptorImage(RecordDecoder* dec, DescriptorImage* out);

/// \brief Configuration of MetadataManager::EnableDurability.
///
/// Fixed in persistence.cc: under kInterval the group-commit flush runs
/// every 10 ms, and 64 KiB of staged bytes force an early one; a checkpoint
/// keeps the newest 2 snapshot generations (the newest plus the corruption
/// fallback).
struct DurabilityConfig {
  /// Directory holding journal-<gen> and snapshot-<gen> files. Created if
  /// missing.
  std::string dir;
  /// When journal appends reach disk (see FsyncPolicy).
  FsyncPolicy fsync_policy = FsyncPolicy::kInterval;
  /// Cadence of automatic checkpoints. 0 = manual CheckpointNow() only.
  Duration checkpoint_period = 5 * kMicrosPerSecond;
};

/// \brief Counters of the durability layer (merged into
/// MetadataManagerStats by MetadataManager::stats()).
struct DurabilityStats {
  uint64_t journal_records = 0;  ///< records appended
  uint64_t journal_bytes = 0;    ///< frame bytes appended
  uint64_t fsyncs = 0;
  uint64_t group_flushes = 0;  ///< buffer pushes (any policy)
  uint64_t checkpoints = 0;
  uint64_t current_generation = 0;
  Duration last_checkpoint_duration = 0;
  /// Journal Append/Flush errors. A non-zero count means records that were
  /// acknowledged in memory may not be on disk.
  uint64_t journal_write_failures = 0;
  /// CheckpointNow failures (snapshot write, journal rotation, dir sync).
  uint64_t checkpoint_failures = 0;
  /// Latched true on the first journal/checkpoint IO failure; never resets
  /// while the engine lives. While set, the durability guarantee is void —
  /// some committed state may exist only in memory.
  bool degraded = false;
};

/// \brief What MetadataManager::RecoverFrom rebuilt — the one record of a
/// recovery (MetadataManagerStats does not copy it).
///
/// `subscriptions` holds the re-established external subscriptions (one per
/// subscription committed before the crash); they are RAII — the caller owns
/// them, and dropping the report unsubscribes everything it restored.
struct RecoveryReport {
  uint64_t snapshot_generation = 0;  ///< 0 = no snapshot (journal-only)
  bool used_fallback_snapshot = false;
  uint64_t definitions_restored = 0;   ///< descriptors defined by recovery
  uint64_t shells_defined = 0;         ///< of those, evaluator-less shells
  uint64_t subscriptions_restored = 0;
  uint64_t values_restored = 0;
  uint64_t journal_records_replayed = 0;
  uint64_t corrupt_records_skipped = 0;
  uint64_t torn_bytes_truncated = 0;
  /// Labels journaled before the crash with no matching live provider.
  std::vector<std::string> unresolved_providers;
  Duration recovery_duration = 0;
  std::vector<MetadataSubscription> subscriptions;
};

/// \brief Thrown by the placeholder evaluator of a recovered shell item.
///
/// A shell's evaluator cannot be persisted, so until the application
/// re-defines the item every refresh attempt raises this; the handler's
/// fault containment (PR 1) catches it and keeps serving the recovered
/// last-known-good value with growing staleness.
class RecoveryPendingError : public std::runtime_error {
 public:
  RecoveryPendingError(const std::string& provider_label,
                       const std::string& key)
      : std::runtime_error("metadata item '" + provider_label + "." + key +
                           "' was recovered from a checkpoint; its evaluator "
                           "is not yet re-defined") {}
};

/// \brief The durability engine owned by a MetadataManager while
/// EnableDurability is active.
///
/// Journal hooks (OnDefine/OnSubscribe/OnValue/...) are called by the
/// manager, registries, handlers and providers, each through one load of
/// MetadataManager::durability(); when durability is off they cost that
/// atomic load. All hooks are cheap:
/// encode + stage under the journal lock; disk IO happens per the fsync
/// policy (inline for kEveryRecord, on the flush task for kInterval).
///
/// Lock ranks (see lock_order.h): ckpt_mu_ (180) is held across the
/// consistent gather (shared structure lock 200, then providers_mu_ 250 for
/// the whole gather, registries 570 inside it); journal_mu_ (580) is the
/// innermost metadata lock so value commits (under eval_mu 500), registry
/// mutations (under the registry lock 570), and subscription changes (under
/// the exclusive structure lock 200) may journal in place — which is what
/// keeps journal LSN order consistent with in-memory mutation order.
class MetadataDurability {
 public:
  MetadataDurability(MetadataManager& manager, DurabilityConfig config);
  ~MetadataDurability();

  MetadataDurability(const MetadataDurability&) = delete;
  MetadataDurability& operator=(const MetadataDurability&) = delete;

  /// Opens the directory (creating it if needed), seeds the LSN counter
  /// past everything already on disk, opens a fresh journal generation, and
  /// schedules the flush/checkpoint tasks.
  Status Start();

  /// Cancels tasks and flushes + closes the journal (with fsync). Idempotent.
  void Stop();

  /// \name Journal hooks (callers reach them through
  /// MetadataManager::durability())
  ///@{
  void OnDefine(const MetadataProvider& provider,
                const MetadataDescriptor& desc);
  void OnUndefine(const MetadataProvider& provider, const MetadataKey& key);
  void OnSubscribe(const MetadataProvider& provider, const MetadataKey& key);
  void OnUnsubscribe(const MetadataProvider& provider, const MetadataKey& key);
  void OnRetire(const MetadataProvider& provider, const MetadataKey& key);
  void OnValue(const MetadataProvider& provider, const MetadataKey& key,
               const MetadataValue& value, Timestamp now);
  void OnProviderTeardown(const MetadataProvider& provider);
  ///@}

  /// Adds `provider` to the checkpoint roster (idempotent). Registry
  /// mutations pre-register *before* taking the registry lock (providers_mu_
  /// rank 250 must not nest inside it), the Subscribe hook registers under
  /// the structure lock, and EnableDurability registers its explicit
  /// provider list so pre-enable state is checkpointed too.
  void RegisterProvider(const MetadataProvider* provider);

  /// Writes one snapshot generation now, rotates the journal, and prunes
  /// files older than the fallback horizon. Serialized; safe concurrent
  /// with all journal hooks. A failure (also when invoked by the periodic
  /// checkpoint task) increments `checkpoint_failures` and latches the
  /// degraded flag; a failed rotation leaves the previous journal open and
  /// in use, so mutations keep journaling.
  Status CheckpointNow();

  /// True once any journal or checkpoint IO failure has been observed.
  /// Latched: the guarantee "acknowledged implies durable" no longer holds
  /// for this engine's lifetime.
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }

  /// Pushes the group-commit buffer to disk (fsync when `sync`).
  Status FlushJournal(bool sync = true);

  DurabilityStats stats() const;
  const DurabilityConfig& config() const { return config_; }

  /// \brief Rebuilds `manager`'s metadata state from `dir` (the
  /// implementation of MetadataManager::RecoverFrom).
  ///
  /// Loads the newest complete snapshot (falling back one generation when
  /// the newest is damaged), replays all journals in generation order
  /// filtered by the snapshot's LSN watermark, truncates torn journal
  /// tails in place, then rebuilds: (A) descriptors — re-used when the
  /// application already re-defined the key, otherwise defined as recovered
  /// shells; (B) subscriptions via the ordinary Subscribe path (which
  /// rebuilds the dependency graph and wave plans through the structure
  /// epoch machinery); (C) last-known-good values injected with timestamps
  /// mapped through the clock's wall anchor, so staleness is real age
  /// across the restart.
  static Result<RecoveryReport> Recover(
      MetadataManager& manager, const std::string& dir,
      const std::vector<MetadataProvider*>& providers);

 private:
  /// Assigns the next LSN, prepends [type][lsn], stages the frame, and
  /// applies the fsync policy. Returns the staged record's LSN.
  uint64_t AppendRecord(DurabilityRecordType type, const RecordEncoder& body);

  Status FlushLocked(bool sync) PIPES_REQUIRES(journal_mu_);

  /// The body of CheckpointNow (gather, snapshot write, rotation, prune).
  Status CheckpointLocked(Timestamp t0) PIPES_REQUIRES(ckpt_mu_);

  /// Counts a journal write failure and latches the degraded flag.
  void NoteWriteFailure(const char* what, const Status& st);

  /// Latches the degraded flag, logging the first transition.
  void MarkDegraded(const char* what, const Status& st);

  /// File path helpers (zero-padded generation suffix).
  std::string JournalPath(uint64_t gen) const;
  std::string SnapshotPath(uint64_t gen) const;

  MetadataManager& manager_;
  const DurabilityConfig config_;

  /// Serializes checkpoints; held across the consistent image gather.
  Mutex ckpt_mu_{"MetadataDurability::ckpt_mu",
                 lockorder::kRankDurabilityCheckpoint};

  /// The checkpoint roster: every provider that ever journaled through this
  /// instance, by label. The checkpoint gather holds this mutex for the
  /// whole roster walk: ~MetadataProvider calls OnProviderTeardown (which
  /// acquires it) from its destructor *body*, and the provider's registry
  /// is a base-class member destroyed only after that body returns — so a
  /// dying provider blocks here until the gather finishes, and every roster
  /// pointer stays valid while the lock is held.
  mutable Mutex providers_mu_{"MetadataDurability::providers_mu",
                              lockorder::kRankDurabilityProviders};
  std::map<std::string, const MetadataProvider*> providers_
      PIPES_GUARDED_BY(providers_mu_);

  /// LSN assignment, group-commit buffer, and the open journal writer.
  mutable Mutex journal_mu_{"MetadataDurability::journal_mu",
                            lockorder::kRankDurabilityJournal};
  std::unique_ptr<JournalWriter> journal_ PIPES_GUARDED_BY(journal_mu_);
  uint64_t next_lsn_ PIPES_GUARDED_BY(journal_mu_) = 1;
  uint64_t current_generation_ PIPES_GUARDED_BY(journal_mu_) = 0;
  RecordEncoder scratch_ PIPES_GUARDED_BY(journal_mu_);

  // Written only by Start/Stop, which the owning manager serializes; the
  // handles' shared state is itself thread-safe.
  TaskHandle flush_task_;       // pipes-analyze: unguarded(Start/Stop serialization)
  TaskHandle checkpoint_task_;  // pipes-analyze: unguarded(Start/Stop serialization)
  std::atomic<bool> started_{false};

  std::atomic<uint64_t> stats_records_{0};
  std::atomic<uint64_t> stats_bytes_{0};
  std::atomic<uint64_t> stats_fsyncs_{0};
  std::atomic<uint64_t> stats_flushes_{0};
  std::atomic<uint64_t> stats_checkpoints_{0};
  std::atomic<Duration> stats_checkpoint_duration_{0};
  std::atomic<uint64_t> stats_write_failures_{0};
  std::atomic<uint64_t> stats_checkpoint_failures_{0};
  std::atomic<bool> degraded_{false};
};

}  // namespace pipes
