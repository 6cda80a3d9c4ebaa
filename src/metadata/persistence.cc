#include "metadata/persistence.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/fault_injection.h"
#include "metadata/handler.h"
#include "metadata/provider.h"
#include "metadata/registry.h"

namespace pipes {

const char* DurabilityRecordTypeToString(DurabilityRecordType t) {
  switch (t) {
    case DurabilityRecordType::kDefine:
      return "define";
    case DurabilityRecordType::kUndefine:
      return "undefine";
    case DurabilityRecordType::kSubscribe:
      return "subscribe";
    case DurabilityRecordType::kUnsubscribe:
      return "unsubscribe";
    case DurabilityRecordType::kRetire:
      return "retire";
    case DurabilityRecordType::kValue:
      return "value";
    case DurabilityRecordType::kProviderGone:
      return "provider-gone";
    case DurabilityRecordType::kSnapshotBegin:
      return "snapshot-begin";
    case DurabilityRecordType::kSubscribeCount:
      return "subscribe-count";
    case DurabilityRecordType::kSnapshotEnd:
      return "snapshot-end";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

void EncodeValue(RecordEncoder* enc, const MetadataValue& v) {
  if (v.is_null()) {
    enc->PutU8(0);
  } else if (v.is_bool()) {
    enc->PutU8(1);
    enc->PutBool(v.AsBool());
  } else if (v.is_int()) {
    enc->PutU8(2);
    enc->PutI64(v.AsInt());
  } else if (v.is_double()) {
    enc->PutU8(3);
    enc->PutDouble(v.AsDouble());
  } else {
    enc->PutU8(4);
    enc->PutString(v.AsString());
  }
}

bool DecodeValue(RecordDecoder* dec, MetadataValue* out) {
  uint8_t tag = 0;
  if (!dec->GetU8(&tag)) return false;
  switch (tag) {
    case 0:
      *out = MetadataValue::Null();
      return true;
    case 1: {
      bool b = false;
      if (!dec->GetBool(&b)) return false;
      *out = MetadataValue(b);
      return true;
    }
    case 2: {
      int64_t i = 0;
      if (!dec->GetI64(&i)) return false;
      *out = MetadataValue(i);
      return true;
    }
    case 3: {
      double d = 0;
      if (!dec->GetDouble(&d)) return false;
      *out = MetadataValue(d);
      return true;
    }
    case 4: {
      std::string s;
      if (!dec->GetString(&s)) return false;
      *out = MetadataValue(std::move(s));
      return true;
    }
    default:
      return false;
  }
}

DescriptorImage MakeDescriptorImage(const MetadataDescriptor& desc) {
  DescriptorImage img;
  img.key = desc.key();
  img.mechanism = static_cast<uint8_t>(desc.mechanism());
  img.period = desc.period();
  img.static_value = desc.static_value();
  img.has_dynamic_deps = desc.has_dynamic_dependencies();
  for (const DependencySpec& spec : desc.dependency_specs()) {
    DependencySpecImage si;
    si.target = static_cast<uint8_t>(spec.target);
    si.index = spec.index;
    si.module = spec.module;
    // Use the captured label: `spec.provider` may point at a provider that
    // was torn down after the descriptor was defined (checkpoint-after-retire
    // is a legal sequence and must not dereference the stale pointer).
    si.provider_label = spec.provider_label;
    si.key = spec.key;
    img.deps.push_back(std::move(si));
  }
  img.retry = desc.retry_policy();
  img.fallback = desc.fallback_value();
  img.max_staleness = desc.max_staleness();
  img.description = desc.description();
  return img;
}

void EncodeDescriptorImage(RecordEncoder* enc, const DescriptorImage& img) {
  enc->PutString(img.key);
  enc->PutU8(img.mechanism);
  enc->PutI64(img.period);
  EncodeValue(enc, img.static_value);
  enc->PutBool(img.has_dynamic_deps);
  enc->PutU32(static_cast<uint32_t>(img.deps.size()));
  for (const DependencySpecImage& d : img.deps) {
    enc->PutU8(d.target);
    enc->PutU32(static_cast<uint32_t>(d.index));
    enc->PutString(d.module);
    enc->PutString(d.provider_label);
    enc->PutString(d.key);
  }
  enc->PutU32(static_cast<uint32_t>(img.retry.failures_to_degrade));
  enc->PutU32(static_cast<uint32_t>(img.retry.failures_to_quarantine));
  enc->PutU32(static_cast<uint32_t>(img.retry.successes_to_recover));
  enc->PutI64(img.retry.initial_backoff);
  enc->PutDouble(img.retry.backoff_multiplier);
  enc->PutI64(img.retry.max_backoff);
  enc->PutDouble(img.retry.backoff_jitter);
  EncodeValue(enc, img.fallback);
  enc->PutI64(img.max_staleness);
  enc->PutString(img.description);
}

bool DecodeDescriptorImage(RecordDecoder* dec, DescriptorImage* out) {
  uint32_t dep_count = 0;
  uint8_t mech = 0;
  if (!dec->GetString(&out->key)) return false;
  if (!dec->GetU8(&mech)) return false;
  out->mechanism = mech;
  if (!dec->GetI64(&out->period)) return false;
  if (!DecodeValue(dec, &out->static_value)) return false;
  if (!dec->GetBool(&out->has_dynamic_deps)) return false;
  if (!dec->GetU32(&dep_count)) return false;
  // Each spec costs >= 14 encoded bytes; a count past the remaining payload
  // is framing damage, not a huge dependency list.
  if (dep_count > dec->remaining()) return false;
  out->deps.clear();
  out->deps.reserve(dep_count);
  for (uint32_t i = 0; i < dep_count; ++i) {
    DependencySpecImage d;
    uint32_t index = 0;
    if (!dec->GetU8(&d.target)) return false;
    if (!dec->GetU32(&index)) return false;
    d.index = static_cast<int32_t>(index);
    if (!dec->GetString(&d.module)) return false;
    if (!dec->GetString(&d.provider_label)) return false;
    if (!dec->GetString(&d.key)) return false;
    out->deps.push_back(std::move(d));
  }
  uint32_t degrade = 0, quarantine = 0, recover = 0;
  if (!dec->GetU32(&degrade)) return false;
  if (!dec->GetU32(&quarantine)) return false;
  if (!dec->GetU32(&recover)) return false;
  out->retry.failures_to_degrade = static_cast<int>(degrade);
  out->retry.failures_to_quarantine = static_cast<int>(quarantine);
  out->retry.successes_to_recover = static_cast<int>(recover);
  if (!dec->GetI64(&out->retry.initial_backoff)) return false;
  if (!dec->GetDouble(&out->retry.backoff_multiplier)) return false;
  if (!dec->GetI64(&out->retry.max_backoff)) return false;
  if (!dec->GetDouble(&out->retry.backoff_jitter)) return false;
  if (!DecodeValue(dec, &out->fallback)) return false;
  if (!dec->GetI64(&out->max_staleness)) return false;
  if (!dec->GetString(&out->description)) return false;
  return dec->ok();
}

// ---------------------------------------------------------------------------
// Directory helpers
// ---------------------------------------------------------------------------

namespace {

/// Cadence of the group-commit flush task (kInterval policy).
constexpr Duration kFsyncInterval = 10 * kMicrosPerMilli;
/// Staged bytes that force an early flush under kInterval.
constexpr size_t kGroupCommitBytes = 64 * 1024;
/// Snapshot generations kept after a checkpoint: the newest plus the
/// corruption fallback.
constexpr int kSnapshotGenerationsKept = 2;

std::string GenerationPath(const std::string& dir, const char* prefix,
                           uint64_t gen) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s-%020" PRIu64, prefix, gen);
  return dir + "/" + buf;
}

/// Generations present as "<prefix>-<digits>" files in `dir`, ascending.
std::vector<uint64_t> ListGenerations(const std::string& dir,
                                      const char* prefix) {
  std::vector<uint64_t> gens;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return gens;
  const std::string want = std::string(prefix) + "-";
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.size() <= want.size() || name.compare(0, want.size(), want) != 0) {
      continue;
    }
    const char* digits = name.c_str() + want.size();
    char* end = nullptr;
    unsigned long long gen = std::strtoull(digits, &end, 10);
    if (end == nullptr || *end != '\0') continue;
    gens.push_back(gen);
  }
  ::closedir(d);
  std::sort(gens.begin(), gens.end());
  return gens;
}

/// Splits a scanned payload into [type][lsn] + a decoder over the body.
bool ParseRecordHead(const std::string& payload, DurabilityRecordType* type,
                     uint64_t* lsn, RecordDecoder* dec) {
  uint8_t t = 0;
  if (!dec->GetU8(&t) || !dec->GetU64(lsn)) return false;
  (void)payload;
  *type = static_cast<DurabilityRecordType>(t);
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// MetadataDurability: journaling
// ---------------------------------------------------------------------------

MetadataDurability::MetadataDurability(MetadataManager& manager,
                                       DurabilityConfig config)
    : manager_(manager), config_(std::move(config)) {}

MetadataDurability::~MetadataDurability() { Stop(); }

std::string MetadataDurability::JournalPath(uint64_t gen) const {
  return GenerationPath(config_.dir, "journal", gen);
}

std::string MetadataDurability::SnapshotPath(uint64_t gen) const {
  return GenerationPath(config_.dir, "snapshot", gen);
}

Status MetadataDurability::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("durability already started");
  }
  PIPES_RETURN_NOT_OK(MakeDirs(config_.dir));

  // Seed the LSN counter past everything already on disk — replay filters on
  // "lsn > snapshot watermark", so LSNs must stay monotone across restarts.
  uint64_t max_lsn = 0;
  uint64_t max_gen = 0;
  for (uint64_t gen : ListGenerations(config_.dir, "journal")) {
    max_gen = std::max(max_gen, gen);
    Result<JournalScan> scan = ScanJournalFile(JournalPath(gen), kJournalMagic);
    if (!scan.ok()) continue;
    for (const ScannedRecord& rec : scan->records) {
      DurabilityRecordType type;
      uint64_t lsn = 0;
      RecordDecoder dec(rec.payload);
      if (ParseRecordHead(rec.payload, &type, &lsn, &dec)) {
        max_lsn = std::max(max_lsn, lsn);
      }
    }
  }
  for (uint64_t gen : ListGenerations(config_.dir, "snapshot")) {
    max_gen = std::max(max_gen, gen);
    Result<JournalScan> scan =
        ScanJournalFile(SnapshotPath(gen), kSnapshotMagic);
    if (!scan.ok() || scan->records.empty()) continue;
    DurabilityRecordType type;
    uint64_t lsn = 0;
    uint64_t watermark = 0;
    RecordDecoder dec(scan->records.front().payload);
    if (ParseRecordHead(scan->records.front().payload, &type, &lsn, &dec) &&
        type == DurabilityRecordType::kSnapshotBegin &&
        dec.GetU64(&watermark)) {
      max_lsn = std::max(max_lsn, watermark);
    }
  }

  // Never reopen an existing generation (Create truncates): start a fresh
  // one. Replay scans every retained journal, so extra files are only a
  // space cost, never a correctness one.
  uint64_t gen = max_gen + 1;
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(JournalPath(gen), kJournalMagic, gen);
  if (!writer.ok()) return writer.status();
  {
    MutexLock lock(journal_mu_);
    journal_ = std::move(writer.value());
    next_lsn_ = max_lsn + 1;
    current_generation_ = gen;
  }

  if (config_.fsync_policy == FsyncPolicy::kInterval) {
    flush_task_ = manager_.scheduler().SchedulePeriodic(
        kFsyncInterval, [this] { FlushJournal(true); });
  }
  if (config_.checkpoint_period > 0) {
    checkpoint_task_ = manager_.scheduler().SchedulePeriodic(
        config_.checkpoint_period, [this] { CheckpointNow(); });
  }
  started_.store(true, std::memory_order_release);
  return Status::OK();
}

void MetadataDurability::Stop() {
  if (!started_.exchange(false, std::memory_order_acq_rel)) return;
  flush_task_.Cancel();
  checkpoint_task_.Cancel();
  MutexLock lock(journal_mu_);
  if (journal_ != nullptr) {
    Status closed = journal_->Close(true);
    if (!closed.ok()) NoteWriteFailure("journal close", closed);
    journal_.reset();
  }
}

void MetadataDurability::MarkDegraded(const char* what, const Status& st) {
  if (!degraded_.exchange(true, std::memory_order_acq_rel)) {
    std::fprintf(stderr, "[durability] degraded: %s: %s\n", what,
                 st.ToString().c_str());
  }
}

void MetadataDurability::NoteWriteFailure(const char* what, const Status& st) {
  stats_write_failures_.fetch_add(1, std::memory_order_relaxed);
  MarkDegraded(what, st);
}

uint64_t MetadataDurability::AppendRecord(DurabilityRecordType type,
                                          const RecordEncoder& body) {
  MutexLock lock(journal_mu_);
  if (journal_ == nullptr) return 0;
  uint64_t lsn = next_lsn_++;
  scratch_.Clear();
  scratch_.PutU8(static_cast<uint8_t>(type));
  scratch_.PutU64(lsn);
  scratch_.PutBytes(body.buffer());
  Status appended = journal_->Append(scratch_.buffer());
  if (!appended.ok()) {
    // The record is lost but the LSN stays consumed (monotonicity). The
    // caller's mutation already happened in memory; all we can do is make
    // the broken guarantee visible.
    NoteWriteFailure("journal append", appended);
    return lsn;
  }
  stats_records_.fetch_add(1, std::memory_order_relaxed);
  stats_bytes_.fetch_add(scratch_.size() + kFrameHeaderSize,
                         std::memory_order_relaxed);
  switch (config_.fsync_policy) {
    case FsyncPolicy::kEveryRecord:
      FlushLocked(true);
      break;
    case FsyncPolicy::kInterval:
      if (journal_->buffered_bytes() >= kGroupCommitBytes) {
        FlushLocked(true);
      }
      break;
    case FsyncPolicy::kNone:
      FlushLocked(false);
      break;
  }
  return lsn;
}

Status MetadataDurability::FlushLocked(bool sync) {
  if (journal_ == nullptr) return Status::OK();
  if (journal_->buffered_bytes() == 0) return Status::OK();
  Status st = journal_->Flush(sync);
  if (st.ok()) {
    stats_flushes_.fetch_add(1, std::memory_order_relaxed);
    if (sync) stats_fsyncs_.fetch_add(1, std::memory_order_relaxed);
  } else {
    NoteWriteFailure("journal flush", st);
  }
  return st;
}

Status MetadataDurability::FlushJournal(bool sync) {
  MutexLock lock(journal_mu_);
  return FlushLocked(sync);
}

void MetadataDurability::RegisterProvider(const MetadataProvider* provider) {
  if (provider == nullptr) return;
  MutexLock lock(providers_mu_);
  providers_[provider->label()] = provider;
}

void MetadataDurability::OnDefine(const MetadataProvider& provider,
                                  const MetadataDescriptor& desc) {
  // Journal-only: called while the registry lock (rank 570) is held, so the
  // journal's LSN order matches the registry's mutation order for
  // concurrent Define/Undefine of the same key. Roster registration
  // (providers_mu_, rank 250 — would invert) happens before the registry
  // lock, via MetadataRegistry's pre-registration.
  RecordEncoder body;
  body.PutString(provider.label());
  EncodeDescriptorImage(&body, MakeDescriptorImage(desc));
  AppendRecord(DurabilityRecordType::kDefine, body);
}

void MetadataDurability::OnUndefine(const MetadataProvider& provider,
                                    const MetadataKey& key) {
  // Journal-only, under the registry lock like OnDefine.
  RecordEncoder body;
  body.PutString(provider.label());
  body.PutString(key);
  AppendRecord(DurabilityRecordType::kUndefine, body);
}

void MetadataDurability::OnSubscribe(const MetadataProvider& provider,
                                     const MetadataKey& key) {
  RegisterProvider(&provider);
  RecordEncoder body;
  body.PutString(provider.label());
  body.PutString(key);
  AppendRecord(DurabilityRecordType::kSubscribe, body);
}

void MetadataDurability::OnUnsubscribe(const MetadataProvider& provider,
                                       const MetadataKey& key) {
  // Journal-only (no providers_mu_): called under the exclusive structure
  // lock like OnSubscribe, but the provider is necessarily registered.
  RecordEncoder body;
  body.PutString(provider.label());
  body.PutString(key);
  AppendRecord(DurabilityRecordType::kUnsubscribe, body);
}

void MetadataDurability::OnRetire(const MetadataProvider& provider,
                                  const MetadataKey& key) {
  // Journal-only: Retire fires on teardown paths that may hold handler
  // locks; providers_mu_ (rank 250) must not nest inside them.
  RecordEncoder body;
  body.PutString(provider.label());
  body.PutString(key);
  AppendRecord(DurabilityRecordType::kRetire, body);
}

void MetadataDurability::OnValue(const MetadataProvider& provider,
                                 const MetadataKey& key,
                                 const MetadataValue& value, Timestamp now) {
  // Journal-only: called under the handler's eval_mu (rank 500); takes only
  // journal_mu_ (580) inside it. Timestamps persist as wall-clock
  // micros so staleness survives a restart with a different clock origin.
  RecordEncoder body;
  body.PutString(provider.label());
  body.PutString(key);
  EncodeValue(&body, value);
  body.PutI64(manager_.clock().ToWallMicros(now));
  AppendRecord(DurabilityRecordType::kValue, body);
}

void MetadataDurability::OnProviderTeardown(const MetadataProvider& provider) {
  {
    MutexLock lock(providers_mu_);
    auto it = providers_.find(provider.label());
    // Only deregister the same instance: a provider re-created under the
    // same label must not be dropped by its predecessor's teardown.
    if (it != providers_.end() && it->second == &provider) {
      providers_.erase(it);
    }
  }
  RecordEncoder body;
  body.PutString(provider.label());
  AppendRecord(DurabilityRecordType::kProviderGone, body);
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

namespace {

/// Appends one snapshot record frame. Snapshot records reuse the journal
/// payload layout with the gather watermark in the LSN slot.
void AppendSnapshotRecord(std::string* out, DurabilityRecordType type,
                          uint64_t watermark, const RecordEncoder& body) {
  RecordEncoder rec;
  rec.PutU8(static_cast<uint8_t>(type));
  rec.PutU64(watermark);
  rec.PutBytes(body.buffer());
  AppendFrame(out, rec.buffer());
}

}  // namespace

Status MetadataDurability::CheckpointNow() {
  if (!started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("durability not started");
  }
  Timestamp t0 = manager_.clock().Now();
  MutexLock ckpt(ckpt_mu_);
  Status st = CheckpointLocked(t0);
  if (st.ok()) {
    stats_checkpoints_.fetch_add(1, std::memory_order_relaxed);
    stats_checkpoint_duration_.store(manager_.clock().Now() - t0,
                                     std::memory_order_relaxed);
  } else {
    // Count + latch here so the periodic checkpoint task (which has nowhere
    // to return the status to) still surfaces every failure.
    stats_checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    MarkDegraded("checkpoint", st);
  }
  return st;
}

Status MetadataDurability::CheckpointLocked(Timestamp t0) {
  uint64_t watermark = 0;
  uint64_t new_gen = 0;
  std::string content;
  uint64_t record_count = 0;
  {
    // Shared structure lock for the whole gather: Subscribe/Unsubscribe
    // journal under the *exclusive* lock, so every count record is either
    // <= watermark (its effect visible to this gather) or > watermark
    // (replayed on top). Without this the same subscription could be both
    // counted and replayed.
    SharedLock structure(manager_.structure_mutex());
    // providers_mu_ is held for the whole roster walk, not just a copy:
    // a provider dying concurrently blocks in ~MetadataProvider ->
    // OnProviderTeardown on this mutex before its registry (a base-class
    // member, destroyed after the destructor body) goes away, so the
    // registry/handler dereferences below can never touch freed memory.
    MutexLock p(providers_mu_);
    {
      MutexLock j(journal_mu_);
      watermark = next_lsn_ - 1;
      new_gen = current_generation_ + 1;
    }

    AppendFileHeader(&content, kSnapshotMagic, new_gen);
    {
      RecordEncoder body;
      body.PutU64(watermark);
      body.PutI64(manager_.clock().ToWallMicros(t0));
      AppendSnapshotRecord(&content, DurabilityRecordType::kSnapshotBegin,
                           watermark, body);
      ++record_count;
    }
    for (const auto& entry : providers_) {
      const MetadataProvider* provider = entry.second;
      const MetadataRegistry& registry = provider->metadata_registry();
      for (const MetadataKey& key : registry.AvailableKeys()) {
        std::shared_ptr<const MetadataDescriptor> desc = registry.Find(key);
        if (desc == nullptr) continue;
        RecordEncoder body;
        body.PutString(provider->label());
        EncodeDescriptorImage(&body, MakeDescriptorImage(*desc));
        AppendSnapshotRecord(&content, DurabilityRecordType::kDefine,
                             watermark, body);
        ++record_count;
      }
      for (const MetadataKey& key : registry.IncludedKeys()) {
        std::shared_ptr<MetadataHandler> handler = registry.GetHandler(key);
        if (handler == nullptr || handler->retired()) continue;
        if (handler->external_refs() > 0) {
          RecordEncoder body;
          body.PutString(provider->label());
          body.PutString(key);
          body.PutU32(static_cast<uint32_t>(handler->external_refs()));
          AppendSnapshotRecord(&content,
                               DurabilityRecordType::kSubscribeCount,
                               watermark, body);
          ++record_count;
        }
        MetadataValue value = MetadataManager::PeekValue(*handler);
        Timestamp updated = handler->last_updated();
        if (!value.is_null() && updated != kTimestampNever) {
          RecordEncoder body;
          body.PutString(provider->label());
          body.PutString(key);
          EncodeValue(&body, value);
          body.PutI64(manager_.clock().ToWallMicros(updated));
          AppendSnapshotRecord(&content, DurabilityRecordType::kValue,
                               watermark, body);
          ++record_count;
        }
      }
    }
    {
      RecordEncoder body;
      body.PutU64(record_count + 1);  // including the end record itself
      AppendSnapshotRecord(&content, DurabilityRecordType::kSnapshotEnd,
                           watermark, body);
    }
  }

  KillPoint("checkpoint.before_snapshot");
  PIPES_RETURN_NOT_OK(WriteFileDurably(SnapshotPath(new_gen), content));
  KillPoint("checkpoint.before_rotate");
  {
    MutexLock j(journal_mu_);
    PIPES_RETURN_NOT_OK(FlushLocked(true));
    // Open the new generation *before* closing the old one: if Create fails
    // (ENOSPC, ...) the old journal stays installed and open, so mutations
    // keep journaling — the failure degrades to "stale snapshot horizon",
    // never to silently-unjournaled. The early return also skips pruning,
    // so nothing replay needs is unlinked after a partial rotation.
    Result<std::unique_ptr<JournalWriter>> writer =
        JournalWriter::Create(JournalPath(new_gen), kJournalMagic, new_gen);
    if (!writer.ok()) return writer.status();
    if (journal_ != nullptr) {
      // The buffer was flushed+fsynced above, so a close failure cannot
      // drop records; still worth counting.
      Status closed = journal_->Close(true);
      if (!closed.ok()) NoteWriteFailure("journal rotation close", closed);
    }
    journal_ = std::move(writer.value());
    current_generation_ = new_gen;
  }
  KillPoint("checkpoint.after_rotate");

  // Prune: keep the newest kSnapshotGenerationsKept snapshots, and every
  // journal generation >= (oldest kept snapshot - 1). A snapshot's
  // stragglers — records with lsn > watermark appended between its gather
  // and the rotation — live in the *previous* journal generation, hence the
  // -1 horizon.
  constexpr int keep = kSnapshotGenerationsKept;
  std::vector<uint64_t> snapshots = ListGenerations(config_.dir, "snapshot");
  uint64_t min_kept_snapshot = new_gen;
  if (snapshots.size() > static_cast<size_t>(keep)) {
    for (size_t i = 0; i + keep < snapshots.size(); ++i) {
      ::unlink(SnapshotPath(snapshots[i]).c_str());
    }
    snapshots.erase(snapshots.begin(), snapshots.end() - keep);
  }
  if (!snapshots.empty()) min_kept_snapshot = snapshots.front();
  uint64_t journal_horizon =
      min_kept_snapshot > 0 ? min_kept_snapshot - 1 : 0;
  for (uint64_t gen : ListGenerations(config_.dir, "journal")) {
    if (gen < journal_horizon) ::unlink(JournalPath(gen).c_str());
  }
  // Makes the unlinks and the new journal's directory entry durable; on
  // failure the checkpoint is reported failed (and counted by the caller)
  // even though the snapshot file itself landed.
  PIPES_RETURN_NOT_OK(SyncDir(config_.dir));
  return Status::OK();
}

DurabilityStats MetadataDurability::stats() const {
  DurabilityStats s;
  s.journal_records = stats_records_.load(std::memory_order_relaxed);
  s.journal_bytes = stats_bytes_.load(std::memory_order_relaxed);
  s.fsyncs = stats_fsyncs_.load(std::memory_order_relaxed);
  s.group_flushes = stats_flushes_.load(std::memory_order_relaxed);
  s.checkpoints = stats_checkpoints_.load(std::memory_order_relaxed);
  s.last_checkpoint_duration =
      stats_checkpoint_duration_.load(std::memory_order_relaxed);
  s.journal_write_failures =
      stats_write_failures_.load(std::memory_order_relaxed);
  s.checkpoint_failures =
      stats_checkpoint_failures_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_acquire);
  MutexLock lock(journal_mu_);
  s.current_generation = current_generation_;
  return s;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

namespace {

/// Accumulated image of one metadata item while folding snapshot + journals.
struct ItemImage {
  bool defined = false;
  DescriptorImage desc;
  uint32_t sub_count = 0;
  bool has_value = false;
  MetadataValue value;
  int64_t wall_ts = 0;
};

using ProviderImage = std::map<std::string, ItemImage>;  // by key
using RecoveryImage = std::map<std::string, ProviderImage>;  // by label

/// Applies one record to the image. Returns false on undecodable bodies.
bool ApplyRecord(RecoveryImage* image, DurabilityRecordType type,
                 RecordDecoder* dec) {
  switch (type) {
    case DurabilityRecordType::kDefine: {
      std::string label;
      DescriptorImage desc;
      if (!dec->GetString(&label)) return false;
      if (!DecodeDescriptorImage(dec, &desc)) return false;
      ItemImage& item = (*image)[label][desc.key];
      item.defined = true;
      item.desc = std::move(desc);
      return true;
    }
    case DurabilityRecordType::kUndefine: {
      std::string label, key;
      if (!dec->GetString(&label) || !dec->GetString(&key)) return false;
      auto it = image->find(label);
      if (it != image->end()) it->second.erase(key);
      return true;
    }
    case DurabilityRecordType::kSubscribe: {
      std::string label, key;
      if (!dec->GetString(&label) || !dec->GetString(&key)) return false;
      (*image)[label][key].sub_count += 1;
      return true;
    }
    case DurabilityRecordType::kUnsubscribe: {
      std::string label, key;
      if (!dec->GetString(&label) || !dec->GetString(&key)) return false;
      ItemImage& item = (*image)[label][key];
      if (item.sub_count > 0) item.sub_count -= 1;
      return true;
    }
    case DurabilityRecordType::kRetire: {
      // A retired handler is frozen for good; recovery must not resurrect
      // its subscriptions (the owner was being torn down).
      std::string label, key;
      if (!dec->GetString(&label) || !dec->GetString(&key)) return false;
      (*image)[label][key].sub_count = 0;
      return true;
    }
    case DurabilityRecordType::kValue: {
      std::string label, key;
      MetadataValue value;
      int64_t wall_ts = 0;
      if (!dec->GetString(&label) || !dec->GetString(&key)) return false;
      if (!DecodeValue(dec, &value)) return false;
      if (!dec->GetI64(&wall_ts)) return false;
      ItemImage& item = (*image)[label][key];
      item.has_value = true;
      item.value = std::move(value);
      item.wall_ts = wall_ts;
      return true;
    }
    case DurabilityRecordType::kProviderGone: {
      std::string label;
      if (!dec->GetString(&label)) return false;
      image->erase(label);
      return true;
    }
    case DurabilityRecordType::kSubscribeCount: {
      std::string label, key;
      uint32_t count = 0;
      if (!dec->GetString(&label) || !dec->GetString(&key)) return false;
      if (!dec->GetU32(&count)) return false;
      (*image)[label][key].sub_count = count;
      return true;
    }
    case DurabilityRecordType::kSnapshotBegin:
    case DurabilityRecordType::kSnapshotEnd:
      return true;  // structural markers, no image effect
  }
  return false;
}

/// A snapshot scan is usable iff framing and bracketing are intact.
bool SnapshotComplete(const JournalScan& scan, uint64_t* watermark) {
  if (!scan.header_ok || scan.torn_tail || scan.corrupt_records > 0 ||
      scan.records.size() < 2) {
    return false;
  }
  DurabilityRecordType type;
  uint64_t lsn = 0;
  {
    RecordDecoder dec(scan.records.front().payload);
    if (!ParseRecordHead(scan.records.front().payload, &type, &lsn, &dec) ||
        type != DurabilityRecordType::kSnapshotBegin ||
        !dec.GetU64(watermark)) {
      return false;
    }
  }
  RecordDecoder dec(scan.records.back().payload);
  uint64_t declared = 0;
  if (!ParseRecordHead(scan.records.back().payload, &type, &lsn, &dec) ||
      type != DurabilityRecordType::kSnapshotEnd || !dec.GetU64(&declared)) {
    return false;
  }
  return declared == scan.records.size();
}

/// Builds the shell/static descriptor recovery defines for one item.
MetadataDescriptor BuildRecoveredDescriptor(
    const std::string& label, const ItemImage& item,
    const std::map<std::string, MetadataProvider*>& by_label,
    bool* is_shell) {
  const DescriptorImage& img = item.desc;
  UpdateMechanism mechanism = static_cast<UpdateMechanism>(img.mechanism);
  *is_shell = mechanism != UpdateMechanism::kStatic;
  MetadataDescriptor desc = [&] {
    switch (mechanism) {
      case UpdateMechanism::kStatic:
        return MetadataDescriptor::Static(img.key, img.static_value);
      case UpdateMechanism::kOnDemand:
        return MetadataDescriptor::OnDemand(img.key);
      case UpdateMechanism::kPeriodic:
        return MetadataDescriptor::Periodic(img.key, img.period);
      case UpdateMechanism::kTriggered:
        return MetadataDescriptor::Triggered(img.key);
    }
    return MetadataDescriptor::OnDemand(img.key);
  }();
  // The fluent setters mutate in place and return the descriptor as an
  // rvalue; the returns are discarded so the setters compose with the
  // conditionals below.
  if (*is_shell) {
    std::string key = img.key;
    (void)std::move(desc).WithEvaluator(
        [label, key](EvalContext&) -> MetadataValue {
          throw RecoveryPendingError(label, key);
        });
  }
  // Dynamic resolvers are code and cannot be persisted: such items come
  // back dependency-less (has_dynamic_deps documents why).
  if (!img.deps.empty() && !img.has_dynamic_deps) {
    std::vector<DependencySpec> specs;
    for (const DependencySpecImage& d : img.deps) {
      DependencySpec spec;
      spec.target = static_cast<DependencySpec::Target>(d.target);
      spec.index = d.index;
      spec.module = d.module;
      spec.key = d.key;
      if (spec.target == DependencySpec::Target::kExplicit) {
        auto it = by_label.find(d.provider_label);
        if (it == by_label.end()) continue;  // unresolvable explicit target
        spec.provider = it->second;
        spec.provider_label = d.provider_label;
      }
      specs.push_back(std::move(spec));
    }
    if (!specs.empty()) (void)std::move(desc).DependsOn(std::move(specs));
  }
  (void)std::move(desc).WithRetryPolicy(item.desc.retry);
  if (!img.fallback.is_null()) {
    (void)std::move(desc).WithFallbackValue(img.fallback);
  }
  if (img.max_staleness > 0) {
    (void)std::move(desc).WithMaxStaleness(img.max_staleness);
  }
  if (!img.description.empty()) {
    (void)std::move(desc).WithDescription(img.description);
  }
  if (*is_shell) (void)std::move(desc).AsRecoveredShell();
  return desc;
}

}  // namespace

Result<RecoveryReport> MetadataDurability::Recover(
    MetadataManager& manager, const std::string& dir,
    const std::vector<MetadataProvider*>& providers) {
  Timestamp t0 = manager.clock().Now();
  RecoveryReport report;
  RecoveryImage image;
  uint64_t watermark = 0;

  // Newest complete snapshot wins; a damaged newest falls back one
  // generation (the previous snapshot plus the journals covering the gap
  // reconstruct the same state).
  std::vector<uint64_t> snapshots = ListGenerations(dir, "snapshot");
  bool skipped_newer = false;
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    Result<JournalScan> scan =
        ScanJournalFile(GenerationPath(dir, "snapshot", *it), kSnapshotMagic);
    uint64_t candidate_watermark = 0;
    if (!scan.ok() || !SnapshotComplete(*scan, &candidate_watermark)) {
      skipped_newer = true;
      continue;
    }
    for (const ScannedRecord& rec : scan->records) {
      DurabilityRecordType type;
      uint64_t lsn = 0;
      RecordDecoder dec(rec.payload);
      if (!ParseRecordHead(rec.payload, &type, &lsn, &dec)) continue;
      ApplyRecord(&image, type, &dec);
    }
    watermark = candidate_watermark;
    report.snapshot_generation = *it;
    report.used_fallback_snapshot = skipped_newer;
    break;
  }

  // Replay every retained journal in generation order, filtered by the
  // watermark: records already reflected in the snapshot are skipped by
  // LSN, so overlap between a snapshot and its predecessor journals is
  // harmless. Torn tails are truncated on disk — a half-written frame must
  // not resurface as data on the next scan.
  for (uint64_t gen : ListGenerations(dir, "journal")) {
    std::string path = GenerationPath(dir, "journal", gen);
    Result<JournalScan> scan = ScanJournalFile(path, kJournalMagic);
    if (!scan.ok()) continue;
    if (!scan->header_ok) {
      report.corrupt_records_skipped += 1;
      continue;
    }
    report.corrupt_records_skipped += scan->corrupt_records;
    if (scan->torn_tail) {
      report.torn_bytes_truncated += scan->file_bytes - scan->valid_bytes;
      TruncateFileTo(path, scan->valid_bytes);
    }
    for (const ScannedRecord& rec : scan->records) {
      DurabilityRecordType type;
      uint64_t lsn = 0;
      RecordDecoder dec(rec.payload);
      if (!ParseRecordHead(rec.payload, &type, &lsn, &dec)) {
        report.corrupt_records_skipped += 1;
        continue;
      }
      if (lsn <= watermark) continue;
      if (!ApplyRecord(&image, type, &dec)) {
        report.corrupt_records_skipped += 1;
        continue;
      }
      report.journal_records_replayed += 1;
    }
  }

  // Phase A: definitions. Items the application already re-defined keep the
  // application's (real) descriptor; everything else is defined from the
  // image — statics with their real value, the rest as recovered shells.
  std::map<std::string, MetadataProvider*> by_label;
  for (MetadataProvider* p : providers) {
    if (p != nullptr) by_label[p->label()] = p;
  }
  for (const auto& [label, items] : image) {
    auto found = by_label.find(label);
    if (found == by_label.end()) {
      if (!items.empty()) report.unresolved_providers.push_back(label);
      continue;
    }
    MetadataProvider* provider = found->second;
    if (provider->metadata_manager() == nullptr) {
      provider->AttachMetadataManager(&manager);
    }
    for (const auto& [key, item] : items) {
      if (!item.defined) continue;
      if (provider->metadata_registry().IsAvailable(key)) continue;
      bool is_shell = false;
      MetadataDescriptor desc =
          BuildRecoveredDescriptor(label, item, by_label, &is_shell);
      if (!provider->metadata_registry().Define(std::move(desc)).ok()) {
        continue;
      }
      report.definitions_restored += 1;
      if (is_shell) report.shells_defined += 1;
    }
  }

  // Phase B: subscriptions, through the ordinary Subscribe path so the
  // dependency graph, handlers, and wave plans rebuild exactly as they
  // would have for live consumers. The report owns the subscriptions.
  for (const auto& [label, items] : image) {
    auto found = by_label.find(label);
    if (found == by_label.end()) continue;
    MetadataProvider* provider = found->second;
    for (const auto& [key, item] : items) {
      if (!item.defined || item.sub_count == 0) continue;
      if (!provider->metadata_registry().IsAvailable(key)) continue;
      for (uint32_t i = 0; i < item.sub_count; ++i) {
        Result<MetadataSubscription> sub = manager.Subscribe(*provider, key);
        if (!sub.ok()) break;
        report.subscriptions.push_back(std::move(sub.value()));
        report.subscriptions_restored += 1;
      }
    }
  }

  // Phase C: last-known-good values, injected only where activation did not
  // already produce one (shells throw; statics re-store their value). The
  // persisted wall-clock timestamp maps into the live clock's domain, so
  // staleness reflects true age across the restart.
  for (const auto& [label, items] : image) {
    auto found = by_label.find(label);
    if (found == by_label.end()) continue;
    MetadataProvider* provider = found->second;
    for (const auto& [key, item] : items) {
      if (!item.has_value) continue;
      std::shared_ptr<MetadataHandler> handler =
          provider->metadata_registry().GetHandler(key);
      if (handler == nullptr) continue;
      if (!MetadataManager::PeekValue(*handler).is_null()) continue;
      Timestamp ts = manager.clock().FromWallMicros(item.wall_ts);
      manager.InjectRecoveredValue(*handler, item.value, ts);
      report.values_restored += 1;
    }
  }

  report.recovery_duration = manager.clock().Now() - t0;
  return report;
}

}  // namespace pipes
