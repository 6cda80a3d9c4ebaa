/// Durability layer: journal record codec, container scanning, torn-tail
/// truncation, checkpoint/restore with older-generation fallback, full
/// enable -> mutate -> recover round trips (definitions, subscriptions,
/// values, staleness across a simulated restart), and a fork()-based
/// crash matrix that kills a child process at every kill-point site and
/// verifies that everything acknowledged before the crash is restored.

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/fault_injection.h"
#include "common/journal.h"
#include "metadata/handler.h"
#include "metadata/persistence.h"
#include "test_support.h"

#if defined(__SANITIZE_THREAD__)
#define PIPES_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PIPES_TSAN 1
#endif
#endif

namespace pipes {
namespace {

using testing::MetaFixture;
using testing::SimpleProvider;

/// Unique on-disk scratch directory, removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/pipes_durability_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    if (p != nullptr) path = p;
  }
  ~TempDir() {
    if (!path.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  }
};

std::vector<std::string> FilesWithPrefix(const std::string& dir,
                                         const std::string& prefix) {
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    std::string name = e.path().filename().string();
    if (name.rfind(prefix, 0) == 0) out.push_back(e.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

DurabilityConfig EveryRecordConfig(const std::string& dir) {
  DurabilityConfig cfg;
  cfg.dir = dir;
  cfg.fsync_policy = FsyncPolicy::kEveryRecord;
  cfg.checkpoint_period = 0;  // manual CheckpointNow only
  return cfg;
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

TEST(DurabilityCodecTest, ValueRoundTrip) {
  const MetadataValue cases[] = {
      MetadataValue::Null(), MetadataValue(true),    MetadataValue(false),
      MetadataValue(-42),    MetadataValue(2.75),    MetadataValue("hello"),
      MetadataValue(""),     MetadataValue(int64_t{1} << 60),
  };
  RecordEncoder enc;
  for (const MetadataValue& v : cases) EncodeValue(&enc, v);
  RecordDecoder dec(enc.buffer());
  for (const MetadataValue& want : cases) {
    MetadataValue got;
    ASSERT_TRUE(DecodeValue(&dec, &got));
    EXPECT_EQ(got.is_null(), want.is_null());
    EXPECT_EQ(got.is_bool(), want.is_bool());
    EXPECT_EQ(got.is_int(), want.is_int());
    EXPECT_EQ(got.is_double(), want.is_double());
    EXPECT_EQ(got.is_string(), want.is_string());
    if (want.is_bool()) {
      EXPECT_EQ(got.AsBool(), want.AsBool());
    }
    if (want.is_int()) {
      EXPECT_EQ(got.AsInt(), want.AsInt());
    }
    if (want.is_double()) {
      EXPECT_EQ(got.AsDouble(), want.AsDouble());
    }
    if (want.is_string()) {
      EXPECT_EQ(got.AsString(), want.AsString());
    }
  }
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(DurabilityCodecTest, DescriptorImageRoundTrip) {
  MetadataDescriptor desc =
      MetadataDescriptor::Periodic("rate", 50 * kMicrosPerMilli)
          .DependsOnUpstream(1, "input.rate")
          .WithEvaluator([](EvalContext&) -> MetadataValue { return 1.0; })
          .WithRetryPolicy({2, 5, 3, 7 * kMicrosPerMilli, 1.5,
                            2 * kMicrosPerSecond, 0.25})
          .WithFallbackValue(9.5)
          .WithMaxStaleness(250 * kMicrosPerMilli)
          .WithDescription("measured input rate");
  DescriptorImage img = MakeDescriptorImage(desc);

  RecordEncoder enc;
  EncodeDescriptorImage(&enc, img);
  RecordDecoder dec(enc.buffer());
  DescriptorImage got;
  ASSERT_TRUE(DecodeDescriptorImage(&dec, &got));

  EXPECT_EQ(got.key, "rate");
  EXPECT_EQ(got.mechanism, img.mechanism);
  EXPECT_EQ(got.period, 50 * kMicrosPerMilli);
  EXPECT_FALSE(got.has_dynamic_deps);
  ASSERT_EQ(got.deps.size(), 1u);
  EXPECT_EQ(got.deps[0].target, img.deps[0].target);
  EXPECT_EQ(got.deps[0].index, 1);
  EXPECT_EQ(got.deps[0].key, "input.rate");
  EXPECT_EQ(got.retry.failures_to_degrade, 2);
  EXPECT_EQ(got.retry.failures_to_quarantine, 5);
  EXPECT_EQ(got.retry.successes_to_recover, 3);
  EXPECT_EQ(got.retry.initial_backoff, 7 * kMicrosPerMilli);
  EXPECT_DOUBLE_EQ(got.retry.backoff_multiplier, 1.5);
  EXPECT_EQ(got.retry.max_backoff, 2 * kMicrosPerSecond);
  EXPECT_DOUBLE_EQ(got.retry.backoff_jitter, 0.25);
  EXPECT_EQ(got.fallback.AsDouble(), 9.5);
  EXPECT_EQ(got.max_staleness, 250 * kMicrosPerMilli);
  EXPECT_EQ(got.description, "measured input rate");
}

TEST(DurabilityCodecTest, DynamicDependenciesAreFlagged) {
  MetadataDescriptor desc =
      MetadataDescriptor::Triggered("derived")
          .WithDynamicDependencies(
              [](ResolutionContext&) { return std::vector<MetadataRef>{}; })
          .WithEvaluator([](EvalContext&) -> MetadataValue { return 0.0; });
  DescriptorImage img = MakeDescriptorImage(desc);
  EXPECT_TRUE(img.has_dynamic_deps);
  EXPECT_TRUE(img.deps.empty());
}

TEST(DurabilityCodecTest, TruncatedImageIsRejected) {
  DescriptorImage img;
  img.key = "x";
  img.deps.push_back({0, 3, "", "", "dep.key"});
  RecordEncoder enc;
  EncodeDescriptorImage(&enc, img);
  for (size_t cut = 0; cut < enc.size(); ++cut) {
    RecordDecoder dec(std::string_view(enc.buffer()).substr(0, cut));
    DescriptorImage out;
    EXPECT_FALSE(DecodeDescriptorImage(&dec, &out)) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Container scanning and file faults
// ---------------------------------------------------------------------------

TEST(JournalFileTest, WriteScanRoundTrip) {
  TempDir tmp;
  std::string path = tmp.path + "/journal-test";
  auto writer = JournalWriter::Create(path, kJournalMagic, 7);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Append("alpha").ok());
  ASSERT_TRUE(writer.value()->Append("bee").ok());
  ASSERT_TRUE(writer.value()->Append(std::string(1000, 'z')).ok());
  ASSERT_TRUE(writer.value()->Close(true).ok());

  auto scan = ScanJournalFile(path, kJournalMagic);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().header_ok);
  EXPECT_EQ(scan.value().generation, 7u);
  ASSERT_EQ(scan.value().records.size(), 3u);
  EXPECT_EQ(scan.value().records[0].payload, "alpha");
  EXPECT_EQ(scan.value().records[1].payload, "bee");
  EXPECT_EQ(scan.value().records[2].payload.size(), 1000u);
  EXPECT_FALSE(scan.value().torn_tail);
  EXPECT_EQ(scan.value().corrupt_records, 0u);
  EXPECT_EQ(scan.value().valid_bytes, scan.value().file_bytes);

  // Wrong magic: header rejected, nothing recoverable.
  auto wrong = ScanJournalFile(path, kSnapshotMagic);
  ASSERT_TRUE(wrong.ok());
  EXPECT_FALSE(wrong.value().header_ok);
  EXPECT_TRUE(wrong.value().records.empty());
}

TEST(JournalFileTest, TornTailIsDetectedAndOnlyTail) {
  TempDir tmp;
  std::string path = tmp.path + "/journal-torn";
  auto writer = JournalWriter::Create(path, kJournalMagic, 1);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Append("first-record").ok());
  ASSERT_TRUE(writer.value()->Append("second-record").ok());
  ASSERT_TRUE(writer.value()->Append("third-record-lost").ok());
  ASSERT_TRUE(writer.value()->Close(true).ok());

  // Simulate a crash mid-write of the final frame.
  ASSERT_TRUE(TruncateFileTail(path, 5));
  auto scan = ScanJournalFile(path, kJournalMagic);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().torn_tail);
  EXPECT_EQ(scan.value().corrupt_records, 0u);
  ASSERT_EQ(scan.value().records.size(), 2u);
  EXPECT_EQ(scan.value().records[1].payload, "second-record");
  EXPECT_LT(scan.value().valid_bytes, scan.value().file_bytes);

  // Truncating to valid_bytes (what replay and fsck --repair do) heals it.
  ASSERT_TRUE(TruncateFileTo(path, scan.value().valid_bytes).ok());
  auto again = ScanJournalFile(path, kJournalMagic);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().torn_tail);
  EXPECT_EQ(again.value().records.size(), 2u);
}

TEST(JournalFileTest, CorruptMidFileRecordIsSkippedNotTorn) {
  TempDir tmp;
  std::string path = tmp.path + "/journal-corrupt";
  auto writer = JournalWriter::Create(path, kJournalMagic, 1);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Append("aaaa").ok());
  ASSERT_TRUE(writer.value()->Append("bbbb").ok());
  ASSERT_TRUE(writer.value()->Append("cccc").ok());
  ASSERT_TRUE(writer.value()->Close(true).ok());

  auto pristine = ScanJournalFile(path, kJournalMagic);
  ASSERT_TRUE(pristine.ok());
  ASSERT_EQ(pristine.value().records.size(), 3u);
  // At-rest corruption inside the *middle* record's payload.
  uint64_t payload_off = pristine.value().records[1].offset + kFrameHeaderSize;
  ASSERT_TRUE(FlipFileBit(path, payload_off, 2));

  auto scan = ScanJournalFile(path, kJournalMagic);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan.value().torn_tail);
  EXPECT_EQ(scan.value().corrupt_records, 1u);
  ASSERT_EQ(scan.value().records.size(), 2u);
  EXPECT_EQ(scan.value().records[0].payload, "aaaa");
  EXPECT_EQ(scan.value().records[1].payload, "cccc");
}

// ---------------------------------------------------------------------------
// Clock wall anchor (restart-stable timestamps)
// ---------------------------------------------------------------------------

TEST(ClockWallAnchorTest, SystemClockAnchorsAtRealtime) {
  SystemClock clock;
  EXPECT_GT(clock.wall_anchor_micros(), 0);
  // Round trip is the identity on this clock's own timeline.
  EXPECT_EQ(clock.FromWallMicros(clock.ToWallMicros(12345)), 12345);
}

TEST(ClockWallAnchorTest, VirtualClockAnchorMapsAcrossRestarts) {
  VirtualClock first;
  first.set_wall_anchor(1'000'000);
  int64_t committed_wall = first.ToWallMicros(400);  // value stored at t=400
  EXPECT_EQ(committed_wall, 1'000'400);

  // "Second process" boots 5 s of wall time later: the recovered timestamp
  // lands before its local zero, so staleness reads as real age.
  VirtualClock second;
  second.set_wall_anchor(6'000'000);
  Timestamp recovered = second.FromWallMicros(committed_wall);
  EXPECT_EQ(recovered, -4'999'600);
  EXPECT_GT(second.Now() - recovered, 0);

  // Default clocks have no anchor: timestamps round-trip unchanged.
  VirtualClock bare;
  EXPECT_EQ(bare.ToWallMicros(77), 77);
  EXPECT_EQ(bare.FromWallMicros(77), 77);
}

// ---------------------------------------------------------------------------
// End-to-end checkpoint/recovery
// ---------------------------------------------------------------------------

/// First-process workload shared by the recovery tests: three items
/// (static config, on-demand rate, periodic gauge), one subscription each
/// (+1 extra on "rate"), committed values, planned shutdown.
void RunFirstProcess(const std::string& dir, bool extra_checkpoint = false) {
  MetaFixture fx;
  fx.scheduler.virtual_clock().set_wall_anchor(1'000'000'000);
  SimpleProvider p("src");
  ASSERT_TRUE(
      p.metadata_registry().Define(MetadataDescriptor::Static("cfg", 7.5)).ok());
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("rate").WithEvaluator(
                      [](EvalContext&) -> MetadataValue { return 42.0; }))
                  .ok());
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Periodic("gauge",
                                                       50 * kMicrosPerMilli)
                              .WithEvaluator([](EvalContext&) -> MetadataValue {
                                return 3.25;
                              })
                              .WithMaxStaleness(400 * kMicrosPerMilli))
                  .ok());

  ASSERT_TRUE(fx.manager.EnableDurability(EveryRecordConfig(dir), {&p}).ok());
  ASSERT_TRUE(fx.manager.durability_enabled());

  auto cfg_sub = fx.manager.Subscribe(p, "cfg");
  auto rate_sub = fx.manager.Subscribe(p, "rate");
  auto rate_sub2 = fx.manager.Subscribe(p, "rate");
  auto gauge_sub = fx.manager.Subscribe(p, "gauge");
  ASSERT_TRUE(cfg_sub.ok() && rate_sub.ok() && rate_sub2.ok() &&
              gauge_sub.ok());
  EXPECT_EQ(rate_sub.value().GetDouble(), 42.0);  // commits the value
  fx.RunFor(120 * kMicrosPerMilli);               // periodic refreshes commit
  EXPECT_EQ(gauge_sub.value().GetDouble(), 3.25);

  if (extra_checkpoint) {
    ASSERT_TRUE(fx.manager.durability()->CheckpointNow().ok());
  }

  auto stats = fx.manager.stats();
  EXPECT_TRUE(stats.durability_enabled);
  EXPECT_GT(stats.journal_records, 0u);
  EXPECT_GT(stats.journal_bytes, 0u);
  EXPECT_GE(stats.checkpoints, extra_checkpoint ? 2u : 1u);
  EXPECT_GT(stats.snapshot_generation, 0u);

  // Planned shutdown: stop journaling *first*, so the teardown of the
  // subscriptions and the provider below is not recorded (documented way
  // to preserve durable state across a restart).
  fx.manager.DisableDurability();
  EXPECT_FALSE(fx.manager.durability_enabled());
}

TEST(DurabilityRecoveryTest, FullRoundTripRestoresEverything) {
  TempDir tmp;
  RunFirstProcess(tmp.path);

  // "Second process": fresh everything, booted 5 s of wall time later.
  MetaFixture fx;
  fx.scheduler.virtual_clock().set_wall_anchor(1'005'000'000);
  SimpleProvider p("src");

  auto rep = fx.manager.RecoverFrom(tmp.path, {&p});
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const RecoveryReport& r = rep.value();

  EXPECT_EQ(r.definitions_restored, 3u);
  EXPECT_EQ(r.shells_defined, 2u);  // rate + gauge; cfg is a real static
  EXPECT_EQ(r.subscriptions_restored, 4u);
  EXPECT_EQ(r.subscriptions.size(), 4u);
  EXPECT_EQ(r.values_restored, 2u);  // static cfg re-materializes by itself
  EXPECT_EQ(r.corrupt_records_skipped, 0u);
  EXPECT_EQ(r.torn_bytes_truncated, 0u);
  EXPECT_TRUE(r.unresolved_providers.empty());
  EXPECT_FALSE(r.used_fallback_snapshot);
  EXPECT_GE(r.recovery_duration, 0);

  // Recovered values are served immediately as last-known-good.
  auto cfg_sub = fx.manager.Subscribe(p, "cfg");
  auto rate_sub = fx.manager.Subscribe(p, "rate");
  auto gauge_sub = fx.manager.Subscribe(p, "gauge");
  ASSERT_TRUE(cfg_sub.ok() && rate_sub.ok() && gauge_sub.ok());
  EXPECT_EQ(cfg_sub.value().GetDouble(), 7.5);
  EXPECT_EQ(rate_sub.value().GetDouble(), 42.0);
  EXPECT_EQ(gauge_sub.value().GetDouble(), 3.25);

  // Staleness is real age across the restart: the values were committed
  // ~5 s of wall time before this process's t=0.
  EXPECT_GT(rate_sub.value().handler()->staleness(fx.Now()),
            4 * kMicrosPerSecond);

  // Shells degrade through fault containment but keep serving the value.
  fx.RunFor(200 * kMicrosPerMilli);  // periodic shell evaluates and throws
  EXPECT_EQ(gauge_sub.value().GetDouble(), 3.25);
  EXPECT_NE(gauge_sub.value().handler()->health(), HandlerHealth::kHealthy);
  EXPECT_GE(gauge_sub.value().handler()->fault_count(), 1u);
}

TEST(DurabilityRecoveryTest, ApplicationRedefinitionWinsOverShell) {
  TempDir tmp;
  RunFirstProcess(tmp.path);

  MetaFixture fx;
  fx.scheduler.virtual_clock().set_wall_anchor(1'005'000'000);
  SimpleProvider p("src");
  // The application re-defines "rate" (with a live evaluator) before
  // recovering: recovery must keep that definition, not shell it.
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("rate").WithEvaluator(
                      [](EvalContext&) -> MetadataValue { return 99.0; }))
                  .ok());

  auto rep = fx.manager.RecoverFrom(tmp.path, {&p});
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.value().definitions_restored, 2u);  // cfg + gauge only
  EXPECT_EQ(rep.value().shells_defined, 1u);        // gauge

  auto rate_sub = fx.manager.Subscribe(p, "rate");
  ASSERT_TRUE(rate_sub.ok());
  // The live evaluator serves fresh values; no RecoveryPendingError here.
  EXPECT_EQ(rate_sub.value().GetDouble(), 99.0);
  EXPECT_EQ(rate_sub.value().handler()->health(), HandlerHealth::kHealthy);
}

TEST(DurabilityRecoveryTest, DroppingTheReportUnsubscribesRecoveredState) {
  TempDir tmp;
  RunFirstProcess(tmp.path);

  MetaFixture fx;
  SimpleProvider p("src");
  {
    auto rep = fx.manager.RecoverFrom(tmp.path, {&p});
    ASSERT_TRUE(rep.ok());
    EXPECT_EQ(fx.manager.stats().active_handlers,
              3u);  // cfg, rate, gauge included
  }
  // The report owned the subscriptions; dropping it releases them.
  EXPECT_EQ(fx.manager.stats().active_handlers, 0u);
}

TEST(DurabilityRecoveryTest, FallsBackOneSnapshotGenerationOnCorruption) {
  TempDir tmp;
  RunFirstProcess(tmp.path, /*extra_checkpoint=*/true);

  auto snapshots = FilesWithPrefix(tmp.path, "snapshot-");
  ASSERT_GE(snapshots.size(), 2u);
  const std::string& newest = snapshots.back();

  // Corrupt a record in the newest snapshot: its CRC fails, the snapshot
  // is incomplete, and recovery must fall back one generation.
  auto scan = ScanJournalFile(newest, kSnapshotMagic);
  ASSERT_TRUE(scan.ok());
  ASSERT_GE(scan.value().records.size(), 2u);
  ASSERT_TRUE(FlipFileBit(
      newest, scan.value().records[1].offset + kFrameHeaderSize, 4));

  MetaFixture fx;
  SimpleProvider p("src");
  auto rep = fx.manager.RecoverFrom(tmp.path, {&p});
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep.value().used_fallback_snapshot);
  EXPECT_EQ(rep.value().definitions_restored, 3u);
  EXPECT_EQ(rep.value().subscriptions_restored, 4u);

  auto rate_sub = fx.manager.Subscribe(p, "rate");
  ASSERT_TRUE(rate_sub.ok());
  EXPECT_EQ(rate_sub.value().GetDouble(), 42.0);
}

TEST(DurabilityRecoveryTest, ReEnableCycleKeepsGenerationsAndLsnsMonotone) {
  // Enable -> Disable -> Enable must behave like two clean durability
  // sessions against one directory: the second enable opens a *newer*
  // generation (no clobbering of the first cycle's files) and continues the
  // LSN stream past everything journaled before the gap, so recovery's
  // last-writer-wins replay order stays correct across the cycle.
  TempDir tmp;
  MetaFixture fx;
  SimpleProvider p("src");
  double rate = 1.0;
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("rate").WithEvaluator(
                      [&rate](EvalContext&) { return MetadataValue(rate); }))
                  .ok());

  // Cycle 1.
  ASSERT_TRUE(fx.manager.EnableDurability(EveryRecordConfig(tmp.path), {&p})
                  .ok());
  auto sub = fx.manager.Subscribe(p, "rate");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub.value().GetDouble(), 1.0);  // journaled commit
  uint64_t gen1 = fx.manager.stats().snapshot_generation;
  EXPECT_GT(gen1, 0u);
  fx.manager.DisableDurability();

  // The gap: values move while durability is off (nothing journaled).
  rate = 2.0;
  fx.RunFor(kMicrosPerMilli);
  EXPECT_EQ(sub.value().GetDouble(), 2.0);

  // Cycle 2.
  ASSERT_TRUE(fx.manager.EnableDurability(EveryRecordConfig(tmp.path), {&p})
                  .ok());
  uint64_t gen2 = fx.manager.stats().snapshot_generation;
  EXPECT_GT(gen2, gen1);
  rate = 3.0;
  fx.RunFor(kMicrosPerMilli);
  EXPECT_EQ(sub.value().GetDouble(), 3.0);  // journaled commit, cycle 2
  fx.manager.DisableDurability();

  // Two journal generations on disk; every record decodes; LSNs strictly
  // increase within each generation AND across the gap.
  struct GenLsns {
    uint64_t generation;
    std::vector<uint64_t> lsns;
  };
  std::vector<GenLsns> gens;
  for (const std::string& path : FilesWithPrefix(tmp.path, "journal-")) {
    auto scan = ScanJournalFile(path, kJournalMagic);
    ASSERT_TRUE(scan.ok()) << path;
    EXPECT_FALSE(scan.value().torn_tail) << path;
    EXPECT_EQ(scan.value().corrupt_records, 0u) << path;
    GenLsns g;
    g.generation = scan.value().generation;
    for (const auto& rec : scan.value().records) {
      RecordDecoder dec(rec.payload);
      uint8_t type = 0;
      uint64_t lsn = 0;
      ASSERT_TRUE(dec.GetU8(&type) && dec.GetU64(&lsn)) << path;
      g.lsns.push_back(lsn);
    }
    // Freshly-rotated journals may be empty (enable opens one, then the
    // initial checkpoint immediately rotates past it) — only generations
    // that carry records participate in the continuity check.
    if (!g.lsns.empty()) gens.push_back(std::move(g));
  }
  ASSERT_GE(gens.size(), 2u);
  std::sort(gens.begin(), gens.end(),
            [](const GenLsns& a, const GenLsns& b) {
              return a.generation < b.generation;
            });
  EXPECT_LT(gens.front().generation, gens.back().generation);
  uint64_t prev = 0;
  for (const GenLsns& g : gens) {
    for (uint64_t lsn : g.lsns) {
      EXPECT_GT(lsn, prev) << "LSN not monotone in generation "
                           << g.generation;
      prev = lsn;
    }
  }

  // And the cycle's net effect recovers: a fresh process sees the last
  // value committed in cycle 2.
  MetadataManager fresh_mgr{fx.scheduler};
  SimpleProvider fresh_p("src");
  auto rep = fresh_mgr.RecoverFrom(tmp.path, {&fresh_p});
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  auto fresh_sub = fresh_mgr.Subscribe(fresh_p, "rate");
  ASSERT_TRUE(fresh_sub.ok());
  EXPECT_EQ(fresh_sub.value().GetDouble(), 3.0);
}

TEST(DurabilityRecoveryTest, TornJournalTailIsTruncatedNotServed) {
  TempDir tmp;
  {
    MetaFixture fx;
    SimpleProvider p("src");
    auto calls = std::make_shared<int>(0);
    ASSERT_TRUE(p.metadata_registry()
                    .Define(MetadataDescriptor::OnDemand("c").WithEvaluator(
                        [calls](EvalContext&) -> MetadataValue {
                          return static_cast<double>(++*calls);
                        }))
                    .ok());
    ASSERT_TRUE(fx.manager.EnableDurability(EveryRecordConfig(tmp.path), {&p})
                    .ok());
    auto sub = fx.manager.Subscribe(p, "c");
    ASSERT_TRUE(sub.ok());
    EXPECT_EQ(sub.value().GetDouble(), 1.0);  // committed
    fx.RunFor(kMicrosPerMilli);
    EXPECT_EQ(sub.value().GetDouble(), 2.0);  // committed last
    fx.manager.DisableDurability();
  }

  // Tear the tail of the newest journal: the half-written value 2.0 frame
  // must be truncated away, never served.
  auto journals = FilesWithPrefix(tmp.path, "journal-");
  ASSERT_FALSE(journals.empty());
  const std::string& newest = journals.back();
  uint64_t before = std::filesystem::file_size(newest);
  ASSERT_TRUE(TruncateFileTail(newest, 5));

  MetaFixture fx;
  SimpleProvider p("src");
  auto rep = fx.manager.RecoverFrom(tmp.path, {&p});
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_GT(rep.value().torn_bytes_truncated, 0u);
  EXPECT_EQ(rep.value().corrupt_records_skipped, 0u);

  auto sub = fx.manager.Subscribe(p, "c");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub.value().GetDouble(), 1.0);  // last *committed* value

  // Replay repaired the file in place: a re-scan is clean and smaller.
  auto scan = ScanJournalFile(newest, kJournalMagic);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan.value().torn_tail);
  EXPECT_LT(scan.value().file_bytes, before);
}

TEST(DurabilityRecoveryTest, CorruptJournalRecordIsSkippedAndCounted) {
  TempDir tmp;
  {
    MetaFixture fx;
    SimpleProvider p("src");
    auto calls = std::make_shared<int>(0);
    ASSERT_TRUE(p.metadata_registry()
                    .Define(MetadataDescriptor::OnDemand("c").WithEvaluator(
                        [calls](EvalContext&) -> MetadataValue {
                          return static_cast<double>(++*calls);
                        }))
                    .ok());
    ASSERT_TRUE(fx.manager.EnableDurability(EveryRecordConfig(tmp.path), {&p})
                    .ok());
    auto sub = fx.manager.Subscribe(p, "c");
    ASSERT_TRUE(sub.ok());
    EXPECT_EQ(sub.value().GetDouble(), 1.0);
    fx.RunFor(kMicrosPerMilli);
    EXPECT_EQ(sub.value().GetDouble(), 2.0);
    fx.manager.DisableDurability();
  }

  // Flip a bit in a mid-file record (the second-to-last): replay must skip
  // it, count it, and still apply the records after it.
  auto journals = FilesWithPrefix(tmp.path, "journal-");
  ASSERT_FALSE(journals.empty());
  const std::string& newest = journals.back();
  auto pristine = ScanJournalFile(newest, kJournalMagic);
  ASSERT_TRUE(pristine.ok());
  ASSERT_GE(pristine.value().records.size(), 2u);
  const auto& victim =
      pristine.value().records[pristine.value().records.size() - 2];
  ASSERT_TRUE(FlipFileBit(newest, victim.offset + kFrameHeaderSize, 1));

  MetaFixture fx;
  SimpleProvider p("src");
  auto rep = fx.manager.RecoverFrom(tmp.path, {&p});
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep.value().corrupt_records_skipped, 1u);
}

TEST(DurabilityRecoveryTest, UnresolvedProviderLabelsAreReported) {
  TempDir tmp;
  RunFirstProcess(tmp.path);

  MetaFixture fx;
  SimpleProvider other("somebody-else");
  auto rep = fx.manager.RecoverFrom(tmp.path, {&other});
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.value().definitions_restored, 0u);
  ASSERT_EQ(rep.value().unresolved_providers.size(), 1u);
  EXPECT_EQ(rep.value().unresolved_providers[0], "src");
}

TEST(DurabilityRecoveryTest, DurabilityIsOffByDefaultAndGuarded) {
  TempDir tmp;
  MetaFixture fx;
  auto stats = fx.manager.stats();
  EXPECT_FALSE(stats.durability_enabled);
  EXPECT_EQ(stats.journal_records, 0u);
  EXPECT_EQ(fx.manager.durability(), nullptr);

  SimpleProvider p("src");
  ASSERT_TRUE(fx.manager.EnableDurability(EveryRecordConfig(tmp.path), {&p})
                  .ok());
  // Double-enable and recover-while-enabled are rejected.
  EXPECT_FALSE(fx.manager.EnableDurability(EveryRecordConfig(tmp.path)).ok());
  EXPECT_FALSE(fx.manager.RecoverFrom(tmp.path, {&p}).ok());
  fx.manager.DisableDurability();
  fx.manager.DisableDurability();  // idempotent
}

// ---------------------------------------------------------------------------
// Failure surfacing and concurrency regressions
// ---------------------------------------------------------------------------

/// Fast journaling config for the concurrency tests: no fsync per record
/// (DisableDurability's closing flush syncs everything), manual checkpoints.
DurabilityConfig NoSyncConfig(const std::string& dir) {
  DurabilityConfig cfg;
  cfg.dir = dir;
  cfg.fsync_policy = FsyncPolicy::kNone;
  cfg.checkpoint_period = 0;
  return cfg;
}

/// Regression: the checkpoint gather used to copy raw provider pointers and
/// dereference them after releasing providers_mu_, so a provider destroyed
/// mid-checkpoint was a use-after-free. The gather now holds providers_mu_
/// across the roster walk, which blocks ~MetadataProvider's teardown
/// notification until the walk is done. Run provider churn against
/// back-to-back checkpoints; ASan/TSan turn a regression into a hard fail.
TEST(DurabilityConcurrencyTest, ProviderTeardownDuringCheckpointIsSafe) {
  TempDir tmp;
  MetaFixture fx;
  ASSERT_TRUE(fx.manager.EnableDurability(NoSyncConfig(tmp.path)).ok());

  std::atomic<bool> done{false};
  std::thread churn([&] {
    for (int i = 0; !done.load(std::memory_order_acquire); ++i) {
      auto p = std::make_unique<SimpleProvider>("churn");
      p->AttachMetadataManager(&fx.manager);
      std::string key = "item" + std::to_string(i % 7);
      ASSERT_TRUE(p->metadata_registry()
                      .Define(MetadataDescriptor::Static(key, 1.0 + i))
                      .ok());
      // ~MetadataProvider -> OnProviderTeardown races the checkpoints.
    }
  });
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(fx.manager.durability()->CheckpointNow().ok());
  }
  done.store(true, std::memory_order_release);
  churn.join();

  EXPECT_FALSE(fx.manager.durability()->stats().degraded);
  fx.manager.DisableDurability();
}

/// Regression (found by the simulation harness, pipes_sim seed replay):
/// checkpoint imaging used to dereference `DependencySpec::provider` to
/// record the dependency's provider label. A descriptor may outlive the
/// provider its explicit dependency names — retire the dependency's provider,
/// then checkpoint — and the image walk then read freed memory. Specs now
/// carry the label captured at construction, so checkpoint-after-retire is an
/// ordinary sequence: the image must still name the dead provider by label
/// and recovery must resolve it against a reborn provider of that label.
TEST(DurabilityConcurrencyTest, CheckpointAfterDependencyProviderTeardown) {
  TempDir tmp;
  MetaFixture fx;
  auto upstream = std::make_unique<SimpleProvider>("upstream");
  SimpleProvider app("app");
  ASSERT_TRUE(upstream->metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("src").WithEvaluator(
                      [](EvalContext&) { return MetadataValue(5.0); }))
                  .ok());
  ASSERT_TRUE(app.metadata_registry()
                  .Define(MetadataDescriptor::Triggered("derived")
                              .DependsOn({DependencySpec::Explicit(
                                  upstream.get(), "src")})
                              .WithEvaluator([](EvalContext& ctx) {
                                return MetadataValue(ctx.Dep(0).AsDouble() + 1);
                              }))
                  .ok());
  ASSERT_TRUE(fx.manager
                  .EnableDurability(NoSyncConfig(tmp.path),
                                    {upstream.get(), &app})
                  .ok());
  {
    auto sub = fx.manager.Subscribe(app, "derived");
    ASSERT_TRUE(sub.ok());
    EXPECT_EQ(sub->GetDouble(), 6.0);
  }

  upstream.reset();  // the Explicit spec in "derived" now points at freed mem
  ASSERT_TRUE(fx.manager.durability()->CheckpointNow().ok());
  fx.manager.DisableDurability();

  // The image must have recorded the dependency by its captured label:
  // recovery against a reborn "upstream" resolves it without complaint.
  MetaFixture fx2;
  SimpleProvider upstream2("upstream");
  SimpleProvider app2("app");
  auto rep = fx2.manager.RecoverFrom(tmp.path, {&upstream2, &app2});
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep.value().unresolved_providers.empty());
  EXPECT_TRUE(app2.metadata_registry().IsAvailable("derived"));
}

/// Regression: Define/Undefine used to journal *after* releasing the
/// registry lock, so two threads mutating the same key could journal in the
/// opposite order of the in-memory mutations — replay would then rebuild
/// the wrong final state. Both now journal under the registry lock; the
/// replayed definition state must match the live registry exactly.
TEST(DurabilityConcurrencyTest, ConcurrentDefineUndefineReplaysToSameState) {
  TempDir tmp;
  bool defined_at_shutdown = false;
  {
    MetaFixture fx;
    SimpleProvider p("src");
    ASSERT_TRUE(fx.manager.EnableDurability(NoSyncConfig(tmp.path), {&p}).ok());

    constexpr int kIters = 2000;
    std::thread definer([&] {
      for (int i = 0; i < kIters; ++i) {
        (void)p.metadata_registry().Define(
            MetadataDescriptor::Static("contended", 1.0));
      }
    });
    std::thread undefiner([&] {
      for (int i = 0; i < kIters; ++i) {
        (void)p.metadata_registry().Undefine("contended");
      }
    });
    definer.join();
    undefiner.join();

    defined_at_shutdown = p.metadata_registry().IsAvailable("contended");
    fx.manager.DisableDurability();
  }

  MetaFixture fx2;
  SimpleProvider p2("src");
  auto rep = fx2.manager.RecoverFrom(tmp.path, {&p2});
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.value().corrupt_records_skipped, 0u);
  EXPECT_EQ(p2.metadata_registry().IsAvailable("contended"),
            defined_at_shutdown);
}

/// A failed journal rotation (here: the next generation's path is occupied
/// by a directory) must surface — counted, degraded-latched — and must keep
/// the *old* journal open so later mutations are still journaled, not
/// silently dropped into a closed writer.
TEST(DurabilityFailureTest, FailedRotationLatchesDegradedAndKeepsJournaling) {
  TempDir tmp;
  bool defined_all = false;
  {
    MetaFixture fx;
    SimpleProvider p("src");
    ASSERT_TRUE(
        p.metadata_registry().Define(MetadataDescriptor::Static("a", 1.0)).ok());
    ASSERT_TRUE(
        fx.manager.EnableDurability(EveryRecordConfig(tmp.path), {&p}).ok());

    // Block the next journal generation with a directory: CheckpointNow's
    // snapshot write succeeds, but JournalWriter::Create fails on it.
    uint64_t gen = fx.manager.durability()->stats().current_generation;
    char name[64];
    std::snprintf(name, sizeof(name), "journal-%020" PRIu64, gen + 1);
    std::string blocker = tmp.path + "/" + name;
    ASSERT_EQ(::mkdir(blocker.c_str(), 0755), 0);

    ASSERT_TRUE(
        p.metadata_registry().Define(MetadataDescriptor::Static("b", 2.0)).ok());
    EXPECT_FALSE(fx.manager.durability()->CheckpointNow().ok());

    auto stats = fx.manager.stats();
    EXPECT_EQ(stats.checkpoint_failures, 1u);
    EXPECT_TRUE(stats.durability_degraded);
    EXPECT_TRUE(fx.manager.durability()->degraded());
    // Generation did not advance: the old journal is still installed.
    EXPECT_EQ(fx.manager.durability()->stats().current_generation, gen);

    // Mutations after the failed rotation still reach the (old) journal.
    ASSERT_TRUE(
        p.metadata_registry().Define(MetadataDescriptor::Static("c", 3.0)).ok());

    // With the blocker gone the next checkpoint succeeds; the degraded
    // latch stays up for the engine's lifetime.
    ASSERT_EQ(::rmdir(blocker.c_str()), 0);
    EXPECT_TRUE(fx.manager.durability()->CheckpointNow().ok());
    EXPECT_TRUE(fx.manager.stats().durability_degraded);

    defined_all = p.metadata_registry().IsAvailable("a") &&
                  p.metadata_registry().IsAvailable("b") &&
                  p.metadata_registry().IsAvailable("c");
    EXPECT_TRUE(defined_all);
    fx.manager.DisableDurability();
  }

  MetaFixture fx2;
  SimpleProvider p2("src");
  auto rep = fx2.manager.RecoverFrom(tmp.path, {&p2});
  ASSERT_TRUE(rep.ok());
  EXPECT_TRUE(p2.metadata_registry().IsAvailable("a"));
  EXPECT_TRUE(p2.metadata_registry().IsAvailable("b"));
  EXPECT_TRUE(p2.metadata_registry().IsAvailable("c"));
}

// ---------------------------------------------------------------------------
// Crash matrix: kill the process at every crash-consistency window and
// verify that everything acknowledged before the kill is restored.
// ---------------------------------------------------------------------------

constexpr const char* kKillSites[] = {
    "journal.flush.before_write",  "journal.flush.before_fsync",
    "journal.flush.after_fsync",   "snapshot.before_fsync",
    "snapshot.before_rename",      "snapshot.after_rename",
    "checkpoint.before_snapshot",  "checkpoint.before_rotate",
    "checkpoint.after_rotate",
};

/// Post-fork child body. Defines/subscribes/commits 20 items under
/// kEveryRecord, acking each to a sidecar file (write+fsync) only after the
/// commit returned; arms the kill point after item 5 and checkpoints at
/// item 10 so both journal-path and checkpoint-path sites fire mid-run.
/// Exits kKillPointExitCode at the site, 0 if it never fired, or a distinct
/// small code on unexpected workload failure. Never returns.
[[noreturn]] void CrashChild(const std::string& dir, const std::string& ack,
                             const std::string& site) {
  int ack_fd = ::open(ack.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (ack_fd < 0) ::_exit(97);
  VirtualTimeScheduler scheduler;
  MetadataManager manager(scheduler);
  SimpleProvider provider("src");
  if (!manager.EnableDurability(EveryRecordConfig(dir), {&provider}).ok()) {
    ::_exit(96);
  }
  std::vector<MetadataSubscription> subs;
  for (int i = 0; i < 20; ++i) {
    if (i == 6) ArmKillPoint(site, 1);
    if (i == 10 && !manager.durability()->CheckpointNow().ok()) ::_exit(95);
    std::string key = "item" + std::to_string(i);
    double value = 100.0 + i;
    bool defined =
        provider.metadata_registry()
            .Define(MetadataDescriptor::OnDemand(key).WithEvaluator(
                [value](EvalContext&) -> MetadataValue { return value; }))
            .ok();
    if (!defined) ::_exit(94);
    auto sub = manager.Subscribe(provider, key);
    if (!sub.ok()) ::_exit(93);
    if (sub.value().GetDouble() != value) ::_exit(92);
    subs.push_back(std::move(sub.value()));
    // Everything above is on disk (kEveryRecord): acknowledge it.
    char line[64];
    int n = std::snprintf(line, sizeof(line), "%s %.1f\n", key.c_str(), value);
    if (::write(ack_fd, line, static_cast<size_t>(n)) != n) ::_exit(91);
    if (::fsync(ack_fd) != 0) ::_exit(90);
  }
  ::_exit(0);  // the armed site never fired
}

TEST(DurabilityCrashMatrixTest, EveryKillPointRecoversAllAckedState) {
#ifdef PIPES_TSAN
  GTEST_SKIP() << "fork-based crash matrix is not TSan-compatible";
#endif
  for (const char* site : kKillSites) {
    SCOPED_TRACE(site);
    TempDir tmp;
    std::string ack_path = tmp.path + "/acked.txt";

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) CrashChild(tmp.path, ack_path, site);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal";
    ASSERT_EQ(WEXITSTATUS(status), kKillPointExitCode)
        << "kill point did not fire (or workload failed)";

    // Parse what the child acknowledged as durably committed.
    std::vector<std::pair<std::string, double>> acked;
    std::ifstream in(ack_path);
    std::string key;
    double value = 0;
    while (in >> key >> value) acked.emplace_back(key, value);
    ASSERT_FALSE(acked.empty());

    // Recover in this (parent) process and check 100% of acked state.
    MetaFixture fx;
    SimpleProvider p("src");
    auto rep = fx.manager.RecoverFrom(tmp.path, {&p});
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_GE(rep.value().definitions_restored, acked.size());
    EXPECT_GE(rep.value().subscriptions_restored, acked.size());
    EXPECT_GE(rep.value().values_restored, acked.size());
    for (const auto& [k, v] : acked) {
      auto sub = fx.manager.Subscribe(p, k);
      ASSERT_TRUE(sub.ok()) << "acked item lost: " << k;
      EXPECT_EQ(sub.value().GetDouble(), v) << k;
    }
  }
}

}  // namespace
}  // namespace pipes
