/// C1 — Chaos: metadata maintenance under evaluator faults.
///
/// A provider maintains one periodic base item ("load", 10 ms window) and
/// eight triggered dependents, with explicit change events fired every 5 ms.
/// A seeded FaultInjector arms every evaluator with a mix of thrown
/// exceptions and NaN results at increasing rates. After the fault phase the
/// injector is disarmed and the harness measures how long quarantined
/// handlers take to return to kHealthy.
///
/// Expectation (fault containment, handler health state machine): the
/// process never crashes, every propagation wave completes (100% completion
/// at a 10% throw rate), faulty handlers serve their last-known-good value
/// with growing staleness, and all handlers recover once faults stop.
///
/// C2 — Chaos: metadata maintenance under overload.
///
/// Three sub-phases exercise the overload-control machinery end to end and
/// write the measurements to BENCH_overload.json:
///  a) saturation: a 2-worker pool is offered 1x/2x/4x/8x its capacity with
///     admission control armed — the queue stays bounded, the excess is
///     rejected, and deadline misses flip the hysteretic overload signal;
///  b) degradation: a brownout stretches periodic cadences, but an item's
///     declared max_staleness caps its stretch — observed staleness never
///     exceeds the bound;
///  c) storm damping: a 1 kHz triggered-event storm collapses into a bounded
///     wave stream (>= 10x reduction) via coalescing plus the batch-refresh
///     circuit breaker.
///
/// C3 — Chaos: durable metadata (journal, checkpoint, crash recovery).
///
/// For registries of 100 / 1 000 / 10 000 items, the harness journals every
/// definition, subscription, and committed value under group commit,
/// checkpoints, tears the whole process state down, and recovers a fresh
/// manager from disk. Measured (real time): journal append throughput,
/// checkpoint duration, on-disk footprint, and recovery time; verified:
/// 100% of committed definitions, subscriptions, and values are restored.
/// Results go to BENCH_durability.json.
///
/// C4 — Chaos: federated metadata over a faulty link.
///
/// Two MetadataManagers on one virtual-time scheduler federate over a
/// LoopbackLink with injected message loss (0 / 10 / 30%) plus one forced
/// partition/heal cycle per run. The server fires a propagation wave every
/// 5 ms for 2 s; the client mirrors the item with a 1 s staleness bound.
/// Expectation: at every sample the mirror either carries the latest
/// published value or serves last-known-good within the staleness bound;
/// the partition opens the peer circuit breaker; after heal + quiesce the
/// mirror reconciles to the latest value with zero duplicate notifications
/// (sequence-suppressed on the wire). Results go to
/// BENCH_remote_metadata.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/support.h"
#include "common/fault_injection.h"
#include "common/journal.h"
#include "metadata/handler.h"
#include "metadata/manager.h"
#include "metadata/persistence.h"
#include "metadata/provider.h"
#include "metadata/remote.h"
#include "net/loopback.h"

namespace pipes::bench {
namespace {

/// A provider whose items live on no stream topology.
class ChaosProvider final : public MetadataProvider {
 public:
  using MetadataProvider::MetadataProvider;
};

constexpr int kDependents = 8;
constexpr Duration kBasePeriod = 10 * kMicrosPerMilli;
constexpr Duration kEventInterval = 5 * kMicrosPerMilli;
constexpr Duration kFaultPhase = 2 * kMicrosPerSecond;
constexpr Duration kRecoveryLimit = 30 * kMicrosPerSecond;

struct RunResult {
  uint64_t waves_attempted = 0;
  uint64_t waves_completed = 0;
  uint64_t faults = 0;
  uint64_t skipped = 0;
  uint64_t quarantines = 0;
  uint64_t recoveries = 0;
  Duration max_staleness = 0;
  Duration recovery_latency = -1;  ///< -1: not all handlers recovered
};

RunResult RunOnce(double throw_p, double nan_p, uint64_t seed) {
  VirtualTimeScheduler scheduler;
  MetadataManager manager(scheduler);
  ChaosProvider p("chaos");
  FaultInjector injector(seed);

  // Quick quarantine, bounded backoff: keeps the recovery phase finite and
  // exercises every health transition within the 2 s fault phase.
  RetryPolicy policy;
  policy.failures_to_degrade = 1;
  policy.failures_to_quarantine = 3;
  policy.successes_to_recover = 2;
  policy.initial_backoff = 20 * kMicrosPerMilli;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = 500 * kMicrosPerMilli;

  auto define = [&](MetadataDescriptor desc, const std::string& scope,
                    Evaluator inner) {
    (void)p.metadata_registry().Define(
        std::move(desc)
            .WithEvaluator(injector.Wrap(scope, std::move(inner)))
            .WithRetryPolicy(policy)
            .WithFallbackValue(0.0));
  };

  define(MetadataDescriptor::Periodic("load", kBasePeriod), "chaos.load",
         [](EvalContext& ctx) {
           return MetadataValue(double(ctx.eval_index() % 100));
         });
  for (int i = 0; i < kDependents; ++i) {
    define(MetadataDescriptor::Triggered("d" + std::to_string(i))
               .DependsOnSelf("load"),
           "chaos.d" + std::to_string(i), [](EvalContext& ctx) {
             return MetadataValue(ctx.DepDouble(0) * 2.0);
           });
  }

  std::vector<MetadataSubscription> subs;
  subs.push_back(manager.Subscribe(p, "load").value());
  for (int i = 0; i < kDependents; ++i) {
    subs.push_back(manager.Subscribe(p, "d" + std::to_string(i)).value());
  }

  FaultSpec spec;
  spec.throw_probability = throw_p;
  spec.nan_probability = nan_p;
  injector.Arm("*", spec);

  RunResult r;
  // Fault phase: periodic ticks run on their own; explicit change events
  // drive one measured wave every 5 ms.
  for (Timestamp t = kEventInterval; t <= kFaultPhase; t += kEventInterval) {
    scheduler.RunUntil(t);
    ++r.waves_attempted;
    try {
      p.FireMetadataEvent("load");
      ++r.waves_completed;
    } catch (...) {
      // An escaped evaluator fault would abort the wave: containment failed.
    }
  }

  Timestamp now = scheduler.clock().Now();
  for (const auto& s : subs) {
    r.max_staleness = std::max(r.max_staleness, s.handler()->staleness(now));
  }

  // Recovery phase: faults stop; waves keep flowing so quarantined handlers
  // get retry probes once their backoff expires.
  injector.DisarmAll();
  auto all_healthy = [&] {
    for (const auto& s : subs) {
      if (s.handler()->health() != HandlerHealth::kHealthy) return false;
    }
    return true;
  };
  for (Timestamp t = now; t <= now + kRecoveryLimit && r.recovery_latency < 0;
       t += kEventInterval) {
    scheduler.RunUntil(t);
    p.FireMetadataEvent("load");
    if (all_healthy()) r.recovery_latency = scheduler.clock().Now() - now;
  }

  auto stats = manager.stats();
  r.faults = stats.eval_failures;
  r.skipped = stats.evals_skipped;
  r.quarantines = stats.quarantines;
  r.recoveries = stats.recoveries;
  return r;
}

void Run() {
  Banner("C1", "chaos: evaluator faults vs. maintenance robustness",
         "waves always complete; faults are contained as staleness; all\n"
         "handlers recover to kHealthy once the injector is disarmed");

  TablePrinter table({"throw %", "nan %", "waves", "completed %", "faults",
                      "skipped evals", "quarantines", "recoveries",
                      "max staleness [ms]", "recovery [ms]"});
  bool ok = true;
  for (double rate : {0.0, 0.05, 0.10, 0.20}) {
    RunResult r = RunOnce(rate, rate / 2, /*seed=*/0xC0FFEE + uint64_t(rate * 100));
    double completion =
        r.waves_attempted == 0
            ? 100.0
            : 100.0 * double(r.waves_completed) / double(r.waves_attempted);
    ok = ok && completion == 100.0 && r.recovery_latency >= 0;
    table.AddRow(
        {TablePrinter::Fmt(rate * 100, 0), TablePrinter::Fmt(rate * 50, 1),
         TablePrinter::Fmt(r.waves_attempted), TablePrinter::Fmt(completion, 1),
         TablePrinter::Fmt(r.faults), TablePrinter::Fmt(r.skipped),
         TablePrinter::Fmt(r.quarantines), TablePrinter::Fmt(r.recoveries),
         TablePrinter::Fmt(double(r.max_staleness) / kMicrosPerMilli, 1),
         r.recovery_latency < 0
             ? std::string("never")
             : TablePrinter::Fmt(double(r.recovery_latency) / kMicrosPerMilli,
                                 1)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("verdict: %s\n",
              ok ? "PASS (100% wave completion, full recovery at all rates)"
                 : "FAIL (wave aborted or handlers never recovered)");
}

// ---------------------------------------------------------------------------
// C2a — scheduler saturation: admission control + deadline accounting
// ---------------------------------------------------------------------------

struct SaturationResult {
  double factor = 1.0;
  uint64_t submitted = 0;
  uint64_t executed = 0;
  uint64_t rejected = 0;
  uint64_t misses = 0;
  size_t max_queue_depth = 0;
  double miss_rate = 0.0;
  bool overloaded = false;
};

SaturationResult RunSaturation(double factor) {
  constexpr int kWorkers = 2;
  static constexpr Duration kTaskCost = 1 * kMicrosPerMilli;  // 1 ms busy spin
  constexpr int kBatchMs = 5;
  constexpr int kBatches = 80;  // 400 ms offered-load phase
  constexpr size_t kMaxPending = 256;

  SchedulerOverloadPolicy policy;
  policy.max_pending = kMaxPending;
  policy.deadline_slack = 10 * kMicrosPerMilli;
  ThreadPoolScheduler scheduler(kWorkers, /*clock=*/nullptr, policy);

  std::atomic<uint64_t> executed{0};
  auto task = [&executed] {
    auto end = std::chrono::steady_clock::now() +
               std::chrono::microseconds(kTaskCost);
    while (std::chrono::steady_clock::now() < end) {
    }
    executed.fetch_add(1, std::memory_order_relaxed);
  };

  // Capacity per batch window: kWorkers tasks of kTaskCost each per
  // kTaskCost of wall clock.
  const int per_batch =
      int(factor * kWorkers * (kBatchMs * kMicrosPerMilli) / kTaskCost);
  SaturationResult r;
  r.factor = factor;
  for (int b = 0; b < kBatches; ++b) {
    Timestamp now = scheduler.clock().Now();
    for (int i = 0; i < per_batch; ++i) {
      ++r.submitted;
      scheduler.ScheduleAt(now, task);
    }
    r.max_queue_depth =
        std::max(r.max_queue_depth, scheduler.stats().queue_depth);
    std::this_thread::sleep_for(std::chrono::milliseconds(kBatchMs));
  }
  // Drain what was admitted.
  for (int i = 0; i < 5000 && scheduler.stats().queue_depth > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SchedulerStats st = scheduler.stats();
  r.executed = executed.load();
  r.rejected = st.tasks_rejected;
  r.misses = st.deadline_misses;
  r.miss_rate = st.miss_rate_ewma;
  r.overloaded = st.overloaded;
  return r;
}

// ---------------------------------------------------------------------------
// C2b — brownout degradation: staleness-bounded cadence stretching
// ---------------------------------------------------------------------------

struct DegradeResult {
  Duration bounded_max = 0;    ///< worst observed staleness, bounded item
  Duration unbounded_max = 0;  ///< worst observed staleness, unbounded item
  uint64_t stretches = 0;
  uint64_t brownout_enters = 0;
  int state = 0;
};

constexpr Duration kDegradeBase = 10 * kMicrosPerMilli;
constexpr Duration kStalenessBound = 50 * kMicrosPerMilli;

DegradeResult RunDegradation() {
  VirtualTimeScheduler scheduler;
  MetadataManager manager(scheduler);
  ChaosProvider p("deg");

  (void)p.metadata_registry().Define(
      MetadataDescriptor::Periodic("bounded", kDegradeBase)
          .WithMaxStaleness(kStalenessBound)
          .WithEvaluator([](EvalContext&) { return MetadataValue(1.0); }));
  (void)p.metadata_registry().Define(
      MetadataDescriptor::Periodic("unbounded", kDegradeBase)
          .WithEvaluator([](EvalContext&) { return MetadataValue(2.0); }));
  auto bounded = manager.Subscribe(p, "bounded").value();
  auto unbounded = manager.Subscribe(p, "unbounded").value();

  // A permanently hot probe drives the governor straight into brownout; the
  // aggressive factor makes the per-item staleness caps do the limiting.
  manager.SetPressureProbe([] { return true; });
  OverloadControlOptions gov;
  gov.governor_period = 50 * kMicrosPerMilli;
  gov.ticks_to_pressure = 1;
  gov.ticks_to_brownout = 2;
  gov.brownout_factor = 16.0;
  manager.EnableOverloadControl(gov);

  DegradeResult r;
  for (Timestamp t = kMicrosPerMilli; t <= 2 * kMicrosPerSecond;
       t += kMicrosPerMilli) {
    scheduler.RunUntil(t);
    Timestamp now = scheduler.clock().Now();
    r.bounded_max = std::max(r.bounded_max, bounded.handler()->staleness(now));
    r.unbounded_max =
        std::max(r.unbounded_max, unbounded.handler()->staleness(now));
  }
  auto stats = manager.stats();
  r.stretches = stats.period_stretches;
  r.brownout_enters = stats.brownout_enters;
  r.state = stats.pressure_state;
  manager.DisableOverloadControl();
  return r;
}

// ---------------------------------------------------------------------------
// C2c — storm damping: 1 kHz event storm vs. bounded wave stream
// ---------------------------------------------------------------------------

struct StormResult {
  uint64_t events = 0;
  uint64_t waves = 0;
  uint64_t coalesced = 0;
  uint64_t flushes = 0;
  uint64_t trips = 0;
};

StormResult RunStorm(bool damped) {
  VirtualTimeScheduler scheduler;
  MetadataManager manager(scheduler);
  ChaosProvider p("storm");

  (void)p.metadata_registry().Define(
      MetadataDescriptor::OnDemand("src").WithEvaluator(
          [](EvalContext& ctx) { return MetadataValue(ctx.eval_index()); }));
  std::vector<MetadataSubscription> subs;
  for (int i = 0; i < 4; ++i) {
    (void)p.metadata_registry().Define(
        MetadataDescriptor::Triggered("d" + std::to_string(i))
            .DependsOnSelf("src")
            .WithEvaluator(
                [](EvalContext& ctx) { return MetadataValue(ctx.Dep(0)); }));
    subs.push_back(manager.Subscribe(p, "d" + std::to_string(i)).value());
  }

  if (damped) {
    StormDampingOptions opts;
    opts.max_waves_per_sec = 50.0;
    opts.burst = 4.0;
    opts.breaker_trip_coalesced = 64;
    opts.breaker_batch_interval = 100 * kMicrosPerMilli;
    manager.EnableStormDamping(opts);
  }

  StormResult r;
  // 1 kHz storm for 2 s.
  for (Timestamp t = kMicrosPerMilli; t <= 2 * kMicrosPerSecond;
       t += kMicrosPerMilli) {
    scheduler.RunUntil(t);
    p.FireMetadataEvent("src");
    ++r.events;
  }
  // Let the trailing coalesced flush drain.
  scheduler.RunFor(300 * kMicrosPerMilli);

  auto stats = manager.stats();
  r.waves = stats.waves;
  r.coalesced = stats.events_coalesced;
  r.flushes = stats.storm_flushes;
  r.trips = stats.breaker_trips;
  return r;
}

void RunOverload() {
  Banner("C2", "chaos: metadata maintenance under overload",
         "bounded queues and explicit rejections at 2x-8x saturation;\n"
         "staleness <= max_staleness per item through a brownout; a 1 kHz\n"
         "event storm collapses >= 10x into a bounded wave stream");

  std::string json = "{\n  \"bench\": \"chaos_metadata overload (C2)\",\n";

  // a) saturation
  TablePrinter sat({"offered load", "submitted", "executed", "rejected",
                    "deadline misses", "max queue depth", "miss-rate ewma",
                    "overloaded"});
  bool queues_bounded = true;
  json += "  \"saturation\": [\n";
  bool first = true;
  for (double factor : {0.5, 2.0, 4.0, 8.0}) {
    SaturationResult r = RunSaturation(factor);
    queues_bounded = queues_bounded && r.max_queue_depth <= 256;
    sat.AddRow({TablePrinter::Fmt(factor, 1) + "x", TablePrinter::Fmt(r.submitted),
                TablePrinter::Fmt(r.executed), TablePrinter::Fmt(r.rejected),
                TablePrinter::Fmt(r.misses),
                TablePrinter::Fmt(uint64_t(r.max_queue_depth)),
                TablePrinter::Fmt(r.miss_rate, 3), r.overloaded ? "yes" : "no"});
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s    {\"factor\": %.1f, \"submitted\": %llu, "
                  "\"executed\": %llu, \"rejected\": %llu, \"misses\": %llu, "
                  "\"max_queue_depth\": %llu, \"miss_rate_ewma\": %.3f, "
                  "\"overloaded\": %s}",
                  first ? "" : ",\n", factor,
                  (unsigned long long)r.submitted, (unsigned long long)r.executed,
                  (unsigned long long)r.rejected, (unsigned long long)r.misses,
                  (unsigned long long)r.max_queue_depth, r.miss_rate,
                  r.overloaded ? "true" : "false");
    json += buf;
    first = false;
  }
  json += "\n  ],\n";
  std::printf("%s\n", sat.ToString().c_str());

  // b) degradation
  DegradeResult d = RunDegradation();
  bool bound_held = d.bounded_max <= kStalenessBound;
  const char* final_state =
      PressureStateToString(static_cast<PressureState>(d.state));
  TablePrinter deg({"item", "base period [ms]", "max_staleness [ms]",
                    "worst observed [ms]", "bound held", "final state"});
  deg.AddRow({"bounded", TablePrinter::Fmt(double(kDegradeBase) / kMicrosPerMilli, 0),
              TablePrinter::Fmt(double(kStalenessBound) / kMicrosPerMilli, 0),
              TablePrinter::Fmt(double(d.bounded_max) / kMicrosPerMilli, 1),
              bound_held ? "yes" : "NO", final_state});
  deg.AddRow({"unbounded", TablePrinter::Fmt(double(kDegradeBase) / kMicrosPerMilli, 0),
              "default x8",
              TablePrinter::Fmt(double(d.unbounded_max) / kMicrosPerMilli, 1),
              d.unbounded_max <= 8 * kDegradeBase ? "yes" : "NO", final_state});
  std::printf("%s\n", deg.ToString().c_str());
  char dbuf[512];
  std::snprintf(dbuf, sizeof(dbuf),
                "  \"degradation\": {\"base_period_ms\": %.0f, "
                "\"max_staleness_ms\": %.0f, \"bounded_worst_ms\": %.1f, "
                "\"unbounded_worst_ms\": %.1f, \"period_stretches\": %llu, "
                "\"brownout_enters\": %llu, \"bound_held\": %s, "
                "\"final_state\": \"%s\"},\n",
                double(kDegradeBase) / kMicrosPerMilli,
                double(kStalenessBound) / kMicrosPerMilli,
                double(d.bounded_max) / kMicrosPerMilli,
                double(d.unbounded_max) / kMicrosPerMilli,
                (unsigned long long)d.stretches,
                (unsigned long long)d.brownout_enters,
                bound_held ? "true" : "false", final_state);
  json += dbuf;

  // c) storm damping
  StormResult undamped = RunStorm(false);
  StormResult dampedr = RunStorm(true);
  double reduction = dampedr.waves > 0
                         ? double(undamped.waves) / double(dampedr.waves)
                         : 0.0;
  TablePrinter storm({"mode", "events", "waves", "coalesced", "flushes",
                      "breaker trips", "reduction"});
  storm.AddRow({"off", TablePrinter::Fmt(undamped.events),
                TablePrinter::Fmt(undamped.waves), TablePrinter::Fmt(undamped.coalesced),
                TablePrinter::Fmt(undamped.flushes), TablePrinter::Fmt(undamped.trips),
                "1.0x"});
  storm.AddRow({"on", TablePrinter::Fmt(dampedr.events),
                TablePrinter::Fmt(dampedr.waves), TablePrinter::Fmt(dampedr.coalesced),
                TablePrinter::Fmt(dampedr.flushes), TablePrinter::Fmt(dampedr.trips),
                TablePrinter::Fmt(reduction, 1) + "x"});
  std::printf("%s\n", storm.ToString().c_str());
  char sbuf[384];
  std::snprintf(sbuf, sizeof(sbuf),
                "  \"storm\": {\"events\": %llu, \"undamped_waves\": %llu, "
                "\"damped_waves\": %llu, \"events_coalesced\": %llu, "
                "\"storm_flushes\": %llu, \"breaker_trips\": %llu, "
                "\"reduction_x\": %.1f}\n}\n",
                (unsigned long long)dampedr.events,
                (unsigned long long)undamped.waves,
                (unsigned long long)dampedr.waves,
                (unsigned long long)dampedr.coalesced,
                (unsigned long long)dampedr.flushes,
                (unsigned long long)dampedr.trips, reduction);
  json += sbuf;

  bool ok = queues_bounded && bound_held && reduction >= 10.0;
  std::printf("verdict: %s\n",
              ok ? "PASS (bounded queues, staleness bound held, >=10x storm "
                   "reduction)"
                 : "FAIL (queue unbounded, staleness bound broken, or <10x "
                   "storm reduction)");

  WriteBenchFile("BENCH_overload.json", json);
}

// ---------------------------------------------------------------------------
// C3: durable metadata
// ---------------------------------------------------------------------------

struct DurabilityResult {
  int items = 0;
  uint64_t journal_records = 0;
  uint64_t journal_bytes = 0;
  uint64_t disk_bytes = 0;  ///< all journal + snapshot files after checkpoint
  double commit_ms = 0;     ///< define + subscribe + commit + flush, real time
  double records_per_sec = 0;
  double checkpoint_ms = 0;
  double recovery_ms = 0;
  uint64_t definitions_restored = 0;
  uint64_t subscriptions_restored = 0;
  uint64_t values_restored = 0;
  bool complete = false;  ///< 100% of committed state restored
};

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

DurabilityResult RunDurability(int items) {
  DurabilityResult r;
  r.items = items;
  char tmpl[] = "/tmp/pipes_bench_durability_XXXXXX";
  char* dirp = ::mkdtemp(tmpl);
  if (dirp == nullptr) return r;
  std::string dir = dirp;

  {
    VirtualTimeScheduler scheduler;
    MetadataManager manager(scheduler);
    ChaosProvider p("node");

    DurabilityConfig cfg;
    cfg.dir = dir;
    cfg.fsync_policy = FsyncPolicy::kInterval;  // group commit
    cfg.checkpoint_period = 0;                  // manual below
    if (!manager.EnableDurability(cfg, {&p}).ok()) return r;

    auto commit_start = std::chrono::steady_clock::now();
    std::vector<MetadataSubscription> subs;
    subs.reserve(items);
    for (int i = 0; i < items; ++i) {
      double value = double(i) + 0.5;
      (void)p.metadata_registry().Define(
          MetadataDescriptor::OnDemand("item" + std::to_string(i))
              .WithEvaluator([value](EvalContext&) -> MetadataValue {
                return value;
              }));
      auto sub = manager.Subscribe(p, "item" + std::to_string(i));
      if (!sub.ok()) return r;
      (void)sub.value().GetDouble();  // evaluate + commit the value
      subs.push_back(std::move(sub.value()));
    }
    (void)manager.durability()->FlushJournal(true);
    r.commit_ms = ElapsedMs(commit_start);

    auto ckpt_start = std::chrono::steady_clock::now();
    if (!manager.durability()->CheckpointNow().ok()) return r;
    r.checkpoint_ms = ElapsedMs(ckpt_start);

    auto stats = manager.stats();
    r.journal_records = stats.journal_records;
    r.journal_bytes = stats.journal_bytes;
    r.records_per_sec =
        r.commit_ms > 0 ? double(stats.journal_records) / (r.commit_ms / 1e3)
                        : 0;
    manager.DisableDurability();  // planned shutdown: keep the state
  }
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    r.disk_bytes += std::filesystem::file_size(e.path());
  }

  // "Second process": recover everything into a fresh manager.
  {
    VirtualTimeScheduler scheduler;
    MetadataManager manager(scheduler);
    ChaosProvider p("node");
    auto recover_start = std::chrono::steady_clock::now();
    auto rep = manager.RecoverFrom(dir, {&p});
    r.recovery_ms = ElapsedMs(recover_start);
    if (rep.ok()) {
      r.definitions_restored = rep.value().definitions_restored;
      r.subscriptions_restored = rep.value().subscriptions_restored;
      r.values_restored = rep.value().values_restored;
      r.complete = r.definitions_restored == uint64_t(items) &&
                   r.subscriptions_restored == uint64_t(items) &&
                   r.values_restored == uint64_t(items);
      // Spot-check served values through the recovered shells.
      for (int i = 0; i < items && r.complete; i += std::max(1, items / 16)) {
        auto sub = manager.Subscribe(p, "item" + std::to_string(i));
        r.complete = sub.ok() &&
                     sub.value().GetDouble() == double(i) + 0.5;
      }
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return r;
}

void RunDurabilityPhase() {
  Banner("C3", "chaos_metadata: durable metadata (journal/checkpoint/recovery)",
         "after a full teardown, recovery restores 100% of committed "
         "definitions, subscriptions, and values; recovery time stays "
         "sub-second for a 10k-item registry");

  std::string json = "{\n  \"bench\": \"chaos_metadata durability (C3)\",\n";
  json += "  \"runs\": [\n";
  TablePrinter table({"items", "journal records", "journal MB", "disk MB",
                      "commit [ms]", "records/s", "checkpoint [ms]",
                      "recovery [ms]", "restored", "complete"});
  bool all_complete = true;
  double recovery_10k_ms = -1;
  bool first = true;
  for (int items : {100, 1000, 10000}) {
    DurabilityResult r = RunDurability(items);
    all_complete = all_complete && r.complete;
    if (items == 10000) recovery_10k_ms = r.recovery_ms;
    table.AddRow(
        {TablePrinter::Fmt(uint64_t(r.items)),
         TablePrinter::Fmt(r.journal_records),
         TablePrinter::Fmt(double(r.journal_bytes) / 1e6, 2),
         TablePrinter::Fmt(double(r.disk_bytes) / 1e6, 2),
         TablePrinter::Fmt(r.commit_ms, 1),
         TablePrinter::Fmt(r.records_per_sec, 0),
         TablePrinter::Fmt(r.checkpoint_ms, 1),
         TablePrinter::Fmt(r.recovery_ms, 1),
         TablePrinter::Fmt(r.definitions_restored) + "/" +
             TablePrinter::Fmt(r.subscriptions_restored) + "/" +
             TablePrinter::Fmt(r.values_restored),
         r.complete ? "yes" : "NO"});
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s    {\"items\": %d, \"journal_records\": %llu, "
        "\"journal_bytes\": %llu, \"disk_bytes\": %llu, "
        "\"commit_ms\": %.2f, \"records_per_sec\": %.0f, "
        "\"checkpoint_ms\": %.2f, \"recovery_ms\": %.2f, "
        "\"definitions_restored\": %llu, \"subscriptions_restored\": %llu, "
        "\"values_restored\": %llu, \"complete\": %s}",
        first ? "" : ",\n", r.items, (unsigned long long)r.journal_records,
        (unsigned long long)r.journal_bytes, (unsigned long long)r.disk_bytes,
        r.commit_ms, r.records_per_sec, r.checkpoint_ms, r.recovery_ms,
        (unsigned long long)r.definitions_restored,
        (unsigned long long)r.subscriptions_restored,
        (unsigned long long)r.values_restored, r.complete ? "true" : "false");
    json += buf;
    first = false;
  }
  json += "\n  ],\n";
  std::printf("%s\n", table.ToString().c_str());

  bool ok = all_complete && recovery_10k_ms >= 0;
  char vbuf[192];
  std::snprintf(vbuf, sizeof(vbuf),
                "  \"recovery_10k_ms\": %.2f,\n  \"all_complete\": %s\n}\n",
                recovery_10k_ms, all_complete ? "true" : "false");
  json += vbuf;
  std::printf("verdict: %s\n",
              ok ? "PASS (100% of committed state recovered at every size)"
                 : "FAIL (recovery incomplete)");

  WriteBenchFile("BENCH_durability.json", json);
}

// ---------------------------------------------------------------------------
// C4 — federated metadata over a faulty link
// ---------------------------------------------------------------------------

struct FederationResult {
  double loss = 0;
  uint64_t waves = 0;
  uint64_t pushes_sent = 0;
  uint64_t pushes_applied = 0;
  uint64_t duplicates_suppressed = 0;
  uint64_t retries = 0;
  uint64_t reconnects = 0;
  uint64_t resyncs = 0;
  uint64_t probes = 0;
  uint64_t samples = 0;
  uint64_t bounded_ok = 0;  ///< samples with latest value or staleness <= bound
  Duration max_staleness = 0;
  bool breaker_opened = false;  ///< peer quarantined during the partition
  bool converged = false;       ///< latest value reconciled after heal
};

constexpr Duration kFedBound = kMicrosPerSecond;  ///< mirror staleness bound
constexpr Duration kFedStep = 5 * kMicrosPerMilli;
constexpr Duration kFedPhase = 2 * kMicrosPerSecond;

FederationResult RunFederation(double loss, uint64_t seed) {
  FederationResult r;
  r.loss = loss;

  VirtualTimeScheduler scheduler;
  MetadataManager server_mgr(scheduler);
  MetadataManager client_mgr(scheduler);
  FaultInjector injector(seed);

  net::LoopbackLink::Options lo;
  lo.latency = 1 * kMicrosPerMilli;
  lo.injector = &injector;
  lo.scope_a_to_b = "c4.s2c";  // server -> client
  lo.scope_b_to_a = "c4.c2s";  // client -> server
  net::LoopbackLink link(scheduler, lo);

  ChaosProvider src("src");
  double metric = 0.0;
  (void)src.metadata_registry().Define(
      MetadataDescriptor::OnDemand("metric").WithEvaluator(
          [&metric](EvalContext&) { return MetadataValue(metric); }));

  MetadataFederationServer server(server_mgr);
  if (!server.ExportProvider(src).ok()) return r;
  server.Serve(link.a());

  RemoteMetadataProvider mirror("src", client_mgr, link.b());
  if (!mirror.Mirror("metric", kFedBound).ok()) return r;
  auto sub = client_mgr.Subscribe(mirror, "metric");
  if (!sub.ok()) return r;
  scheduler.RunFor(10 * kMicrosPerMilli);  // subscribe round trip + initial

  if (loss > 0) {
    injector.ArmMessages("c4.s2c", MessageFaultSpec::Dropping(loss));
    injector.ArmMessages("c4.c2s", MessageFaultSpec::Dropping(loss));
  }

  const Timestamp start = scheduler.clock().Now();
  const Timestamp partition_at = start + kFedPhase * 2 / 5;  // 800 ms in
  const Timestamp heal_at = start + kFedPhase * 3 / 5;       // 1200 ms in
  bool partitioned = false;
  bool healed = false;

  for (Timestamp t = start + kFedStep; t <= start + kFedPhase; t += kFedStep) {
    scheduler.RunUntil(t);

    // Sample before the next wave: the previous push has had a full link
    // latency to land (or to be dropped / blocked by the partition).
    double v = sub.value().GetDouble();
    Duration staleness =
        mirror.mirror_staleness("metric", scheduler.clock().Now()).value();
    r.max_staleness = std::max(r.max_staleness, staleness);
    ++r.samples;
    if (v == metric || staleness <= kFedBound) ++r.bounded_ok;
    if (partitioned && !healed &&
        mirror.health() == HandlerHealth::kQuarantined) {
      r.breaker_opened = true;
    }

    if (!partitioned && t >= partition_at) {
      injector.PartitionLink("c4.s2c");
      injector.PartitionLink("c4.c2s");
      partitioned = true;
    }
    if (partitioned && !healed && t >= heal_at) {
      injector.HealLink("c4.s2c");
      injector.HealLink("c4.c2s");
      healed = true;
    }

    metric += 1.0;
    src.FireMetadataEvent("metric");
    ++r.waves;
  }

  // Quiesce: faults off, no new waves. Reconciliation (breaker-close
  // resubscribe) and the staleness resync must converge the mirror to the
  // latest published value.
  injector.DisarmAll();
  scheduler.RunFor(500 * kMicrosPerMilli);
  r.converged = sub.value().GetDouble() == metric;

  auto peer = mirror.peer_stats();
  r.retries = peer.retries;
  r.reconnects = peer.reconnects;
  r.resyncs = peer.resyncs;
  r.probes = peer.probes;
  auto ms = mirror.mirror_stats("metric").value();
  r.pushes_applied = ms.pushes_applied;
  r.duplicates_suppressed = ms.duplicates_suppressed;
  r.pushes_sent = server.stats().pushes_sent;
  return r;
}

void RunFederationPhase() {
  Banner("C4", "chaos_metadata: federated metadata over a faulty link",
         "under 0-30% message loss plus one partition/heal cycle, every wave\n"
         "propagates or the mirror serves last-known-good within its 1 s\n"
         "staleness bound; the partition opens the breaker; after heal the\n"
         "mirror reconciles to the latest value");

  std::string json = "{\n  \"bench\": \"chaos_metadata federation (C4)\",\n";
  json += "  \"staleness_bound_ms\": 1000,\n  \"runs\": [\n";
  TablePrinter table({"loss %", "waves", "pushes sent", "applied",
                      "dup suppressed", "retries", "resyncs", "reconnects",
                      "max staleness [ms]", "bounded ok", "breaker",
                      "converged"});
  bool ok = true;
  bool first = true;
  for (double loss : {0.0, 0.10, 0.30}) {
    FederationResult r =
        RunFederation(loss, /*seed=*/0xFED0 + uint64_t(loss * 100));
    ok = ok && r.bounded_ok == r.samples && r.breaker_opened && r.converged;
    table.AddRow(
        {TablePrinter::Fmt(loss * 100, 0), TablePrinter::Fmt(r.waves),
         TablePrinter::Fmt(r.pushes_sent), TablePrinter::Fmt(r.pushes_applied),
         TablePrinter::Fmt(r.duplicates_suppressed),
         TablePrinter::Fmt(r.retries), TablePrinter::Fmt(r.resyncs),
         TablePrinter::Fmt(r.reconnects),
         TablePrinter::Fmt(double(r.max_staleness) / kMicrosPerMilli, 1),
         TablePrinter::Fmt(r.bounded_ok) + "/" + TablePrinter::Fmt(r.samples),
         r.breaker_opened ? "opened" : "NO", r.converged ? "yes" : "NO"});
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s    {\"loss\": %.2f, \"waves\": %llu, \"pushes_sent\": %llu, "
        "\"pushes_applied\": %llu, \"duplicates_suppressed\": %llu, "
        "\"retries\": %llu, \"resyncs\": %llu, \"reconnects\": %llu, "
        "\"probes\": %llu, \"max_staleness_ms\": %.2f, "
        "\"bounded_ok\": %llu, \"samples\": %llu, "
        "\"breaker_opened\": %s, \"converged\": %s}",
        first ? "" : ",\n", r.loss, (unsigned long long)r.waves,
        (unsigned long long)r.pushes_sent, (unsigned long long)r.pushes_applied,
        (unsigned long long)r.duplicates_suppressed,
        (unsigned long long)r.retries, (unsigned long long)r.resyncs,
        (unsigned long long)r.reconnects, (unsigned long long)r.probes,
        double(r.max_staleness) / kMicrosPerMilli,
        (unsigned long long)r.bounded_ok, (unsigned long long)r.samples,
        r.breaker_opened ? "true" : "false", r.converged ? "true" : "false");
    json += buf;
    first = false;
  }
  json += "\n  ],\n";
  std::printf("%s\n", table.ToString().c_str());

  char vbuf[96];
  std::snprintf(vbuf, sizeof(vbuf), "  \"all_bounded_and_converged\": %s\n}\n",
                ok ? "true" : "false");
  json += vbuf;
  std::printf("verdict: %s\n",
              ok ? "PASS (bounded staleness at every sample, breaker cycled, "
                   "full reconciliation)"
                 : "FAIL (staleness bound violated, breaker never opened, or "
                   "no convergence)");

  WriteBenchFile("BENCH_remote_metadata.json", json);
}

}  // namespace
}  // namespace pipes::bench

int main() {
  pipes::bench::Run();
  pipes::bench::RunOverload();
  pipes::bench::RunDurabilityPhase();
  pipes::bench::RunFederationPhase();
  return 0;
}
