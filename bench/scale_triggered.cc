/// S4 — Triggered vs. periodic maintenance of derived items (paper §3.2.3).
///
/// "Because the value of certain metadata items can only be outdated if one
/// of its underlying metadata items has been changed, a periodic update
/// would waste resources. ... This causes fewer costs than a periodic update
/// to ensure metadata freshness."
///
/// A derived item depends on a state value that changes at a varying event
/// rate. Maintained periodically (10 Hz), its cost is flat but it is stale
/// between ticks; maintained triggered, its cost follows the change rate and
/// it is never stale. Expectation: triggered wins on cost for rarely
/// changing items and wins on freshness always; periodic only catches up on
/// cost when changes outpace the polling rate.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/support.h"
#include "common/alloc_counter.h"
#include "metadata/handler.h"

namespace pipes::bench {
namespace {

struct ProviderOnly : MetadataProvider {
  using MetadataProvider::MetadataProvider;
};

struct Outcome {
  uint64_t evals;
  double staleness;  // fraction of probes observing an outdated value
};

Outcome Measure(bool triggered, double changes_per_sec, Duration run) {
  VirtualTimeScheduler scheduler;
  MetadataManager manager(scheduler);
  ProviderOnly op("op");
  auto state = std::make_shared<double>(0.0);

  (void)op.metadata_registry().Define(
      MetadataDescriptor::OnDemand("state").WithEvaluator(
          [state](EvalContext&) { return MetadataValue(*state); }));
  MetadataDescriptor derived =
      triggered ? MetadataDescriptor::Triggered("derived")
                : MetadataDescriptor::Periodic("derived", Millis(100));
  (void)op.metadata_registry().Define(
      std::move(derived)
          .DependsOnSelf("state")
          .WithEvaluator([](EvalContext& ctx) { return ctx.Dep(0); }));

  auto sub = manager.Subscribe(op, "derived").value();

  // State changes as a Poisson process with the configured rate (random
  // phases avoid degenerate alignment with the polling/probing periods);
  // each change fires the event notification of §3.2.3 (periodic handlers
  // simply ignore it).
  auto rng = std::make_shared<Rng>(99);
  auto schedule_change = std::make_shared<std::function<void()>>();
  *schedule_change = [&scheduler, &op, state, rng, schedule_change,
                      changes_per_sec] {
    Duration gap = static_cast<Duration>(
        rng->Exponential(changes_per_sec) * double(kMicrosPerSecond));
    scheduler.ScheduleAfter(std::max<Duration>(gap, 1), [&op, state,
                                                         schedule_change] {
      *state += 1.0;
      op.FireMetadataEvent("state");
      (*schedule_change)();
    });
  };
  (*schedule_change)();

  // Probe freshness every 10 ms.
  uint64_t probes = 0, stale = 0;
  scheduler.SchedulePeriodic(Millis(10), [&] {
    ++probes;
    if (sub.GetDouble() != *state) ++stale;
  });

  scheduler.RunFor(run);
  return Outcome{sub.handler()->eval_count(),
                 probes ? double(stale) / double(probes) : 0.0};
}

struct WaveResult {
  int depth;
  uint64_t waves;
  double ns_per_wave;
  double waves_per_sec;
  double allocs_per_wave;  // -1 when allocation counting is compiled out
};

/// Wall-clock propagation-wave throughput over a chain of `depth` triggered
/// handlers: one FireEvent refreshes the whole chain through the cached wave
/// plan. Steady state, so the plan is built once and every wave after warmup
/// must be a pure epoch-compare + linear walk (zero heap allocations).
WaveResult MeasureWaves(int depth, uint64_t waves) {
  VirtualTimeScheduler scheduler;
  MetadataManager manager(scheduler);
  ProviderOnly op("op");
  auto value = std::make_shared<double>(0.0);
  (void)op.metadata_registry().Define(
      MetadataDescriptor::OnDemand("t0").WithEvaluator(
          [value](EvalContext&) { return MetadataValue(*value); }));
  for (int i = 1; i < depth; ++i) {
    (void)op.metadata_registry().Define(
        MetadataDescriptor::Triggered("t" + std::to_string(i))
            .DependsOnSelf("t" + std::to_string(i - 1))
            .WithEvaluator([](EvalContext& ctx) { return ctx.Dep(0); }));
  }
  auto sub = manager.Subscribe(op, "t" + std::to_string(depth - 1)).value();

  // Warm up: builds the plan, grows the manager's scratch buffers, and
  // faults in per-thread lock bookkeeping.
  for (int i = 0; i < 16; ++i) {
    *value += 1.0;
    manager.FireEvent(op, "t0");
  }

  ScopedAllocCounter counter;
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < waves; ++i) {
    *value += 1.0;
    manager.FireEvent(op, "t0");
  }
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  int64_t delta = counter.delta();
  WaveResult r;
  r.depth = depth;
  r.waves = waves;
  r.ns_per_wave = secs * 1e9 / double(waves);
  r.waves_per_sec = double(waves) / secs;
  r.allocs_per_wave = delta < 0 ? -1.0 : double(delta) / double(waves);
  return r;
}

/// Pre-PR ns/wave for the same chain depths (Release, this host), measured
/// by running this exact harness against the tree before the
/// cached-wave-plan change (which also allocated 11/35/135/523 times per
/// wave at depths 2/8/32/128); recorded here so BENCH_propagation.json
/// carries its own baseline.
double BaselineNsPerWave(int depth) {
  switch (depth) {
    case 2: return 539.0;
    case 8: return 1772.0;
    case 32: return 7435.0;
    case 128: return 26860.0;
    default: return 0.0;
  }
}

void RunWaveThroughput(bool quick) {
  Banner("S4b", "steady-state propagation wave throughput",
         "cached wave plans make an unchanged-graph wave an epoch compare "
         "plus a linear walk: zero allocations and >=2x the pre-PR waves/s");

  const uint64_t waves = quick ? 20000 : 200000;
  TablePrinter table({"depth", "waves", "ns/wave", "waves/s", "allocs/wave",
                      "baseline ns/wave", "speedup"});
  std::string json = "{\n  \"bench\": \"scale_triggered wave throughput\",\n"
                     "  \"metric\": \"steady-state propagation waves over a "
                     "triggered chain\",\n  \"results\": [\n";
  bool first = true;
  for (int depth : {2, 8, 32, 128}) {
    WaveResult r = MeasureWaves(depth, waves);
    double base = BaselineNsPerWave(depth);
    double speedup = base > 0.0 ? base / r.ns_per_wave : 0.0;
    table.AddRow({TablePrinter::Fmt(uint64_t(r.depth)),
                  TablePrinter::Fmt(r.waves),
                  TablePrinter::Fmt(r.ns_per_wave, 0),
                  TablePrinter::Fmt(r.waves_per_sec, 0),
                  r.allocs_per_wave < 0 ? "n/a"
                                        : TablePrinter::Fmt(r.allocs_per_wave,
                                                            2),
                  TablePrinter::Fmt(base, 0), TablePrinter::Fmt(speedup, 2)});
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s    {\"depth\": %d, \"waves\": %llu, \"ns_per_wave\": %.1f, "
        "\"waves_per_sec\": %.0f, \"allocs_per_wave\": %.3f, "
        "\"baseline_ns_per_wave\": %.1f, \"speedup\": %.2f}",
        first ? "" : ",\n", r.depth, (unsigned long long)r.waves,
        r.ns_per_wave, r.waves_per_sec, r.allocs_per_wave, base, speedup);
    json += buf;
    first = false;
  }
  json += "\n  ]\n}\n";
  std::printf("%s\n", table.ToString().c_str());

  WriteBenchFile("BENCH_propagation.json", json);
}

// ---------------------------------------------------------------------------
// S4c — multi-origin concurrent waves over immutable per-origin wave plans.
// ---------------------------------------------------------------------------

/// Fixture: `kParOrigins` independent triggered chains of depth `kParDepth`
/// on one provider. A wave takes only the shared structure lock and walks
/// its origin's own plan, so disjoint drivers share no wave lock.
constexpr int kParOrigins = 8;
constexpr int kParDepth = 8;

struct ParallelFixture {
  /// Each origin's input on its own cache line, so disjoint drivers bumping
  /// their inputs do not share a written line outside the system under test.
  struct alignas(64) OriginValue {
    std::atomic<uint64_t> v{0};
  };

  VirtualTimeScheduler scheduler;
  MetadataManager manager{scheduler};
  ProviderOnly op{"op"};
  OriginValue values[kParOrigins];
  std::vector<MetadataSubscription> subs;
  std::vector<std::string> origins;

  ParallelFixture() {
    for (int c = 0; c < kParOrigins; ++c) {
      std::atomic<uint64_t>* v = &values[c].v;
      std::string base = "c" + std::to_string(c) + "_t0";
      (void)op.metadata_registry().Define(
          MetadataDescriptor::OnDemand(base).WithEvaluator(
              [v](EvalContext&) {
                return MetadataValue(
                    double(v->load(std::memory_order_relaxed)));
              }));
      for (int i = 1; i < kParDepth; ++i) {
        (void)op.metadata_registry().Define(
            MetadataDescriptor::Triggered("c" + std::to_string(c) + "_t" +
                                          std::to_string(i))
                .DependsOnSelf("c" + std::to_string(c) + "_t" +
                               std::to_string(i - 1))
                .WithEvaluator([](EvalContext& ctx) { return ctx.Dep(0); }));
      }
      // Subscribing the tail instantiates the whole chain deps-first.
      subs.push_back(
          manager
              .Subscribe(op, "c" + std::to_string(c) + "_t" +
                                 std::to_string(kParDepth - 1))
              .value());
      origins.push_back(base);
    }
    // Build every chain's wave plan before any driver thread starts.
    for (int c = 0; c < kParOrigins; ++c) {
      for (int i = 0; i < 16; ++i) {
        values[c].v.fetch_add(1, std::memory_order_relaxed);
        manager.FireEvent(op, origins[c]);
      }
    }
  }

  void Fire(int c) {
    values[c].v.fetch_add(1, std::memory_order_relaxed);
    manager.FireEvent(op, origins[c]);
  }
};

struct ParallelResult {
  int drivers;
  const char* mode;
  uint64_t waves;          // total across all drivers
  double ns_per_wave;      // aggregate wall-clock ns per wave
  double waves_per_sec;    // aggregate throughput
  double allocs_per_wave;  // -1 when allocation counting is compiled out
};

/// `drivers` threads fire `waves_per_driver` waves each. Three origin
/// assignments: "single_origin" (everyone hammers chain 0 — the direct
/// comparison point against the S4b single-threaded numbers), "disjoint"
/// (the kParOrigins chains are partitioned across drivers, so no two
/// drivers ever fire the same origin) and "overlapping" (every driver
/// cycles through all chains, maximising contention on shared handlers).
ParallelResult MeasureParallelWaves(int drivers, const char* mode,
                                    uint64_t waves_per_driver) {
  ParallelFixture fx;
  const bool single = std::strcmp(mode, "single_origin") == 0;
  const bool disjoint = std::strcmp(mode, "disjoint") == 0;

  std::atomic<int> ready{0};
  std::atomic<bool> start{false};
  std::atomic<int64_t> allocs{0};
  std::atomic<bool> allocs_known{true};
  std::vector<std::thread> threads;
  threads.reserve(size_t(drivers));
  for (int d = 0; d < drivers; ++d) {
    threads.emplace_back([&, d] {
      // Per-driver origin schedule, precomputed so the timed loop is pure
      // fire-wave work.
      std::vector<int> schedule;
      if (single) {
        schedule.push_back(0);
      } else if (disjoint) {
        for (int c = 0; c < kParOrigins; ++c) {
          if (c % drivers == d % kParOrigins) schedule.push_back(c);
        }
        if (schedule.empty()) schedule.push_back(d % kParOrigins);
      } else {
        for (int c = 0; c < kParOrigins; ++c) {
          schedule.push_back((c + d) % kParOrigins);
        }
      }
      // Warm this thread's caches before the timed loop.
      for (int i = 0; i < 4; ++i) fx.Fire(schedule[0]);
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!start.load(std::memory_order_acquire)) {
      }
      ScopedAllocCounter counter;
      size_t next = 0;
      for (uint64_t i = 0; i < waves_per_driver; ++i) {
        fx.Fire(schedule[next]);
        if (++next == schedule.size()) next = 0;
      }
      int64_t delta = counter.delta();
      if (delta < 0) {
        allocs_known.store(false, std::memory_order_relaxed);
      } else {
        allocs.fetch_add(delta, std::memory_order_relaxed);
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < drivers) {
    std::this_thread::yield();
  }
  auto t0 = std::chrono::steady_clock::now();
  start.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  ParallelResult r;
  r.drivers = drivers;
  r.mode = mode;
  r.waves = waves_per_driver * uint64_t(drivers);
  r.ns_per_wave = secs * 1e9 / double(r.waves);
  r.waves_per_sec = double(r.waves) / secs;
  r.allocs_per_wave =
      allocs_known.load(std::memory_order_relaxed)
          ? double(allocs.load(std::memory_order_relaxed)) / double(r.waves)
          : -1.0;
  return r;
}

void RunParallelWaves(bool quick) {
  Banner("S4c", "multi-origin concurrent propagation waves",
         "waves take no wave lock, only the shared structure lock and the "
         "origin's immutable plan: aggregate waves/s scales with driver "
         "threads (on multi-core hosts) and stays allocation-free; "
         "overlapping origins contend only on shared handlers");
  unsigned hc = std::thread::hardware_concurrency();
  std::printf("host hardware concurrency: %u (origins: %d, chain depth: "
              "%d)\n",
              hc, kParOrigins, kParDepth);
  if (hc <= 1) {
    std::printf("note: single-core host — driver threads time-slice one "
                "core, so aggregate throughput cannot scale here; the "
                "interesting signals are allocs/wave == 0 and the absence "
                "of collapse under contention.\n");
  }

  const uint64_t waves_per_driver = quick ? 20000 : 100000;
  // Scheduling noise on shared hosts is as large as the effect under test,
  // so each configuration runs kReps times and reports its median run, with
  // the min-max of waves/s beside it; "scaling vs 1" divides medians.
  constexpr int kReps = 3;
  TablePrinter table({"mode", "drivers", "waves", "ns/wave", "waves/s",
                      "min-max waves/s", "allocs/wave", "scaling vs 1"});
  std::string json =
      "{\n  \"bench\": \"scale_triggered parallel waves\",\n"
      "  \"metric\": \"aggregate concurrent propagation-wave throughput "
      "over immutable per-origin wave plans\",\n";
  char head[256];
  std::snprintf(head, sizeof(head),
                "  \"hardware_concurrency\": %u,\n"
                "  \"origins\": %d,\n  \"depth\": %d,\n"
                "  \"reps\": %d,\n  \"statistic\": \"median\",\n"
                "  \"results\": [\n",
                hc, kParOrigins, kParDepth, kReps);
  json += head;
  bool first = true;
  for (const char* mode : {"single_origin", "disjoint", "overlapping"}) {
    double base_waves_per_sec = 0.0;
    for (int drivers : {1, 2, 4, 8}) {
      if (std::strcmp(mode, "single_origin") == 0 && drivers > 1) continue;
      std::vector<ParallelResult> runs;
      for (int rep = 0; rep < kReps; ++rep) {
        runs.push_back(MeasureParallelWaves(drivers, mode, waves_per_driver));
      }
      std::sort(runs.begin(), runs.end(),
                [](const ParallelResult& a, const ParallelResult& b) {
                  return a.waves_per_sec < b.waves_per_sec;
                });
      const ParallelResult& r = runs[runs.size() / 2];
      const double min_waves_per_sec = runs.front().waves_per_sec;
      const double max_waves_per_sec = runs.back().waves_per_sec;
      if (drivers == 1) base_waves_per_sec = r.waves_per_sec;
      double scaling = base_waves_per_sec > 0.0
                           ? r.waves_per_sec / base_waves_per_sec
                           : 0.0;
      table.AddRow({r.mode, TablePrinter::Fmt(uint64_t(r.drivers)),
                    TablePrinter::Fmt(r.waves),
                    TablePrinter::Fmt(r.ns_per_wave, 0),
                    TablePrinter::Fmt(r.waves_per_sec, 0),
                    TablePrinter::Fmt(min_waves_per_sec, 0) + "-" +
                        TablePrinter::Fmt(max_waves_per_sec, 0),
                    r.allocs_per_wave < 0
                        ? "n/a"
                        : TablePrinter::Fmt(r.allocs_per_wave, 3),
                    TablePrinter::Fmt(scaling, 2)});
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "%s    {\"mode\": \"%s\", \"drivers\": %d, \"waves\": %llu, "
          "\"ns_per_wave\": %.1f, \"waves_per_sec\": %.0f, "
          "\"waves_per_sec_min\": %.0f, \"waves_per_sec_max\": %.0f, "
          "\"allocs_per_wave\": %.3f, \"scaling_vs_1\": %.2f}",
          first ? "" : ",\n", r.mode, r.drivers,
          (unsigned long long)r.waves, r.ns_per_wave, r.waves_per_sec,
          min_waves_per_sec, max_waves_per_sec, r.allocs_per_wave, scaling);
      json += buf;
      first = false;
    }
  }
  json += "\n  ]\n}\n";
  std::printf("%s\n", table.ToString().c_str());

  WriteBenchFile("BENCH_parallel_waves.json", json);
}

void Run() {
  Banner("S4", "triggered vs. periodic updates for derived items",
         "triggered cost follows the change rate (cheap when quiet) and is "
         "always fresh; periodic cost is flat but stale between ticks");

  const Duration kRun = Seconds(20);
  TablePrinter table({"changes/s", "periodic evals", "triggered evals",
                      "periodic stale%", "triggered stale%"});
  for (double rate : {0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0}) {
    Outcome periodic = Measure(false, rate, kRun);
    Outcome triggered = Measure(true, rate, kRun);
    table.AddRow({TablePrinter::Fmt(rate, 1),
                  TablePrinter::Fmt(periodic.evals),
                  TablePrinter::Fmt(triggered.evals),
                  TablePrinter::Fmt(100.0 * periodic.staleness, 1),
                  TablePrinter::Fmt(100.0 * triggered.staleness, 1)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace pipes::bench

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  if (!quick) pipes::bench::Run();
  pipes::bench::RunWaveThroughput(quick);
  pipes::bench::RunParallelWaves(quick);
  return 0;
}
