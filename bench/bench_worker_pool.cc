/// S6 — Periodic updates over a worker-thread pool (paper §4.3).
///
/// "A further optimization for scalability is to distribute the periodic
/// update tasks over a small pool of worker-threads. For small query graphs,
/// however, a single thread is sufficient to handle all periodic updates."
///
/// Real-time run: H periodic metadata handlers (10 ms window, each burning a
/// little CPU) on pools of 1..8 workers for one wall-clock second. Reported:
/// ticks executed and tick lateness. Expectation: one worker handles small H
/// with negligible lateness; for large H lateness explodes on one worker and
/// recovers with more workers.

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/support.h"
#include "metadata/handler.h"

namespace pipes::bench {
namespace {

struct ProviderOnly : MetadataProvider {
  using MetadataProvider::MetadataProvider;
};

void Run() {
  Banner("S6", "periodic updates over a worker-thread pool",
         "1 worker suffices for small handler counts; for large counts "
         "lateness grows and (on multi-core hosts) recovers with more "
         "workers");
  std::printf("host hardware concurrency: %u\n",
              std::thread::hardware_concurrency());
  if (std::thread::hardware_concurrency() <= 1) {
    std::printf("note: single-core host — extra workers cannot reduce "
                "lateness here; expect flat or slightly degrading numbers "
                "beyond 1 worker.\n");
  }

  TablePrinter table({"handlers", "workers", "ticks/s", "mean late [us]",
                      "max late [ms]", "miss %", "util %", "overloaded",
                      "cv notifies", "notifies skipped"});
  for (int handlers : {10, 100, 1000}) {
    for (size_t workers : {size_t(1), size_t(2), size_t(4), size_t(8)}) {
      // Deadline accounting on: a tick more than half a window late counts
      // as a miss, and a miss-dominated EWMA flips the overload signal the
      // degradation governor consumes.
      SchedulerOverloadPolicy overload;
      overload.deadline_slack = Millis(5);
      ThreadPoolScheduler scheduler(workers, /*clock=*/nullptr, overload);
      MetadataManager manager(scheduler);
      std::vector<std::unique_ptr<ProviderOnly>> providers;
      std::vector<MetadataSubscription> subs;
      // Captured before setup so the burst of SchedulePeriodic calls shows
      // in the cv notify/skip columns (periodic re-arms run inside the
      // worker loop and never signal).
      SchedulerStats before = scheduler.stats();
      for (int i = 0; i < handlers; ++i) {
        auto p = std::make_unique<ProviderOnly>("p" + std::to_string(i));
        (void)p->metadata_registry().Define(
            MetadataDescriptor::Periodic("x", Millis(10))
                .WithEvaluator([](EvalContext&) -> MetadataValue {
                  // ~ the cost of a realistic measurement evaluator.
                  volatile double acc = 1.0;
                  for (int k = 0; k < 2000; ++k) acc = acc * 1.0000001 + k;
                  return double(acc);
                }));
        subs.push_back(manager.Subscribe(*p, "x").value());
        providers.push_back(std::move(p));
      }
      std::this_thread::sleep_for(std::chrono::seconds(1));
      SchedulerStats after = scheduler.stats();
      subs.clear();
      scheduler.Shutdown();

      uint64_t ticks = after.tasks_run - before.tasks_run;
      Duration lateness = after.total_lateness - before.total_lateness;
      uint64_t misses = after.deadline_misses - before.deadline_misses;
      table.AddRow(
          {std::to_string(handlers), std::to_string(workers),
           TablePrinter::Fmt(ticks),
           TablePrinter::Fmt(ticks ? double(lateness) / double(ticks) : 0.0,
                             0),
           TablePrinter::Fmt(double(after.max_lateness) / 1000.0, 1),
           TablePrinter::Fmt(ticks ? 100.0 * double(misses) / double(ticks)
                                   : 0.0,
                             1),
           TablePrinter::Fmt(100.0 * after.utilization, 0),
           after.overloaded ? "yes" : "no",
           TablePrinter::Fmt(after.cv_notifies - before.cv_notifies),
           TablePrinter::Fmt(after.cv_notifies_skipped -
                             before.cv_notifies_skipped)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "\"notifies skipped\" counts ScheduleAt/SchedulePeriodic calls that "
      "did not signal the pool because the new task neither preempted the "
      "earliest deadline nor had an idle worker to wake.\n\n");
}

/// S6b — propagation waves driven from the worker pool itself.
///
/// One-shot tasks fan out round-robin over the sharded run queues; each
/// task fires a propagation wave on one of eight independent triggered
/// chains, and idle workers steal due tasks from busy siblings. What this
/// measures is the scheduler hop (push, pop, possibly a steal) plus the
/// wave, per task, and the steal count. On a 4-core host waves/s does not
/// grow with the worker count (EXPERIMENTS.md S6b).
void BM_ConcurrentWaves() {
  Banner("S6b", "waves driven from the worker pool",
         "one-shot wave tasks spread over per-worker queues; ns/wave is the "
         "scheduler hop plus the wave, and stolen tasks show the pool "
         "rebalancing itself");
  constexpr int kChains = 8;
  constexpr int kDepth = 4;
  constexpr uint64_t kTasks = 20000;

  TablePrinter table({"workers", "tasks", "ns/wave", "waves/s", "stolen"});
  for (size_t workers : {size_t(1), size_t(2), size_t(4), size_t(8)}) {
    ThreadPoolScheduler scheduler(workers);
    MetadataManager manager(scheduler);
    ProviderOnly op("op");
    std::atomic<uint64_t> values[kChains];
    std::vector<MetadataSubscription> subs;
    for (int c = 0; c < kChains; ++c) {
      values[c].store(0, std::memory_order_relaxed);
      std::atomic<uint64_t>* v = &values[c];
      (void)op.metadata_registry().Define(
          MetadataDescriptor::OnDemand("c" + std::to_string(c) + "_t0")
              .WithEvaluator([v](EvalContext&) {
                return MetadataValue(
                    double(v->load(std::memory_order_relaxed)));
              }));
      for (int i = 1; i < kDepth; ++i) {
        (void)op.metadata_registry().Define(
            MetadataDescriptor::Triggered("c" + std::to_string(c) + "_t" +
                                          std::to_string(i))
                .DependsOnSelf("c" + std::to_string(c) + "_t" +
                               std::to_string(i - 1))
                .WithEvaluator([](EvalContext& ctx) { return ctx.Dep(0); }));
      }
      subs.push_back(manager
                         .Subscribe(op, "c" + std::to_string(c) + "_t" +
                                            std::to_string(kDepth - 1))
                         .value());
    }
    // Build the wave plans before timing.
    for (int c = 0; c < kChains; ++c) {
      values[c].fetch_add(1, std::memory_order_relaxed);
      manager.FireEvent(op, "c" + std::to_string(c) + "_t0");
    }

    std::string origins[kChains];
    for (int c = 0; c < kChains; ++c) {
      origins[c] = "c" + std::to_string(c) + "_t0";
    }
    SchedulerStats before = scheduler.stats();
    std::atomic<uint64_t> done{0};
    auto t0 = std::chrono::steady_clock::now();
    Timestamp now = scheduler.clock().Now();
    for (uint64_t i = 0; i < kTasks; ++i) {
      int c = int(i % kChains);
      (void)scheduler.ScheduleAt(now, [&, c] {
        values[c].fetch_add(1, std::memory_order_relaxed);
        manager.FireEvent(op, origins[c]);
        done.fetch_add(1, std::memory_order_acq_rel);
      });
    }
    while (done.load(std::memory_order_acquire) < kTasks) {
      std::this_thread::yield();
    }
    double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    SchedulerStats after = scheduler.stats();
    subs.clear();
    scheduler.Shutdown();
    table.AddRow({std::to_string(workers), TablePrinter::Fmt(kTasks),
                  TablePrinter::Fmt(secs * 1e9 / double(kTasks), 0),
                  TablePrinter::Fmt(double(kTasks) / secs, 0),
                  TablePrinter::Fmt(after.tasks_stolen -
                                    before.tasks_stolen)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "ns/wave here includes the scheduler hop (push, pop, possibly a "
      "steal) on top of the propagation wave itself; compare against the "
      "S4b direct-call numbers for the queueing overhead.\n\n");
}

}  // namespace
}  // namespace pipes::bench

int main() {
  pipes::bench::Run();
  pipes::bench::BM_ConcurrentWaves();
  return 0;
}
