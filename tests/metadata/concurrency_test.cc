/// Concurrency (paper §4.2): concurrent metadata consumers, concurrent
/// subscribe/unsubscribe, and metadata access concurrent with periodic
/// updates on a real thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/reentrant_shared_mutex.h"
#include "metadata/handler.h"
#include "metadata/probes.h"
#include "test_support.h"

namespace pipes {
namespace {

using testing::MetaFixture;
using testing::SimpleProvider;

TEST(MetadataConcurrencyTest, ManyReadersOnePeriodicWriter) {
  ThreadPoolScheduler scheduler(2);
  MetadataManager manager(scheduler);
  SimpleProvider p("p");
  std::atomic<int64_t> state{0};
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Periodic("x", Millis(1))
                              .WithEvaluator([&state](EvalContext&) {
                                return MetadataValue(
                                    state.load(std::memory_order_relaxed));
                              }))
                  .ok());
  auto sub = manager.Subscribe(p, "x");
  ASSERT_TRUE(sub.ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        MetadataValue v = sub->Get();
        ASSERT_GE(v.AsInt(), 0);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    state.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(sub->handler()->update_count(), 1u);
  // Stop the pool before the manager and the evaluator's state die: a tick
  // already running when the subscription ends still propagates through the
  // manager (StreamEngine tears down in the same order).
  scheduler.Shutdown();
}

TEST(MetadataConcurrencyTest, ConcurrentSubscribeUnsubscribe) {
  ThreadPoolScheduler scheduler(2);
  MetadataManager manager(scheduler);
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("base", 1.0)).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("m" + std::to_string(i))
                               .DependsOnSelf("base")
                               .WithEvaluator([](EvalContext& ctx) {
                                 return ctx.Dep(0);
                               }))
                    .ok());
  }

  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 200; ++round) {
        auto sub = manager.Subscribe(p, "m" + std::to_string(t % 8));
        if (!sub.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (sub->Get().AsDouble() != 1.0) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(manager.active_handler_count(), 0u);
  auto stats = manager.stats();
  EXPECT_EQ(stats.handlers_created, stats.handlers_removed);
}

TEST(MetadataConcurrencyTest, TriggeredPropagationUnderConcurrentAccess) {
  ThreadPoolScheduler scheduler(2);
  MetadataManager manager(scheduler);
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  std::atomic<int64_t> state{1};
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("s").WithEvaluator(
                  [&state](EvalContext&) {
                    return MetadataValue(state.load());
                  }))
                  .ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("t")
                             .DependsOnSelf("s")
                             .WithEvaluator([](EvalContext& ctx) {
                               return ctx.Dep(0);
                             }))
                  .ok());
  auto sub = manager.Subscribe(p, "t");
  ASSERT_TRUE(sub.ok());

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      EXPECT_GE(sub->Get().AsInt(), 1);
    }
  });
  for (int i = 0; i < 1000; ++i) {
    state.fetch_add(1);
    manager.FireEvent(p, "s");
  }
  stop.store(true);
  reader.join();
  EXPECT_GE(sub->Get().AsInt(), 1000);
  EXPECT_EQ(manager.stats().events_fired, 1000u);
}

TEST(MetadataConcurrencyTest, StormDampingUnderConcurrentFireEvent) {
  ThreadPoolScheduler scheduler(3);
  MetadataManager manager(scheduler);
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  std::atomic<int64_t> state{1};
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("s").WithEvaluator(
                  [&state](EvalContext&) {
                    return MetadataValue(state.load());
                  }))
                  .ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("t")
                             .DependsOnSelf("s")
                             .WithEvaluator([](EvalContext& ctx) {
                               return ctx.Dep(0);
                             }))
                  .ok());
  auto sub = manager.Subscribe(p, "t");
  ASSERT_TRUE(sub.ok());

  StormDampingOptions damping;
  damping.max_waves_per_sec = 200.0;
  damping.burst = 4.0;
  manager.EnableStormDamping(damping);

  // Four firing threads hammer the same origin while a reader spins: the
  // token bucket, coalescing counters, and flush scheduling all mutate under
  // the propagation lock with FireEvent racing against flush tasks on the
  // pool workers.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      EXPECT_GE(sub->Get().AsInt(), 1);
    }
  });
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 500;
  std::vector<std::thread> firers;
  for (int i = 0; i < kThreads; ++i) {
    firers.emplace_back([&] {
      for (int j = 0; j < kEventsPerThread; ++j) {
        state.fetch_add(1);
        manager.FireEvent(p, "s");
      }
    });
  }
  for (auto& t : firers) t.join();
  stop.store(true);
  reader.join();

  // Give any pending coalesced flush a chance to run, then disarm.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  manager.DisableStormDamping();

  MetadataManagerStats st = manager.stats();
  EXPECT_EQ(st.events_fired, static_cast<uint64_t>(kThreads * kEventsPerThread));
  // Every event was either admitted as a wave, coalesced, or flushed later;
  // damping must have absorbed the bulk of the storm.
  EXPECT_LE(st.waves, st.events_fired);
  EXPECT_GT(st.events_coalesced, 0u);
  EXPECT_LE(st.breakers_active, 1u);
  EXPECT_GE(sub->Get().AsInt(), 1);
  // A flush task may still be running on the pool: stop it before the
  // manager dies.
  scheduler.Shutdown();
}

TEST(MetadataConcurrencyTest, ConcurrentWavesWithStructureChurn) {
  // The concurrent-propagation stress: independent origins fire
  // concurrently (waves share only the structure lock) while a churn thread
  // subscribes/unsubscribes and redefines other items, bumping the
  // structure epoch so in-flight origins keep rebuilding and republishing
  // their plans. Run under TSan this exercises every plan transition:
  // steady walk, rebuild, racing rebuilds of one origin.
  ThreadPoolScheduler scheduler(4);
  MetadataManager manager(scheduler);
  constexpr int kOrigins = 4;
  constexpr int kEventsPerOrigin = 300;

  std::vector<std::unique_ptr<SimpleProvider>> providers;
  std::vector<MetadataSubscription> subs;
  std::atomic<int64_t> state{1};
  for (int i = 0; i < kOrigins; ++i) {
    auto p = std::make_unique<SimpleProvider>("p" + std::to_string(i));
    auto& reg = p->metadata_registry();
    ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("s").WithEvaluator(
                    [&state](EvalContext&) {
                      return MetadataValue(state.load());
                    }))
                    .ok());
    ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("t")
                               .DependsOnSelf("s")
                               .WithEvaluator([](EvalContext& ctx) {
                                 return ctx.Dep(0);
                               }))
                    .ok());
    ASSERT_TRUE(
        reg.Define(MetadataDescriptor::Static("churn", 1.0)).ok());
    auto sub = manager.Subscribe(*p, "t");
    ASSERT_TRUE(sub.ok());
    subs.push_back(std::move(sub.value()));
    providers.push_back(std::move(p));
  }

  std::atomic<bool> stop{false};
  std::thread churner([&] {
    int round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      SimpleProvider& p = *providers[round % kOrigins];
      {
        auto sub = manager.Subscribe(p, "churn");
        ASSERT_TRUE(sub.ok());
        // Subscribe and the end-of-scope unsubscribe each bump the epoch.
      }
      // Redefinition (legal only while excluded) bumps the epoch once more.
      ASSERT_TRUE(p.metadata_registry()
                      .Redefine(MetadataDescriptor::Static(
                          "churn", double(round)))
                      .ok());
      ++round;
    }
  });

  std::vector<std::thread> firers;
  for (int i = 0; i < kOrigins; ++i) {
    firers.emplace_back([&, i] {
      for (int j = 0; j < kEventsPerOrigin; ++j) {
        state.fetch_add(1);
        manager.FireEvent(*providers[i], "s");
      }
    });
  }
  for (auto& t : firers) t.join();
  stop.store(true, std::memory_order_release);
  churner.join();

  MetadataManagerStats st = manager.stats();
  EXPECT_EQ(st.events_fired,
            static_cast<uint64_t>(kOrigins * kEventsPerOrigin));
  // Every fired event ran as a wave; FireEvent never drops one.
  EXPECT_GE(st.waves, st.events_fired);
  for (auto& sub : subs) {
    EXPECT_GE(sub.Get().AsInt(), 1);
  }
}

TEST(MetadataConcurrencyTest, NestedWaveWithStalePlanIsNeverShed) {
  // A wave evaluator firing an event on another origin starts a *nested*
  // wave whose plan was never built. It must rebuild the plan and run on
  // the spot: a wave handed to the scheduler instead can be shed by
  // admission control, leaving its triggered dependent stale for good
  // (§3.2.3 promises triggered items are never stale).
  MetaFixture fx;
  SchedulerOverloadPolicy policy;
  policy.max_pending = 1;
  fx.scheduler.SetOverloadPolicy(policy);
  // A far-future filler takes the only slot: any further one-shot is shed.
  TaskHandle filler = fx.scheduler.ScheduleAt(fx.Now() + Seconds(3600), [] {});
  ASSERT_TRUE(filler.valid());

  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  int64_t state = 1;
  bool armed = false;
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("sb").WithEvaluator(
                  [&state](EvalContext&) { return MetadataValue(state); }))
                  .ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("tb")
                             .DependsOnSelf("sb")
                             .WithEvaluator([](EvalContext& ctx) {
                               return ctx.Dep(0);
                             }))
                  .ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("sa").WithEvaluator(
                  [&state](EvalContext&) { return MetadataValue(state); }))
                  .ok());
  // ta's refresh fires an event on sb — a nested wave from inside a wave.
  // Armed only after subscription: the activation evaluation runs under the
  // exclusive structure lock, where firing would be a reentrant upgrade.
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("ta")
                             .DependsOnSelf("sa")
                             .WithEvaluator([&](EvalContext& ctx) {
                               if (armed) fx.manager.FireEvent(p, "sb");
                               return ctx.Dep(0);
                             }))
                  .ok());

  auto sub_b = fx.manager.Subscribe(p, "tb");
  auto sub_a = fx.manager.Subscribe(p, "ta");
  ASSERT_TRUE(sub_b.ok());
  ASSERT_TRUE(sub_a.ok());
  armed = true;

  state = 42;
  fx.manager.FireEvent(p, "sa");

  EXPECT_EQ(sub_b->Get().AsInt(), 42)
      << "the nested wave must refresh tb before FireEvent returns";
  MetadataManagerStats st = fx.manager.stats();
  EXPECT_EQ(st.scheduler_rejections, 0u);
  EXPECT_EQ(st.waves_deferred, 0u);
  EXPECT_EQ(st.waves, 2u);
  EXPECT_EQ(st.wave_plan_rebuilds, 2u);
}

TEST(MetadataConcurrencyTest, SeqlockReadersSeeNoTornNumericValues) {
  // Readers of the seqlock value slot never block and never observe a torn
  // value: a triggered item publishes strictly increasing integers while
  // reader threads spin on Get(). Any torn read would show up as a value
  // outside the published range or as a step backwards beyond the writer's
  // current position. Under TSan this also proves the slot is race-free.
  ThreadPoolScheduler scheduler(1);
  MetadataManager manager(scheduler);
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  std::atomic<int64_t> state{1};
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("s").WithEvaluator(
                             [&state](EvalContext&) {
                               return MetadataValue(state.load());
                             }))
                  .ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("t")
                             .DependsOnSelf("s")
                             .WithEvaluator(
                                 [](EvalContext& ctx) { return ctx.Dep(0); }))
                  .ok());
  auto sub = manager.Subscribe(p, "t");
  ASSERT_TRUE(sub.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      int64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        int64_t v = sub->Get().AsInt();
        // Monotone per reader; bounded by what the writer has published.
        if (v < last || v > state.load()) torn.fetch_add(1);
        last = v;
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    state.fetch_add(1);
    manager.FireEvent(p, "s");
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
}

TEST(MetadataConcurrencyTest, SeqlockReadersSeeNoTornStringValues) {
  // Same for string payloads: the writer publishes "n:n" pairs; a torn read
  // (string from one publish paired with state of another, or a partially
  // copied payload) breaks the invariant that both halves match.
  ThreadPoolScheduler scheduler(1);
  MetadataManager manager(scheduler);
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  std::atomic<int64_t> state{0};
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("s").WithEvaluator(
                             [&state](EvalContext&) {
                               int64_t n = state.load();
                               std::string s = std::to_string(n);
                               return MetadataValue(s + ":" + s);
                             }))
                  .ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("t")
                             .DependsOnSelf("s")
                             .WithEvaluator(
                                 [](EvalContext& ctx) { return ctx.Dep(0); }))
                  .ok());
  auto sub = manager.Subscribe(p, "t");
  ASSERT_TRUE(sub.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        std::string s = sub->Get().AsString();
        size_t colon = s.find(':');
        if (colon == std::string::npos ||
            s.substr(0, colon) != s.substr(colon + 1)) {
          torn.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < 1000; ++i) {
    state.fetch_add(1);
    manager.FireEvent(p, "s");
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
}

TEST(MetadataConcurrencyTest, SeqlockReadersSeeNoTornMixedValues) {
  // One slot switching between kinds: even n is published as an int, odd n
  // as the string "n:n". A read pairing one publish's tag with another's
  // payload shows as a mismatched string or an int outside the published
  // range. Once a number replaces the last string, the slot must not pin
  // that string.
  ThreadPoolScheduler scheduler(1);
  MetadataManager manager(scheduler);
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  std::atomic<int64_t> state{0};
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("s").WithEvaluator(
                             [&state](EvalContext&) {
                               int64_t n = state.load();
                               if (n % 2 == 0) return MetadataValue(n);
                               std::string s = std::to_string(n);
                               return MetadataValue(s + ":" + s);
                             }))
                  .ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("t")
                             .DependsOnSelf("s")
                             .WithEvaluator(
                                 [](EvalContext& ctx) { return ctx.Dep(0); }))
                  .ok());
  auto sub = manager.Subscribe(p, "t");
  ASSERT_TRUE(sub.ok());

  constexpr int64_t kLastString = 1999;
  const std::string last_string =
      std::to_string(kLastString) + ":" + std::to_string(kLastString);
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::atomic<int> torn{0};
  std::atomic<bool> saw_last_string{false};
  std::vector<std::weak_ptr<const std::string>> last_strings(4);
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&, i] {
      started.fetch_add(1);
      while (!stop.load(std::memory_order_acquire)) {
        MetadataValue v = sub->Get();
        if (v.is_int()) {
          int64_t n = v.AsInt();
          if (n % 2 != 0 || n < 0 || n > state.load()) torn.fetch_add(1);
          continue;
        }
        const std::string& s = v.AsString();
        size_t colon = s.find(':');
        bool odd_pair = v.is_string() && colon != std::string::npos &&
                        colon > 0 &&
                        s.substr(0, colon) == s.substr(colon + 1) &&
                        (s[colon - 1] - '0') % 2 == 1;
        if (!odd_pair) torn.fetch_add(1);
        last_strings[i] = v.shared_string();
        if (s == last_string) saw_last_string.store(true);
      }
    });
  }
  while (started.load() < 4) std::this_thread::yield();
  for (int64_t n = 1; n <= kLastString; ++n) {
    state.fetch_add(1);
    manager.FireEvent(p, "s");
  }
  // Let a reader take the last string before a number replaces it.
  while (!saw_last_string.load()) std::this_thread::yield();
  state.fetch_add(1);
  manager.FireEvent(p, "s");
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(sub->Get().AsInt(), kLastString + 1);
  for (const auto& w : last_strings) {
    EXPECT_TRUE(w.expired()) << "a numeric publish must release the string";
  }
}

TEST(MetadataConcurrencyTest, HealthGaugesAgreeUnderConcurrentFaults) {
  // Concurrent Get()s of a flaky on-demand item race their successes and
  // failures through the health state machine. Whatever the interleaving,
  // the fault counters must agree with the evaluator's throws and the
  // degradation gauge with the transitions counted into and out of it.
  ThreadPoolScheduler scheduler(1);
  MetadataManager manager(scheduler);
  SimpleProvider p("p");
  RetryPolicy policy;
  policy.failures_to_degrade = 2;
  policy.successes_to_recover = 1;
  policy.failures_to_quarantine = 1 << 30;  // never skip an evaluation
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("x")
                              .WithEvaluator([](EvalContext& ctx) {
                                if (ctx.eval_index() % 3 != 0) {
                                  throw std::runtime_error("flaky");
                                }
                                return MetadataValue(1.0);
                              })
                              .WithRetryPolicy(policy))
                  .ok());
  auto sub = manager.Subscribe(p, "x");
  ASSERT_TRUE(sub.ok());
  const auto& h = sub->handler();

  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 2000; ++j) sub->Get();
    });
  }
  for (auto& t : threads) t.join();

  uint64_t evals = h->eval_count();
  uint64_t throwing = evals - (evals + 2) / 3;  // indices with i % 3 != 0
  MetadataManagerStats st = manager.stats();
  EXPECT_EQ(evals, 4u * 2000u);
  EXPECT_EQ(h->fault_count(), throwing);
  EXPECT_EQ(st.eval_failures, throwing);
  EXPECT_EQ(st.degradations - st.recoveries, st.degraded_handlers);
  EXPECT_EQ(st.degraded_handlers,
            h->health() == HandlerHealth::kDegraded ? 1u : 0u);
  EXPECT_EQ(st.quarantined_handlers, 0u);
}

TEST(ReentrantLockMetadataTest, EvaluatorMayTakeStateLockHeldByFiringThread) {
  // A processing thread holds the node's state lock exclusively, mutates
  // state, and fires a metadata event whose triggered evaluator takes the
  // same lock shared. Firing synchronously would take the structure lock
  // under the state lock, the reverse of Subscribe's order, so such threads
  // fire deferred: the wave runs once the state lock is released.
  VirtualTimeScheduler scheduler;
  MetadataManager manager(scheduler);
  SimpleProvider p("op");
  double state = 0.0;
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("s").WithEvaluator(
                      [&](EvalContext&) {
                        SharedLock lock(p.state_mutex());
                        return MetadataValue(state);
                      }))
                  .ok());
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Triggered("t")
                              .DependsOnSelf("s")
                              .WithEvaluator([&](EvalContext& ctx) {
                                SharedLock lock(p.state_mutex());
                                return ctx.Dep(0);
                              }))
                  .ok());
  auto sub = manager.Subscribe(p, "t");
  ASSERT_TRUE(sub.ok());

  {
    ExclusiveLock processing(p.state_mutex());
    state = 7.0;
    manager.FireEventDeferred(p, "s");  // takes no structure lock
  }
  ASSERT_TRUE(scheduler.RunNext());
  EXPECT_EQ(sub->Get().AsDouble(), 7.0);
}

}  // namespace
}  // namespace pipes
