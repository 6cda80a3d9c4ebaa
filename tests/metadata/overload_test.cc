/// Overload-robust maintenance: the pressure governor's brownout state
/// machine (deterministic under virtual time via the pressure probe),
/// staleness-bounded cadence degradation, triggered-wave storm damping
/// (coalescing + circuit breaker), and scheduler admission control as seen
/// through the metadata layer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>

#include "metadata/handler.h"
#include "test_support.h"

namespace pipes {
namespace {

using testing::MetaFixture;
using testing::SimpleProvider;

/// Governor options with an explicit, test-friendly shape: 100 ms ticks,
/// 2 hot ticks to pressure, 2 more to brownout, 2 calm ticks per recovery
/// step. The pressured factor (2) and the default staleness cap (8 x
/// period) are fixed.
OverloadControlOptions TestGovernor() {
  OverloadControlOptions opts;
  opts.governor_period = 100 * kMicrosPerMilli;
  opts.brownout_factor = 4.0;
  opts.ticks_to_pressure = 2;
  opts.ticks_to_brownout = 2;
  opts.ticks_to_recover = 2;
  return opts;
}

PeriodicMetadataHandler* AsPeriodic(const MetadataSubscription& sub) {
  return static_cast<PeriodicMetadataHandler*>(sub.handler().get());
}

TEST(OverloadTest, BrownoutStateMachineIsDeterministic) {
  MetaFixture fx;
  SimpleProvider p("p");
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Periodic("x", Seconds(1))
                              .WithEvaluator([](EvalContext&) {
                                return MetadataValue(1.0);
                              }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x").value();
  auto* handler = AsPeriodic(sub);

  auto hot = std::make_shared<bool>(false);
  fx.manager.SetPressureProbe([hot] { return *hot; });
  fx.manager.EnableOverloadControl(TestGovernor());
  EXPECT_EQ(fx.manager.pressure_state(), PressureState::kNormal);
  EXPECT_EQ(handler->effective_period(), Seconds(1));

  // Two hot governor ticks -> pressured, cadence stretched 2x.
  *hot = true;
  fx.RunFor(2 * 100 * kMicrosPerMilli);
  EXPECT_EQ(fx.manager.pressure_state(), PressureState::kPressured);
  EXPECT_EQ(handler->effective_period(), 2 * Seconds(1));

  // Two more hot ticks -> brownout, cadence stretched 4x.
  fx.RunFor(2 * 100 * kMicrosPerMilli);
  EXPECT_EQ(fx.manager.pressure_state(), PressureState::kBrownout);
  EXPECT_EQ(handler->effective_period(), 4 * Seconds(1));

  auto stats = fx.manager.stats();
  EXPECT_EQ(stats.pressure_enters, 1u);
  EXPECT_EQ(stats.brownout_enters, 1u);
  EXPECT_EQ(stats.pressure_state,
            static_cast<int>(PressureState::kBrownout));
  EXPECT_EQ(stats.periods_stretched, 1u);
  EXPECT_GE(stats.period_stretches, 2u);

  // Recovery is hysteretic and stepwise: brownout -> pressured -> normal,
  // each step after a fresh run of calm ticks.
  *hot = false;
  fx.RunFor(2 * 100 * kMicrosPerMilli);
  EXPECT_EQ(fx.manager.pressure_state(), PressureState::kPressured);
  EXPECT_EQ(handler->effective_period(), 2 * Seconds(1));
  fx.RunFor(2 * 100 * kMicrosPerMilli);
  EXPECT_EQ(fx.manager.pressure_state(), PressureState::kNormal);
  EXPECT_EQ(handler->effective_period(), Seconds(1));

  stats = fx.manager.stats();
  EXPECT_EQ(stats.pressure_exits, 1u);
  EXPECT_EQ(stats.periods_stretched, 0u);
  EXPECT_GE(stats.period_restores, 2u);
}

TEST(OverloadTest, SingleCalmTickDoesNotExitPressure) {
  MetaFixture fx;
  auto hot = std::make_shared<bool>(true);
  fx.manager.SetPressureProbe([hot] { return *hot; });
  OverloadControlOptions opts = TestGovernor();
  opts.ticks_to_brownout = 100;  // stay in kPressured for this test
  fx.manager.EnableOverloadControl(opts);

  fx.RunFor(2 * 100 * kMicrosPerMilli);
  ASSERT_EQ(fx.manager.pressure_state(), PressureState::kPressured);

  // One calm tick (< ticks_to_recover) must not unwind the state; the calm
  // counter restarts when pressure returns.
  *hot = false;
  fx.RunFor(100 * kMicrosPerMilli);
  EXPECT_EQ(fx.manager.pressure_state(), PressureState::kPressured);
  *hot = true;
  fx.RunFor(100 * kMicrosPerMilli);
  *hot = false;
  fx.RunFor(100 * kMicrosPerMilli);
  EXPECT_EQ(fx.manager.pressure_state(), PressureState::kPressured);
  fx.RunFor(100 * kMicrosPerMilli);
  EXPECT_EQ(fx.manager.pressure_state(), PressureState::kNormal);
}

TEST(OverloadTest, StalenessBoundCapsTheStretch) {
  MetaFixture fx;
  SimpleProvider p("p");
  // Explicit bound: 250 ms on a 100 ms item. The 4x brownout factor would
  // ask for 400 ms; the bound must win.
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Periodic("bounded",
                                                       100 * kMicrosPerMilli)
                              .WithMaxStaleness(250 * kMicrosPerMilli)
                              .WithEvaluator([](EvalContext&) {
                                return MetadataValue(1.0);
                              }))
                  .ok());
  // No explicit bound: the governor's default cap (8x period) applies; a
  // 16x factor must be clipped to it.
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Periodic("unbounded",
                                                       100 * kMicrosPerMilli)
                              .WithEvaluator([](EvalContext&) {
                                return MetadataValue(1.0);
                              }))
                  .ok());
  auto bounded = fx.manager.Subscribe(p, "bounded").value();
  auto unbounded = fx.manager.Subscribe(p, "unbounded").value();

  auto hot = std::make_shared<bool>(true);
  fx.manager.SetPressureProbe([hot] { return *hot; });
  OverloadControlOptions opts = TestGovernor();
  opts.brownout_factor = 16.0;
  fx.manager.EnableOverloadControl(opts);
  fx.RunFor(4 * 100 * kMicrosPerMilli);
  ASSERT_EQ(fx.manager.pressure_state(), PressureState::kBrownout);

  EXPECT_EQ(AsPeriodic(bounded)->effective_period(), 250 * kMicrosPerMilli);
  EXPECT_EQ(AsPeriodic(unbounded)->effective_period(),
            8 * 100 * kMicrosPerMilli);

  // The bound holds as *observed* staleness, not just as a cadence: sample
  // the bounded item at fine steps across several stretched windows.
  Duration max_seen = 0;
  for (int i = 0; i < 200; ++i) {
    fx.RunFor(10 * kMicrosPerMilli);
    max_seen = std::max(max_seen, bounded.handler()->staleness(fx.Now()));
  }
  EXPECT_LE(max_seen, 250 * kMicrosPerMilli);
  EXPECT_GT(max_seen, 100 * kMicrosPerMilli);  // it did degrade
}

TEST(OverloadTest, LateSubscriberInheritsTheCurrentStretch) {
  MetaFixture fx;
  SimpleProvider p("p");
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Periodic("late", Seconds(1))
                              .WithEvaluator([](EvalContext&) {
                                return MetadataValue(1.0);
                              }))
                  .ok());
  auto hot = std::make_shared<bool>(true);
  fx.manager.SetPressureProbe([hot] { return *hot; });
  fx.manager.EnableOverloadControl(TestGovernor());
  fx.RunFor(4 * 100 * kMicrosPerMilli);
  ASSERT_EQ(fx.manager.pressure_state(), PressureState::kBrownout);

  // An item included mid-brownout starts at the degraded cadence — the
  // brownout cannot be escaped by re-subscribing.
  auto sub = fx.manager.Subscribe(p, "late").value();
  EXPECT_EQ(AsPeriodic(sub)->effective_period(), 4 * Seconds(1));
}

TEST(OverloadTest, DisableRestoresCadences) {
  MetaFixture fx;
  SimpleProvider p("p");
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Periodic("x", Seconds(1))
                              .WithEvaluator([](EvalContext&) {
                                return MetadataValue(1.0);
                              }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x").value();
  auto hot = std::make_shared<bool>(true);
  fx.manager.SetPressureProbe([hot] { return *hot; });
  fx.manager.EnableOverloadControl(TestGovernor());
  fx.RunFor(4 * 100 * kMicrosPerMilli);
  ASSERT_EQ(fx.manager.pressure_state(), PressureState::kBrownout);
  ASSERT_EQ(AsPeriodic(sub)->effective_period(), 4 * Seconds(1));

  fx.manager.DisableOverloadControl();
  EXPECT_EQ(fx.manager.pressure_state(), PressureState::kNormal);
  EXPECT_EQ(AsPeriodic(sub)->effective_period(), Seconds(1));
}

TEST(OverloadTest, ExcludedPeriodicItemsLeaveTheGovernor) {
  // Exclusion drops a periodic item from the governor's list, so churn
  // leaves nothing behind: a brownout stretches exactly the standing item,
  // and the churned item, included again, starts at the stretched cadence.
  MetaFixture fx;
  SimpleProvider p("p");
  for (const char* key : {"standing", "churned"}) {
    ASSERT_TRUE(p.metadata_registry()
                    .Define(MetadataDescriptor::Periodic(key, Seconds(1))
                                .WithEvaluator([](EvalContext&) {
                                  return MetadataValue(1.0);
                                }))
                    .ok());
  }
  auto standing = fx.manager.Subscribe(p, "standing").value();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(fx.manager.Subscribe(p, "churned").ok());
  }

  auto hot = std::make_shared<bool>(true);
  fx.manager.SetPressureProbe([hot] { return *hot; });
  fx.manager.EnableOverloadControl(TestGovernor());
  fx.RunFor(4 * 100 * kMicrosPerMilli);
  ASSERT_EQ(fx.manager.pressure_state(), PressureState::kBrownout);
  auto stats = fx.manager.stats();
  EXPECT_EQ(stats.periods_stretched, 1u);
  EXPECT_EQ(stats.period_stretches, 2u);  // pressured, then brownout
  EXPECT_EQ(AsPeriodic(standing)->effective_period(), 4 * Seconds(1));

  auto again = fx.manager.Subscribe(p, "churned").value();
  EXPECT_EQ(AsPeriodic(again)->effective_period(), 4 * Seconds(1));
}

TEST(OverloadTest, GovernorTicksRaceWavesAndChurnOnAThreadPool) {
  // The other governor tests run in virtual time. Here a 1 ms governor on a
  // two-worker pool changes state every few ticks while one thread fires
  // waves and another includes and excludes a periodic item; each tick
  // takes the structure lock exclusively between their holds.
  std::atomic<int64_t> input{0};
  ThreadPoolScheduler scheduler(2);
  MetadataManager manager(scheduler);
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("in").WithEvaluator(
                             [&input](EvalContext&) {
                               return MetadataValue(
                                   input.load(std::memory_order_relaxed));
                             }))
                  .ok());
  MetadataKey prev = "in";
  for (const char* key : {"mid", "leaf"}) {
    ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered(key)
                               .DependsOnSelf(prev)
                               .WithEvaluator([](EvalContext& ctx) {
                                 return ctx.Dep(0);
                               }))
                    .ok());
    prev = key;
  }
  for (const char* key : {"standing", "churned"}) {
    ASSERT_TRUE(reg.Define(MetadataDescriptor::Periodic(key, Millis(10))
                               .WithEvaluator([](EvalContext&) {
                                 return MetadataValue(1.0);
                               }))
                    .ok());
  }
  auto leaf = manager.Subscribe(p, "leaf").value();
  auto standing = manager.Subscribe(p, "standing").value();

  std::atomic<bool> hot{false};
  manager.SetPressureProbe(
      [&hot] { return hot.load(std::memory_order_relaxed); });
  OverloadControlOptions opts;
  opts.governor_period = Millis(1);
  opts.ticks_to_pressure = 1;
  opts.ticks_to_brownout = 1;
  opts.ticks_to_recover = 1;
  manager.EnableOverloadControl(opts);

  std::atomic<bool> stop{false};
  // Returns how many fires the leaf did not show right after.
  auto waves = std::async(std::launch::async, [&] {
    int64_t misses = 0;
    for (int64_t i = 1; !stop.load(std::memory_order_acquire); ++i) {
      input.store(i, std::memory_order_relaxed);
      manager.FireEvent(p, "in");
      if (leaf.Get().AsInt() != i) ++misses;
    }
    return misses;
  });
  // Returns how many inclusions succeeded.
  auto churn = std::async(std::launch::async, [&] {
    int64_t included = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (manager.Subscribe(p, "churned").ok()) ++included;
    }
    return included;
  });
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < end) {
    hot.store(!hot.load(std::memory_order_relaxed), std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
  }
  stop.store(true, std::memory_order_release);
  // Bounded, so that a deadlock fails the test instead of hanging it.
  for (auto* done : {&waves, &churn}) {
    if (done->wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      std::fprintf(stderr, "governor ticks deadlocked with waves or churn\n");
      std::abort();
    }
  }
  EXPECT_EQ(waves.get(), 0);
  EXPECT_GT(churn.get(), 0);

  manager.DisableOverloadControl();
  auto stats = manager.stats();
  EXPECT_GE(stats.pressure_enters, 1u);
  EXPECT_GE(stats.period_restores, 1u);
  EXPECT_EQ(AsPeriodic(standing)->effective_period(), Millis(10));
  EXPECT_EQ(leaf.Get().AsInt(), input.load());
  // Stop the pool before the manager dies (see MetadataConcurrencyTest).
  scheduler.Shutdown();
}

// --- Storm damping ----------------------------------------------------------

/// Fixture with a triggered chain src -> dst, ready to fire events on src.
struct StormFixture : MetaFixture {
  SimpleProvider p{"p"};
  std::shared_ptr<int> dst_evals = std::make_shared<int>(0);
  MetadataSubscription dst;

  StormFixture() {
    EXPECT_TRUE(p.metadata_registry()
                    .Define(MetadataDescriptor::Triggered("src").WithEvaluator(
                        [](EvalContext&) { return MetadataValue(1.0); }))
                    .ok());
    auto evals = dst_evals;
    EXPECT_TRUE(p.metadata_registry()
                    .Define(MetadataDescriptor::Triggered("dst")
                                .DependsOnSelf("src")
                                .WithEvaluator([evals](EvalContext&) {
                                  return MetadataValue(++*evals);
                                }))
                    .ok());
    dst = manager.Subscribe(p, "dst").value();
  }
};

TEST(OverloadTest, StormCoalescesIntoOneFlushWave) {
  StormFixture fx;
  StormDampingOptions opts;
  opts.max_waves_per_sec = 10.0;
  opts.burst = 2.0;
  opts.breaker_trip_coalesced = 1000;  // breaker out of the way
  fx.manager.EnableStormDamping(opts);

  uint64_t waves_before = fx.manager.stats().waves;
  // 100 back-to-back events: the burst passes, the rest coalesce.
  for (int i = 0; i < 100; ++i) fx.manager.FireEvent(fx.p, "src");
  auto stats = fx.manager.stats();
  EXPECT_EQ(stats.waves - waves_before, 2u);
  EXPECT_EQ(stats.events_coalesced, 98u);

  // The deferred flush runs one wave for the whole coalesced run.
  fx.RunFor(Seconds(1));
  stats = fx.manager.stats();
  EXPECT_EQ(stats.storm_flushes, 1u);
  EXPECT_EQ(stats.waves - waves_before, 3u);
  // >= 10x reduction vs. undamped (100 events -> 3 waves), nothing lost:
  // the dst item saw the final state.
  EXPECT_GE(*fx.dst_evals, 1);
}

TEST(OverloadTest, DampingOffPropagatesEveryEvent) {
  StormFixture fx;
  uint64_t waves_before = fx.manager.stats().waves;
  for (int i = 0; i < 50; ++i) fx.manager.FireEvent(fx.p, "src");
  auto stats = fx.manager.stats();
  EXPECT_EQ(stats.waves - waves_before, 50u);
  EXPECT_EQ(stats.events_coalesced, 0u);
}

TEST(OverloadTest, BreakerTripsAndResetsAfterQuiet) {
  StormFixture fx;
  StormDampingOptions opts;
  opts.max_waves_per_sec = 1.0;
  opts.burst = 1.0;
  opts.breaker_trip_coalesced = 10;
  opts.breaker_batch_interval = 100 * kMicrosPerMilli;
  fx.manager.EnableStormDamping(opts);

  // One admitted wave drains the bucket; 10 coalesced events trip the
  // breaker.
  for (int i = 0; i < 11; ++i) fx.manager.FireEvent(fx.p, "src");
  auto stats = fx.manager.stats();
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.breakers_active, 1u);

  // While tripped, the origin batch-refreshes per interval as long as
  // events keep arriving.
  fx.RunFor(150 * kMicrosPerMilli);
  EXPECT_GE(fx.manager.stats().storm_flushes, 1u);
  fx.manager.FireEvent(fx.p, "src");  // still storming
  // Stop short of the next (quiet) flush: the batch flush at +200ms has run,
  // the reset opportunity at +300ms has not.
  fx.RunFor(100 * kMicrosPerMilli);
  EXPECT_GE(fx.manager.stats().storm_flushes, 2u);
  EXPECT_EQ(fx.manager.stats().breakers_active, 1u);

  // A whole batch interval without one event resets the breaker.
  fx.RunFor(500 * kMicrosPerMilli);
  EXPECT_EQ(fx.manager.stats().breakers_active, 0u);
}

TEST(OverloadTest, DisablingDampingClearsATrippedBreaker) {
  // Damping switched off while an origin's breaker is tripped and one more
  // event is coalesced: the pending flush still runs the last wave, and no
  // flush comes back afterwards to close the breaker — so that flush must.
  StormFixture fx;
  StormDampingOptions opts;
  opts.max_waves_per_sec = 1.0;
  opts.burst = 1.0;
  opts.breaker_trip_coalesced = 10;
  opts.breaker_batch_interval = 100 * kMicrosPerMilli;
  fx.manager.EnableStormDamping(opts);
  for (int i = 0; i < 11; ++i) fx.manager.FireEvent(fx.p, "src");
  ASSERT_EQ(fx.manager.stats().breakers_active, 1u);
  fx.manager.FireEvent(fx.p, "src");  // coalesced into the pending flush
  const int evals_before = *fx.dst_evals;

  fx.manager.DisableStormDamping();
  fx.RunFor(Seconds(1));
  EXPECT_GT(*fx.dst_evals, evals_before) << "the last coalesced event is lost";
  EXPECT_EQ(fx.manager.stats().breakers_active, 0u);
}

TEST(OverloadTest, EventDuringAFlushWaveArmsTheOnlyNextFlush) {
  // A tripped origin's flush wave can itself coalesce a new event: here the
  // dependent's evaluator fires the origin again. That event arms the next
  // batch flush, and the flush must not arm a second one on top of it, or
  // the flushes would multiply every interval.
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  bool armed = false;
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("src").WithEvaluator(
                  [](EvalContext&) { return MetadataValue(1.0); }))
                  .ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("dst")
                             .DependsOnSelf("src")
                             .WithEvaluator([&](EvalContext&) {
                               if (armed) fx.manager.FireEvent(p, "src");
                               return MetadataValue(1.0);
                             }))
                  .ok());
  auto dst = fx.manager.Subscribe(p, "dst");
  ASSERT_TRUE(dst.ok());

  StormDampingOptions opts;
  opts.max_waves_per_sec = 1.0;
  opts.burst = 1.0;
  opts.breaker_trip_coalesced = 10;
  opts.breaker_batch_interval = 100 * kMicrosPerMilli;
  fx.manager.EnableStormDamping(opts);
  for (int i = 0; i < 11; ++i) fx.manager.FireEvent(p, "src");
  ASSERT_EQ(fx.manager.stats().breakers_active, 1u);
  armed = true;

  // Batch flushes at +100 ms .. +1000 ms, each re-firing src once.
  fx.RunFor(Seconds(1) + 50 * kMicrosPerMilli);
  auto stats = fx.manager.stats();
  EXPECT_EQ(stats.storm_flushes, 10u);
  EXPECT_EQ(stats.events_coalesced, 10u + 10u);
  EXPECT_EQ(stats.breakers_active, 1u);
}

}  // namespace
}  // namespace pipes
