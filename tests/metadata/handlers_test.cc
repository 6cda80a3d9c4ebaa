/// Update mechanisms (paper §3.2): static, on-demand, periodic, triggered —
/// including the isolation anomaly of Figure 4 and the aggregation anomaly
/// of Figure 5 at unit level.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/scheduler.h"
#include "metadata/handler.h"
#include "metadata/probes.h"
#include "test_support.h"

namespace pipes {
namespace {

using testing::MetaFixture;
using testing::SimpleProvider;

TEST(StaticHandlerTest, EvaluatorRunsExactlyOnce) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto calls = std::make_shared<int>(0);
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Static("x", 0)
                              .WithEvaluator([calls](EvalContext&) {
                                ++*calls;
                                return MetadataValue(11);
                              }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->Get().AsInt(), 11);
  EXPECT_EQ(sub->Get().AsInt(), 11);
  EXPECT_EQ(*calls, 1);
}

TEST(OnDemandHandlerTest, RecomputedOnEveryAccess) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto calls = std::make_shared<int>(0);
  ASSERT_TRUE(p.metadata_registry()
                  .Define(testing::CountingOnDemand("x", calls))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(*calls, 0);  // no pre-computation for on-demand items
  sub->Get();
  sub->Get();
  sub->Get();
  EXPECT_EQ(*calls, 3);
}

TEST(OnDemandHandlerTest, ElapsedIsTimeSinceLastAccess) {
  MetaFixture fx;
  SimpleProvider p("p");
  std::vector<Duration> elapsed;
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("x").WithEvaluator(
                      [&elapsed](EvalContext& ctx) {
                        elapsed.push_back(ctx.elapsed());
                        return MetadataValue(0.0);
                      }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x");
  ASSERT_TRUE(sub.ok());
  fx.RunFor(100);
  sub->Get();
  fx.RunFor(250);
  sub->Get();
  ASSERT_EQ(elapsed.size(), 2u);
  EXPECT_EQ(elapsed[0], 100);
  EXPECT_EQ(elapsed[1], 250);
}

TEST(PeriodicHandlerTest, UpdatesAtWindowBoundaries) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto ticks = std::make_shared<int>(0);
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Periodic("x", 100)
                              .WithEvaluator([ticks](EvalContext& ctx) {
                                if (ctx.elapsed() > 0) ++*ticks;
                                return MetadataValue(double(*ticks));
                              }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(*ticks, 0);
  fx.RunFor(1000);
  EXPECT_EQ(*ticks, 10);
}

TEST(PeriodicHandlerTest, ConsumersSeeTheLastCompletedWindow) {
  // The isolation condition (§3.1): reads between ticks return the same
  // pre-computed value and never trigger evaluation.
  MetaFixture fx;
  SimpleProvider p("p");
  auto evals = std::make_shared<int>(0);
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Periodic("x", 100)
                              .WithEvaluator([evals](EvalContext&) {
                                return MetadataValue(double(++*evals));
                              }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x");
  ASSERT_TRUE(sub.ok());
  fx.RunFor(150);  // one boundary passed
  double v1 = sub->Get().AsDouble();
  double v2 = sub->Get().AsDouble();
  double v3 = sub->Get().AsDouble();
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(v2, v3);
  EXPECT_EQ(*evals, 2);  // activation + one tick; accesses are free
}

TEST(PeriodicHandlerTest, TickStopsAfterUnsubscribe) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto evals = std::make_shared<int>(0);
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Periodic("x", 100)
                              .WithEvaluator([evals](EvalContext&) {
                                return MetadataValue(double(++*evals));
                              }))
                  .ok());
  {
    auto sub = fx.manager.Subscribe(p, "x");
    ASSERT_TRUE(sub.ok());
    fx.RunFor(300);
  }
  int evals_at_unsubscribe = *evals;
  fx.RunFor(1000);
  EXPECT_EQ(*evals, evals_at_unsubscribe);
}

TEST(PeriodicHandlerTest, WindowSizeCalibratesUpdateCost) {
  // "The window size is a parameter in our approach that allows calibrating
  // the tradeoff between freshness and computational overhead." (§3.1)
  for (Duration period : {50, 100, 500}) {
    MetaFixture fx;
    SimpleProvider p("p");
    auto evals = std::make_shared<int>(0);
    ASSERT_TRUE(p.metadata_registry()
                    .Define(MetadataDescriptor::Periodic("x", period)
                                .WithEvaluator([evals](EvalContext&) {
                                  return MetadataValue(double(++*evals));
                                }))
                    .ok());
    auto sub = fx.manager.Subscribe(p, "x");
    ASSERT_TRUE(sub.ok());
    fx.RunFor(1000);
    EXPECT_EQ(*evals, 1 + 1000 / period);
  }
}

TEST(TriggeredHandlerTest, PreComputedOnFirstSubscription) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto calls = std::make_shared<int>(0);
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Triggered("x").WithEvaluator(
                      [calls](EvalContext&) {
                        ++*calls;
                        return MetadataValue(9.0);
                      }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(*calls, 1);  // pre-computed
  EXPECT_EQ(sub->Get().AsDouble(), 9.0);
  sub->Get();
  EXPECT_EQ(*calls, 1);  // access never evaluates
}

TEST(TriggeredHandlerTest, RefreshesWhenUnderlyingPeriodicPublishes) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto tick = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Periodic("base", 100)
                             .WithEvaluator([tick](EvalContext&) {
                               return MetadataValue(double(++*tick));
                             }))
                  .ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("derived")
                             .DependsOnSelf("base")
                             .WithEvaluator([](EvalContext& ctx) {
                               return MetadataValue(10 * ctx.DepDouble(0));
                             }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "derived");
  ASSERT_TRUE(sub.ok());
  fx.RunFor(250);  // two ticks
  EXPECT_EQ(sub->Get().AsDouble(), 10 * 3);  // activation + 2 ticks => base==3
  uint64_t refreshes = fx.manager.stats().wave_refreshes;
  EXPECT_EQ(refreshes, 2u);
}

TEST(TriggeredHandlerTest, CostsNothingWhileUnderlyingIsQuiet) {
  // "This causes fewer costs than a periodic update" (§3.2.3): no base
  // publications, no refreshes.
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("state")
                             .WithEvaluator([](EvalContext&) {
                               return MetadataValue(1.0);
                             }))
                  .ok());
  auto calls = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("derived")
                             .DependsOnSelf("state")
                             .WithEvaluator([calls](EvalContext& ctx) {
                               ++*calls;
                               return ctx.Dep(0);
                             }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "derived");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(*calls, 1);
  fx.RunFor(Seconds(100));
  EXPECT_EQ(*calls, 1);  // nothing changed, nothing recomputed

  // A manual event notification (the developer "fires triggers manually").
  p.FireMetadataEvent("state");
  EXPECT_EQ(*calls, 2);
}

// ---------------------------------------------------------------------------
// Cached reads stay off the clock: only on-demand reads depend on the time.
// ---------------------------------------------------------------------------

/// A wall clock that counts the reads made on the thread that built it, so
/// the scheduler worker's own reads do not show.
class TestThreadCountingClock final : public Clock {
 public:
  Timestamp Now() const override {
    if (std::this_thread::get_id() == owner_) {
      reads_.fetch_add(1, std::memory_order_relaxed);
    }
    return inner_.Now();
  }
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }

 private:
  SystemClock inner_;
  std::thread::id owner_ = std::this_thread::get_id();
  mutable std::atomic<uint64_t> reads_{0};
};

TEST(CachedReadTest, OnlyOnDemandReadsTheClock) {
  TestThreadCountingClock clock;
  ThreadPoolScheduler scheduler(1, &clock);
  MetadataManager manager(scheduler);
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Static("static", 1)).ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Periodic("periodic", Seconds(3600))
                             .WithEvaluator([](EvalContext&) {
                               return MetadataValue(2.0);
                             }))
                  .ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("triggered")
                             .WithEvaluator([](EvalContext&) {
                               return MetadataValue(3.0);
                             }))
                  .ok());
  auto calls = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(testing::CountingOnDemand("ondemand", calls)).ok());

  constexpr int kReads = 1000;
  for (const char* key : {"static", "periodic", "triggered"}) {
    auto sub = manager.Subscribe(p, key);
    ASSERT_TRUE(sub.ok()) << key;
    const uint64_t before = clock.reads();
    for (int i = 0; i < kReads; ++i) sub->Get();
    EXPECT_EQ(clock.reads() - before, 0u) << key;
  }
  auto sub = manager.Subscribe(p, "ondemand");
  ASSERT_TRUE(sub.ok());
  const uint64_t before = clock.reads();
  for (int i = 0; i < kReads; ++i) sub->Get();
  EXPECT_EQ(clock.reads() - before, static_cast<uint64_t>(kReads));
  EXPECT_EQ(*calls, kReads);
}

// ---------------------------------------------------------------------------
// Figure 4: two consumers computing the input rate concurrently.
// ---------------------------------------------------------------------------

struct Fig4Setup {
  MetaFixture fx;
  SimpleProvider p{"op"};
  CounterProbe arrivals;

  // Element arrival every 10 time units => true rate 0.1 elements/unit.
  void DeliverElementsUntil(Timestamp end) {
    for (Timestamp t = 10; t <= end; t += 10) {
      fx.scheduler.ScheduleAt(t, [this] { arrivals.Increment(); });
    }
    arrivals.Enable();
  }
};

TEST(Figure4Test, NaiveOnDemandRateInterferesAcrossConsumers) {
  Fig4Setup s;
  auto cursor = std::make_shared<ProbeCursor>();
  // The naive on-demand rate: elements since last access / time since last
  // access — the broken design §3.1 warns about.
  ASSERT_TRUE(s.p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("rate").WithEvaluator(
                      [&s, cursor](EvalContext& ctx) -> MetadataValue {
                        if (ctx.elapsed() <= 0) return 0.0;
                        double n = double(cursor->TakeDelta(s.arrivals));
                        return n / double(ctx.elapsed());
                      }))
                  .ok());
  s.DeliverElementsUntil(500);
  auto user_a = s.fx.manager.Subscribe(s.p, "rate");
  auto user_b = s.fx.manager.Subscribe(s.p, "rate");
  ASSERT_TRUE(user_a.ok());
  ASSERT_TRUE(user_b.ok());

  // User A reads at 100, 150, 200, ...; user B reads 1 unit later. Because
  // both consumers share the counter, B always sees a freshly reset counter.
  std::vector<double> a_vals, b_vals;
  for (Timestamp t = 100; t <= 400; t += 50) {
    s.fx.scheduler.RunUntil(t);
    a_vals.push_back(user_a->Get().AsDouble());
    s.fx.scheduler.RunUntil(t + 1);
    b_vals.push_back(user_b->Get().AsDouble());
  }
  // The correct rate is 0.1; user B's measurements are ruined (0 in our
  // deterministic schedule: no element arrives within 1 time unit).
  for (size_t i = 1; i < b_vals.size(); ++i) {
    EXPECT_EQ(b_vals[i], 0.0);
  }
  // And user A's are inflated: it also counts the elements of B's interval.
  for (size_t i = 1; i < a_vals.size(); ++i) {
    EXPECT_GT(a_vals[i], 0.1 - 1e-9);
  }
}

TEST(Figure4Test, PeriodicHandlerGivesAllConsumersTheCorrectRate) {
  Fig4Setup s;
  auto cursor = std::make_shared<ProbeCursor>();
  ASSERT_TRUE(s.p.metadata_registry()
                  .Define(MetadataDescriptor::Periodic("rate", 100)
                              .WithEvaluator(
                                  [&s, cursor](EvalContext& ctx) -> MetadataValue {
                                    if (ctx.elapsed() <= 0) return MetadataValue::Null();
                                    double n = double(cursor->TakeDelta(s.arrivals));
                                    return n / double(ctx.elapsed());
                                  }))
                  .ok());
  s.DeliverElementsUntil(500);
  auto user_a = s.fx.manager.Subscribe(s.p, "rate");
  auto user_b = s.fx.manager.Subscribe(s.p, "rate");
  ASSERT_TRUE(user_a.ok());
  ASSERT_TRUE(user_b.ok());

  for (Timestamp t = 150; t <= 450; t += 100) {
    s.fx.scheduler.RunUntil(t);
    EXPECT_DOUBLE_EQ(user_a->Get().AsDouble(), 0.1);
    s.fx.scheduler.RunUntil(t + 1);
    EXPECT_DOUBLE_EQ(user_b->Get().AsDouble(), 0.1);
  }
}

// ---------------------------------------------------------------------------
// Figure 5: on-demand aggregation over a periodically updated item.
// ---------------------------------------------------------------------------

TEST(Figure5Test, TriggeredAverageIsSynchronizedWithItsInput) {
  // input rate alternates between 10 (burst) and 0 (silence) per window.
  // A triggered average sees every published value; a slow on-demand
  // average samples unsynchronized and (here) observes only the peaks.
  MetaFixture fx;
  SimpleProvider p("op");
  auto& reg = p.metadata_registry();
  auto window_index = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Periodic("rate", 100)
                             .WithEvaluator(
                                 [window_index](EvalContext& ctx) -> MetadataValue {
                                   if (ctx.elapsed() <= 0) return MetadataValue::Null();
                                   return (*window_index)++ % 2 == 0 ? 10.0 : 0.0;
                                 }))
                  .ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("avg_triggered")
                             .DependsOnSelf("rate")
                             .WithEvaluator([](EvalContext& ctx) -> MetadataValue {
                               if (ctx.Dep(0).is_null()) return MetadataValue::Null();
                               double x = ctx.DepDouble(0);
                               if (ctx.Previous().is_null()) return x;
                               double n = double(ctx.eval_index());
                               double prev = ctx.Previous().AsDouble();
                               return prev + (x - prev) / n;
                             }))
                  .ok());
  auto avg_count = std::make_shared<int>(0);
  auto avg_sum = std::make_shared<double>(0.0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("avg_ondemand")
                             .DependsOnSelf("rate")
                             .WithEvaluator(
                                 [avg_count, avg_sum](EvalContext& ctx) -> MetadataValue {
                                   if (ctx.Dep(0).is_null()) return MetadataValue::Null();
                                   *avg_sum += ctx.DepDouble(0);
                                   ++*avg_count;
                                   return *avg_sum / *avg_count;
                                 }))
                  .ok());

  auto triggered = fx.manager.Subscribe(p, "avg_triggered");
  auto ondemand = fx.manager.Subscribe(p, "avg_ondemand");
  ASSERT_TRUE(triggered.ok());
  ASSERT_TRUE(ondemand.ok());

  // Access the on-demand average every 200 units: always right after a
  // *peak* window was published (rate pattern 10,0,10,0,... every 100).
  double od = 0;
  for (Timestamp t = 150; t <= 2000; t += 200) {
    fx.scheduler.RunUntil(t);
    od = ondemand->Get().AsDouble();
  }
  double tr = triggered->Get().AsDouble();
  // True average is 5. The triggered average converges to it...
  EXPECT_NEAR(tr, 5.0, 0.6);
  // ...while the unsynchronized on-demand average reports the peak rate
  // ("the less frequent updates ... are always computed for the peak input
  // rate, which results in a wrong average value").
  EXPECT_NEAR(od, 10.0, 1e-9);
}

}  // namespace
}  // namespace pipes
