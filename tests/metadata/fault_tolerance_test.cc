/// Fault paths of the metadata framework: throwing / NaN / slow evaluators
/// under on-demand, periodic, and triggered mechanisms; health state machine
/// (degrade, quarantine with exponential backoff, recovery); fallback
/// values; scheduler watchdog; deterministic fault injection.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/fault_injection.h"
#include "common/reentrant_shared_mutex.h"
#include "metadata/handler.h"
#include "test_support.h"

namespace pipes {
namespace {

using testing::MetaFixture;
using testing::SimpleProvider;

/// Evaluator that throws while *armed is true, else returns ++*value.
Evaluator FlakyEvaluator(std::shared_ptr<bool> armed,
                         std::shared_ptr<double> value) {
  return [armed, value](EvalContext&) -> MetadataValue {
    if (*armed) throw std::runtime_error("flaky evaluator down");
    return MetadataValue(++*value);
  };
}

TEST(FaultToleranceTest, OnDemandThrowServesLastKnownGood) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto armed = std::make_shared<bool>(false);
  auto value = std::make_shared<double>(0.0);
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("x").WithEvaluator(
                      FlakyEvaluator(armed, value)))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x").value();

  fx.RunFor(100);
  EXPECT_EQ(sub.GetDouble(), 1.0);
  Timestamp good_at = sub.handler()->last_updated();
  EXPECT_EQ(sub.handler()->health(), HandlerHealth::kHealthy);

  *armed = true;
  fx.RunFor(100);
  // Contained: no crash, last-known-good value served, staleness grows.
  EXPECT_EQ(sub.GetDouble(), 1.0);
  EXPECT_EQ(sub.handler()->last_updated(), good_at);
  EXPECT_GT(sub.handler()->staleness(fx.Now()), 0);
  EXPECT_NE(sub.handler()->health(), HandlerHealth::kHealthy);
  EXPECT_GE(sub.handler()->fault_count(), 1u);
  EXPECT_FALSE(sub.handler()->last_error().empty());

  auto stats = fx.manager.stats();
  EXPECT_GE(stats.eval_failures, 1u);
}

TEST(FaultToleranceTest, FirstEvalFailureServesFallback) {
  MetaFixture fx;
  SimpleProvider p("p");
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("x")
                              .WithEvaluator([](EvalContext&) -> MetadataValue {
                                throw std::runtime_error("always down");
                              })
                              .WithFallbackValue(42.0))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x").value();
  EXPECT_EQ(sub.GetDouble(), 42.0);  // no last-known-good yet
  EXPECT_EQ(sub.handler()->health(), HandlerHealth::kDegraded);
}

TEST(FaultToleranceTest, NonFiniteResultsAreRejected) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto nan_mode = std::make_shared<bool>(false);
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("x").WithEvaluator(
                      [nan_mode](EvalContext&) -> MetadataValue {
                        if (*nan_mode) {
                          return MetadataValue(
                              std::numeric_limits<double>::quiet_NaN());
                        }
                        return MetadataValue(7.0);
                      }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x").value();
  EXPECT_EQ(sub.GetDouble(), 7.0);
  *nan_mode = true;
  MetadataValue v = sub.Get();
  EXPECT_TRUE(std::isfinite(v.AsDouble()));
  EXPECT_EQ(v.AsDouble(), 7.0);  // NaN rejected, last-known-good served
  EXPECT_GE(sub.handler()->fault_count(), 1u);
  EXPECT_EQ(fx.manager.stats().eval_failures, 1u);
}

TEST(FaultToleranceTest, HealthStateMachineDegradesThenQuarantines) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto armed = std::make_shared<bool>(true);
  auto value = std::make_shared<double>(0.0);
  RetryPolicy policy;
  policy.failures_to_degrade = 2;
  policy.failures_to_quarantine = 4;
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("x")
                              .WithEvaluator(FlakyEvaluator(armed, value))
                              .WithRetryPolicy(policy)
                              .WithFallbackValue(0.5))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x").value();

  sub.Get();  // failure 1
  EXPECT_EQ(sub.handler()->health(), HandlerHealth::kHealthy);
  sub.Get();  // failure 2 -> degraded
  EXPECT_EQ(sub.handler()->health(), HandlerHealth::kDegraded);
  sub.Get();  // failure 3
  sub.Get();  // failure 4 -> quarantined
  EXPECT_EQ(sub.handler()->health(), HandlerHealth::kQuarantined);
  EXPECT_EQ(sub.handler()->consecutive_failures(), 4);

  auto stats = fx.manager.stats();
  EXPECT_EQ(stats.degradations, 1u);
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.quarantined_handlers, 1u);
  EXPECT_EQ(stats.degraded_handlers, 0u);  // degraded -> quarantined
}

TEST(FaultToleranceTest, SuccessResetsAFailureRunWhileHealthy) {
  // One failure below the degrade threshold leaves the handler healthy but
  // not clean: the next success must still end the failure run, so a later
  // failure starts a new run instead of completing the old one.
  MetaFixture fx;
  SimpleProvider p("p");
  auto armed = std::make_shared<bool>(true);
  auto value = std::make_shared<double>(0.0);
  RetryPolicy policy;
  policy.failures_to_degrade = 2;
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("x")
                              .WithEvaluator(FlakyEvaluator(armed, value))
                              .WithRetryPolicy(policy))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x").value();

  sub.Get();  // failure: run of 1, still healthy
  EXPECT_EQ(sub.handler()->health(), HandlerHealth::kHealthy);
  EXPECT_EQ(sub.handler()->consecutive_failures(), 1);
  *armed = false;
  sub.Get();  // success ends the run
  EXPECT_EQ(sub.handler()->consecutive_failures(), 0);
  *armed = true;
  sub.Get();  // failure: a new run of 1
  EXPECT_EQ(sub.handler()->health(), HandlerHealth::kHealthy);
  EXPECT_EQ(sub.handler()->consecutive_failures(), 1);
  EXPECT_EQ(fx.manager.stats().degradations, 0u);
}

TEST(FaultToleranceTest, FaultContainedUnderProviderStateLock) {
  // An operator may read its own on-demand metadata while holding its state
  // lock. A faulting evaluation under that lock is contained: it quarantines
  // the handler and serves the fallback, and the next read inside the
  // backoff skips the evaluator. The health state machine runs under the
  // handler's eval_mu, so this checks the state_mu -> eval_mu nesting.
  MetaFixture fx;
  SimpleProvider p("op");
  auto armed = std::make_shared<bool>(true);
  auto value = std::make_shared<double>(0.0);
  RetryPolicy policy;
  policy.failures_to_quarantine = 1;
  policy.initial_backoff = 1000;
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("x")
                              .WithEvaluator(FlakyEvaluator(armed, value))
                              .WithRetryPolicy(policy)
                              .WithFallbackValue(2.5))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x").value();
  {
    SharedLock processing(p.state_mutex());
    EXPECT_EQ(sub.GetDouble(), 2.5);  // failure -> quarantined
    EXPECT_EQ(sub.GetDouble(), 2.5);  // inside the backoff: skipped
  }
  EXPECT_EQ(sub.handler()->health(), HandlerHealth::kQuarantined);
  EXPECT_EQ(sub.handler()->fault_count(), 1u);
  EXPECT_EQ(sub.handler()->skipped_eval_count(), 1u);
}

TEST(FaultToleranceTest, QuarantineBackoffSkipsEvaluations) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto armed = std::make_shared<bool>(true);
  auto value = std::make_shared<double>(0.0);
  RetryPolicy policy;
  policy.failures_to_quarantine = 1;
  policy.initial_backoff = 1000;  // 1 ms
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = 8000;
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("x")
                              .WithEvaluator(FlakyEvaluator(armed, value))
                              .WithFallbackValue(1.5)
                              .WithRetryPolicy(policy))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x").value();

  sub.Get();  // failure -> quarantined, backoff until t+1000
  EXPECT_EQ(sub.handler()->health(), HandlerHealth::kQuarantined);
  uint64_t evals_after_failure = sub.handler()->eval_count();

  // Inside the backoff window: evaluator not touched, fallback served.
  fx.RunFor(500);
  EXPECT_EQ(sub.GetDouble(), 1.5);
  EXPECT_EQ(sub.handler()->eval_count(), evals_after_failure);
  EXPECT_GE(sub.handler()->skipped_eval_count(), 1u);
  EXPECT_GE(fx.manager.stats().evals_skipped, 1u);

  // Past the deadline the retry probe runs (and fails again, doubling the
  // backoff).
  fx.RunFor(600);
  sub.Get();
  EXPECT_EQ(sub.handler()->eval_count(), evals_after_failure + 1);
}

TEST(FaultToleranceTest, BackoffJitterIsBoundedAndDeterministic) {
  // backoff_jitter perturbs each applied retry delay by U(1-j, 1+j) while
  // the growth schedule stays exact; the RNG is seeded from the handler's
  // identity, so two identical runs replay the same jittered schedule.
  auto run_once = [](std::vector<uint64_t>* evals) {
    MetaFixture fx;
    SimpleProvider p("p");
    auto armed = std::make_shared<bool>(true);
    auto value = std::make_shared<double>(0.0);
    RetryPolicy policy;
    policy.failures_to_quarantine = 1;
    policy.initial_backoff = 1000;
    policy.backoff_multiplier = 2.0;
    policy.max_backoff = 8000;
    policy.backoff_jitter = 0.2;  // delay drawn from [800, 1200]
    ASSERT_TRUE(p.metadata_registry()
                    .Define(MetadataDescriptor::OnDemand("x")
                                .WithEvaluator(FlakyEvaluator(armed, value))
                                .WithFallbackValue(1.5)
                                .WithRetryPolicy(policy))
                    .ok());
    auto sub = fx.manager.Subscribe(p, "x").value();

    sub.Get();  // failure -> quarantined; deadline in [t+800, t+1200]
    ASSERT_EQ(sub.handler()->health(), HandlerHealth::kQuarantined);
    uint64_t base = sub.handler()->eval_count();

    fx.RunFor(700);
    sub.Get();  // inside every possible jittered window: no probe
    EXPECT_EQ(sub.handler()->eval_count(), base);
    fx.RunFor(600);  // t+1300: past every possible jittered window
    sub.Get();       // probe runs (and fails again; backoff grows to 2000)
    EXPECT_EQ(sub.handler()->eval_count(), base + 1);

    // Sample the subsequent jittered schedule at fine granularity.
    for (int i = 0; i < 40; ++i) {
      fx.RunFor(100);
      sub.Get();
      evals->push_back(sub.handler()->eval_count());
    }
  };
  std::vector<uint64_t> first, second;
  run_once(&first);
  run_once(&second);
  EXPECT_EQ(first, second);
}

TEST(FaultToleranceTest, QuarantinedHandlerRecoversAfterFaultsStop) {
  MetaFixture fx;
  SimpleProvider p("p");
  auto armed = std::make_shared<bool>(true);
  auto value = std::make_shared<double>(0.0);
  RetryPolicy policy;
  policy.failures_to_quarantine = 2;
  policy.successes_to_recover = 2;
  policy.initial_backoff = 100;
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("x")
                              .WithEvaluator(FlakyEvaluator(armed, value))
                              .WithRetryPolicy(policy))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x").value();

  sub.Get();
  sub.Get();
  EXPECT_EQ(sub.handler()->health(), HandlerHealth::kQuarantined);

  *armed = false;
  fx.RunFor(200);  // leave the backoff window
  sub.Get();       // success 1
  EXPECT_EQ(sub.handler()->health(), HandlerHealth::kQuarantined);
  sub.Get();  // success 2 -> healthy
  EXPECT_EQ(sub.handler()->health(), HandlerHealth::kHealthy);
  EXPECT_EQ(sub.handler()->recovery_count(), 1u);

  auto stats = fx.manager.stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.quarantined_handlers, 0u);
  EXPECT_EQ(stats.degraded_handlers, 0u);
}

TEST(FaultToleranceTest, PeriodicHandlerRetriesOnItsCadence) {
  // A periodic item whose evaluator fails for a while: ticks keep firing,
  // the published value stays at last-known-good, and once the evaluator
  // heals the item recovers without any consumer intervention.
  MetaFixture fx;
  SimpleProvider p("p");
  auto armed = std::make_shared<bool>(false);
  auto value = std::make_shared<double>(0.0);
  RetryPolicy policy;
  policy.failures_to_quarantine = 2;
  policy.successes_to_recover = 1;
  policy.initial_backoff = 150;  // shorter than the period: every tick probes
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Periodic("x", 100)
                              .WithEvaluator(FlakyEvaluator(armed, value))
                              .WithRetryPolicy(policy))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x").value();
  fx.RunFor(250);  // activation + 2 ticks
  EXPECT_EQ(sub.GetDouble(), 3.0);

  *armed = true;
  fx.RunFor(500);
  EXPECT_EQ(sub.GetDouble(), 3.0);  // stale but served
  EXPECT_EQ(sub.handler()->health(), HandlerHealth::kQuarantined);
  EXPECT_GT(sub.handler()->staleness(fx.Now()), 400);

  *armed = false;
  fx.RunFor(1000);
  EXPECT_EQ(sub.handler()->health(), HandlerHealth::kHealthy);
  EXPECT_GT(sub.GetDouble(), 3.0);
  EXPECT_LE(sub.handler()->staleness(fx.Now()), 100);
}

TEST(FaultToleranceTest, WaveContainsFaultyTriggeredHandler) {
  // base -> {bad, good}: bad's evaluator throws during the wave; good must
  // still be refreshed and the wave must complete.
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto base_value = std::make_shared<double>(1.0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("base").WithEvaluator(
                  [base_value](EvalContext&) {
                    return MetadataValue(*base_value);
                  }))
                  .ok());
  auto bad_armed = std::make_shared<bool>(false);
  auto bad_value = std::make_shared<double>(0.0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("bad")
                             .DependsOnSelf("base")
                             .WithEvaluator(FlakyEvaluator(bad_armed, bad_value)))
                  .ok());
  auto good_calls = std::make_shared<int>(0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::Triggered("good")
                             .DependsOnSelf("base")
                             .WithEvaluator([good_calls](EvalContext& ctx) {
                               ++*good_calls;
                               return ctx.Dep(0);
                             }))
                  .ok());
  auto bad = fx.manager.Subscribe(p, "bad").value();
  auto good = fx.manager.Subscribe(p, "good").value();
  int calls_before = *good_calls;

  *bad_armed = true;
  *base_value = 2.0;
  p.FireMetadataEvent("base");  // must not throw out of the wave

  EXPECT_EQ(*good_calls, calls_before + 1);  // sibling still refreshed
  EXPECT_EQ(good.GetDouble(), 2.0);
  EXPECT_NE(bad.handler()->health(), HandlerHealth::kHealthy);
  EXPECT_EQ(fx.manager.stats().waves, 1u);
}

TEST(FaultToleranceTest, TriggeredActivationFailureFallsBack) {
  MetaFixture fx;
  SimpleProvider p("p");
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::Triggered("x")
                              .WithEvaluator([](EvalContext&) -> MetadataValue {
                                throw std::runtime_error("boom at activation");
                              })
                              .WithFallbackValue(9.0))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x").value();  // activation eval fails
  EXPECT_EQ(sub.GetDouble(), 9.0);
  EXPECT_GE(sub.handler()->fault_count(), 1u);
}

TEST(FaultToleranceTest, FaultInjectorIsDeterministic) {
  FaultInjector a(1234), b(1234);
  FaultSpec spec;
  spec.throw_probability = 0.2;
  spec.nan_probability = 0.2;
  spec.sleep_probability = 0.1;
  a.Arm("*", spec);
  b.Arm("*", spec);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.Decide("scope"), b.Decide("scope"));
  }
  auto sa = a.stats(), sb = b.stats();
  EXPECT_EQ(sa.decisions, 500u);
  EXPECT_EQ(sa.throws, sb.throws);
  EXPECT_EQ(sa.nans, sb.nans);
  EXPECT_EQ(sa.sleeps, sb.sleeps);
  EXPECT_GT(sa.throws, 0u);
  EXPECT_GT(sa.nans, 0u);
}

TEST(FaultToleranceTest, FaultInjectorScopesAndWildcard) {
  FaultInjector inj(7);
  inj.Arm("p.x", FaultSpec::Throwing(1.0));
  EXPECT_TRUE(inj.armed("p.x"));
  EXPECT_FALSE(inj.armed("p.y"));
  EXPECT_EQ(inj.Decide("p.x"), FaultAction::kThrow);
  EXPECT_EQ(inj.Decide("p.y"), FaultAction::kNone);
  inj.Arm("*", FaultSpec::Nan(1.0));
  EXPECT_TRUE(inj.armed("p.y"));
  EXPECT_EQ(inj.Decide("p.y"), FaultAction::kReturnNan);
  EXPECT_EQ(inj.Decide("p.x"), FaultAction::kThrow);  // exact beats wildcard
  inj.DisarmAll();
  EXPECT_EQ(inj.Decide("p.x"), FaultAction::kNone);
}

TEST(FaultToleranceTest, WrappedEvaluatorInjectsThrowAndNan) {
  MetaFixture fx;
  SimpleProvider p("p");
  FaultInjector inj(99);
  ASSERT_TRUE(p.metadata_registry()
                  .Define(MetadataDescriptor::OnDemand("x")
                              .WithEvaluator(inj.Wrap(
                                  "p.x",
                                  Evaluator([](EvalContext&) {
                                    return MetadataValue(5.0);
                                  })))
                              .WithFallbackValue(-1.0))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "x").value();
  EXPECT_EQ(sub.GetDouble(), 5.0);  // unarmed: passes through

  inj.Arm("p.x", FaultSpec::Throwing(1.0));
  EXPECT_EQ(sub.GetDouble(), 5.0);  // contained, last-known-good
  EXPECT_GE(sub.handler()->fault_count(), 1u);

  inj.Arm("p.x", FaultSpec::Nan(1.0));
  uint64_t faults = sub.handler()->fault_count();
  EXPECT_EQ(sub.GetDouble(), 5.0);  // NaN rejected too
  EXPECT_GT(sub.handler()->fault_count(), faults);

  inj.DisarmAll();
  EXPECT_EQ(sub.GetDouble(), 5.0);
}

TEST(FaultToleranceTest, WatchdogFlagsOverrunningPeriodicTask) {
  int overruns_reported = 0;
  SchedulerOverloadPolicy policy;
  policy.overrun_factor = 2.0;
  policy.on_overrun = [&](const TaskScheduler::OverrunReport& r) {
    ++overruns_reported;
    EXPECT_EQ(r.period, 1000);
    EXPECT_GT(r.runtime, 2000);
  };
  MetaFixture fx(policy);
  FaultInjector inj(5);
  inj.Arm("slow", FaultSpec::Sleeping(1.0, /*5 ms real*/ 5000));
  auto task = inj.Wrap("slow", [] { return 0.0; });
  fx.scheduler.SchedulePeriodic(1000, [task]() mutable { (void)task(); });
  fx.RunFor(3500);  // 3 executions, each stalling ~5 ms real time
  auto stats = fx.scheduler.stats();
  EXPECT_GE(stats.overruns, 3u);
  EXPECT_GE(overruns_reported, 3);
  EXPECT_GT(stats.max_task_runtime, 2000);
}

TEST(FaultToleranceTest, WatchdogOffByDefault) {
  MetaFixture fx;
  FaultInjector inj(5);
  inj.Arm("slow", FaultSpec::Sleeping(1.0, 5000));
  auto task = inj.Wrap("slow", [] { return 0.0; });
  fx.scheduler.SchedulePeriodic(1000, [task]() mutable { (void)task(); });
  fx.RunFor(1500);
  EXPECT_EQ(fx.scheduler.stats().overruns, 0u);
}

TEST(FaultToleranceTest, ChainedFaultsDoNotPoisonDependents) {
  // derived depends on a faulty base: base's containment serves stale values,
  // so derived keeps evaluating successfully and stays healthy.
  MetaFixture fx;
  SimpleProvider p("p");
  auto& reg = p.metadata_registry();
  auto armed = std::make_shared<bool>(false);
  auto value = std::make_shared<double>(0.0);
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("base").WithEvaluator(
                  FlakyEvaluator(armed, value)))
                  .ok());
  ASSERT_TRUE(reg.Define(MetadataDescriptor::OnDemand("derived")
                             .DependsOnSelf("base")
                             .WithEvaluator([](EvalContext& ctx) {
                               return MetadataValue(ctx.DepDouble(0) * 10);
                             }))
                  .ok());
  auto sub = fx.manager.Subscribe(p, "derived").value();
  EXPECT_EQ(sub.GetDouble(), 10.0);
  *armed = true;
  EXPECT_EQ(sub.GetDouble(), 10.0);  // base stale, derived healthy
  EXPECT_EQ(sub.handler()->health(), HandlerHealth::kHealthy);
  EXPECT_EQ(sub.handler()->dependencies()[0]->health(),
            HandlerHealth::kDegraded);
}

TEST(FaultToleranceTest, HealthToStringCoversAllStates) {
  EXPECT_STREQ(HandlerHealthToString(HandlerHealth::kHealthy), "healthy");
  EXPECT_STREQ(HandlerHealthToString(HandlerHealth::kDegraded), "degraded");
  EXPECT_STREQ(HandlerHealthToString(HandlerHealth::kQuarantined),
               "quarantined");
  EXPECT_STREQ(FaultActionToString(FaultAction::kSleep), "sleep");
}

}  // namespace
}  // namespace pipes
