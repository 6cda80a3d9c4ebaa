#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/scheduler.h"

namespace pipes {
namespace {

TEST(VirtualSchedulerTest, RunsTasksInTimestampOrder) {
  VirtualTimeScheduler s;
  std::vector<int> order;
  s.ScheduleAt(300, [&] { order.push_back(3); });
  s.ScheduleAt(100, [&] { order.push_back(1); });
  s.ScheduleAt(200, [&] { order.push_back(2); });
  s.RunUntil(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.clock().Now(), 1000);
}

TEST(VirtualSchedulerTest, TiesBreakByInsertionOrder) {
  VirtualTimeScheduler s;
  std::vector<int> order;
  s.ScheduleAt(100, [&] { order.push_back(1); });
  s.ScheduleAt(100, [&] { order.push_back(2); });
  s.RunUntil(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(VirtualSchedulerTest, ClockAdvancesToTaskTime) {
  VirtualTimeScheduler s;
  Timestamp seen = -1;
  s.ScheduleAt(42, [&] { seen = s.clock().Now(); });
  s.RunUntil(100);
  EXPECT_EQ(seen, 42);
}

TEST(VirtualSchedulerTest, TasksMayScheduleMoreTasks) {
  VirtualTimeScheduler s;
  std::vector<Timestamp> fired;
  std::function<void()> chain = [&] {
    fired.push_back(s.clock().Now());
    if (fired.size() < 5) s.ScheduleAfter(10, chain);
  };
  s.ScheduleAt(10, chain);
  s.RunUntil(100);
  EXPECT_EQ(fired, (std::vector<Timestamp>{10, 20, 30, 40, 50}));
}

TEST(VirtualSchedulerTest, RunUntilStopsAtBoundary) {
  VirtualTimeScheduler s;
  int count = 0;
  s.ScheduleAt(100, [&] { ++count; });
  s.ScheduleAt(101, [&] { ++count; });
  s.RunUntil(100);
  EXPECT_EQ(count, 1);
  s.RunUntil(101);
  EXPECT_EQ(count, 2);
}

TEST(VirtualSchedulerTest, PeriodicKeepsFixedCadence) {
  VirtualTimeScheduler s;
  std::vector<Timestamp> fired;
  s.SchedulePeriodic(100, [&] { fired.push_back(s.clock().Now()); });
  s.RunUntil(550);
  EXPECT_EQ(fired, (std::vector<Timestamp>{100, 200, 300, 400, 500}));
}

TEST(VirtualSchedulerTest, PeriodicWithExplicitFirstTime) {
  VirtualTimeScheduler s;
  std::vector<Timestamp> fired;
  s.SchedulePeriodic(100, [&] { fired.push_back(s.clock().Now()); },
                     /*first_at=*/50);
  s.RunUntil(360);
  EXPECT_EQ(fired, (std::vector<Timestamp>{50, 150, 250, 350}));
}

TEST(VirtualSchedulerTest, CancelPreventsExecution) {
  VirtualTimeScheduler s;
  int count = 0;
  TaskHandle h = s.ScheduleAt(100, [&] { ++count; });
  h.Cancel();
  s.RunUntil(200);
  EXPECT_EQ(count, 0);
  EXPECT_FALSE(h.active());
}

TEST(VirtualSchedulerTest, CancelStopsPeriodicMidway) {
  VirtualTimeScheduler s;
  int count = 0;
  TaskHandle h = s.SchedulePeriodic(100, [&] { ++count; });
  s.RunUntil(250);
  EXPECT_EQ(count, 2);
  h.Cancel();
  s.RunUntil(1000);
  EXPECT_EQ(count, 2);
}

TEST(VirtualSchedulerTest, PendingCountAndDeadline) {
  VirtualTimeScheduler s;
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_EQ(s.next_deadline(), kTimestampMax);
  s.ScheduleAt(70, [] {});
  s.ScheduleAt(30, [] {});
  EXPECT_EQ(s.pending_count(), 2u);
  EXPECT_EQ(s.next_deadline(), 30);
}

TEST(VirtualSchedulerTest, RunNextExecutesSingleTask) {
  VirtualTimeScheduler s;
  int count = 0;
  s.ScheduleAt(10, [&] { ++count; });
  s.ScheduleAt(20, [&] { ++count; });
  EXPECT_TRUE(s.RunNext());
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.clock().Now(), 10);
  EXPECT_TRUE(s.RunNext());
  EXPECT_FALSE(s.RunNext());
}

TEST(VirtualSchedulerTest, PastTasksRunAtCurrentTime) {
  VirtualTimeScheduler s;
  s.RunUntil(500);
  Timestamp seen = -1;
  s.ScheduleAt(100, [&] { seen = s.clock().Now(); });
  s.RunUntil(500);
  EXPECT_EQ(seen, 500);
}

TEST(VirtualSchedulerTest, StatsCountExecutions) {
  VirtualTimeScheduler s;
  s.SchedulePeriodic(10, [] {});
  s.RunUntil(100);
  EXPECT_EQ(s.stats().tasks_run, 10u);
}

TEST(ThreadPoolSchedulerTest, ExecutesScheduledTask) {
  ThreadPoolScheduler s(2);
  std::atomic<int> count{0};
  s.ScheduleAfter(Millis(1), [&] { count.fetch_add(1); });
  for (int i = 0; i < 500 && count.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolSchedulerTest, PeriodicRunsRepeatedly) {
  ThreadPoolScheduler s(1);
  std::atomic<int> count{0};
  TaskHandle h = s.SchedulePeriodic(Millis(1), [&] { count.fetch_add(1); });
  for (int i = 0; i < 2000 && count.load() < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  h.Cancel();
  EXPECT_GE(count.load(), 5);
  int after_cancel = count.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_LE(count.load(), after_cancel + 1);  // at most one in-flight task
}

TEST(ThreadPoolSchedulerTest, ShutdownIsIdempotentAndStopsWork) {
  auto s = std::make_unique<ThreadPoolScheduler>(2);
  std::atomic<int> count{0};
  s->SchedulePeriodic(Millis(1), [&] { count.fetch_add(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  s->Shutdown();
  s->Shutdown();
  int frozen = count.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(count.load(), frozen);
}

TEST(ThreadPoolSchedulerTest, ManyTasksAcrossWorkers) {
  ThreadPoolScheduler s(4);
  std::atomic<int> count{0};
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    s.ScheduleAfter(0, [&] { count.fetch_add(1); });
  }
  for (int i = 0; i < 2000 && count.load() < kTasks; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count.load(), kTasks);
  EXPECT_EQ(s.stats().tasks_run, static_cast<uint64_t>(kTasks));
}

TEST(ThreadPoolSchedulerTest, StealsDueWorkFromBusySibling) {
  // One worker wedges on a long task; due tasks keep landing on its shard
  // (round-robin distribution). The free worker must steal and run them —
  // all while the blocker still holds its owner.
  ThreadPoolScheduler s(2);
  std::atomic<bool> release{false};
  std::atomic<bool> blocker_running{false};
  s.ScheduleAfter(0, [&] {
    blocker_running.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int i = 0; i < 2000 && !blocker_running.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(blocker_running.load());

  constexpr int kTasks = 20;
  std::atomic<int> done{0};
  for (int i = 0; i < kTasks; ++i) {
    s.ScheduleAfter(0, [&] { done.fetch_add(1); });
  }
  for (int i = 0; i < 2000 && done.load() < kTasks; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Snapshot before releasing the blocker: completions after the release
  // would not prove stealing worked.
  int done_while_blocked = done.load();
  uint64_t stolen = s.stats().tasks_stolen;
  release.store(true, std::memory_order_release);

  EXPECT_EQ(done_while_blocked, kTasks);
  EXPECT_GE(stolen, 1u) << "round-robin parks ~half the tasks on the wedged "
                           "worker's shard; they can only finish by stealing";
}

// Cancellation goes through the timer queue and admission rule both
// schedulers share, so these tests run against each of them.
template <typename S>
class SchedulerCoreTest : public ::testing::Test {
 protected:
  static std::unique_ptr<S> Make(SchedulerOverloadPolicy policy = {}) {
    if constexpr (std::is_same_v<S, ThreadPoolScheduler>) {
      return std::make_unique<S>(1, nullptr, std::move(policy));
    } else {
      return std::make_unique<S>(nullptr, std::move(policy));
    }
  }
};
struct SchedulerName {
  template <typename S>
  static std::string GetName(int) {
    return std::is_same_v<S, ThreadPoolScheduler> ? "ThreadPool"
                                                  : "VirtualTime";
  }
};
using BothSchedulers =
    ::testing::Types<VirtualTimeScheduler, ThreadPoolScheduler>;
TYPED_TEST_SUITE(SchedulerCoreTest, BothSchedulers, SchedulerName);

TYPED_TEST(SchedulerCoreTest, CancelledOneShotLeavesQueueDepthImmediately) {
  auto s = TestFixture::Make();
  TaskHandle h = s->ScheduleAfter(Seconds(60), [] {});
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(s->stats().queue_depth, 1u);
  // Lazy cancel: the queue entry lingers until its due time, but the gauge
  // (and admission, below) must drop the task the moment it is cancelled.
  h.Cancel();
  EXPECT_EQ(s->stats().queue_depth, 0u);
}

TYPED_TEST(SchedulerCoreTest, CancelledOneShotFreesAdmissionSlot) {
  SchedulerOverloadPolicy policy;
  policy.max_pending = 2;
  auto s = TestFixture::Make(policy);

  TaskHandle a = s->ScheduleAfter(Seconds(60), [] {});
  TaskHandle b = s->ScheduleAfter(Seconds(60), [] {});
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_FALSE(s->ScheduleAfter(Seconds(60), [] {}).valid())
      << "queue full: the third one-shot must bounce";

  // Cancelling a pending one-shot frees its admission slot immediately —
  // not at the cancelled entry's far-future due time.
  a.Cancel();
  TaskHandle c = s->ScheduleAfter(Seconds(60), [] {});
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(s->stats().tasks_rejected, 1u);
  EXPECT_EQ(s->stats().queue_depth, 2u);
}

TEST(SchedulerOverloadTest, AdmissionControlBoundsOneShotQueue) {
  SchedulerOverloadPolicy policy;
  policy.max_pending = 3;
  VirtualTimeScheduler s(nullptr, policy);

  int ran = 0;
  TaskHandle a = s.ScheduleAt(100, [&] { ++ran; });
  TaskHandle b = s.ScheduleAt(200, [&] { ++ran; });
  TaskHandle c = s.ScheduleAt(300, [&] { ++ran; });
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_TRUE(c.valid());

  // The queue is full: the fourth one-shot bounces instead of growing it.
  TaskHandle d = s.ScheduleAt(400, [&] { ++ran; });
  EXPECT_FALSE(d.valid());
  EXPECT_EQ(s.stats().tasks_rejected, 1u);
  EXPECT_EQ(s.stats().queue_depth, 3u);

  // Periodic maintenance is never rejected — it is the backbone the
  // degradation machinery slows down instead.
  TaskHandle p = s.SchedulePeriodic(1000, [] {});
  EXPECT_TRUE(p.valid());
  p.Cancel();

  // Draining the queue restores admission.
  s.RunUntil(500);
  EXPECT_EQ(ran, 3);
  TaskHandle e = s.ScheduleAt(600, [&] { ++ran; });
  EXPECT_TRUE(e.valid());
  EXPECT_EQ(s.stats().tasks_rejected, 1u);
}

TEST(SchedulerOverloadTest, UnboundedByDefault) {
  VirtualTimeScheduler s;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(s.ScheduleAt(1000 + i, [] {}).valid());
  }
  EXPECT_EQ(s.stats().tasks_rejected, 0u);
}

TEST(SchedulerOverloadTest, DeadlineMissesDriveHystereticOverloadSignal) {
  SchedulerOverloadPolicy policy;
  // Generous slack so on-time tasks never misclassify on a slow machine;
  // tasks scheduled far in the past miss deterministically.
  policy.deadline_slack = Millis(250);
  ThreadPoolScheduler s(1, nullptr, policy);

  std::atomic<int> ran{0};
  Timestamp past = s.clock().Now() - Seconds(2);
  constexpr int kLate = 4;
  for (int i = 0; i < kLate; ++i) {
    s.ScheduleAt(past, [&] { ran.fetch_add(1); });
  }
  for (int i = 0; i < 2000 && ran.load() < kLate; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(ran.load(), kLate);

  SchedulerStats st = s.stats();
  EXPECT_EQ(st.deadline_misses, static_cast<uint64_t>(kLate));
  EXPECT_GT(st.miss_rate_ewma, SchedulerOverloadPolicy::kEnterOverload);
  EXPECT_TRUE(st.overloaded);
  EXPECT_TRUE(s.overloaded());

  // A run of on-time executions decays the EWMA through the exit mark.
  constexpr int kOnTime = 8;
  for (int i = 0; i < kOnTime; ++i) {
    std::atomic<bool> done{false};
    s.ScheduleAfter(0, [&] { done.store(true); });
    for (int j = 0; j < 2000 && !done.load(); ++j) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(done.load());
  }
  st = s.stats();
  EXPECT_EQ(st.deadline_misses, static_cast<uint64_t>(kLate));
  EXPECT_LT(st.miss_rate_ewma, SchedulerOverloadPolicy::kExitOverload + 1e-9);
  EXPECT_FALSE(st.overloaded);
}

TEST(TaskHandleTest, DefaultHandleIsInert) {
  TaskHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(h.active());
  h.Cancel();  // no-op
}

}  // namespace
}  // namespace pipes
