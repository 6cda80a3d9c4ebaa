#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/clock.h"

namespace pipes {
namespace {

TEST(VirtualClockTest, StartsAtGivenTime) {
  VirtualClock c(100);
  EXPECT_EQ(c.Now(), 100);
}

TEST(VirtualClockTest, AdvanceMovesForward) {
  VirtualClock c;
  EXPECT_EQ(c.Advance(50), 50);
  EXPECT_EQ(c.Now(), 50);
  EXPECT_EQ(c.Advance(0), 50);
}

TEST(VirtualClockTest, SetNeverMovesBackwards) {
  VirtualClock c;
  c.Set(100);
  EXPECT_EQ(c.Now(), 100);
  c.Set(50);  // ignored
  EXPECT_EQ(c.Now(), 100);
}

TEST(SystemClockTest, StartsNearZeroAndIsMonotone) {
  SystemClock c;
  Timestamp t0 = c.Now();
  EXPECT_GE(t0, 0);
  EXPECT_LT(t0, kMicrosPerSecond);  // fresh epoch
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  Timestamp t1 = c.Now();
  EXPECT_GT(t1, t0);
}

// The simulation harness's wall-clock check compares two tallies taken
// while no thread reads the clock, so every read on every thread must show.
TEST(SystemClockTest, UseCountCountsEveryReadOnEveryThread) {
  constexpr int kThreads = 4;
  constexpr int kReads = 10000;
  SystemClock c;  // construction counts too: take the snapshot after it
  const uint64_t before = SystemClockUseCount();
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&c] {
      for (int i = 0; i < kReads; ++i) c.Now();
    });
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(SystemClockUseCount() - before,
            static_cast<uint64_t>(kThreads) * kReads);
}

TEST(ThreadCpuTimerTest, AccumulatesWithWork) {
  Duration before = ThreadCpuTimer::ThreadCpuNow();
  volatile double x = 1.0;
  for (int i = 0; i < 2000000; ++i) x = x * 1.0000001;
  Duration after = ThreadCpuTimer::ThreadCpuNow();
  EXPECT_GE(after, before);
}

}  // namespace
}  // namespace pipes
