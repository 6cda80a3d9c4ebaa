/// pipes::Mutex, the futex-word mutex: exclusion under contention, try_lock,
/// the Lockable interface a std::condition_variable_any waits through, and
/// (under ThreadSanitizer) the annotations that keep TSan's deadlock
/// detector seeing it.

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/mutex.h"

#if defined(__SANITIZE_THREAD__)
#define PIPES_TEST_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PIPES_TEST_UNDER_TSAN 1
#endif
#endif

namespace pipes {
namespace {

TEST(MutexTest, ContendedIncrementsAreExact) {
  // A plain counter: only mutual exclusion keeps the total exact, and four
  // threads on one lock make the sleeping path run.
  Mutex mu("mutex_test.counter");
  int64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  MutexLock lock(mu);
  EXPECT_EQ(counter, int64_t{kThreads} * kIncrements);
}

TEST(MutexTest, TryLockFailsWhileHeldAndSucceedsOnceFree) {
  Mutex mu("mutex_test.try");
  std::promise<void> held;
  std::promise<void> release;
  std::thread holder([&] {
    MutexLock lock(mu);
    held.set_value();
    release.get_future().wait();
  });
  held.get_future().wait();
  EXPECT_FALSE(mu.try_lock()) << "another thread holds the lock";
  release.set_value();
  holder.join();
  ASSERT_TRUE(mu.try_lock()) << "the lock is free again";
  auto other = std::async(std::launch::async, [&] { return mu.try_lock(); });
  EXPECT_FALSE(other.get()) << "a successful try_lock holds the lock";
  mu.unlock();
}

TEST(MutexTest, ConditionVariableHandsOffOverUniqueLock) {
  // Two threads take turns through a condition_variable_any over
  // std::unique_lock<pipes::Mutex>, the way the scheduler's workers wait:
  // every wait releases the mutex and re-takes it before returning.
  Mutex mu("mutex_test.cv");
  std::condition_variable_any cv;
  int turn = 0;  // even: ping's turn, odd: pong's
  constexpr int kRounds = 1000;
  auto player = [&](int parity) {
    for (int i = 0; i < kRounds; ++i) {
      std::unique_lock<Mutex> lock(mu);
      cv.wait(lock, [&] { return turn % 2 == parity; });
      ++turn;
      cv.notify_all();
    }
  };
  std::thread pong(player, 1);
  player(0);
  pong.join();
  std::unique_lock<Mutex> lock(mu);
  EXPECT_EQ(turn, 2 * kRounds);
}

#ifdef PIPES_TEST_UNDER_TSAN
TEST(MutexTest, TsanReportsLockOrderInversion) {
  // Two mutexes taken in opposite orders on two threads. The threads run
  // one after the other, so nothing deadlocks; ThreadSanitizer's deadlock
  // detector reports the inversion only if the mutex's annotations tell it
  // about both acquisitions.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex a("mutex_test.tsan.a");
        Mutex b("mutex_test.tsan.b");
        std::thread([&] {
          MutexLock la(a);
          MutexLock lb(b);
        }).join();
        std::thread([&] {
          MutexLock lb(b);
          MutexLock la(a);
        }).join();
        std::abort();
      },
      "ThreadSanitizer: lock-order-inversion");
}
#endif

}  // namespace
}  // namespace pipes
