#include "common/sharded_counter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace pipes {
namespace {

constexpr int kThreads = 4;
constexpr uint64_t kPerThread = 20000;
/// Each writer iteration counts 1 + 3.
constexpr uint64_t kExpected = kThreads * kPerThread * 4;

/// Runs kThreads writers to completion, each mixing Increment() and Add(3).
void RunWriters(ShardedCounter& c) {
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.Increment();
        c.Add(3);
      }
    });
  }
  for (std::thread& w : writers) w.join();
}

TEST(ShardedCounterTest, ValueIsExactAfterWritersJoin) {
  ShardedCounter c;
  RunWriters(c);
  EXPECT_EQ(c.Value(), kExpected);
}

TEST(ShardedCounterTest, ValueNeverDecreasesWhileWritersRun) {
  ShardedCounter c;
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  uint64_t reads = 0;
  uint64_t regressions = 0;
  std::thread reader([&] {
    uint64_t last = 0;
    // Read at least once after the writers finished, so the final sum is
    // compared too.
    for (bool stop = false; !stop;) {
      stop = done.load(std::memory_order_acquire);
      uint64_t v = c.Value();
      if (v < last) ++regressions;
      last = v;
      ++reads;
      started.store(true, std::memory_order_release);
    }
  });
  // The writers start only once the reader has read, so at least one read
  // comes before `done` and one after, however late the reader is scheduled.
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  RunWriters(c);
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(regressions, 0u);
  EXPECT_GT(reads, 1u);
}

}  // namespace
}  // namespace pipes
