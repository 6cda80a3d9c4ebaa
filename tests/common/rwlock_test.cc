#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/reentrant_shared_mutex.h"
#include "common/thread_slot.h"

#if defined(__SANITIZE_THREAD__)
#define PIPES_TEST_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PIPES_TEST_UNDER_TSAN 1
#endif
#endif

namespace pipes {
namespace {

/// A writer on a second thread. Reentrant levels are invisible to other
/// threads, so the probe shows that the lock stays held until the test
/// thread releases its outermost level — and is free right after.
class WriterProbe {
 public:
  explicit WriterProbe(ReentrantSharedMutex& mu)
      : thread_([this, &mu] {
          ExclusiveLock w(mu);
          in_.store(true);
        }) {}
  ~WriterProbe() {
    if (thread_.joinable()) thread_.join();
  }
  WriterProbe(const WriterProbe&) = delete;
  WriterProbe& operator=(const WriterProbe&) = delete;

  /// Gives the writer a moment, then reports whether it has got in.
  bool InAfterAMoment() {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return in_.load();
  }

  /// Waits for the writer to get in and out.
  bool Joined() {
    thread_.join();
    return in_.load();
  }

 private:
  std::atomic<bool> in_{false};
  std::thread thread_;
};

TEST(ReentrantSharedMutexTest, RecursiveExclusive) {
  ReentrantSharedMutex mu;
  mu.lock();
  mu.lock();
  WriterProbe writer(mu);
  mu.unlock();
  EXPECT_FALSE(writer.InAfterAMoment()) << "one exclusive level is left";
  mu.unlock();
  EXPECT_TRUE(writer.Joined());
}

TEST(ReentrantSharedMutexTest, RecursiveShared) {
  ReentrantSharedMutex mu;
  mu.lock_shared();
  mu.lock_shared();
  WriterProbe writer(mu);
  mu.unlock_shared();
  EXPECT_FALSE(writer.InAfterAMoment()) << "one shared level is left";
  mu.unlock_shared();
  EXPECT_TRUE(writer.Joined());
}

TEST(ReentrantSharedMutexTest, ReadInsideWrite) {
  ReentrantSharedMutex mu;
  mu.lock();
  mu.lock_shared();  // writer may take shared for free
  WriterProbe writer(mu);
  mu.unlock_shared();
  EXPECT_FALSE(writer.InAfterAMoment()) << "the exclusive level is left";
  mu.unlock();
  EXPECT_TRUE(writer.Joined());
}

TEST(ReentrantSharedMutexTest, RaiiGuards) {
  ReentrantSharedMutex mu;
  std::optional<WriterProbe> writer;
  {
    ExclusiveLock w(mu);
    SharedLock r(mu);
    writer.emplace(mu);
    EXPECT_FALSE(writer->InAfterAMoment());
  }
  EXPECT_TRUE(writer->Joined());
}

TEST(ReentrantSharedMutexTest, WriterExcludesReaders) {
  ReentrantSharedMutex mu;
  mu.lock();
  std::atomic<bool> reader_in{false};
  std::thread reader([&] {
    SharedLock r(mu);
    reader_in.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(reader_in.load());
  mu.unlock();
  reader.join();
  EXPECT_TRUE(reader_in.load());
}

TEST(ReentrantSharedMutexTest, ReadersShareAccess) {
  ReentrantSharedMutex mu;
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      SharedLock r(mu);
      int now = inside.fetch_add(1) + 1;
      int seen = max_inside.load();
      while (now > seen && !max_inside.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      inside.fetch_sub(1);
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_GE(max_inside.load(), 2);
}

TEST(ReentrantSharedMutexTest, ReentrantReadDoesNotBlockOnWaitingWriter) {
  // Classic reentrancy hazard: reader holds shared, a writer queues, the
  // same reader takes another shared level. With naive writer preference
  // this deadlocks.
  ReentrantSharedMutex mu;
  mu.lock_shared();
  std::thread writer([&] { ExclusiveLock w(mu); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  mu.lock_shared();  // must not block
  mu.unlock_shared();
  mu.unlock_shared();
  writer.join();
}

TEST(ReentrantSharedMutexTest, QueuedWriterBlocksNewReaders) {
  // Writer preference: once a writer queues behind a reader, another
  // thread's first shared level waits until the writer has been in and out,
  // while the reader already inside takes a reentrant level at once.
  ReentrantSharedMutex mu;
  std::atomic<bool> writer_done{false};
  std::atomic<bool> reader_in{false};
  bool reader_saw_writer_done = false;
  mu.lock_shared();
  std::thread writer([&] {
    ExclusiveLock w(mu);
    writer_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // writer queues
  std::thread reader([&] {
    SharedLock r(mu);
    reader_saw_writer_done = writer_done.load();
    reader_in.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(reader_in.load()) << "a new reader overtook the queued writer";
  mu.lock_shared();  // reentrant: must not wait for the queued writer
  mu.unlock_shared();
  mu.unlock_shared();
  writer.join();
  reader.join();
  EXPECT_TRUE(reader_saw_writer_done);
}

TEST(ReentrantSharedMutexTest, UpgradeWhileSharedIsReportedThenFatal) {
  // Upgrading a shared hold would wait for the caller's own read to drain,
  // forever. lock() reports the attempt in every build, then aborts.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ReentrantSharedMutex mu("rwlock_test.upgrade");
  EXPECT_DEATH(
      {
        mu.lock_shared();
        mu.lock();
      },
      "\\[lock-order\\] upgrade: .*'rwlock_test\\.upgrade'");
}

TEST(ReentrantSharedMutexTest, StressReadersAndWriters) {
  ReentrantSharedMutex mu;
  int64_t shared_value = 0;
  std::atomic<bool> stop{false};
  std::atomic<int> inconsistencies{0};

  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        SharedLock r(mu);
        int64_t a = shared_value;
        SharedLock r2(mu);  // reentrant under load
        int64_t b = shared_value;
        if (a != b) inconsistencies.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&] {
      for (int n = 0; n < 3000; ++n) {
        ExclusiveLock w(mu);
        ++shared_value;
        ExclusiveLock w2(mu);  // reentrant write
        ++shared_value;
      }
    });
  }
  threads[3].join();
  threads[4].join();
  stop.store(true);
  threads[0].join();
  threads[1].join();
  threads[2].join();
  EXPECT_EQ(inconsistencies.load(), 0);
  EXPECT_EQ(shared_value, 2 * 2 * 3000);
}

TEST(ReentrantSharedMutexTest, MoreReadersThanSlotsWithWriters) {
  // More reader threads than reader slots, so at least two readers count in
  // one slot, mixed with writers. No reader may overlap a writer, no two
  // writers may overlap, and every write must land.
  constexpr int kReaders = static_cast<int>(kThreadSlots) + 4;
  constexpr int kWriters = 2;
  constexpr int kRounds = 2000;
  ReentrantSharedMutex mu;
  int64_t value = 0;
  std::atomic<int> readers_inside{0};
  std::atomic<int> writers_inside{0};
  std::atomic<int> violations{0};
  std::vector<size_t> reader_slots(kReaders);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      reader_slots[size_t(r)] = ThreadSlot();
      int64_t seen = 0;
      for (int i = 0; i < kRounds; ++i) {
        SharedLock lock(mu);
        readers_inside.fetch_add(1);
        if (writers_inside.load() != 0) violations.fetch_add(1);
        if (value < seen) violations.fetch_add(1);  // writes only add
        seen = value;
        readers_inside.fetch_sub(1);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        ExclusiveLock lock(mu);
        if (writers_inside.fetch_add(1) != 0) violations.fetch_add(1);
        if (readers_inside.load() != 0) violations.fetch_add(1);
        ++value;
        writers_inside.fetch_sub(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(value, int64_t{kWriters} * kRounds);
  const std::set<size_t> distinct(reader_slots.begin(), reader_slots.end());
  EXPECT_LT(distinct.size(), reader_slots.size()) << "no two readers shared";
}

TEST(ReentrantSharedMutexTest, QueuedWriterIsWokenWhenTheReaderLeaves) {
  // Many hand-offs: a writer queues behind a reader on another thread and
  // sleeps until that reader's slot drains; the reader's release must wake
  // it. Every round's threads are new, so the reader's ThreadSlot() rotates
  // through every slot. A lost wake-up fails its round after a bounded wait
  // instead of hanging the suite.
  auto* mu = new ReentrantSharedMutex("rwlock_test.handoff");
  for (int round = 0; round < 200; ++round) {
    std::promise<void> reader_in;
    std::promise<void> reader_leave;
    std::thread reader([&] {
      SharedLock r(*mu);
      reader_in.set_value();
      reader_leave.get_future().wait();
    });
    reader_in.get_future().wait();
    std::promise<void> writer_in;
    std::future<void> writer_done = writer_in.get_future();
    std::thread writer([mu, in = std::move(writer_in)]() mutable {
      ExclusiveLock w(*mu);
      in.set_value();
    });
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    reader_leave.set_value();
    reader.join();
    if (writer_done.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      writer.detach();  // blocked for good: leave it and its lock behind
      FAIL() << "round " << round << ": the queued writer was never woken";
    }
    writer.join();
  }
  delete mu;
}

#ifdef PIPES_TEST_UNDER_TSAN
TEST(ReentrantSharedMutexTest, TsanReportsInversionThroughASharedWant) {
  // The cycle the lock-order validator cannot see (DESIGN §3.4.1): one
  // thread takes structure exclusive then state shared, another state
  // exclusive then structure shared. The threads run one after the other,
  // so nothing deadlocks; ThreadSanitizer's deadlock detector reports the
  // inversion only if the slot lock's annotations tell it about both locks.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ReentrantSharedMutex structure("rwlock_test.tsan.structure");
        ReentrantSharedMutex state("rwlock_test.tsan.state");
        std::thread([&] {
          ExclusiveLock w(structure);
          SharedLock r(state);
        }).join();
        std::thread([&] {
          ExclusiveLock w(state);
          SharedLock r(structure);
        }).join();
        std::abort();
      },
      "ThreadSanitizer: lock-order-inversion");
}
#endif

}  // namespace
}  // namespace pipes
