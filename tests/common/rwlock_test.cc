#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "common/reentrant_shared_mutex.h"

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

}  // namespace
}  // namespace pipes
