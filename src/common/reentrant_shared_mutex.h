/// \file reentrant_shared_mutex.h
/// \brief A reentrant read-write lock (paper §4.2).
///
/// PIPES controls concurrent access "at graph-, operator-, and metadata level"
/// with "three different types of reentrant read-write locks". This class is
/// the building block: a writer-preferring slot lock plus a per-thread list
/// of the locks the thread holds, with one {shared depth, exclusive depth}
/// record per lock. The slot lock is touched only by a thread's outermost
/// acquisition and final release; every nested one just bumps the record, so
/// the same thread may acquire the lock recursively as
///   - read inside read,
///   - write inside write,
///   - read inside write (the writer takes shared levels for free).
///
/// The slot lock is eight reader counts, one cache line each, plus one
/// writer word. A first-level reader increments the slot of its thread
/// (ThreadSlot(), the rule ShardedCounter uses) and then reads the writer
/// word, so readers on different threads write only their own lines and
/// waves on disjoint origins share no written line through this lock. A
/// writer claims the writer word, then waits until every slot reads zero.
///
/// Writers are preferred: a reader that finds the writer word claimed backs
/// out of its slot and sleeps until the writer is gone, so waves holding the
/// lock shared cannot starve a structural change. A reentrant reader never
/// reaches the slot lock and so never waits behind that writer. Sleepers
/// block in `std::atomic::wait`; a release wakes them only when the writer
/// word records that someone sleeps.
///
/// Upgrading (requesting exclusive while holding only shared) would wait for
/// the caller's own read to drain, forever. `lock()` reports the attempt
/// through the lock-order validator in all builds (see lock_order.h) and
/// aborts.
///
/// The class is a Clang Thread Safety capability and reports acquisitions to
/// the lockdep-style lock-order validator; construct it with a class name
/// and rank (lock_order.h) to participate in hierarchy checking. Under
/// ThreadSanitizer it annotates the slot lock as a mutex, read-locked on the
/// shared side (tsan_mutex.h, shared with pipes::Mutex), so TSan's race and
/// deadlock detectors see a reader-writer lock rather than bare atomics.

#pragma once

#include <atomic>
#include <cstdint>

#include "common/lock_order.h"
#include "common/thread_annotations.h"
#include "common/thread_slot.h"

namespace pipes {

class PIPES_CAPABILITY("ReentrantSharedMutex") ReentrantSharedMutex {
 public:
  ReentrantSharedMutex() : ReentrantSharedMutex("pipes::ReentrantSharedMutex") {}
  /// `name` identifies this lock's class in lock-order reports; `rank` is
  /// its position in the lock hierarchy (0 = unranked).
  explicit ReentrantSharedMutex(const char* name, int rank = 0);
  ~ReentrantSharedMutex();
  ReentrantSharedMutex(const ReentrantSharedMutex&) = delete;
  ReentrantSharedMutex& operator=(const ReentrantSharedMutex&) = delete;

  /// Acquires the lock exclusively; reentrant for the holding writer.
  void lock() PIPES_ACQUIRE();

  /// Releases one level of exclusive ownership.
  void unlock() PIPES_RELEASE();

  /// Acquires the lock shared; reentrant, and free for the holding writer.
  void lock_shared() PIPES_ACQUIRE_SHARED();

  /// Releases one level of shared ownership.
  void unlock_shared() PIPES_RELEASE_SHARED();

  /// True while the calling thread holds a shared level, alone or inside
  /// its exclusive hold: some reader frame is on its stack.
  bool HeldSharedByCaller() const;

 private:
  /// Bits of `writer_`.
  static constexpr uint32_t kWriter = 1;        ///< claimed by a writer
  static constexpr uint32_t kSleepers = 2;      ///< threads sleep on writer_
  static constexpr uint32_t kDrainSleeper = 4;  ///< the writer sleeps on a slot

  /// The slot lock: a thread's outermost acquisition and final release.
  void AcquireExclusive();
  void ReleaseExclusive();
  void AcquireShared();
  void ReleaseShared(std::atomic<uint32_t>& slot);
  /// Sleeps until the writer word, last read as `w`, has no writer.
  void WaitWhileWriter(uint32_t w);

  struct alignas(64) ReaderSlot {
    std::atomic<uint32_t> readers{0};
  };

  /// Written only by writers and sleepers; first-level readers just read it.
  alignas(64) std::atomic<uint32_t> writer_{0};
  const lockorder::LockClass* cls_;
  ReaderSlot slots_[kThreadSlots];
};

/// RAII shared lock.
class PIPES_SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(ReentrantSharedMutex& mu) PIPES_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared();
  }
  ~SharedLock() PIPES_RELEASE_GENERIC() { mu_.unlock_shared(); }
  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

 private:
  ReentrantSharedMutex& mu_;
};

/// RAII exclusive lock.
class PIPES_SCOPED_CAPABILITY ExclusiveLock {
 public:
  explicit ExclusiveLock(ReentrantSharedMutex& mu) PIPES_ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock();
  }
  ~ExclusiveLock() PIPES_RELEASE_GENERIC() { mu_.unlock(); }
  ExclusiveLock(const ExclusiveLock&) = delete;
  ExclusiveLock& operator=(const ExclusiveLock&) = delete;

 private:
  ReentrantSharedMutex& mu_;
};

}  // namespace pipes
