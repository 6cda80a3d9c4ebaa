/// \file reentrant_shared_mutex.h
/// \brief A reentrant read-write lock (paper §4.2).
///
/// PIPES controls concurrent access "at graph-, operator-, and metadata level"
/// with "three different types of reentrant read-write locks". This class is
/// the building block: one writer-preferring `pthread_rwlock_t` plus a
/// per-thread list of the locks the thread holds, with one {shared depth,
/// exclusive depth} record per lock. The rwlock is touched only by a thread's
/// outermost acquisition and final release; every nested one just bumps the
/// record, so the same thread may acquire the lock recursively as
///   - read inside read,
///   - write inside write,
///   - read inside write (the writer takes shared levels for free).
///
/// Writers are preferred: a queued writer blocks *new* readers, so waves
/// holding the lock shared cannot starve a structural change. A reentrant
/// reader never reaches the rwlock and so never waits behind that writer.
///
/// Upgrading (requesting exclusive while holding only shared) would wait for
/// the caller's own read to drain, forever. `lock()` reports the attempt
/// through the lock-order validator in all builds (see lock_order.h) and
/// aborts.
///
/// The class is a Clang Thread Safety capability and reports acquisitions to
/// the lockdep-style lock-order validator; construct it with a class name
/// and rank (lock_order.h) to participate in hierarchy checking.

#pragma once

#include <pthread.h>

#include "common/lock_order.h"
#include "common/thread_annotations.h"

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

 private:
  pthread_rwlock_t rw_;
  const lockorder::LockClass* cls_;
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
