/// \file mutex.h
/// \brief Annotated, lock-order-instrumented mutex wrapper.
///
/// `pipes::Mutex` wraps std::mutex with two additions: (1) it is a Clang
/// Thread Safety *capability*, so state marked PIPES_GUARDED_BY(mu_) is
/// statically checked under -Wthread-safety, and (2) every acquisition
/// reports to the lockdep-style validator in lock_order.h, so inconsistent
/// lock nesting is caught at runtime even when the deadly interleaving never
/// fires. Each lock is constructed with a class name (shared by all instances
/// playing the same role) and an optional rank from the hierarchy in
/// lock_order.h.
///
/// The wrapper satisfies the standard *Lockable* requirement, so
/// `std::unique_lock<pipes::Mutex>` and `std::condition_variable_any` work
/// unchanged; prefer the annotated `MutexLock` guard where no condition
/// variable is involved.

#pragma once

#include <mutex>

#include "common/lock_order.h"
#include "common/thread_annotations.h"

namespace pipes {

/// \brief An annotated std::mutex with lock-order instrumentation.
class PIPES_CAPABILITY("mutex") Mutex {
 public:
  Mutex() : Mutex("pipes::Mutex") {}
  /// `name` identifies this lock's class in lock-order reports; `rank` is
  /// its position in the hierarchy (0 = unranked, graph checks only).
  explicit Mutex(const char* name, int rank = 0)
      : cls_(lockorder::RegisterLockClass(name, rank, /*reentrant=*/false)) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PIPES_ACQUIRE() PIPES_NO_THREAD_SAFETY_ANALYSIS {
    lockorder::OnAcquire(cls_, this, /*shared=*/false);
    mu_.lock();
  }

  void unlock() PIPES_RELEASE() PIPES_NO_THREAD_SAFETY_ANALYSIS {
    mu_.unlock();
    lockorder::OnRelease(cls_, this);
  }

  bool try_lock() PIPES_TRY_ACQUIRE(true) PIPES_NO_THREAD_SAFETY_ANALYSIS {
    if (!mu_.try_lock()) return false;
    lockorder::OnTryAcquired(cls_, this, /*shared=*/false);
    return true;
  }

 private:
  std::mutex mu_;
  const lockorder::LockClass* cls_;
};

/// \brief Scoped guard for pipes::Mutex (the annotated std::lock_guard).
class PIPES_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PIPES_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PIPES_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace pipes
