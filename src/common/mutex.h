/// \file mutex.h
/// \brief Annotated, lock-order-instrumented mutex on one futex word.
///
/// `pipes::Mutex` is a 32-bit atomic word with three states (free, held,
/// held with sleepers) plus three additions: (1) it is a Clang Thread Safety
/// *capability*, so state marked PIPES_GUARDED_BY(mu_) is statically
/// checked under -Wthread-safety, (2) every acquisition reports to the
/// lockdep-style validator in lock_order.h, so inconsistent lock nesting is
/// caught at runtime even when the deadly interleaving never fires, and (3)
/// under ThreadSanitizer it reports itself through TSan's mutex annotations
/// (tsan_mutex.h), so TSan's race and deadlock detectors see it as a mutex.
/// Each lock is constructed with a class name (shared by all instances
/// playing the same role) and an optional rank from the hierarchy in
/// lock_order.h.
///
/// An uncontended lock is one compare-exchange and its unlock one exchange
/// on the lock's own word. A contended lock marks the word "held with
/// sleepers" and sleeps in `std::atomic::wait`; an unlock calls
/// `notify_one` only when the word it cleared carried that mark.
///
/// The wrapper satisfies the standard *Lockable* requirement, so
/// `std::unique_lock<pipes::Mutex>` and `std::condition_variable_any` work
/// unchanged; prefer the annotated `MutexLock` guard where no condition
/// variable is involved.

#pragma once

#include <atomic>
#include <cstdint>

#include "common/lock_order.h"
#include "common/thread_annotations.h"
#include "common/tsan_mutex.h"

namespace pipes {

/// \brief An annotated futex-word mutex with lock-order instrumentation.
class PIPES_CAPABILITY("mutex") Mutex {
 public:
  Mutex() : Mutex("pipes::Mutex") {}
  /// `name` identifies this lock's class in lock-order reports; `rank` is
  /// its position in the hierarchy (0 = unranked, graph checks only).
  explicit Mutex(const char* name, int rank = 0)
      : cls_(lockorder::RegisterLockClass(name, rank, /*reentrant=*/false)) {
    tsan::Create(this);
  }
  ~Mutex() { tsan::Destroy(this); }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PIPES_ACQUIRE() PIPES_NO_THREAD_SAFETY_ANALYSIS {
    // Recorded before blocking, so a lock-order report exists even if this
    // very acquisition is the one that deadlocks.
    lockorder::OnAcquire(cls_, this, /*shared=*/false);
    tsan::PreLock(this, 0);
    uint32_t seen = kFree;
    if (!state_.compare_exchange_strong(seen, kHeld, std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      LockContended(seen);
    }
    tsan::PostLock(this, 0);
  }

  void unlock() PIPES_RELEASE() PIPES_NO_THREAD_SAFETY_ANALYSIS {
    tsan::PreUnlock(this, 0);
    if (state_.exchange(kFree, std::memory_order_release) == kSleepers) {
      state_.notify_one();
    }
    tsan::PostUnlock(this, 0);
    lockorder::OnRelease(cls_, this);
  }

  bool try_lock() PIPES_TRY_ACQUIRE(true) PIPES_NO_THREAD_SAFETY_ANALYSIS {
    tsan::PreLock(this, tsan::kTryLock);
    uint32_t seen = kFree;
    const bool locked = state_.compare_exchange_strong(
        seen, kHeld, std::memory_order_acquire, std::memory_order_relaxed);
    tsan::PostLock(this, locked ? tsan::kTryLock
                                : tsan::kTryLock | tsan::kTryLockFailed);
    if (locked) lockorder::OnTryAcquired(cls_, this, /*shared=*/false);
    return locked;
  }

 private:
  static constexpr uint32_t kFree = 0;
  static constexpr uint32_t kHeld = 1;
  /// Held, and a thread sleeps (or is about to) on the word.
  static constexpr uint32_t kSleepers = 2;

  /// The first compare-exchange found the word `seen`, not free. Marks it
  /// kSleepers and sleeps until an exchange finds it free. The lock is then
  /// taken in the kSleepers state, which may wake one thread needlessly at
  /// unlock but never loses a wakeup.
  void LockContended(uint32_t seen) {
    if (seen != kSleepers) {
      seen = state_.exchange(kSleepers, std::memory_order_acquire);
    }
    while (seen != kFree) {
      state_.wait(kSleepers, std::memory_order_relaxed);
      seen = state_.exchange(kSleepers, std::memory_order_acquire);
    }
  }

  std::atomic<uint32_t> state_{kFree};
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
