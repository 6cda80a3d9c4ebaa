#include "common/reentrant_shared_mutex.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace pipes {

namespace {

// The calling thread's holds: one record per lock it currently holds at any
// depth, erased when both depths return to zero. The list is as long as the
// thread's current nesting, so a linear scan is cheap, and its capacity is
// kept: once warm, acquiring and releasing never allocates.
struct Hold {
  const ReentrantSharedMutex* mu;
  int shared;
  int exclusive;
};
thread_local std::vector<Hold> t_holds;

Hold* FindHold(std::vector<Hold>& holds, const ReentrantSharedMutex* mu) {
  for (Hold& h : holds) {
    if (h.mu == mu) return &h;
  }
  return nullptr;
}

void DropHold(std::vector<Hold>& holds, Hold* h) {
  *h = holds.back();
  holds.pop_back();
}

void Check(int rc, const char* op) {
  if (rc == 0) return;
  std::fprintf(stderr, "ReentrantSharedMutex: %s failed: %s\n", op,
               std::strerror(rc));
  std::abort();
}

}  // namespace

ReentrantSharedMutex::ReentrantSharedMutex(const char* name, int rank)
    : cls_(lockorder::RegisterLockClass(name, rank, /*reentrant=*/true)) {
  // glibc's only kind where a queued writer blocks new readers. It does not
  // allow a thread to read-lock twice, which the hold list never does.
  pthread_rwlockattr_t attr;
  Check(pthread_rwlockattr_init(&attr), "pthread_rwlockattr_init");
  Check(pthread_rwlockattr_setkind_np(
            &attr, PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP),
        "pthread_rwlockattr_setkind_np");
  Check(pthread_rwlock_init(&rw_, &attr), "pthread_rwlock_init");
  Check(pthread_rwlockattr_destroy(&attr), "pthread_rwlockattr_destroy");
}

ReentrantSharedMutex::~ReentrantSharedMutex() {
  Check(pthread_rwlock_destroy(&rw_), "pthread_rwlock_destroy");
}

void ReentrantSharedMutex::lock() PIPES_NO_THREAD_SAFETY_ANALYSIS {
  // Record before blocking, so a lock-order report exists even if this very
  // acquisition is the one that deadlocks.
  lockorder::OnAcquire(cls_, this, /*shared=*/false);
  std::vector<Hold>& holds = t_holds;
  if (Hold* h = FindHold(holds, this)) {
    if (h->exclusive == 0) {
      // Only shared levels held: the write lock would wait for this thread's
      // own read to drain. Reported in all builds, then fatal.
      lockorder::LockOrderValidator::Instance().ReportUpgrade(
          lockorder::LockClassName(cls_));
      std::abort();
    }
    ++h->exclusive;
    return;
  }
  Check(pthread_rwlock_wrlock(&rw_), "pthread_rwlock_wrlock");
  holds.push_back({this, 0, 1});
}

void ReentrantSharedMutex::unlock() PIPES_NO_THREAD_SAFETY_ANALYSIS {
  std::vector<Hold>& holds = t_holds;
  Hold* h = FindHold(holds, this);
  assert(h != nullptr && h->exclusive > 0 && "unlock() without lock()");
  if (--h->exclusive == 0) {
    assert(h->shared == 0 &&
           "unlock() while still holding nested shared locks");
    DropHold(holds, h);
    Check(pthread_rwlock_unlock(&rw_), "pthread_rwlock_unlock");
  }
  lockorder::OnRelease(cls_, this);
}

void ReentrantSharedMutex::lock_shared() PIPES_NO_THREAD_SAFETY_ANALYSIS {
  lockorder::OnAcquire(cls_, this, /*shared=*/true);
  std::vector<Hold>& holds = t_holds;
  if (Hold* h = FindHold(holds, this)) {
    // A nested read, or a read inside the write: never reaches the rwlock,
    // so it cannot queue behind a waiting writer and self-deadlock.
    ++h->shared;
    return;
  }
  Check(pthread_rwlock_rdlock(&rw_), "pthread_rwlock_rdlock");
  holds.push_back({this, 1, 0});
}

void ReentrantSharedMutex::unlock_shared() PIPES_NO_THREAD_SAFETY_ANALYSIS {
  std::vector<Hold>& holds = t_holds;
  Hold* h = FindHold(holds, this);
  assert(h != nullptr && h->shared > 0 &&
         "unlock_shared() without lock_shared()");
  if (--h->shared == 0 && h->exclusive == 0) {
    DropHold(holds, h);
    Check(pthread_rwlock_unlock(&rw_), "pthread_rwlock_unlock");
  }
  lockorder::OnRelease(cls_, this);
}

}  // namespace pipes
