#include "common/reentrant_shared_mutex.h"

#include <cassert>
#include <cstdlib>
#include <vector>

#include "common/tsan_mutex.h"

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

}  // namespace

ReentrantSharedMutex::ReentrantSharedMutex(const char* name, int rank)
    : cls_(lockorder::RegisterLockClass(name, rank, /*reentrant=*/true)) {
  tsan::Create(this);
}

ReentrantSharedMutex::~ReentrantSharedMutex() { tsan::Destroy(this); }

// The handshake between readers and writers is Dekker's: a reader writes
// its slot then reads the writer word, a writer writes the writer word then
// reads the slots, all sequentially consistent, so at least one of the two
// sees the other. The same order makes wake-ups safe: a sleeper announces
// itself in the writer word before its last check, and a releaser changes
// the word it sleeps on before it reads the announcement.

void ReentrantSharedMutex::AcquireExclusive() {
  uint32_t w = writer_.load(std::memory_order_relaxed);
  for (;;) {
    if ((w & kWriter) == 0) {
      if (writer_.compare_exchange_weak(w, w | kWriter)) break;
      continue;
    }
    WaitWhileWriter(w);
    w = writer_.load(std::memory_order_relaxed);
  }
  // Claimed: new first-level readers now back out. Wait out the ones inside.
  for (ReaderSlot& s : slots_) {
    uint32_t n = s.readers.load();
    while (n != 0) {
      writer_.fetch_or(kDrainSleeper);
      n = s.readers.load();
      if (n == 0) break;
      s.readers.wait(n);
      n = s.readers.load();
    }
  }
}

void ReentrantSharedMutex::ReleaseExclusive() {
  if (writer_.exchange(0) & kSleepers) writer_.notify_all();
}

void ReentrantSharedMutex::AcquireShared() {
  std::atomic<uint32_t>& slot = slots_[ThreadSlot()].readers;
  for (;;) {
    slot.fetch_add(1);
    const uint32_t w = writer_.load();
    if ((w & kWriter) == 0) return;
    // A writer has claimed the lock: step back so it can drain, and wait
    // until it has been in and out.
    ReleaseShared(slot);
    WaitWhileWriter(w);
  }
}

void ReentrantSharedMutex::ReleaseShared(std::atomic<uint32_t>& slot) {
  slot.fetch_sub(1);
  if (writer_.load() & kDrainSleeper) slot.notify_all();
}

void ReentrantSharedMutex::WaitWhileWriter(uint32_t w) {
  while (w & kWriter) {
    if ((w & kSleepers) == 0) {
      if (!writer_.compare_exchange_weak(w, w | kSleepers)) continue;
      w |= kSleepers;
    }
    writer_.wait(w);
    w = writer_.load();
  }
}

void ReentrantSharedMutex::lock() PIPES_NO_THREAD_SAFETY_ANALYSIS {
  // Record before blocking, so a lock-order report exists even if this very
  // acquisition is the one that deadlocks.
  lockorder::OnAcquire(cls_, this, /*shared=*/false);
  std::vector<Hold>& holds = t_holds;
  if (Hold* h = FindHold(holds, this)) {
    if (h->exclusive == 0) {
      // Only shared levels held: the writer would wait for this thread's
      // own read to drain. Reported in all builds, then fatal.
      lockorder::LockOrderValidator::Instance().ReportUpgrade(
          lockorder::LockClassName(cls_));
      std::abort();
    }
    ++h->exclusive;
    return;
  }
  tsan::PreLock(this, 0);
  AcquireExclusive();
  tsan::PostLock(this, 0);
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
    tsan::PreUnlock(this, 0);
    ReleaseExclusive();
    tsan::PostUnlock(this, 0);
  }
  lockorder::OnRelease(cls_, this);
}

void ReentrantSharedMutex::lock_shared() PIPES_NO_THREAD_SAFETY_ANALYSIS {
  lockorder::OnAcquire(cls_, this, /*shared=*/true);
  std::vector<Hold>& holds = t_holds;
  if (Hold* h = FindHold(holds, this)) {
    // A nested read, or a read inside the write: never reaches the slot
    // lock, so it cannot queue behind a waiting writer and self-deadlock.
    ++h->shared;
    return;
  }
  tsan::PreLock(this, tsan::kReadLock);
  AcquireShared();
  tsan::PostLock(this, tsan::kReadLock);
  holds.push_back({this, 1, 0});
}

void ReentrantSharedMutex::unlock_shared() PIPES_NO_THREAD_SAFETY_ANALYSIS {
  std::vector<Hold>& holds = t_holds;
  Hold* h = FindHold(holds, this);
  assert(h != nullptr && h->shared > 0 &&
         "unlock_shared() without lock_shared()");
  if (--h->shared == 0 && h->exclusive == 0) {
    DropHold(holds, h);
    tsan::PreUnlock(this, tsan::kReadLock);
    ReleaseShared(slots_[ThreadSlot()].readers);
    tsan::PostUnlock(this, tsan::kReadLock);
  }
  lockorder::OnRelease(cls_, this);
}

bool ReentrantSharedMutex::HeldSharedByCaller() const {
  const Hold* h = FindHold(t_holds, this);
  return h != nullptr && h->shared > 0;
}

}  // namespace pipes
