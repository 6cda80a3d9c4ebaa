/// \file thread_slot.h
/// \brief The one rule that maps a thread to a per-thread cache-line slot.

#pragma once

#include <atomic>
#include <cstddef>

namespace pipes {

/// How many one-line slots a per-thread structure keeps: ShardedCounter's
/// stripes and ReentrantSharedMutex's reader slots.
inline constexpr size_t kThreadSlots = 8;

/// The calling thread's slot in [0, kThreadSlots). Threads draw slots from a
/// cheap monotone id, so the first kThreadSlots threads to ask all differ;
/// later threads share, which costs some line sharing, never correctness.
/// Every sharded structure uses this one rule, so a thread writes the same
/// slot index everywhere.
inline size_t ThreadSlot() {
  static std::atomic<size_t> next{0};
  thread_local size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) & (kThreadSlots - 1);
  return slot;
}

}  // namespace pipes
