/// \file sharded_counter.h
/// \brief Cache-line-sharded monotone counter for hot read paths.

#pragma once

#include <atomic>
#include <cstdint>

#include "common/thread_slot.h"

namespace pipes {

/// A monotone event counter whose increments from different threads land on
/// different cache lines, so counting on a many-thread hot path (e.g.
/// MetadataHandler::Get, the manager's per-wave stats, SystemClock::Now)
/// does not make the threads ping-pong one line.
/// Value() sums the stripes: always monotone, exact once writers quiesce.
/// Constant-initializable, so it can be a `constinit` global.
class ShardedCounter {
 public:
  void Increment() { Add(1); }

  void Add(uint64_t n) {
    stripes_[ThreadSlot()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Stripe& s : stripes_) {
      sum += s.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  Stripe stripes_[kThreadSlots];
};

}  // namespace pipes
