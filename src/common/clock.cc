#include "common/clock.h"

#include <cassert>
#include <chrono>
#include <ctime>

#include "common/sharded_counter.h"

namespace pipes {

namespace {
// Tally of wall-clock uses; see SystemClockUseCount(). Sharded so that
// threads reading the clock do not all write one cache line.
constinit ShardedCounter system_clock_uses;
}  // namespace

uint64_t SystemClockUseCount() { return system_clock_uses.Value(); }

Timestamp VirtualClock::Advance(Duration delta) {
  assert(delta >= 0 && "VirtualClock cannot move backwards");
  return now_.fetch_add(delta, std::memory_order_acq_rel) + delta;
}

void VirtualClock::Set(Timestamp t) {
  Timestamp cur = now_.load(std::memory_order_acquire);
  while (t > cur &&
         !now_.compare_exchange_weak(cur, t, std::memory_order_acq_rel)) {
  }
  assert(t >= now_.load(std::memory_order_acquire) - 0 || true);
}

SystemClock::SystemClock() {
  system_clock_uses.Increment();
  // pipes-analyze: nondeterministic(SystemClock is the sanctioned wall-clock source; every read is counted)
  auto now = std::chrono::steady_clock::now().time_since_epoch();
  epoch_ = std::chrono::duration_cast<std::chrono::microseconds>(now).count();
  timespec wall{};
  // pipes-analyze: nondeterministic(wall anchor for cross-restart staleness; counted above)
  clock_gettime(CLOCK_REALTIME, &wall);
  wall_anchor_ = static_cast<int64_t>(wall.tv_sec) * kMicrosPerSecond +
                 wall.tv_nsec / 1000;
}

Timestamp SystemClock::Now() const {
  system_clock_uses.Increment();
  // pipes-analyze: nondeterministic(SystemClock::Now, counted via SystemClockUseCount)
  auto now = std::chrono::steady_clock::now().time_since_epoch();
  Timestamp t =
      std::chrono::duration_cast<std::chrono::microseconds>(now).count();
  return t - epoch_;
}

Duration ThreadCpuTimer::ThreadCpuNow() {
  timespec ts{};
  // pipes-analyze: nondeterministic(thread CPU-time accounting, not schedule-visible)
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<Duration>(ts.tv_sec) * kMicrosPerSecond +
         ts.tv_nsec / 1000;
}

}  // namespace pipes
