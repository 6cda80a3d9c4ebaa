/// \file clock.h
/// \brief Clock abstraction: virtual (deterministic) and system clocks.
///
/// Every component that needs "now" takes a `Clock&`. Production deployments
/// use `SystemClock`; tests and the figure-reproduction harnesses use
/// `VirtualClock`, which only moves when explicitly advanced (usually by a
/// `VirtualTimeScheduler`).

#pragma once

#include <atomic>

#include "common/types.h"

namespace pipes {

/// \brief Source of the current time.
///
/// Thread safety: implementations must make Now() safe to call concurrently.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Returns the current time in microseconds.
  virtual Timestamp Now() const = 0;

  /// Wall-clock (CLOCK_REALTIME) microseconds corresponding to this clock's
  /// timestamp 0. Steady/virtual timestamps are meaningless across process
  /// restarts; the anchor lets durable state persist value timestamps in
  /// wall time and map them back after recovery. Default 0 (no anchor):
  /// timestamps round-trip unchanged.
  virtual int64_t wall_anchor_micros() const { return 0; }

  /// Maps a timestamp of this clock to wall-clock microseconds.
  int64_t ToWallMicros(Timestamp t) const { return wall_anchor_micros() + t; }

  /// Maps wall-clock microseconds back to this clock's timeline. The result
  /// may be negative when `wall` predates this process (a value recovered
  /// from a previous run), which correctly reads as "old" to staleness math.
  Timestamp FromWallMicros(int64_t wall) const {
    return wall - wall_anchor_micros();
  }
};

/// \brief A manually-advanced clock for deterministic execution.
///
/// Time never moves on its own; callers (typically a VirtualTimeScheduler)
/// advance it. Starts at time 0.
class VirtualClock final : public Clock {
 public:
  explicit VirtualClock(Timestamp start = 0) : now_(start) {}

  Timestamp Now() const override { return now_.load(std::memory_order_acquire); }

  /// Moves the clock forward by `delta` (must be >= 0). Returns the new time.
  Timestamp Advance(Duration delta);

  /// Sets the clock to `t`. `t` must not be earlier than the current time.
  void Set(Timestamp t);

  int64_t wall_anchor_micros() const override {
    return wall_anchor_.load(std::memory_order_acquire);
  }

  /// Pins the wall-clock instant of virtual time 0 (tests simulate process
  /// restarts by giving the "second process" a later anchor).
  void set_wall_anchor(int64_t wall_micros) {
    wall_anchor_.store(wall_micros, std::memory_order_release);
  }

 private:
  std::atomic<Timestamp> now_;
  std::atomic<int64_t> wall_anchor_{0};
};

/// \brief Wall-clock time based on std::chrono::steady_clock.
///
/// The epoch is the construction time of the clock, so timestamps are small
/// and comparable with virtual-time runs.
class SystemClock final : public Clock {
 public:
  SystemClock();
  Timestamp Now() const override;

  /// CLOCK_REALTIME at construction (= steady timestamp 0).
  int64_t wall_anchor_micros() const override { return wall_anchor_; }

 private:
  Timestamp epoch_;
  int64_t wall_anchor_;
};

/// Process-wide count of SystemClock uses (constructions + Now() reads).
/// Monotone, never reset. Each thread counts on its own cache-line stripe,
/// so a read sums the stripes: it never decreases, and it is exact once the
/// counting threads have quiesced (a read racing with Now() calls on other
/// threads may miss the ones still in flight). The deterministic simulation
/// harness snapshots it around a run and fails the run if it moved: a
/// simulation-reachable code path consulted the wall clock, which would
/// break seed replay (every simulated component must take its time from the
/// run's VirtualClock).
uint64_t SystemClockUseCount();

/// \brief Measures CPU time consumed by the calling thread.
///
/// Used for the "measured CPU usage" metadata items in real-threaded mode.
class ThreadCpuTimer {
 public:
  /// Returns the CPU time consumed by the calling thread, in microseconds.
  static Duration ThreadCpuNow();
};

}  // namespace pipes
