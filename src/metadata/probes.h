/// \file probes.h
/// \brief Monitoring probes: the "specific monitoring code" of paper §4.4.1.
///
/// Some metadata items require a node to gather information while elements
/// flow (e.g. the input rate "requires to count the number of incoming
/// elements"). Nodes own probes at their instrumentation points; a metadata
/// descriptor's monitoring hooks enable a probe when the item is included
/// for the first time and disable it when the last handler is removed, so
/// inactive metadata costs nothing but a relaxed atomic load per element.

#pragma once

#include <atomic>
#include <cstdint>

namespace pipes {

/// \brief An enable-counted event counter.
///
/// Thread safety: all methods are safe to call concurrently. `Increment` is a
/// single relaxed atomic add when enabled and a relaxed load when disabled.
class CounterProbe {
 public:
  /// Counts one (or `n`) events if the probe is enabled.
  void Increment(uint64_t n = 1) {
    if (enabled_.load(std::memory_order_relaxed) > 0) {
      count_.fetch_add(n, std::memory_order_relaxed);
    }
  }

  /// Total events counted since the probe was first enabled.
  uint64_t Value() const { return count_.load(std::memory_order_relaxed); }

  /// Reference-counted activation: multiple metadata items may share the
  /// probe (paper: monitoring is "activated by the addMetadata method").
  void Enable() { enabled_.fetch_add(1, std::memory_order_relaxed); }
  void Disable() { enabled_.fetch_sub(1, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed) > 0; }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<int32_t> enabled_{0};
};

/// \brief Per-consumer delta cursor over a CounterProbe.
///
/// Several metadata items may observe the same probe with independent
/// windows (e.g. output rate and selectivity both watch the output counter);
/// each keeps its own cursor. Reset the cursor when the item's monitoring is
/// (re-)activated so stale history does not leak into the first window.
class ProbeCursor {
 public:
  /// Events since the previous TakeDelta()/Reset(); advances the cursor.
  uint64_t TakeDelta(const CounterProbe& probe) {
    uint64_t current = probe.Value();
    uint64_t delta = current - last_;
    last_ = current;
    return delta;
  }

  /// Aligns the cursor with the probe's current value.
  void Reset(const CounterProbe& probe) { last_ = probe.Value(); }

 private:
  uint64_t last_ = 0;
};

/// \brief An enable-counted numeric gauge (e.g. accumulated work units).
class GaugeProbe {
 public:
  void Add(double delta) {
    if (enabled_.load(std::memory_order_relaxed) > 0) {
      // Relaxed CAS loop; contention is per-node and light.
      double cur = value_.load(std::memory_order_relaxed);
      while (!value_.compare_exchange_weak(cur, cur + delta,
                                           std::memory_order_relaxed)) {
      }
    }
  }

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

  void Enable() { enabled_.fetch_add(1, std::memory_order_relaxed); }
  void Disable() { enabled_.fetch_sub(1, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed) > 0; }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<int32_t> enabled_{0};
};

/// \brief Per-consumer delta cursor over a GaugeProbe.
class GaugeCursor {
 public:
  double TakeDelta(const GaugeProbe& probe) {
    double current = probe.Value();
    double delta = current - last_;
    last_ = current;
    return delta;
  }

  void Reset(const GaugeProbe& probe) { last_ = probe.Value(); }

 private:
  double last_ = 0.0;
};

}  // namespace pipes
