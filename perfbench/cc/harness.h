/// \file harness.h
/// \brief Measurement machinery shared by the perfbench workloads: the
/// latency histogram, per-thread span tracing, the closed-loop pass driver,
/// and the result record a workload hands back to main.cc.

#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: every workload input is a pure function of the --seed value.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// \brief Fixed-size log-bucketed latency histogram (nanoseconds).
///
/// Values below 128 ns are exact; above, each power of two is split into 128
/// buckets, so a bucket is at most 1/128 (0.79%) of its value wide. The
/// storage is a flat array allocated once, so recording never allocates or
/// page-faults once the histogram has been touched.
class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kMaxExp = 36;  ///< 2^36 ns = 68.7 s; larger clamps
  static constexpr int kBuckets = (kMaxExp - kSubBits + 2) * kSub;

  void Record(int64_t ns) {
    ++counts_[Index(ns)];
    ++total_;
  }
  /// Counts a failed op beyond every bucket: it misses any latency limit.
  void RecordFailure() {
    ++overflow_;
    ++total_;
  }
  void Merge(const Histogram& other);
  uint64_t count() const { return total_; }
  /// Value at quantile q in (0, 1], in ns, interpolated inside its bucket;
  /// +inf when the rank falls among failures.
  double Quantile(double q) const;

 private:
  static int Index(int64_t ns);
  static double BucketLow(int index);
  static double BucketWidth(int index);

  std::array<uint32_t, kBuckets> counts_{};
  uint64_t overflow_ = 0;
  uint64_t total_ = 0;
};

/// Names of the spans the benchmark records around calls into each layer.
enum class Span : uint16_t {
  kOp,            ///< root: one op of the workload's closed loop
  kPushElement,   ///< stream: ManualSource::PushElement
  kGet,           ///< metadata: MetadataSubscription::Get
  kFireEvent,     ///< metadata: MetadataManager::FireEvent / set_window_size
  kSubscribe,     ///< metadata: MetadataManager::Subscribe
  kReset,         ///< metadata: MetadataSubscription::Reset
  kCheckpointNow, ///< persistence: MetadataDurability::CheckpointNow
  kWaitVisible,   ///< remote/net: FireEvent return until the mirror shows it
  kCount,
};
const char* SpanName(Span s);

struct SpanRecord {
  uint64_t op_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index in the same thread's buffer, -1 = root
  Span name = Span::kOp;
};

/// \brief One thread's span buffer. Disabled (capacity 0) in untraced runs,
/// where every call is a single branch.
class Tracer {
 public:
  static constexpr size_t kMaxSpansPerOp = 8;

  Tracer() = default;
  Tracer(size_t capacity, uint64_t thread_tag);

  bool enabled() const { return capacity_ > 0; }
  /// True when the next op might not fit; traced passes stop here so every
  /// recorded op is complete.
  bool full() const { return enabled() && size_ + kMaxSpansPerOp > capacity_; }

  int32_t Begin(Span name) {
    if (!enabled()) return -1;
    int32_t idx = static_cast<int32_t>(size_++);
    SpanRecord& r = spans_[idx];
    if (name == Span::kOp || depth_ == 0) {
      r.op_id = name == Span::kOp ? ++op_seq_ | thread_tag_ : 0;
      r.parent = -1;
    } else {
      r.op_id = spans_[stack_[depth_ - 1]].op_id;
      r.parent = stack_[depth_ - 1];
    }
    r.name = name;
    stack_[depth_++] = idx;
    r.start_ns = NowNs();
    return idx;
  }
  void End(int32_t idx) {
    if (idx < 0) return;
    spans_[idx].end_ns = NowNs();
    --depth_;
  }

  size_t size() const { return size_; }
  const SpanRecord& at(size_t i) const { return spans_[i]; }

 private:
  std::vector<SpanRecord> spans_;
  size_t capacity_ = 0;
  size_t size_ = 0;
  uint64_t thread_tag_ = 0;
  uint64_t op_seq_ = 0;
  int32_t stack_[kMaxSpansPerOp] = {};
  int depth_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, Span name) : tracer_(t), idx_(t.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int32_t idx_;
};

/// Outcome of one op: whether its correctness check passed, and the interval
/// its latency is measured over.
struct OpTiming {
  bool ok = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// \brief One closed-loop driver thread's recording state. Allocated and
/// touched before the timed phase starts.
struct DriverState {
  DriverState(int rounds, size_t span_capacity, uint64_t thread_tag);
  std::vector<Histogram> round_hist;
  std::vector<uint64_t> round_ok;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t stopped_at_ns = 0;
  Tracer tracer;
};

/// How one pass runs: its length, how many rounds it is split into (rates
/// and percentiles are medians over rounds), and the span capacity per
/// thread (0 = untraced).
struct PassSpec {
  double seconds = 1.0;
  int rounds = 1;
  size_t span_capacity = 0;
};

/// Length of one round of a timed pass. A pass's end-to-end figures come
/// from its fastest quarter of rounds (by completed ops): on a shared VM,
/// co-tenants slow everything by up to 1.6x for stretches of a few seconds,
/// and interference only ever adds time, so the fast rounds are the ones
/// that repeat from run to run.
inline constexpr double kRoundSeconds = 0.25;

/// \brief Result of one pass over all of its driver threads.
struct PassResult {
  int threads = 0;
  double wall_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> round_throughput;  ///< completed ops / s per round
  Histogram all;                         ///< every op of the pass
  /// Figures of the fastest quarter of the rounds (see kRoundSeconds):
  /// mean completed ops / s, and p50 / p99 of their merged latencies.
  size_t fast_rounds = 0;
  uint64_t fast_samples = 0;
  double throughput = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::vector<std::unique_ptr<DriverState>> drivers;

  uint64_t ok() const { return attempted - failed; }
  /// Wall-clock nanoseconds per op per driver thread (traced budgets).
  double ns_per_op() const;
};

/// An op body: runs one op on driver `thread`, recording spans on `tracer`.
using OpFn = std::function<OpTiming(int thread, Tracer& tracer)>;

/// \brief Runs `threads` closed-loop drivers for spec.seconds (or until a
/// traced pass fills its span buffers). Each thread loops `op(thread, ...)`.
/// The lambda form costs one indirect call per op, the same in every pass.
PassResult RunPass(const PassSpec& spec, int threads, const OpFn& op);

double Median(std::vector<double> v);

/// Rounds of a timed pass of `seconds`.
inline int RoundsFor(double seconds) {
  return std::max(2, static_cast<int>(seconds / kRoundSeconds + 0.5));
}

/// A named value with its unit, printed into the result JSON.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// \brief What a workload run hands back to main.cc.
struct WorkloadReport {
  bool correct = true;
  std::vector<std::string> errors;  ///< failed invariants, for the log
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;   ///< end-to-end (untraced) or per-layer
  std::vector<std::string> notes;  ///< human-readable lines (budget, sizes)

  void Check(bool cond, const std::string& what) {
    if (!cond) {
      correct = false;
      errors.push_back(what);
    }
  }
};

/// \brief Options of one invocation.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test scale: short warm-ups.
  bool tiny = false;
  /// Directory (inside the checkout) for journals and span dumps.
  std::string work_dir = ".bench_build/run";
};

/// \brief Per-workload budget from one traced pass: self time per span name,
/// per op; what no API span covers (driver code inside and between ops) is
/// the unexplained remainder. The tracing overhead compares the traced pass
/// with an untraced pass of the same length.
struct Budget {
  uint64_t ops = 0;
  double calls_per_op[static_cast<int>(Span::kCount)] = {};
  double self_ns_per_op[static_cast<int>(Span::kCount)] = {};
  /// Mean duration per call of spans outside any op (background threads).
  double background_ms_per_call[static_cast<int>(Span::kCount)] = {};
  uint64_t background_calls[static_cast<int>(Span::kCount)] = {};
  double traced_ns_per_op = 0;
  double untraced_ns_per_op = 0;

  /// Mean self time per call of `s` within ops, in ns (0 if never called).
  double ns_per_call(Span s) const;
  double overhead() const {
    return traced_ns_per_op / untraced_ns_per_op - 1.0;
  }
};

/// `background` adds spans of a thread outside the op loop (checkpointer).
Budget ComputeBudget(const PassResult& traced, const PassResult& untraced,
                     const Tracer* background = nullptr);
/// Prints the budget table into `report.notes` and names the largest cost.
void DescribeBudget(const std::string& workload, const Budget& b,
                    WorkloadReport* report);
/// Writes every span of `pass` as TSV to `path` (best effort).
void WriteSpans(const PassResult& pass, const std::string& path);

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

/// Builds the workload into `*out`; returns the seconds from the start of
/// construction to the first timed op (graph, definitions, subscriptions,
/// plan warm-up and the warm-up ops).
template <typename T, typename Make>
double TimedSetup(const Make& make, std::unique_ptr<T>* out) {
  const int64_t t0 = NowNs();
  *out = make();
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

/// Workload entry points (one per file).
WorkloadReport RunPipeline(const RunOptions& opt);
WorkloadReport RunWaves(const RunOptions& opt);
WorkloadReport RunChurn(const RunOptions& opt);
WorkloadReport RunMirror(const RunOptions& opt);

/// Threads driving ops in each workload's timed phase, and the total thread
/// count of its process, for the provenance line.
struct ThreadPlan {
  int drivers;
  int total;
};
ThreadPlan WorkloadThreads(const std::string& workload);

/// Span capacity per traced pass, shared among its driver threads (16 MB of
/// records; a pass stops early once its buffers are full).
inline constexpr size_t kSpansPerPass = size_t{1} << 19;

/// End-to-end metrics every workload reports, from its timed pass.
void AddEndToEnd(const PassResult& pass, double setup_s,
                 WorkloadReport* report);

}  // namespace perfbench
