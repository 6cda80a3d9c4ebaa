#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <thread>

namespace perfbench {

// --- Histogram ---------------------------------------------------------------

int Histogram::Index(int64_t ns) {
  if (ns < kSub) return ns < 0 ? 0 : static_cast<int>(ns);
  const int msb = 63 - __builtin_clzll(static_cast<uint64_t>(ns));
  if (msb > kMaxExp) return kBuckets - 1;
  const int shift = msb - kSubBits;
  const int sub = static_cast<int>((static_cast<uint64_t>(ns) >> shift) &
                                   static_cast<uint64_t>(kSub - 1));
  return (shift + 1) * kSub + sub;
}

double Histogram::BucketLow(int index) {
  if (index < kSub) return index;
  return std::ldexp(static_cast<double>(kSub + index % kSub), index / kSub - 1);
}

double Histogram::BucketWidth(int index) {
  return index < kSub ? 1.0 : std::ldexp(1.0, index / kSub - 1);
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  overflow_ += other.overflow_;
  total_ += other.total_;
}

double Histogram::Quantile(double q) const {
  if (total_ == 0) return 0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total_))));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (seen + counts_[i] >= rank) {
      // Interpolate by rank inside the bucket, as if its samples were
      // spread evenly over it.
      const double frac = (static_cast<double>(rank - seen) - 0.5) / counts_[i];
      return BucketLow(i) + BucketWidth(i) * frac;
    }
    seen += counts_[i];
  }
  return std::numeric_limits<double>::infinity();
}

// --- Spans -------------------------------------------------------------------

const char* SpanName(Span s) {
  switch (s) {
    case Span::kOp: return "op";
    case Span::kPushElement: return "stream.PushElement";
    case Span::kGet: return "metadata.Get";
    case Span::kFireEvent: return "metadata.FireEvent";
    case Span::kSubscribe: return "metadata.Subscribe";
    case Span::kReset: return "metadata.Reset";
    case Span::kCheckpointNow: return "persistence.CheckpointNow";
    case Span::kWaitVisible: return "remote.WaitVisible";
    case Span::kCount: break;
  }
  return "?";
}

Tracer::Tracer(size_t capacity, uint64_t thread_tag)
    : spans_(capacity), capacity_(capacity), thread_tag_(thread_tag) {}

DriverState::DriverState(int rounds, size_t span_capacity, uint64_t thread_tag)
    : round_hist(static_cast<size_t>(rounds)),
      round_ok(static_cast<size_t>(rounds), 0),
      tracer(span_capacity, thread_tag) {}

// --- Passes ------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PassResult::ns_per_op() const {
  if (attempted == 0) return 0;
  return wall_s * 1e9 * threads / static_cast<double>(attempted);
}

PassResult RunPass(const PassSpec& spec, int threads, const OpFn& op) {
  PassResult res;
  res.threads = threads;
  const size_t cap = spec.span_capacity / static_cast<size_t>(threads);
  for (int t = 0; t < threads; ++t) {
    res.drivers.push_back(std::make_unique<DriverState>(
        spec.rounds, cap, static_cast<uint64_t>(t + 1) << 48));
  }
  const int64_t len = static_cast<int64_t>(spec.seconds * 1e9);
  const double round_ns = static_cast<double>(len) / spec.rounds;
  std::atomic<int> ready{0};
  std::atomic<int64_t> start_at{0};
  std::atomic<bool> stop{false};

  auto body = [&](int t) {
    DriverState& ds = *res.drivers[static_cast<size_t>(t)];
    ready.fetch_add(1, std::memory_order_acq_rel);
    int64_t start;
    while ((start = start_at.load(std::memory_order_acquire)) == 0) {
      std::this_thread::yield();
    }
    int64_t now = NowNs();
    while (now < start) now = NowNs();
    const int64_t end = start + len;
    while (now < end && !stop.load(std::memory_order_relaxed)) {
      if (ds.tracer.full()) {
        stop.store(true, std::memory_order_relaxed);
        break;
      }
      const OpTiming o = op(t, ds.tracer);
      now = o.end_ns;
      const int r = std::min(spec.rounds - 1,
                             static_cast<int>((now - start) / round_ns));
      ++ds.attempted;
      if (o.ok) {
        ds.round_hist[static_cast<size_t>(r)].Record(o.end_ns - o.start_ns);
        ++ds.round_ok[static_cast<size_t>(r)];
      } else {
        ds.round_hist[static_cast<size_t>(r)].RecordFailure();
        ++ds.failed;
      }
    }
    ds.stopped_at_ns = now;
  };

  std::vector<std::thread> workers;
  for (int t = 1; t < threads; ++t) workers.emplace_back(body, t);
  while (ready.load(std::memory_order_acquire) < threads - 1) {
    std::this_thread::yield();
  }
  const int64_t start = NowNs() + 1'000'000;  // all drivers start together
  start_at.store(start, std::memory_order_release);
  body(0);
  for (auto& w : workers) w.join();

  int64_t last = start;
  for (const auto& ds : res.drivers) {
    res.attempted += ds->attempted;
    res.failed += ds->failed;
    last = std::max(last, ds->stopped_at_ns);
  }
  res.wall_s = static_cast<double>(last - start) * 1e-9;
  std::vector<Histogram> rounds(static_cast<size_t>(spec.rounds));
  std::vector<std::pair<double, size_t>> by_rate;
  for (size_t r = 0; r < rounds.size(); ++r) {
    uint64_t ok = 0;
    for (const auto& ds : res.drivers) {
      rounds[r].Merge(ds->round_hist[r]);
      ok += ds->round_ok[r];
    }
    res.all.Merge(rounds[r]);
    if (rounds[r].count() == 0) continue;
    const double rate = static_cast<double>(ok) / (round_ns * 1e-9);
    res.round_throughput.push_back(rate);
    by_rate.emplace_back(rate, r);
  }
  // The fastest quarter of the rounds (at least one) gives the figures.
  std::sort(by_rate.rbegin(), by_rate.rend());
  by_rate.resize(std::min(by_rate.size(),
                          std::max<size_t>(1, (by_rate.size() + 3) / 4)));
  Histogram fast;
  double rate_sum = 0;
  for (const auto& [rate, r] : by_rate) {
    fast.Merge(rounds[r]);
    rate_sum += rate;
  }
  res.fast_rounds = by_rate.size();
  res.fast_samples = fast.count();
  res.throughput = by_rate.empty() ? 0 : rate_sum / by_rate.size();
  res.p50_us = fast.Quantile(0.50) * 1e-3;
  res.p99_us = fast.Quantile(0.99) * 1e-3;
  return res;
}

// --- Budget ------------------------------------------------------------------

double Budget::ns_per_call(Span s) const {
  const int i = static_cast<int>(s);
  return calls_per_op[i] > 0 ? self_ns_per_op[i] / calls_per_op[i] : 0;
}

Budget ComputeBudget(const PassResult& traced, const PassResult& untraced,
                     const Tracer* background) {
  constexpr int kN = static_cast<int>(Span::kCount);
  double self[kN] = {};
  uint64_t calls[kN] = {};
  double bg_total[kN] = {};
  Budget b;
  auto scan = [&](const Tracer& tr) {
    for (size_t i = 0; i < tr.size(); ++i) {
      const SpanRecord& s = tr.at(i);
      const int n = static_cast<int>(s.name);
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      if (s.op_id == 0) {
        if (s.parent < 0) {
          ++b.background_calls[n];
          bg_total[n] += dur;
        }
        continue;
      }
      self[n] += dur;
      ++calls[n];
      if (s.parent >= 0) {
        self[static_cast<int>(tr.at(static_cast<size_t>(s.parent)).name)] -=
            dur;
      }
    }
  };
  for (const auto& ds : traced.drivers) scan(ds->tracer);
  if (background != nullptr) scan(*background);
  b.ops = calls[static_cast<int>(Span::kOp)];
  for (int n = 0; n < kN; ++n) {
    if (b.ops > 0) {
      b.calls_per_op[n] = static_cast<double>(calls[n]) / b.ops;
      b.self_ns_per_op[n] = self[n] / b.ops;
    }
    if (b.background_calls[n] > 0) {
      b.background_ms_per_call[n] = bg_total[n] * 1e-6 / b.background_calls[n];
    }
  }
  b.traced_ns_per_op = traced.ns_per_op();
  b.untraced_ns_per_op = untraced.ns_per_op();
  return b;
}

void DescribeBudget(const std::string& workload, const Budget& b,
                    WorkloadReport* report) {
  constexpr int kN = static_cast<int>(Span::kCount);
  char line[256];
  auto add = [&] { report->notes.emplace_back(line); };
  std::snprintf(line, sizeof line,
                "budget %s: %llu traced ops; per op, wall time x threads",
                workload.c_str(), static_cast<unsigned long long>(b.ops));
  add();
  std::snprintf(line, sizeof line, "  %-28s %9s %13s %7s", "span", "calls/op",
                "self ns/op", "share");
  add();
  double explained = 0;
  std::string largest = "unexplained";
  double largest_ns = 0;
  for (int n = 1; n < kN; ++n) {
    if (b.calls_per_op[n] == 0) continue;
    explained += b.self_ns_per_op[n];
    std::snprintf(line, sizeof line, "  %-28s %9.3f %13.1f %6.1f%%",
                  SpanName(static_cast<Span>(n)), b.calls_per_op[n],
                  b.self_ns_per_op[n],
                  100.0 * b.self_ns_per_op[n] / b.traced_ns_per_op);
    add();
    if (b.self_ns_per_op[n] > largest_ns) {
      largest_ns = b.self_ns_per_op[n];
      largest = SpanName(static_cast<Span>(n));
    }
  }
  const double unexplained = b.traced_ns_per_op - explained;
  std::snprintf(line, sizeof line, "  %-28s %9s %13.1f %6.1f%%",
                "unexplained (driver code)", "", unexplained,
                100.0 * unexplained / b.traced_ns_per_op);
  add();
  if (unexplained > largest_ns) {
    largest_ns = unexplained;
    largest = "unexplained (driver code)";
  }
  std::snprintf(line, sizeof line,
                "  total %.1f ns/op traced, %.1f ns/op untraced: tracing "
                "overhead %+.1f%%",
                b.traced_ns_per_op, b.untraced_ns_per_op, 100.0 * b.overhead());
  add();
  for (int n = 0; n < kN; ++n) {
    if (b.background_calls[n] == 0) continue;
    std::snprintf(line, sizeof line,
                  "  background %s: %llu calls, %.3f ms per call",
                  SpanName(static_cast<Span>(n)),
                  static_cast<unsigned long long>(b.background_calls[n]),
                  b.background_ms_per_call[n]);
    add();
  }
  std::snprintf(line, sizeof line,
                "  largest per-op cost in %s: %s (%.1f ns/op, %.1f%%)",
                workload.c_str(), largest.c_str(), largest_ns,
                100.0 * largest_ns / b.traced_ns_per_op);
  add();
}

void WriteSpans(const PassResult& pass, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fputs("thread\top_id\tspan\tparent\tstart_ns\tend_ns\n", f);
  for (size_t t = 0; t < pass.drivers.size(); ++t) {
    const Tracer& tr = pass.drivers[t]->tracer;
    for (size_t i = 0; i < tr.size(); ++i) {
      const SpanRecord& s = tr.at(i);
      std::fprintf(f, "%zu\t%llu\t%s\t%d\t%lld\t%lld\n", t,
                   static_cast<unsigned long long>(s.op_id), SpanName(s.name),
                   s.parent, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  std::fclose(f);
}

// --- Reports -----------------------------------------------------------------

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void AddEndToEnd(const PassResult& pass, double setup_s,
                 WorkloadReport* report) {
  report->attempted += pass.attempted;
  report->failed += pass.failed;
  report->Check(pass.failed == 0, "failed ops in the timed pass");
  report->metrics.push_back({"throughput_per_s", pass.throughput, "1/s"});
  report->metrics.push_back({"latency_p50_us", pass.p50_us, "us"});
  report->metrics.push_back({"latency_p99_us", pass.p99_us, "us"});
  report->metrics.push_back({"setup_s", setup_s, "s"});
  report->metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  std::vector<double> tput = pass.round_throughput;
  std::sort(tput.begin(), tput.end());
  char line[320];
  std::snprintf(line, sizeof line,
                "timed pass: %.3f s, %llu ops (%llu failed); figures from the "
                "fastest %zu of %zu rounds, %llu latency samples; round "
                "throughput min %.0f, median %.0f, max %.0f ops/s; whole pass "
                "p50 %.3f us, p99 %.3f us",
                pass.wall_s, static_cast<unsigned long long>(pass.attempted),
                static_cast<unsigned long long>(pass.failed), pass.fast_rounds,
                tput.size(), static_cast<unsigned long long>(pass.fast_samples),
                tput.empty() ? 0 : tput.front(), Median(tput),
                tput.empty() ? 0 : tput.back(), pass.all.Quantile(0.5) * 1e-3,
                pass.all.Quantile(0.99) * 1e-3);
  report->notes.emplace_back(line);
}

}  // namespace perfbench
