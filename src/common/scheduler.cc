#include "common/scheduler.h"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace pipes {

namespace {

/// Real (steady-clock) microseconds; task runtimes are measured against real
/// time even under a virtual clock, because a stalled evaluator stalls the
/// hosting worker/run loop in real time.
Timestamp SteadyMicrosNow() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             // pipes-analyze: nondeterministic(task-runtime measurement only; never feeds scheduling decisions)
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// TaskScheduler watchdog
// ---------------------------------------------------------------------------

void TaskScheduler::SetWatchdog(double overrun_factor, OverrunCallback cb) {
  MutexLock lock(watchdog_mu_);
  overrun_factor_ = overrun_factor;
  overrun_cb_ = std::move(cb);
}

double TaskScheduler::watchdog_overrun_factor() const {
  MutexLock lock(watchdog_mu_);
  return overrun_factor_ > 0 ? overrun_factor_ : 0.0;
}

bool TaskScheduler::IsOverrun(Duration period, Duration runtime) const {
  if (period <= 0) return false;
  MutexLock lock(watchdog_mu_);
  if (overrun_factor_ <= 0) return false;
  return static_cast<double>(runtime) >
         overrun_factor_ * static_cast<double>(period);
}

void TaskScheduler::NotifyOverrun(Timestamp scheduled_at, Duration period,
                                  Duration runtime) {
  OverrunCallback cb;
  {
    MutexLock lock(watchdog_mu_);
    cb = overrun_cb_;
  }
  if (cb) cb(OverrunReport{scheduled_at, period, runtime});
}

// ---------------------------------------------------------------------------
// TaskScheduler overload accounting
// ---------------------------------------------------------------------------

void TaskScheduler::SetOverloadPolicy(const SchedulerOverloadPolicy& policy) {
  MutexLock lock(overload_mu_);
  overload_policy_ = policy;
  if (policy.deadline_slack <= 0) {
    miss_rate_ewma_ = 0.0;
    overloaded_.store(false, std::memory_order_release);
  }
}

SchedulerOverloadPolicy TaskScheduler::overload_policy() const {
  MutexLock lock(overload_mu_);
  return overload_policy_;
}

bool TaskScheduler::AdmitOneShot(size_t pending) {
  MutexLock lock(overload_mu_);
  if (overload_policy_.max_pending == 0 ||
      pending < overload_policy_.max_pending) {
    return true;
  }
  ++tasks_rejected_;
  return false;
}

void TaskScheduler::RecordExecutionLateness(Duration lateness) {
  MutexLock lock(overload_mu_);
  if (overload_policy_.deadline_slack <= 0) return;
  bool miss = lateness > overload_policy_.deadline_slack;
  if (miss) ++deadline_misses_;
  double alpha = overload_policy_.ewma_alpha;
  miss_rate_ewma_ = alpha * (miss ? 1.0 : 0.0) + (1.0 - alpha) * miss_rate_ewma_;
  // Hysteresis: enter above the high mark, leave only below the low mark, so
  // a miss rate oscillating around one threshold cannot flap the signal.
  if (overloaded_.load(std::memory_order_relaxed)) {
    if (miss_rate_ewma_ <= overload_policy_.exit_overload) {
      overloaded_.store(false, std::memory_order_release);
    }
  } else if (miss_rate_ewma_ >= overload_policy_.enter_overload) {
    overloaded_.store(true, std::memory_order_release);
  }
}

void TaskScheduler::FillOverloadStats(SchedulerStats* stats) const {
  MutexLock lock(overload_mu_);
  stats->deadline_misses = deadline_misses_;
  stats->tasks_rejected = tasks_rejected_;
  stats->miss_rate_ewma = miss_rate_ewma_;
  stats->overloaded = overloaded_.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// VirtualTimeScheduler
// ---------------------------------------------------------------------------

VirtualTimeScheduler::VirtualTimeScheduler(VirtualClock* clock)
    : clock_(clock ? clock : &owned_clock_) {}

TaskHandle VirtualTimeScheduler::ScheduleAt(Timestamp when, Task fn) {
  auto state = std::make_shared<TaskHandle::State>();
  MutexLock lock(mu_);
  if (!AdmitOneShot(queue_.size())) return TaskHandle();
  // Tasks scheduled in the past run at the current time.
  when = std::max(when, clock_->Now());
  queue_.push(Entry{when, next_seq_++, std::move(fn), state, /*period=*/0});
  return TaskHandle(state);
}

TaskHandle VirtualTimeScheduler::SchedulePeriodic(Duration period, Task fn,
                                                  Timestamp first_at) {
  assert(period > 0 && "periodic task requires a positive period");
  auto state = std::make_shared<TaskHandle::State>();
  MutexLock lock(mu_);
  Timestamp first =
      first_at == kTimestampNever ? clock_->Now() + period : first_at;
  queue_.push(Entry{first, next_seq_++, std::move(fn), state, period});
  return TaskHandle(state);
}

SchedulerStats VirtualTimeScheduler::stats() const {
  SchedulerStats s;
  {
    MutexLock lock(mu_);
    s = stats_;
    s.queue_depth = queue_.size();
  }
  FillOverloadStats(&s);
  return s;
}

size_t VirtualTimeScheduler::pending_count() const {
  MutexLock lock(mu_);
  return queue_.size();
}

Timestamp VirtualTimeScheduler::next_deadline() const {
  MutexLock lock(mu_);
  return queue_.empty() ? kTimestampMax : queue_.top().when;
}

bool VirtualTimeScheduler::PopDue(Timestamp t, Entry* out) {
  MutexLock lock(mu_);
  while (!queue_.empty()) {
    const Entry& top = queue_.top();
    if (top.when > t) return false;
    Entry e = top;
    queue_.pop();
    if (e.state->cancelled.load(std::memory_order_acquire)) continue;
    *out = std::move(e);
    return true;
  }
  return false;
}

void VirtualTimeScheduler::RunEntry(Entry& e) {
  clock_->Set(e.when);
  Timestamp started = SteadyMicrosNow();
  e.fn();
  Duration runtime = SteadyMicrosNow() - started;
  bool overrun = IsOverrun(e.period, runtime);
  {
    MutexLock lock(mu_);
    ++stats_.tasks_run;
    stats_.max_task_runtime = std::max(stats_.max_task_runtime, runtime);
    if (overrun) ++stats_.overruns;
    if (e.period > 0 && !e.state->cancelled.load(std::memory_order_acquire)) {
      queue_.push(Entry{e.when + e.period, next_seq_++, std::move(e.fn),
                        e.state, e.period});
    }
  }
  if (overrun) NotifyOverrun(e.when, e.period, runtime);
}

uint64_t VirtualTimeScheduler::RunUntil(Timestamp t) {
  uint64_t run = 0;
  Entry e;
  while (PopDue(t, &e)) {
    RunEntry(e);
    ++run;
  }
  clock_->Set(t);
  return run;
}

bool VirtualTimeScheduler::RunNext() {
  Entry e;
  if (!PopDue(kTimestampMax, &e)) return false;
  RunEntry(e);
  return true;
}

// ---------------------------------------------------------------------------
// ThreadPoolScheduler
// ---------------------------------------------------------------------------

ThreadPoolScheduler::ThreadPoolScheduler(size_t num_threads, Clock* clock) {
  if (clock == nullptr) {
    owned_clock_ = std::make_unique<SystemClock>();
    clock_ = owned_clock_.get();
  } else {
    clock_ = clock;
  }
  if (num_threads == 0) num_threads = 1;
  pending_oneshots_ = std::make_shared<std::atomic<size_t>>(0);
  shards_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPoolScheduler::~ThreadPoolScheduler() { Shutdown(); }

void ThreadPoolScheduler::Shutdown() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& shard : shards_) {
    // Empty critical section: a worker between its predicate check and its
    // wait cannot miss the notify once we have held its shard lock.
    { MutexLock lock(shard->mu); }
    shard->cv.notify_all();
  }
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

bool ThreadPoolScheduler::NoteScheduled(Shard& shard, bool was_empty,
                                        Timestamp prev_top_when,
                                        Timestamp when) {
  // A wakeup is useful when the new task preempts the deadline the shard's
  // owner sleeps towards, when its queue held nothing to wait for before, or
  // when the owner sits in the indefinite idle wait. Otherwise the owner
  // wakes on time by itself and notify_one would be a spurious wakeup
  // (often a futex syscall).
  bool notify = was_empty || when < prev_top_when || shard.idle;
  if (notify) {
    ++shard.stats.cv_notifies;
  } else {
    ++shard.stats.cv_notifies_skipped;
  }
  return notify;
}

void ThreadPoolScheduler::WakeIdleWorkerForSteal(size_t except) {
  for (size_t j = 0; j < shards_.size(); ++j) {
    if (j == except) continue;
    Shard& shard = *shards_[j];
    MutexLock lock(shard.mu);
    if (shard.idle) {
      shard.steal_hint = true;
      shard.cv.notify_one();
      return;
    }
  }
}

TaskHandle ThreadPoolScheduler::ScheduleAt(Timestamp when, Task fn) {
  auto state = std::make_shared<TaskHandle::State>();
  // Reserve the gauge slot before the admission check so concurrent
  // producers cannot both see room for the last slot.
  size_t prev_pending =
      pending_oneshots_->fetch_add(1, std::memory_order_acq_rel);
  if (!AdmitOneShot(prev_pending +
                    periodic_entries_.load(std::memory_order_relaxed))) {
    pending_oneshots_->fetch_sub(1, std::memory_order_acq_rel);
    return TaskHandle();
  }
  state->pending_gauge = pending_oneshots_;

  size_t target =
      push_cursor_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  Shard& shard = *shards_[target];
  bool notify;
  {
    MutexLock lock(shard.mu);
    bool was_empty = shard.queue.empty();
    Timestamp prev_top = was_empty ? kTimestampMax : shard.queue.top().when;
    shard.queue.push(Entry{when, shard.next_seq++,
                           std::make_shared<Task>(std::move(fn)), state,
                           /*period=*/0});
    notify = NoteScheduled(shard, was_empty, prev_top, when);
  }
  if (notify) shard.cv.notify_one();
  // A task due right now on a shard whose owner is mid-task would wait for
  // that task to finish; hand an idle sibling a steal hint instead.
  if (shards_.size() > 1 && when <= clock_->Now()) {
    WakeIdleWorkerForSteal(target);
  }
  return TaskHandle(state);
}

TaskHandle ThreadPoolScheduler::SchedulePeriodic(Duration period, Task fn,
                                                 Timestamp first_at) {
  assert(period > 0 && "periodic task requires a positive period");
  auto state = std::make_shared<TaskHandle::State>();
  periodic_entries_.fetch_add(1, std::memory_order_relaxed);
  size_t target =
      push_cursor_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  Shard& shard = *shards_[target];
  bool notify;
  Timestamp first;
  {
    MutexLock lock(shard.mu);
    first = first_at == kTimestampNever ? clock_->Now() + period : first_at;
    bool was_empty = shard.queue.empty();
    Timestamp prev_top = was_empty ? kTimestampMax : shard.queue.top().when;
    shard.queue.push(Entry{first, shard.next_seq++,
                           std::make_shared<Task>(std::move(fn)), state,
                           period});
    notify = NoteScheduled(shard, was_empty, prev_top, first);
  }
  if (notify) shard.cv.notify_one();
  if (shards_.size() > 1 && first <= clock_->Now()) {
    WakeIdleWorkerForSteal(target);
  }
  return TaskHandle(state);
}

SchedulerStats ThreadPoolScheduler::stats() const {
  SchedulerStats s;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    const SchedulerStats& ss = shard->stats;
    s.tasks_run += ss.tasks_run;
    s.total_lateness += ss.total_lateness;
    s.max_lateness = std::max(s.max_lateness, ss.max_lateness);
    s.overruns += ss.overruns;
    s.max_task_runtime = std::max(s.max_task_runtime, ss.max_task_runtime);
    s.cv_notifies += ss.cv_notifies;
    s.cv_notifies_skipped += ss.cv_notifies_skipped;
  }
  s.tasks_stolen = tasks_stolen_.load(std::memory_order_relaxed);
  // Lazy-cancel aware: cancelled one-shots left the gauge at Cancel() even
  // though their queue entries await reclamation.
  s.queue_depth = pending_oneshots_->load(std::memory_order_relaxed) +
                  periodic_entries_.load(std::memory_order_relaxed);
  FillOverloadStats(&s);
  size_t workers = threads_.size();
  if (workers > 0) {
    s.utilization =
        double(busy_workers_.load(std::memory_order_relaxed)) / double(workers);
  }
  return s;
}

bool ThreadPoolScheduler::SettleOneShot(const Entry& e) {
  if (e.period > 0) return true;  // periodics are settled by the gauge inc/dec
  if (e.state->accounted.exchange(true, std::memory_order_acq_rel)) {
    // Cancel() won the race and already decremented the gauge.
    return false;
  }
  pending_oneshots_->fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

bool ThreadPoolScheduler::PopDueEntry(Shard& shard, Timestamp now,
                                      Entry* out) {
  while (!shard.queue.empty()) {
    const Entry& top = shard.queue.top();
    if (top.state->cancelled.load(std::memory_order_acquire)) {
      // Lazy-cancel reclamation. One-shots already left the pending gauge in
      // Cancel() (unless the cancel raced in after the admission settle);
      // periodics leave it here, where their entry dies.
      Entry dead = top;
      shard.queue.pop();
      SettleOneShot(dead);
      if (dead.period > 0) {
        periodic_entries_.fetch_sub(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (top.when > now) return false;
    *out = top;
    shard.queue.pop();
    Duration lateness = now - out->when;
    ++shard.stats.tasks_run;
    shard.stats.total_lateness += lateness;
    shard.stats.max_lateness = std::max(shard.stats.max_lateness, lateness);
    if (out->period > 0) {
      // Fixed cadence, re-armed into the same shard (owner-local: periodics
      // keep their home queue even when this execution is stolen); skip
      // whole periods if we fell badly behind so the queue cannot grow
      // without bound.
      Timestamp next = out->when + out->period;
      if (next <= now) {
        int64_t behind = (now - out->when) / out->period;
        next = out->when + (behind + 1) * out->period;
      }
      shard.queue.push(
          Entry{next, shard.next_seq++, out->fn, out->state, out->period});
    }
    return true;
  }
  return false;
}

void ThreadPoolScheduler::ExecuteEntry(Entry e, Timestamp now, Shard& home) {
  Duration lateness = now - e.when;
  if (!SettleOneShot(e)) return;  // cancelled after the due check: drop
  if (e.state->cancelled.load(std::memory_order_acquire)) return;
  RecordExecutionLateness(lateness);
  busy_workers_.fetch_add(1, std::memory_order_relaxed);
  Timestamp started = SteadyMicrosNow();
  (*e.fn)();
  Duration runtime = SteadyMicrosNow() - started;
  busy_workers_.fetch_sub(1, std::memory_order_relaxed);
  bool overrun = IsOverrun(e.period, runtime);
  // Report before taking any shard lock: a wedged worker's overrun must
  // surface even while other workers keep the queues busy.
  if (overrun) NotifyOverrun(e.when, e.period, runtime);
  MutexLock lock(home.mu);
  home.stats.max_task_runtime =
      std::max(home.stats.max_task_runtime, runtime);
  if (overrun) ++home.stats.overruns;
}

void ThreadPoolScheduler::WorkerLoop(size_t self) {
  Shard& own = *shards_[self];
  std::unique_lock<Mutex> lock(own.mu);
  while (true) {
    if (stopping_.load(std::memory_order_acquire)) return;

    Timestamp now = clock_->Now();
    Entry e;
    if (PopDueEntry(own, now, &e)) {
      lock.unlock();
      ExecuteEntry(std::move(e), now, own);
      lock.lock();
      continue;
    }
    Timestamp own_deadline =
        own.queue.empty() ? kTimestampMax : own.queue.top().when;

    // Nothing due here: scan the sibling shards for due work (stealing) and
    // for the earliest foreign deadline, which bounds our sleep so a sibling
    // wedged in a long task cannot strand its queue. try_lock only — a shard
    // whose owner is active is contended, and blocking on it would serialize
    // the pool right back onto one lock.
    lock.unlock();
    bool stole = false;
    bool contended = false;
    Timestamp min_foreign = kTimestampMax;
    for (size_t off = 1; off < shards_.size() && !stole; ++off) {
      Shard& other = *shards_[(self + off) % shards_.size()];
      if (!other.mu.try_lock()) {
        contended = true;
        continue;
      }
      if (PopDueEntry(other, now, &e)) {
        other.mu.unlock();
        tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
        ExecuteEntry(std::move(e), now, own);
        stole = true;
        break;
      }
      if (!other.queue.empty()) {
        min_foreign = std::min(min_foreign, other.queue.top().when);
      }
      other.mu.unlock();
    }
    // A contended sibling may be hiding due work; re-scan after a bounded
    // nap instead of sleeping towards a deadline we could not read.
    if (contended) min_foreign = std::min(min_foreign, now + Millis(1));
    lock.lock();
    if (stole) continue;
    if (stopping_.load(std::memory_order_acquire)) return;

    // Our queue may have gained work while unlocked; the loop re-checks.
    if (!own.queue.empty() && own.queue.top().when != own_deadline) continue;

    Timestamp wake_at = std::min(own_deadline, min_foreign);
    if (wake_at == kTimestampMax) {
      // Nothing pending anywhere: sleep until a producer says otherwise.
      own.idle = true;
      own.cv.wait(lock, [&] {
        return stopping_.load(std::memory_order_acquire) ||
               !own.queue.empty() || own.steal_hint;
      });
      own.idle = false;
      own.steal_hint = false;
      continue;
    }
    Timestamp now2 = clock_->Now();
    if (wake_at > now2) {
      // Sleep until the deadline or a new (possibly earlier) task arrives.
      own.cv.wait_for(lock, std::chrono::microseconds(wake_at - now2));
    }
  }
}

}  // namespace pipes
