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

void RaiseMax(std::atomic<Duration>& max, Duration v) {
  Duration cur = max.load(std::memory_order_relaxed);
  while (v > cur &&
         !max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// TaskScheduler core: timer queue, admission, run path
// ---------------------------------------------------------------------------

bool TaskScheduler::TimerQueue::Later(const Entry& a, const Entry& b) {
  if (a.when != b.when) return a.when > b.when;
  return a.seq > b.seq;
}

void TaskScheduler::TimerQueue::Push(Entry e) {
  e.seq = next_seq_++;
  heap_.push_back(std::move(e));
  std::push_heap(heap_.begin(), heap_.end(), Later);
}

bool TaskScheduler::TimerQueue::PopDue(Timestamp due_by, Entry* out) {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    bool cancelled = top.state->cancelled.load(std::memory_order_acquire);
    if (!cancelled && top.when > due_by) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    if (cancelled) {
      // Lazy-cancel reclamation. Cancel() may have set the flag but not yet
      // settled; whichever of the two settles first takes the slot off.
      e.state->Settle();
      continue;
    }
    *out = std::move(e);
    return true;
  }
  return false;
}

TaskScheduler::TaskScheduler(SchedulerOverloadPolicy policy)
    : policy_(std::move(policy)),
      pending_(std::make_shared<std::atomic<size_t>>(0)) {}

TaskHandle TaskScheduler::SchedulePeriodic(Duration period, Task fn,
                                           Timestamp first_at) {
  assert(period > 0 && "periodic task requires a positive period");
  Timestamp first =
      first_at == kTimestampNever ? clock().Now() + period : first_at;
  return Schedule(first, period, std::move(fn));
}

TaskHandle TaskScheduler::Schedule(Timestamp when, Duration period, Task fn) {
  // Reserve the gauge slot before the bound check so concurrent producers
  // cannot both see room for the last slot.
  size_t pending = pending_->fetch_add(1, std::memory_order_acq_rel);
  if (period == 0 && policy_.max_pending != 0 &&
      pending >= policy_.max_pending) {
    pending_->fetch_sub(1, std::memory_order_acq_rel);
    tasks_rejected_.fetch_add(1, std::memory_order_relaxed);
    return TaskHandle();
  }
  auto state = std::make_shared<TaskHandle::State>();
  state->pending_gauge = pending_;
  Enqueue(Entry{when, /*seq=*/0, std::make_shared<Task>(std::move(fn)), state,
                period});
  return TaskHandle(std::move(state));
}

bool TaskScheduler::RunEntry(const Entry& e, Timestamp now) {
  // A one-shot leaves the pending gauge when it runs, unless Cancel() took
  // it off first; a periodic stays on it until cancelled.
  if (e.period == 0 && !e.state->Settle()) return false;
  if (e.state->cancelled.load(std::memory_order_acquire)) return false;
  Duration lateness = now - e.when;
  tasks_run_.Increment();
  total_lateness_.Add(static_cast<uint64_t>(lateness));
  RaiseMax(max_lateness_, lateness);
  if (policy_.deadline_slack > 0) RecordLateness(lateness);

  Timestamp started = SteadyMicrosNow();
  (*e.fn)();
  Duration runtime = SteadyMicrosNow() - started;
  RaiseMax(max_task_runtime_, runtime);
  if (e.period > 0 && policy_.overrun_factor > 0 &&
      static_cast<double>(runtime) >
          policy_.overrun_factor * static_cast<double>(e.period)) {
    overruns_.fetch_add(1, std::memory_order_relaxed);
    if (policy_.on_overrun) {
      policy_.on_overrun(OverrunReport{e.when, e.period, runtime});
    }
  }
  return !e.state->cancelled.load(std::memory_order_acquire);
}

void TaskScheduler::RecordLateness(Duration lateness) {
  constexpr double kAlpha = SchedulerOverloadPolicy::kMissRateAlpha;
  bool miss = lateness > policy_.deadline_slack;
  if (miss) deadline_misses_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(overload_mu_);
  double ewma = kAlpha * (miss ? 1.0 : 0.0) +
                (1.0 - kAlpha) * miss_rate_ewma_.load(std::memory_order_relaxed);
  miss_rate_ewma_.store(ewma, std::memory_order_relaxed);
  // Hysteresis: enter above the high mark, leave only below the low mark, so
  // a miss rate oscillating around one threshold cannot flap the signal.
  bool overloaded = overloaded_.load(std::memory_order_relaxed);
  if (overloaded ? ewma <= SchedulerOverloadPolicy::kExitOverload
                 : ewma >= SchedulerOverloadPolicy::kEnterOverload) {
    overloaded_.store(!overloaded, std::memory_order_release);
  }
}

SchedulerStats TaskScheduler::stats() const {
  SchedulerStats s;
  s.tasks_run = tasks_run_.Value();
  s.total_lateness = static_cast<Duration>(total_lateness_.Value());
  s.max_lateness = max_lateness_.load(std::memory_order_relaxed);
  s.overruns = overruns_.load(std::memory_order_relaxed);
  s.max_task_runtime = max_task_runtime_.load(std::memory_order_relaxed);
  s.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  s.tasks_rejected = tasks_rejected_.load(std::memory_order_relaxed);
  s.miss_rate_ewma = miss_rate_ewma_.load(std::memory_order_relaxed);
  s.overloaded = overloaded_.load(std::memory_order_relaxed);
  s.queue_depth = pending_->load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// VirtualTimeScheduler
// ---------------------------------------------------------------------------

VirtualTimeScheduler::VirtualTimeScheduler(VirtualClock* clock,
                                           SchedulerOverloadPolicy policy)
    : TaskScheduler(std::move(policy)),
      clock_(clock ? clock : &owned_clock_) {}

void VirtualTimeScheduler::Enqueue(Entry e) {
  MutexLock lock(mu_);
  // One-shots scheduled in the past run at the current time.
  if (e.period == 0) e.when = std::max(e.when, clock_->Now());
  queue_.Push(std::move(e));
}

size_t VirtualTimeScheduler::pending_count() const {
  MutexLock lock(mu_);
  return queue_.size();
}

Timestamp VirtualTimeScheduler::next_deadline() const {
  MutexLock lock(mu_);
  return queue_.next_due();
}

bool VirtualTimeScheduler::RunNextDue(Timestamp due_by) {
  Entry e;
  {
    MutexLock lock(mu_);
    if (!queue_.PopDue(due_by, &e)) return false;
  }
  clock_->Set(e.when);
  // Re-armed after the run, so what the task schedules for the next tick's
  // instant sorts before the tick: the tie order simulations replay.
  if (RunEntry(e, clock_->Now()) && e.period > 0) {
    e.when += e.period;
    MutexLock lock(mu_);
    queue_.Push(std::move(e));
  }
  return true;
}

uint64_t VirtualTimeScheduler::RunUntil(Timestamp t) {
  uint64_t run = 0;
  while (RunNextDue(t)) ++run;
  clock_->Set(t);
  return run;
}

// ---------------------------------------------------------------------------
// ThreadPoolScheduler
// ---------------------------------------------------------------------------

ThreadPoolScheduler::ThreadPoolScheduler(size_t num_threads, Clock* clock,
                                         SchedulerOverloadPolicy policy)
    : TaskScheduler(std::move(policy)) {
  if (clock == nullptr) {
    owned_clock_ = std::make_unique<SystemClock>();
    clock_ = owned_clock_.get();
  } else {
    clock_ = clock;
  }
  if (num_threads == 0) num_threads = 1;
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

void ThreadPoolScheduler::Enqueue(Entry e) {
  size_t target =
      push_cursor_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  Shard& shard = *shards_[target];
  Timestamp when = e.when;
  bool notify = false;
  {
    MutexLock lock(shard.mu);
    // A wakeup is useful when the new task preempts the deadline the shard's
    // owner sleeps towards (none when its queue is empty), or when the owner
    // sits in the indefinite idle wait. Otherwise the owner wakes on time by
    // itself and notify_one would be a spurious wakeup (often a futex
    // syscall).
    notify = when < shard.queue.next_due() || shard.idle;
    if (notify) {
      ++shard.cv_notifies;
    } else {
      ++shard.cv_notifies_skipped;
    }
    shard.queue.Push(std::move(e));
  }
  if (notify) shard.cv.notify_one();
  // A task due right now on a shard whose owner is mid-task would wait for
  // that task to finish; hand an idle sibling a steal hint instead.
  if (shards_.size() > 1 && when <= clock_->Now()) {
    WakeIdleWorkerForSteal(target);
  }
}

SchedulerStats ThreadPoolScheduler::stats() const {
  SchedulerStats s = TaskScheduler::stats();
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    s.cv_notifies += shard->cv_notifies;
    s.cv_notifies_skipped += shard->cv_notifies_skipped;
  }
  s.tasks_stolen = tasks_stolen_.load(std::memory_order_relaxed);
  s.utilization = double(busy_workers_.load(std::memory_order_relaxed)) /
                  double(threads_.size());
  return s;
}

bool ThreadPoolScheduler::PopDue(Shard& shard, Timestamp now, Entry* out) {
  if (!shard.queue.PopDue(now, out)) return false;
  if (out->period > 0) {
    // Fixed cadence, re-armed at pop into the same shard (owner-local:
    // periodics keep their home queue even when this execution is stolen);
    // skip whole periods if we fell badly behind so the queue cannot grow
    // without bound.
    Entry next = *out;
    next.when += next.period;
    if (next.when <= now) {
      int64_t behind = (now - out->when) / out->period;
      next.when = out->when + (behind + 1) * out->period;
    }
    shard.queue.Push(std::move(next));
  }
  return true;
}

void ThreadPoolScheduler::Execute(const Entry& e, Timestamp now) {
  busy_workers_.fetch_add(1, std::memory_order_relaxed);
  RunEntry(e, now);
  busy_workers_.fetch_sub(1, std::memory_order_relaxed);
}

void ThreadPoolScheduler::WorkerLoop(size_t self) {
  Shard& own = *shards_[self];
  std::unique_lock<Mutex> lock(own.mu);
  while (true) {
    if (stopping_.load(std::memory_order_acquire)) return;

    Timestamp now = clock_->Now();
    Entry e;
    if (PopDue(own, now, &e)) {
      lock.unlock();
      Execute(e, now);
      lock.lock();
      continue;
    }
    Timestamp own_deadline = own.queue.next_due();

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
      if (PopDue(other, now, &e)) {
        other.mu.unlock();
        tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
        Execute(e, now);
        stole = true;
        break;
      }
      min_foreign = std::min(min_foreign, other.queue.next_due());
      other.mu.unlock();
    }
    // A contended sibling may be hiding due work; re-scan after a bounded
    // nap instead of sleeping towards a deadline we could not read.
    if (contended) min_foreign = std::min(min_foreign, now + Millis(1));
    lock.lock();
    if (stole) continue;
    if (stopping_.load(std::memory_order_acquire)) return;

    // Our queue may have gained work while unlocked; the loop re-checks.
    if (!own.queue.empty() && own.queue.next_due() != own_deadline) continue;

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
