/// \file scheduler.h
/// \brief Task scheduling: deterministic virtual-time and worker-thread-pool
/// implementations.
///
/// Periodic metadata updates (paper §3.2.2, §4.3) run on a `TaskScheduler`.
/// Two implementations are provided:
///  - `VirtualTimeScheduler` executes tasks in strict timestamp order while
///    advancing a `VirtualClock`; this is fully deterministic and is what the
///    figure-reproduction harnesses and most tests use.
///  - `ThreadPoolScheduler` distributes due tasks over a small pool of worker
///    threads against real time — the paper's "distribute the periodic update
///    tasks over a small pool of worker-threads" (§4.3).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace pipes {

/// \brief Cancellation token for a scheduled task.
///
/// Copyable; all copies refer to the same task. A default-constructed handle
/// refers to no task and Cancel() is a no-op.
class TaskHandle {
 public:
  TaskHandle() = default;

  /// Prevents future executions of the task. Safe to call multiple times and
  /// from any thread. A task currently executing is not interrupted.
  void Cancel() {
    if (!state_) return;
    state_->cancelled.store(true, std::memory_order_release);
    // Lazy-cancel accounting: the queue entry itself is reclaimed only when
    // it surfaces at a queue top, but the pending gauge (queue_depth and
    // max_pending admission) must stop counting it *now* — a cancelled
    // one-shot lingering until its due time would starve admissions.
    // Exactly-once against the racing popper via `accounted`.
    if (state_->pending_gauge &&
        !state_->accounted.exchange(true, std::memory_order_acq_rel)) {
      state_->pending_gauge->fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  /// True if this handle refers to a task that has not been cancelled.
  bool active() const {
    return state_ && !state_->cancelled.load(std::memory_order_acquire);
  }

  /// True if this handle refers to some task (cancelled or not).
  bool valid() const { return state_ != nullptr; }

 private:
  friend class VirtualTimeScheduler;
  friend class ThreadPoolScheduler;
  struct State {
    std::atomic<bool> cancelled{false};
    /// The scheduler's pending-one-shot gauge this entry counts toward
    /// (ThreadPoolScheduler only; null elsewhere). A shared_ptr so a handle
    /// outliving its scheduler cancels against a still-live counter. Set
    /// before the handle is published, const afterwards.
    std::shared_ptr<std::atomic<size_t>> pending_gauge;
    /// True once the gauge has been decremented — by Cancel() or by the
    /// popping worker, whoever wins the exchange.
    std::atomic<bool> accounted{false};
  };
  explicit TaskHandle(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

/// \brief Execution statistics of a scheduler, for profiling and the
/// worker-pool benchmark.
struct SchedulerStats {
  uint64_t tasks_run = 0;
  /// Sum over all executed tasks of (actual start - scheduled time), in us.
  Duration total_lateness = 0;
  Duration max_lateness = 0;
  /// Periodic-task executions whose measured (real-time) runtime exceeded
  /// the watchdog's overrun_factor * period. 0 while the watchdog is off.
  uint64_t overruns = 0;
  /// Longest measured task runtime, in real microseconds.
  Duration max_task_runtime = 0;
  /// Worker wakeups issued by ScheduleAt/SchedulePeriodic (ThreadPool only).
  uint64_t cv_notifies = 0;
  /// Wakeups elided because the new task neither preempted the earliest
  /// deadline nor had an idle worker to employ (ThreadPool only).
  uint64_t cv_notifies_skipped = 0;
  /// Due tasks a worker popped from another worker's shard (ThreadPool
  /// only): the work-stealing imbalance-relief counter.
  uint64_t tasks_stolen = 0;

  // Overload accounting (see TaskScheduler::SetOverloadPolicy).
  /// Executions that started more than the policy's deadline_slack past
  /// their scheduled time. 0 while deadline tracking is off.
  uint64_t deadline_misses = 0;
  /// One-shot tasks rejected by run-queue admission control.
  uint64_t tasks_rejected = 0;
  /// EWMA of the per-execution deadline-miss indicator in [0, 1].
  double miss_rate_ewma = 0.0;
  /// Hysteretic overload signal derived from miss_rate_ewma.
  bool overloaded = false;
  /// Pending entries in the run queue at snapshot time (gauge).
  size_t queue_depth = 0;
  /// Fraction of workers currently executing a task (ThreadPool only).
  double utilization = 0.0;
};

/// \brief Admission-control and deadline-accounting policy of a scheduler.
///
/// Under overload the metadata layer must degrade predictably instead of
/// letting its own run queue grow without bound: one-shot tasks past the
/// queue bound are rejected (callers see an invalid TaskHandle and shed the
/// work), deadline misses are counted, and a hysteretic overload signal is
/// derived for the MetadataManager's pressure governor. Periodic tasks are
/// always admitted — they are the maintenance backbone whose *cadence* is
/// degraded by the manager, never silently dropped.
struct SchedulerOverloadPolicy {
  /// Maximum pending entries before one-shot admissions are rejected.
  /// 0 = unbounded (admission control off).
  size_t max_pending = 0;
  /// Lateness beyond which an execution counts as a deadline miss.
  /// 0 = deadline tracking off (miss rate and overload signal stay 0).
  Duration deadline_slack = 0;
  /// EWMA weight of the newest execution's miss indicator.
  double ewma_alpha = 0.25;
  /// miss_rate_ewma at/above which the scheduler reports overloaded.
  double enter_overload = 0.5;
  /// miss_rate_ewma at/below which an overloaded scheduler recovers
  /// (hysteresis: must be below enter_overload).
  double exit_overload = 0.125;
};

/// \brief Interface for time-based task execution.
class TaskScheduler {
 public:
  using Task = std::function<void()>;

  virtual ~TaskScheduler() = default;

  /// Runs `fn` once at (or as soon as possible after) time `when`.
  virtual TaskHandle ScheduleAt(Timestamp when, Task fn) = 0;

  /// Runs `fn` every `period` microseconds, first at now + `period` (or at
  /// `first_at` when provided). Periodic tasks keep a fixed cadence: the n-th
  /// execution is scheduled at first + n*period regardless of task runtime.
  virtual TaskHandle SchedulePeriodic(Duration period, Task fn,
                                      Timestamp first_at = kTimestampNever) = 0;

  /// Convenience: runs `fn` once after `delay` microseconds.
  TaskHandle ScheduleAfter(Duration delay, Task fn) {
    return ScheduleAt(clock().Now() + delay, std::move(fn));
  }

  /// The clock this scheduler advances/follows.
  virtual Clock& clock() = 0;

  /// Snapshot of execution statistics.
  virtual SchedulerStats stats() const = 0;

  /// \brief One overrunning periodic-task execution, as seen by the watchdog.
  struct OverrunReport {
    Timestamp scheduled_at = 0;  ///< the execution's deadline
    Duration period = 0;         ///< the task's period
    Duration runtime = 0;        ///< measured real runtime, microseconds
  };
  using OverrunCallback = std::function<void(const OverrunReport&)>;

  /// \brief Arms the scheduler watchdog (paper §4.3 hardening): a periodic
  /// task whose measured real-time runtime exceeds `overrun_factor * period`
  /// is counted in stats().overruns and reported through `cb`.
  ///
  /// The callback runs on the thread that executed the task, outside all
  /// scheduler locks, so a stalled task is reported without blocking other
  /// workers. `overrun_factor <= 0` disarms the watchdog.
  void SetWatchdog(double overrun_factor, OverrunCallback cb = nullptr);

  /// The armed overrun factor (0 when the watchdog is off).
  double watchdog_overrun_factor() const;

  /// \brief Arms run-queue admission control and deadline accounting.
  ///
  /// With a non-zero `max_pending`, ScheduleAt (one-shot tasks only) returns
  /// an invalid TaskHandle once the run queue holds that many entries;
  /// callers must treat a rejected admission as shed work. With a non-zero
  /// `deadline_slack`, every execution's lateness is classified as a
  /// deadline miss or not, feeding the miss-rate EWMA and the hysteretic
  /// `overloaded()` signal in stats(). Safe to call at any time.
  void SetOverloadPolicy(const SchedulerOverloadPolicy& policy);
  SchedulerOverloadPolicy overload_policy() const;

  /// Current hysteretic overload signal (false while deadline tracking is
  /// off). Cheap: one atomic load — callable from governor hot paths.
  bool overloaded() const {
    return overloaded_.load(std::memory_order_acquire);
  }

 protected:
  /// True when a one-shot admission fits under the policy's queue bound;
  /// otherwise counts the rejection. `pending` is the pre-push queue size.
  bool AdmitOneShot(size_t pending);

  /// Classifies one execution's lateness against the policy (miss counter,
  /// EWMA, hysteretic overload flag). Call outside the queue lock.
  void RecordExecutionLateness(Duration lateness);

  /// Copies the overload counters/gauges into `stats`.
  void FillOverloadStats(SchedulerStats* stats) const;

  /// True when the watchdog is armed and a periodic task of `period` ran for
  /// `runtime` real microseconds past the allowed overrun factor.
  bool IsOverrun(Duration period, Duration runtime) const;

  /// Delivers one overrun report to the armed callback, if any. Must be
  /// called outside the implementation's queue lock.
  void NotifyOverrun(Timestamp scheduled_at, Duration period, Duration runtime);

 private:
  mutable Mutex watchdog_mu_{"TaskScheduler::watchdog_mu",
                             lockorder::kRankWatchdog};
  double overrun_factor_ PIPES_GUARDED_BY(watchdog_mu_) = 0.0;
  OverrunCallback overrun_cb_ PIPES_GUARDED_BY(watchdog_mu_);

  /// Ranked above the implementations' queue locks: AdmitOneShot runs while
  /// a Schedule* call holds the queue lock.
  mutable Mutex overload_mu_{"TaskScheduler::overload_mu",
                             lockorder::kRankSchedulerOverload};
  SchedulerOverloadPolicy overload_policy_ PIPES_GUARDED_BY(overload_mu_);
  uint64_t deadline_misses_ PIPES_GUARDED_BY(overload_mu_) = 0;
  uint64_t tasks_rejected_ PIPES_GUARDED_BY(overload_mu_) = 0;
  double miss_rate_ewma_ PIPES_GUARDED_BY(overload_mu_) = 0.0;
  /// Atomic mirror of the hysteretic flag so overloaded() is lock-free.
  std::atomic<bool> overloaded_{false};
};

/// \brief Deterministic scheduler driving a VirtualClock.
///
/// Tasks run in (timestamp, insertion order) order when the owner calls
/// RunUntil()/RunFor()/RunNext(). Tasks may schedule further tasks, including
/// at the current time. Not internally threaded; all Run* calls must come
/// from one thread at a time, but ScheduleAt is safe from task callbacks.
class VirtualTimeScheduler final : public TaskScheduler {
 public:
  /// Uses an internal clock when `clock` is null.
  explicit VirtualTimeScheduler(VirtualClock* clock = nullptr);

  TaskHandle ScheduleAt(Timestamp when, Task fn) override;
  TaskHandle SchedulePeriodic(Duration period, Task fn,
                              Timestamp first_at = kTimestampNever) override;
  Clock& clock() override { return *clock_; }
  VirtualClock& virtual_clock() { return *clock_; }
  SchedulerStats stats() const override;

  /// Executes all tasks with timestamp <= `t`, advancing the clock to each
  /// task's time, then sets the clock to `t`. Returns the number of tasks run.
  uint64_t RunUntil(Timestamp t);

  /// RunUntil(now + delta).
  uint64_t RunFor(Duration delta) { return RunUntil(clock_->Now() + delta); }

  /// Executes the single next pending task (advancing the clock to it).
  /// Returns false if no task is pending.
  bool RunNext();

  /// Number of pending (non-cancelled at last sweep) entries.
  size_t pending_count() const;

  /// Timestamp of the earliest pending task, or kTimestampMax if none.
  Timestamp next_deadline() const;

 private:
  struct Entry {
    Timestamp when;
    uint64_t seq;
    Task fn;
    std::shared_ptr<TaskHandle::State> state;
    Duration period;  // 0 => one-shot
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  // Pops the next runnable entry with when <= t; returns false if none.
  bool PopDue(Timestamp t, Entry* out);
  // Runs a popped entry at its time, accounts it and re-arms a periodic one.
  void RunEntry(Entry& e);

  // pipes-analyze: unguarded(fixed at construction; only Run/RunFor advance the clock, single-threaded by contract)
  VirtualClock owned_clock_;
  VirtualClock* clock_;  // pipes-analyze: unguarded(set once in the ctor, never reseated)
  mutable Mutex mu_{"VirtualTimeScheduler::mu", lockorder::kRankScheduler};
  std::priority_queue<Entry, std::vector<Entry>, EntryLater> queue_
      PIPES_GUARDED_BY(mu_);
  uint64_t next_seq_ PIPES_GUARDED_BY(mu_) = 0;
  SchedulerStats stats_ PIPES_GUARDED_BY(mu_);
};

/// \brief Real-time scheduler over a pool of worker threads (paper §4.3).
///
/// Worker threads sleep until the earliest deadline and execute due tasks.
/// With `num_threads == 1` this is the paper's "single thread is sufficient
/// to handle all periodic updates for small query graphs" configuration.
///
/// The run queue is sharded one-per-worker: each worker pushes, pops, and
/// re-arms periodics against its own timer queue (producers distribute new
/// tasks round-robin), so workers do not contend on one queue lock as the
/// pool grows. Imbalance is relieved by work stealing: a worker with nothing
/// due try-locks sibling shards and runs their due tasks. Admission control,
/// deadline accounting, and the overload gauges aggregate per-shard counters
/// and process-wide atomics, so SetOverloadPolicy semantics are unchanged.
class ThreadPoolScheduler final : public TaskScheduler {
 public:
  /// Starts `num_threads` workers against `clock` (a SystemClock is created
  /// internally when null).
  explicit ThreadPoolScheduler(size_t num_threads = 1, Clock* clock = nullptr);
  ~ThreadPoolScheduler() override;

  ThreadPoolScheduler(const ThreadPoolScheduler&) = delete;
  ThreadPoolScheduler& operator=(const ThreadPoolScheduler&) = delete;

  TaskHandle ScheduleAt(Timestamp when, Task fn) override;
  TaskHandle SchedulePeriodic(Duration period, Task fn,
                              Timestamp first_at = kTimestampNever) override;
  Clock& clock() override { return *clock_; }
  SchedulerStats stats() const override;

  /// Stops all workers after the currently running tasks finish. Pending
  /// tasks are dropped. Idempotent; also called by the destructor.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }

 private:
  struct Entry {
    Timestamp when;
    uint64_t seq;
    std::shared_ptr<Task> fn;
    std::shared_ptr<TaskHandle::State> state;
    Duration period;  // 0 => one-shot
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// \brief One worker's timer queue (shard). Push/pop are owner-local in
  /// steady state; producers distribute round-robin and siblings steal due
  /// tasks, both through the same per-shard lock.
  struct Shard {
    mutable Mutex mu{"ThreadPoolScheduler::shard_mu",
                     lockorder::kRankScheduler};
    /// condition_variable_any: the annotated pipes::Mutex is Lockable but is
    /// not std::mutex, which plain std::condition_variable requires.
    std::condition_variable_any cv;  // pipes-analyze: unguarded(condition variables are internally synchronized)
    std::priority_queue<Entry, std::vector<Entry>, EntryLater> queue
        PIPES_GUARDED_BY(mu);
    uint64_t next_seq PIPES_GUARDED_BY(mu) = 0;
    /// The owning worker is blocked in the indefinite nothing-anywhere wait.
    /// Schedule* must wake it even when the new task does not preempt any
    /// deadline (it has no deadline to wake towards), and producers pushing
    /// due work to a busy sibling wake it through steal_hint.
    bool idle PIPES_GUARDED_BY(mu) = false;
    /// Tells an idle owner to re-run its steal scan: a producer pushed due
    /// work onto a shard whose owner is mid-task.
    bool steal_hint PIPES_GUARDED_BY(mu) = false;
    /// Per-shard slice of the execution counters; stats() aggregates.
    SchedulerStats stats PIPES_GUARDED_BY(mu);
  };

  /// Lock/unlock around task execution is too dynamic for static analysis;
  /// checked by the runtime lock-order validator instead.
  void WorkerLoop(size_t self) PIPES_NO_THREAD_SAFETY_ANALYSIS;

  /// Pops the next runnable due entry of `shard` (reclaiming cancelled
  /// entries it meets) into `out`, recording pop-side stats. Requires
  /// shard.mu held (dynamic capability, validated at runtime).
  bool PopDueEntry(Shard& shard, Timestamp now, Entry* out)
      PIPES_NO_THREAD_SAFETY_ANALYSIS;

  /// Settles a reclaimed or popped entry against the pending-one-shot gauge
  /// (exactly-once versus TaskHandle::Cancel). Returns false when the entry
  /// lost the race (already accounted == already cancelled-and-settled).
  bool SettleOneShot(const Entry& e);

  /// Runs one popped entry outside all shard locks: gauge settlement,
  /// lateness/overload accounting, execution, watchdog. Runtime stats are
  /// recorded into `home` (the executing worker's shard) afterwards.
  void ExecuteEntry(Entry e, Timestamp now, Shard& home)
      PIPES_NO_THREAD_SAFETY_ANALYSIS;

  /// True when a task newly pushed at `when` needs a wakeup of the shard's
  /// owner, given the pre-push queue state; counts the decision in
  /// shard.stats. Requires shard.mu held.
  bool NoteScheduled(Shard& shard, bool was_empty, Timestamp prev_top_when,
                     Timestamp when) PIPES_NO_THREAD_SAFETY_ANALYSIS;

  /// Wakes one idle worker other than `except` so it can steal newly pushed
  /// due work from a shard whose owner is busy. Holds no lock on entry.
  void WakeIdleWorkerForSteal(size_t except);

  // pipes-analyze: unguarded(fixed at construction, read-only afterwards)
  std::unique_ptr<SystemClock> owned_clock_;
  Clock* clock_;  // pipes-analyze: unguarded(set once in the ctor, never reseated)
  // pipes-analyze: unguarded(sized in the ctor, never resized; shards are internally locked)
  std::vector<std::unique_ptr<Shard>> shards_;
  // pipes-analyze: unguarded(populated in the ctor, joined in Shutdown; never touched by workers)
  std::vector<std::thread> threads_;
  /// Round-robin distribution cursor for new tasks.
  std::atomic<uint64_t> push_cursor_{0};
  std::atomic<bool> stopping_{false};
  /// Admitted, not-yet-settled one-shot entries across all shards. Heap-held
  /// so TaskHandle::Cancel can settle against it after the scheduler died.
  // pipes-analyze: unguarded(set once in the ctor; the pointee is atomic)
  std::shared_ptr<std::atomic<size_t>> pending_oneshots_;
  /// Live periodic entries across all shards (cancelled periodics leave the
  /// gauge when their entry surfaces; their cadence is their reclaim bound).
  std::atomic<size_t> periodic_entries_{0};
  /// Due tasks run from a sibling's shard (aggregated into stats()).
  std::atomic<uint64_t> tasks_stolen_{0};
  /// Workers currently executing a task (pool-utilization gauge).
  std::atomic<size_t> busy_workers_{0};
};

}  // namespace pipes
