/// \file scheduler.h
/// \brief Task scheduling: one scheduler core with deterministic
/// virtual-time and worker-thread-pool implementations.
///
/// Periodic metadata updates (paper §3.2.2, §4.3) run on a `TaskScheduler`.
/// The base class is the core both implementations share: the timer queue,
/// admission against the queue bound, and the run path with its deadline
/// and watchdog accounting. The implementations add only how due tasks are
/// found and run:
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
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/sharded_counter.h"
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
    // Lazy cancel: the queue entry itself is reclaimed only when it surfaces
    // at a queue top, but the pending gauge (queue_depth and max_pending
    // admission) stops counting the task now — a cancelled one-shot
    // lingering until its due time would starve admissions.
    state_->Settle();
  }

  /// True if this handle refers to a task that has not been cancelled.
  bool active() const {
    return state_ && !state_->cancelled.load(std::memory_order_acquire);
  }

  /// True if this handle refers to some task (cancelled or not).
  bool valid() const { return state_ != nullptr; }

 private:
  friend class TaskScheduler;
  struct State {
    std::atomic<bool> cancelled{false};
    /// True once the task has left the pending gauge.
    std::atomic<bool> accounted{false};
    /// The scheduler's pending gauge. A shared_ptr so a handle outliving
    /// its scheduler cancels against a still-live counter. Set before the
    /// handle is published, const afterwards.
    std::shared_ptr<std::atomic<size_t>> pending_gauge;

    /// Takes the task off the pending gauge, exactly once: a one-shot
    /// leaves it when it runs or is cancelled, a periodic when cancelled.
    /// Returns false for every caller after the first.
    bool Settle() {
      if (accounted.exchange(true, std::memory_order_acq_rel)) return false;
      pending_gauge->fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
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

  // Overload accounting (see SchedulerOverloadPolicy).
  /// Executions that started more than the policy's deadline_slack past
  /// their scheduled time. 0 while deadline tracking is off.
  uint64_t deadline_misses = 0;
  /// One-shot tasks rejected by run-queue admission control.
  uint64_t tasks_rejected = 0;
  /// EWMA of the per-execution deadline-miss indicator in [0, 1].
  double miss_rate_ewma = 0.0;
  /// Hysteretic overload signal derived from miss_rate_ewma.
  bool overloaded = false;
  /// Admitted tasks not yet run or cancelled: pending one-shots plus live
  /// periodics (gauge).
  size_t queue_depth = 0;
  /// Fraction of workers currently executing a task (ThreadPool only).
  double utilization = 0.0;
};

/// \brief Admission control, deadline accounting and watchdog of a
/// scheduler, fixed at construction. Everything is off by default.
///
/// Under overload the metadata layer must degrade predictably instead of
/// letting its own run queue grow without bound: one-shot tasks past the
/// queue bound are rejected (callers see an invalid TaskHandle and shed the
/// work), deadline misses are counted, and a hysteretic overload signal is
/// derived for the MetadataManager's pressure governor. Periodic tasks are
/// always admitted — they are the maintenance backbone whose *cadence* is
/// degraded by the manager, never silently dropped.
struct SchedulerOverloadPolicy {
  /// One overrunning periodic-task execution, as seen by the watchdog.
  struct OverrunReport {
    Timestamp scheduled_at = 0;  ///< the execution's deadline
    Duration period = 0;         ///< the task's period
    Duration runtime = 0;        ///< measured real runtime, microseconds
  };

  /// Maximum pending entries (queue_depth) before one-shot admissions are
  /// rejected. 0 = unbounded (admission control off).
  size_t max_pending = 0;
  /// Lateness beyond which an execution counts as a deadline miss, feeding
  /// the miss-rate EWMA and the hysteretic overloaded() signal.
  /// 0 = deadline tracking off (miss rate and overload signal stay 0).
  Duration deadline_slack = 0;
  /// Watchdog (paper §4.3 hardening): a periodic task whose measured
  /// real-time runtime exceeds `overrun_factor * period` is counted in
  /// stats().overruns and reported through `on_overrun`. <= 0 = off.
  double overrun_factor = 0.0;
  /// Runs on the thread that executed the task, outside all scheduler
  /// locks, so a stalled task is reported without blocking other workers.
  std::function<void(const OverrunReport&)> on_overrun;

  /// EWMA weight of the newest execution's miss indicator.
  static constexpr double kMissRateAlpha = 0.25;
  /// miss_rate_ewma at/above which the scheduler reports overloaded.
  static constexpr double kEnterOverload = 0.5;
  /// miss_rate_ewma at/below which an overloaded scheduler recovers
  /// (hysteresis: below kEnterOverload).
  static constexpr double kExitOverload = 0.125;
};

/// \brief Time-based task execution: the scheduler core.
///
/// Owns admission, the timer-queue type and the run path; an
/// implementation supplies the clock and Enqueue(), and pops due entries
/// from its TimerQueue(s) into RunEntry().
class TaskScheduler {
 public:
  using Task = std::function<void()>;
  using OverrunReport = SchedulerOverloadPolicy::OverrunReport;

  virtual ~TaskScheduler() = default;

  /// Runs `fn` once at (or as soon as possible after) time `when`. Returns
  /// an invalid handle when admission control rejects the task; callers
  /// must treat that as shed work.
  TaskHandle ScheduleAt(Timestamp when, Task fn) {
    return Schedule(when, /*period=*/0, std::move(fn));
  }

  /// Runs `fn` every `period` microseconds, first at now + `period` (or at
  /// `first_at` when provided). Periodic tasks keep a fixed cadence: the n-th
  /// execution is scheduled at first + n*period regardless of task runtime.
  /// Always admitted.
  TaskHandle SchedulePeriodic(Duration period, Task fn,
                              Timestamp first_at = kTimestampNever);

  /// Convenience: runs `fn` once after `delay` microseconds.
  TaskHandle ScheduleAfter(Duration delay, Task fn) {
    return ScheduleAt(clock().Now() + delay, std::move(fn));
  }

  /// The clock this scheduler advances/follows.
  virtual Clock& clock() = 0;

  /// Snapshot of execution statistics.
  virtual SchedulerStats stats() const;

  /// Current hysteretic overload signal (false while deadline tracking is
  /// off). Cheap: one atomic load — callable from governor hot paths.
  bool overloaded() const {
    return overloaded_.load(std::memory_order_acquire);
  }

 protected:
  explicit TaskScheduler(SchedulerOverloadPolicy policy);

  /// One admitted task in a timer queue.
  struct Entry {
    Timestamp when = 0;
    uint64_t seq = 0;  ///< insertion order, the tie break on equal `when`
    std::shared_ptr<Task> fn;  ///< shared by a periodic's successive entries
    std::shared_ptr<TaskHandle::State> state;
    Duration period = 0;  ///< 0 => one-shot
  };

  /// \brief A timer queue: entries in (when, seq) order. Not locked; each
  /// implementation guards its queues.
  class TimerQueue {
   public:
    /// Inserts `e`, stamping the next sequence number.
    void Push(Entry e);

    /// Moves the earliest entry due at or before `due_by` into `out`.
    /// Cancelled entries met at the top are reclaimed whatever their due
    /// time, leaving the pending gauge unless Cancel() already settled them.
    bool PopDue(Timestamp due_by, Entry* out);

    bool empty() const { return heap_.empty(); }
    /// Entries held, including cancelled ones not yet reclaimed.
    size_t size() const { return heap_.size(); }
    /// Due time of the earliest entry, or kTimestampMax when empty.
    Timestamp next_due() const {
      return heap_.empty() ? kTimestampMax : heap_.front().when;
    }

   private:
    /// Heap order: `a` is due after `b`.
    static bool Later(const Entry& a, const Entry& b);

    std::vector<Entry> heap_;  ///< a binary min-heap on (when, seq)
    uint64_t next_seq_ = 0;
  };

  /// The run path, called with no lock held: settles a one-shot on the
  /// pending gauge, skips a cancelled entry, records its lateness against
  /// `now`, runs it, and measures its real runtime for the watchdog.
  /// Returns false when the entry was skipped or is cancelled by now.
  bool RunEntry(const Entry& e, Timestamp now);

 private:
  /// Admission, then Enqueue(): a one-shot is rejected while max_pending
  /// tasks are pending; a periodic always gets in.
  TaskHandle Schedule(Timestamp when, Duration period, Task fn);

  /// Hands an admitted entry to the implementation's queue(s).
  virtual void Enqueue(Entry e) = 0;

  /// Classifies one execution's lateness against deadline_slack (miss
  /// counter, EWMA, hysteretic overload flag).
  void RecordLateness(Duration lateness);

  const SchedulerOverloadPolicy policy_;
  /// Admitted tasks not yet settled (see TaskHandle::State::Settle).
  /// Heap-held so TaskHandle::Cancel can settle after the scheduler died.
  const std::shared_ptr<std::atomic<size_t>> pending_;
  std::atomic<uint64_t> tasks_rejected_{0};
  ShardedCounter tasks_run_;
  ShardedCounter total_lateness_;
  std::atomic<Duration> max_lateness_{0};
  std::atomic<Duration> max_task_runtime_{0};
  std::atomic<uint64_t> overruns_{0};
  std::atomic<uint64_t> deadline_misses_{0};

  /// Serializes the miss-rate update and the hysteresis decision; taken
  /// only while deadline tracking is on, by the run path, holding nothing
  /// else.
  Mutex overload_mu_{"TaskScheduler::overload_mu",
                     lockorder::kRankSchedulerOverload};
  /// Written under overload_mu_, read lock-free by stats().
  std::atomic<double> miss_rate_ewma_{0.0};
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
  explicit VirtualTimeScheduler(VirtualClock* clock = nullptr,
                                SchedulerOverloadPolicy policy = {});

  Clock& clock() override { return *clock_; }
  VirtualClock& virtual_clock() { return *clock_; }

  /// Executes all tasks with timestamp <= `t`, advancing the clock to each
  /// task's time, then sets the clock to `t`. Returns the number of tasks run.
  uint64_t RunUntil(Timestamp t);

  /// RunUntil(now + delta).
  uint64_t RunFor(Duration delta) { return RunUntil(clock_->Now() + delta); }

  /// Executes the single next pending task (advancing the clock to it).
  /// Returns false if no task is pending.
  bool RunNext() { return RunNextDue(kTimestampMax); }

  /// Number of queued entries (cancelled ones count until reclaimed).
  size_t pending_count() const;

  /// Timestamp of the earliest queued entry, or kTimestampMax if none.
  Timestamp next_deadline() const;

 private:
  void Enqueue(Entry e) override;
  /// Pops and runs the next live entry due by `due_by`; false if none.
  bool RunNextDue(Timestamp due_by);

  // pipes-analyze: unguarded(fixed at construction; only Run/RunFor advance the clock, single-threaded by contract)
  VirtualClock owned_clock_;
  VirtualClock* clock_;  // pipes-analyze: unguarded(set once in the ctor, never reseated)
  mutable Mutex mu_{"VirtualTimeScheduler::mu", lockorder::kRankScheduler};
  TimerQueue queue_ PIPES_GUARDED_BY(mu_);
};

/// \brief Real-time scheduler over a pool of worker threads (paper §4.3).
///
/// Worker threads sleep until the earliest deadline and execute due tasks.
/// With `num_threads == 1` this is the paper's "single thread is sufficient
/// to handle all periodic updates for small query graphs" configuration.
///
/// The run queue is sharded one-per-worker: each worker pops and re-arms
/// periodics against its own timer queue (producers distribute new tasks
/// round-robin), so workers do not contend on one queue lock as the pool
/// grows. Imbalance is relieved by work stealing: a worker with nothing due
/// try-locks sibling shards and runs their due tasks. Admission, deadline
/// accounting and the overload gauges are the core's, shared by all shards.
class ThreadPoolScheduler final : public TaskScheduler {
 public:
  /// Starts `num_threads` workers against `clock` (a SystemClock is created
  /// internally when null).
  explicit ThreadPoolScheduler(size_t num_threads = 1, Clock* clock = nullptr,
                               SchedulerOverloadPolicy policy = {});
  ~ThreadPoolScheduler() override;

  ThreadPoolScheduler(const ThreadPoolScheduler&) = delete;
  ThreadPoolScheduler& operator=(const ThreadPoolScheduler&) = delete;

  Clock& clock() override { return *clock_; }
  SchedulerStats stats() const override;

  /// Stops all workers after the currently running tasks finish. Pending
  /// tasks are dropped. Idempotent; also called by the destructor.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }

 private:
  /// \brief One worker's timer queue (shard). Pops are owner-local in
  /// steady state; producers distribute round-robin and siblings steal due
  /// tasks, both through the same per-shard lock.
  struct Shard {
    mutable Mutex mu{"ThreadPoolScheduler::shard_mu",
                     lockorder::kRankScheduler};
    /// condition_variable_any: the annotated pipes::Mutex is Lockable but is
    /// not std::mutex, which plain std::condition_variable requires.
    std::condition_variable_any cv;  // pipes-analyze: unguarded(condition variables are internally synchronized)
    TimerQueue queue PIPES_GUARDED_BY(mu);
    /// The owning worker is blocked in the indefinite nothing-anywhere wait.
    /// Enqueue must wake it even when the new task does not preempt any
    /// deadline (it has no deadline to wake towards), and producers pushing
    /// due work to a busy sibling wake it through steal_hint.
    bool idle PIPES_GUARDED_BY(mu) = false;
    /// Tells an idle owner to re-run its steal scan: a producer pushed due
    /// work onto a shard whose owner is mid-task.
    bool steal_hint PIPES_GUARDED_BY(mu) = false;
    uint64_t cv_notifies PIPES_GUARDED_BY(mu) = 0;
    uint64_t cv_notifies_skipped PIPES_GUARDED_BY(mu) = 0;
  };

  void Enqueue(Entry e) override;

  /// Lock/unlock around task execution is too dynamic for static analysis;
  /// checked by the runtime lock-order validator instead.
  void WorkerLoop(size_t self) PIPES_NO_THREAD_SAFETY_ANALYSIS;

  /// Pops the next live entry of `shard` due by `now`, re-arming a periodic
  /// into the same shard. Requires shard.mu held (dynamic capability,
  /// validated at runtime).
  bool PopDue(Shard& shard, Timestamp now, Entry* out)
      PIPES_NO_THREAD_SAFETY_ANALYSIS;

  /// RunEntry() with the pool-utilization gauge around it.
  void Execute(const Entry& e, Timestamp now);

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
  /// Due tasks run from a sibling's shard (aggregated into stats()).
  std::atomic<uint64_t> tasks_stolen_{0};
  /// Workers currently executing a task (pool-utilization gauge).
  std::atomic<size_t> busy_workers_{0};
};

}  // namespace pipes
