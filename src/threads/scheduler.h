#pragma once

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "metrics/metrics.h"
#include "threads/proc_core.h"
#include "threads/queue.h"
#include "threads/trace.h"

namespace mp::threads {

struct Offer;  // threads/offer.h

// Instruction-count charges for scheduler operations (converted to virtual
// time by the simulator's machine model; free on native hardware where the
// real work is the cost).  These model the ML-side bookkeeping around the
// runtime primitives, whose costs (callcc, locks, queue ops) are charged by
// the layers below.
struct SchedCosts {
  double fork_instr = 60;      // id assignment + closure setup
  double yield_instr = 25;     // callcc + reschedule bookkeeping
  double dispatch_instr = 20;  // per dequeue attempt
  double poll_instr = 40;      // one empty-queue polling iteration
};

// Pluggable idle-wait hook: the src/io reactor's poll surface.  At most one
// idle proc at a time — the winner of the scheduler's reactor election —
// blocks in wait(); every other idle proc parks on its own per-proc port
// and is woken by the scheduler's targeted wake_one.  All methods may still
// be called from any proc concurrently (busy procs call poll() on a
// cadence); wait() must bound its own blocking and keep both ends at
// platform safe points.
class IdleWaiter {
 public:
  virtual ~IdleWaiter() = default;
  // Dispatch any ready events now, without blocking.  Returns the number
  // of waiters woken (rescheduled threads, committed event offers).
  virtual int poll() = 0;
  // Block until an event arrives, notify() is called, or roughly `max_us`
  // elapses; returns the number of waiters woken.
  virtual int wait(double max_us) = 0;
  // Interrupt a concurrent wait() from any thread (async-thread-safe).
  virtual void notify() = 0;
};

struct SchedulerConfig {
  // Queue discipline; null selects the default: lock-free per-proc
  // work-stealing deques (WorkStealingQueue).  The paper's evaluated
  // configuration (distributed lock-per-proc run queues) and the Figure 3
  // central queue remain available for ablation — see workloads/runner.cpp
  // make_queue.
  std::unique_ptr<ReadyQueue> queue;
  // Acquire as many procs as possible at startup and hold them for the
  // duration (section 3.1's advice; what the evaluation does).  When false,
  // the scheduler behaves exactly like Figure 3: procs are acquired by fork
  // and released whenever the ready queue is empty.
  bool hold_procs = true;
  // Signal-based preemption interval; 0 disables (Figure 3 has none, the
  // evaluated package uses it).
  double preempt_interval_us = 0;
  SchedCosts costs;
  // Optional scheduling-event recorder (threads/trace.h); must outlive the
  // scheduler.  Deterministic on the simulator backend.
  Tracer* tracer = nullptr;
};

// The MP thread package (paper Figure 3, plus the evaluation section's
// distributed run queue and signal-based preemption): fork / yield / id on
// top of Proc, Lock and callcc.  The current thread's id lives in the
// per-proc datum.
class Scheduler {
 public:
  Scheduler(Platform& platform, SchedulerConfig config);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Per-thread creation options (the SpawnOpts overload of fork).  The
  // stack class picks the thread's slot footprint (cont/stack_config.h):
  // kLarge (default) for ordinary bodies, kSmall for fleets of mostly-parked
  // threads — per-connection readers/writers, timers — where slot size is
  // what bounds the live-thread population.  Replacement segments inherit
  // the class, so the choice follows the thread for its whole life.  `name`
  // labels the thread in the stack-overflow fault report; it is copied at
  // fork, so any lifetime is fine.
  struct SpawnOpts {
    cont::StackClass stack = cont::StackClass::kLarge;
    const char* name = nullptr;

    SpawnOpts& with_stack(cont::StackClass c) {
      stack = c;
      return *this;
    }
    SpawnOpts& with_name(const char* n) {
      name = n;
      return *this;
    }
  };

  // --- the THREAD signature (Figure 1) ---
  void fork(std::function<void()> child) { fork(std::move(child), {}); }
  void fork(std::function<void()> child, SpawnOpts opts);
  void yield();
  int id();

  // Suspend-and-dispatch support for synchronization primitives (sync.h):
  // park the calling thread, handing its ThreadState to `park` (which
  // typically enqueues it on a waiter list and must release any spin lock it
  // holds), then dispatch another thread.  kPreempt is masked from before
  // `park` runs until the thread is resumed.  Must not be called inside a
  // catch handler (checked: see docs/SCHEDULER.md).
  void suspend(const std::function<void(ThreadState)>& park);

  // Move a previously suspended thread back to the ready queue.  Matches
  // the paper's `reschedule`.
  void reschedule(ThreadState t);

  // Cancel a suspended thread whose ThreadState the caller holds (i.e. it
  // is on no other queue): its resume raises cont::ThreadCancelled at the
  // suspension point, unwinding the thread's frames with destructors; the
  // fork wrapper then retires it.  The root thread cannot be cancelled.
  void cancel(ThreadState t);

  // For communication libraries (src/cml): the calling thread has already
  // parked its continuation on waiter queues of its own (Figure 5's send and
  // receive do this while holding channel locks); give the proc to another
  // thread.  kPreempt is masked before dispatching.  Call it from a callcc
  // body whose frames own nothing: the dispatch abandons them without
  // unwinding.  Must not be called inside a catch handler (checked).
  [[noreturn]] void dispatch_from_blocked();

  // ---- timers (extension: timer-driven wakeups, the mechanism section
  // 3.4 suggests for simulating inter-proc alerts) ----

  // Fire `o` (Offer::fire) once the platform clock reaches `deadline_us`,
  // from inside a dispatch loop with preemption masked: a plain offer's
  // thread is rescheduled, a CML offer commits unless its sync already
  // committed elsewhere (such offers are pruned by the offer-list rule).
  // Resolution is bounded by scheduler activity, which preemption
  // guarantees on busy procs; with hold_procs=false and every proc
  // released, timers do not fire.
  void at(double deadline_us, Offer o);
  // Park the calling thread until the platform clock reaches the deadline.
  void sleep_until(double deadline_us);
  void sleep_for(double us);

  // ---- idle waiting (extension: src/io reactor integration) ----

  // Install `w` as the idle-wait hook (nullptr to clear).  Clearing blocks
  // until no dispatch loop still holds a reference to the previous waiter,
  // so the caller may destroy it immediately afterwards.  Callable from any
  // thread of the computation (typically the reactor's constructor).
  void set_idle_waiter(IdleWaiter* w);

  // Number of live threads (root + forked, not yet completed).
  long live_threads() const { return live_.load(std::memory_order_acquire); }

  Platform& platform() { return plat_; }

  // Run `main_fn` as thread 0 of a fresh scheduler on `platform`.  Returns
  // when main_fn has returned AND every forked thread has completed.
  static void run(Platform& platform, SchedulerConfig config,
                  const std::function<void(Scheduler&)>& main_fn);

 private:
  // Resumes the next ready thread directly (cont::switch_to), abandoning
  // the frames above the current boot record: every caller runs at the top
  // of a runtime-made callcc body or entry whose frames own nothing.
  [[noreturn]] void dispatch();
  // Terminate the current thread (the fork wrapper, after the child
  // returned or was cancelled) and dispatch another.
  [[noreturn]] void exit_thread();
  void worker_loop();
  void on_preempt();
  void poll_timers(ProcCore& core);
  void run_expired_timers();
  IdleWaiter* acquire_idle_waiter();
  void release_idle_waiter();
  void maybe_poll_io();
  // One step of the idle loop: reactor poll, then bounded exponential
  // backoff (spin -> targeted parks).  Uses and advances core.backoff_round;
  // may return a thread found by the park-time re-check, which the caller
  // dispatches.
  std::optional<ThreadState> idle_step(ProcCore& core);
  // Publish `venue`, re-check the queue, then block (bounded) on the proc's
  // port or in the reactor's wait.  The destructive re-check is what closes
  // the sleep/wakeup race: the waker enqueues before scanning park states.
  std::optional<ThreadState> park_on(ProcCore& core, ParkState venue,
                                     IdleWaiter* w, double max_us);
  // Unpark exactly one parked proc (called after every enqueue); no-op when
  // nobody is parked.  wake_all unparks everyone (shutdown).
  void wake_one();
  void wake_all();

  Platform& plat_;
  SchedulerConfig cfg_;
  // Per-proc scheduling cores (proc_core.h): the work-stealing deques, the
  // park/unpark handshakes, and the idle/timer cursors.  Declared before
  // queue_ so any queue that binds them is destroyed while they are alive.
  std::vector<std::unique_ptr<ProcCore>> cores_;
  std::unique_ptr<ReadyQueue> queue_;
  MutexLock next_id_lock_;
  int next_id_ = 1;
  std::atomic<long> live_{0};
  std::atomic<bool> shutdown_{false};

  MutexLock timer_lock_;
  // Min-heap of parked offers by deadline, pruned before each push.
  std::vector<std::pair<double, Offer>> timers_;
  std::size_t timers_until_scan_ = 0;
  std::atomic<double> next_deadline_{
      std::numeric_limits<double>::infinity()};

  // Idle-wait hook (null when no reactor is installed).  The user count
  // lets set_idle_waiter quiesce concurrent dispatch loops before the old
  // waiter is destroyed; both sides use seq_cst (idle path only).
  std::atomic<IdleWaiter*> idle_waiter_{nullptr};
  std::atomic<int> idle_waiter_users_{0};
  // The one proc currently electing to block inside the reactor's kernel
  // wait (-1 when none): every other idle proc parks on its own port and is
  // woken by wake_one, so losing the reactor election no longer costs a
  // blind nap.
  std::atomic<int> io_waiter_proc_{-1};
  // Procs currently parked (port or reactor); lets wake_one's common case —
  // every proc busy — skip the core scan with one load.
  std::atomic<int> parked_count_{0};
  // Next platform time a busy dispatch loop drains the reactor, so fds are
  // still serviced while every proc has runnable threads.
  std::atomic<double> next_io_poll_us_{0};

#if MPNJ_METRICS
  // Ready-thread count mirrored outside the queue (the queues' own sizes are
  // lock-protected and differ per discipline); feeds the run-queue-depth
  // histogram at dispatch.  Compiled out with metrics, and skipped at
  // runtime when the registry is disabled.
  std::atomic<long> ready_count_{0};
#endif
};

}  // namespace mp::threads
