#pragma once

#include "threads/qlock.h"
#include "threads/scheduler.h"

// Thread-level synchronization synthesized from mutex locks, refs and
// first-class continuations, as section 3.3 promises ("more elaborate
// synchronization constructs such as reader/writer locks, semaphores,
// channels, etc., can be synthesized from mutex locks, refs, and
// first-class continuations").  Parked threads cost nothing and their proc
// runs other work; a release hands ownership to a waiter directly.
//
// Every primitive has one body: a platform spin guard around its own
// counters, plus a qlock.h Waiters set that parks and grants claims.  The
// lock discipline (set_lock_discipline, docs/SYNC.md) is a policy of that
// set, sampled when the primitive is constructed:
//
//   queue (default) — claims spin briefly on their own padded node, then
//     park; a release grants the head claim directly.  FIFO-fair across
//     procs, no shared spin word, no proc ever burned on a waiter.
//
//   tas — the paper's protocol, kept as the ablation baseline: a blocked
//     thread enqueues itself and drops the guard inside the suspend
//     callback (Figure 5), and a release reschedules it.
//
// Mutex is the one primitive whose body differs by discipline: queue uses
// the MCS QueueLock, tas a guarded held flag plus a Waiters set.  The
// RWLock is phase-fair under both: a releasing writer admits the whole
// waiting reader batch before the next writer.

namespace mp::threads {

// Blocking mutual exclusion with direct ownership handoff to the longest
// waiting thread.
class Mutex {
 public:
  explicit Mutex(Scheduler& sched);
  void lock();
  bool try_lock();
  void unlock();
  // Debug accessor (invariant checks): true while some thread holds the
  // mutex.  Only meaningful to a caller that owns the lock or otherwise
  // excludes concurrent lock/unlock.
  bool held() const;

 private:
  Scheduler& sched_;
  Waiters waiters_;  // tas form's parked claims; also names the discipline
  QueueLock q_;      // queue form: the lock is the claim queue
  MutexLock spin_;   // tas form: guards held_ and waiters_
  bool held_ = false;
};

// Condition variable paired with Mutex (Mesa semantics: re-lock after wake,
// caller re-checks its predicate).
class CondVar {
 public:
  explicit CondVar(Scheduler& sched);
  void wait(Mutex& m);
  void signal();
  void broadcast();

 private:
  Scheduler& sched_;
  MutexLock spin_;
  Waiters waiters_;
};

// Cyclic barrier for `parties` threads.  Safe to reuse immediately: each
// episode is tagged with a generation, and a resumed waiter checks it was
// released by its own generation's flip.
class Barrier {
 public:
  Barrier(Scheduler& sched, int parties);
  void arrive_and_wait();
  long generation() const { return generation_; }

 private:
  Scheduler& sched_;
  MutexLock spin_;
  int parties_;
  int waiting_ = 0;
  long generation_ = 0;
  Waiters waiters_;
};

// Counting semaphore.
class Semaphore {
 public:
  Semaphore(Scheduler& sched, long initial);
  void acquire();
  bool try_acquire();
  void release();

 private:
  Scheduler& sched_;
  MutexLock spin_;
  long count_;
  Waiters waiters_;
};

// Reader/writer lock, phase-fair: once a writer is queued new readers
// wait, and a releasing writer admits the entire waiting reader batch
// before the next writer, so neither side starves.
class RWLock {
 public:
  explicit RWLock(Scheduler& sched);
  void lock_shared();
  void unlock_shared();
  void lock_exclusive();
  void unlock_exclusive();

 private:
  Scheduler& sched_;
  MutexLock spin_;
  int readers_ = 0;
  bool writer_ = false;
  Waiters read_waiters_;
  Waiters write_waiters_;
};

// One-shot countdown latch: await() returns once count_down() has been
// called `count` times.  The workloads use this as their join mechanism.
class CountdownLatch {
 public:
  CountdownLatch(Scheduler& sched, long count);
  void count_down();
  void await();
  long remaining();

 private:
  Scheduler& sched_;
  MutexLock spin_;
  long count_;
  Waiters waiters_;
};

}  // namespace mp::threads
