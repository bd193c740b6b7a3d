#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cont/cont.h"
#include "mp/platform.h"
#include "threads/proc_core.h"
#include "threads/queue_types.h"

namespace mp::threads {

// The QUEUE signature (paper Figure 1): the thread module is parameterized
// by the queuing discipline, so scheduling policy is changed "simply by
// varying the functor's argument".  The lock-based implementations do their
// own locking through the platform's mutex locks — which is also what makes
// run-queue lock contention measurable in the simulator; the work-stealing
// discipline keeps the ready path off mutual exclusion entirely.
class ReadyQueue {
 public:
  virtual ~ReadyQueue() = default;
  // The scheduler offers its per-proc cores (proc_core.h) before init; the
  // work-stealing discipline anchors its deques there, the lock-based
  // disciplines ignore the offer.
  virtual void bind_cores(std::vector<ProcCore*> cores) { (void)cores; }
  // Called once, on the root proc, before any enq/deq.
  virtual void init(Platform& p) = 0;
  virtual void enq(Platform& p, ThreadState t) = 0;
  // Returns a thread if one is available right now (no blocking).
  virtual std::optional<ThreadState> deq(Platform& p) = 0;
  virtual const char* name() const = 0;
};

// The central run queue: one deque under one lock, taken in one of three
// orders.  kFifo is the paper's Figure 3 configuration; kLifo (a stack)
// favours cache-warm recent work; kRandom dequeues a uniformly random
// waiting thread (the paper notes FIFO and randomized queues both match the
// QUEUE signature).
class CentralQueue final : public ReadyQueue {
 public:
  enum class Order { kFifo, kLifo, kRandom };

  explicit CentralQueue(Order order = Order::kFifo) : order_(order) {}

  void init(Platform& p) override { lock_ = p.mutex_lock(); }
  void enq(Platform& p, ThreadState t) override;
  std::optional<ThreadState> deq(Platform& p) override;
  const char* name() const override;

 private:
  Order order_;
  MutexLock lock_;
  std::deque<ThreadState> q_;
};

// Priority discipline (the paper's footnote 1: "priority queues would need
// a priority to be passed to the enqueue operation" — here priorities are
// registered per thread id instead of changing the enq signature).  Higher
// priority dequeues first; FIFO within a priority level.
class PriorityQueue final : public ReadyQueue {
 public:
  void init(Platform& p) override { lock_ = p.mutex_lock(); }
  void enq(Platform& p, ThreadState t) override;
  std::optional<ThreadState> deq(Platform& p) override;
  const char* name() const override { return "central-priority"; }

  // Set the priority used for future enqueues of thread `thread_id`
  // (default 0).
  void set_priority(Platform& p, int thread_id, int priority);

 private:
  struct Entry {
    int priority;
    std::uint64_t seq;
    ThreadState t;
  };
  MutexLock lock_;
  std::vector<Entry> heap_;  // max-heap by (priority, -seq)
  std::uint64_t next_seq_ = 0;
  // Registered priorities keyed by thread id: O(log n) lookup per enqueue
  // and per set_priority (the pair-vector this replaces made both O(n)).
  std::map<int, int> priorities_;
};

// Distributed run queue: one deque + lock per proc; enqueue goes to the
// enqueuing proc's own queue, dequeue tries the own queue first and then
// steals from victims in random order.  This is the configuration the
// paper's evaluation uses ("with the addition of a distributed run queue").
class DistributedQueue final : public ReadyQueue {
 public:
  void init(Platform& p) override;
  void enq(Platform& p, ThreadState t) override;
  std::optional<ThreadState> deq(Platform& p) override;
  const char* name() const override { return "distributed"; }

 private:
  struct PerProc {
    MutexLock lock;
    std::deque<ThreadState> q;
    // Approximate size readable without the lock: stealing procs peek at it
    // (one shared-memory read) before paying for a lock acquisition, so
    // idle polling does not hammer every victim's lock.
    std::atomic<int> approx_size{0};
  };
  std::vector<std::unique_ptr<PerProc>> per_proc_;
};

// Lock-free work-stealing discipline (the default): one Chase–Lev deque
// per proc, anchored in the scheduler's ProcCores.  Enqueue is a plain
// store + release on the enqueuing proc's own deque; dequeue takes from
// the own deque first and then steals from victims in seeded random order,
// one CAS per take.  Owner order is FIFO by default — the owner takes from
// its own deque's top with the same CAS the thieves use, preserving the
// distributed discipline's per-proc FIFO fairness (a yielding thread goes
// behind its proc's other work; with LIFO it would re-dispatch itself and
// starve them).  kLifo keeps the textbook Chase–Lev owner pop at the
// bottom for depth-first fork/join ablation, with the same starvation
// caveat as the central queue's LIFO order.
class WorkStealingQueue final : public ReadyQueue {
 public:
  enum class OwnerOrder { kFifo, kLifo };

  explicit WorkStealingQueue(OwnerOrder order = OwnerOrder::kFifo)
      : order_(order) {}

  void bind_cores(std::vector<ProcCore*> cores) override {
    cores_ = std::move(cores);
  }
  void init(Platform& p) override;
  void enq(Platform& p, ThreadState t) override;
  std::optional<ThreadState> deq(Platform& p) override;
  const char* name() const override {
    return order_ == OwnerOrder::kFifo ? "ws" : "ws-lifo";
  }

  // Test hook: record (thief, victim) for every committed steal.  The
  // recorder is written without synchronization — use it only where all
  // procs share one OS thread (the simulator backend).
  void set_steal_recorder(std::vector<std::pair<int, int>>* rec) {
    steal_rec_ = rec;
  }

 private:
  OwnerOrder order_;
  std::vector<ProcCore*> cores_;
  // Standalone use (tests, queue-only harnesses): cores created by init
  // when the scheduler did not bind its own.
  std::vector<std::unique_ptr<ProcCore>> owned_;
  std::vector<std::pair<int, int>>* steal_rec_ = nullptr;
};

}  // namespace mp::threads
