#pragma once

#include <atomic>

#include "arch/cacheline.h"
#include "arch/padded_pool.h"
#include "arch/panic.h"
#include "fuzz/hooks.h"
#include "metrics/metrics.h"
#include "threads/scheduler.h"

// Queue-based (MCS/CLH-style) claim/release core for the thread-level
// synchronization primitives (sync.h) — the scheduler-aware replacement for
// hammering a test-and-set word from every waiter.
//
// The unit of waiting is a cache-line-padded claim node (QNode).  A waiter
// joins a lock's queue with a single RMW (or an O(1) push under a primitive's
// short spin guard), then waits on *its own* node's flag: it spins briefly —
// cache-local, no shared-line traffic — and, if the claim has not been
// granted by then, parks as a thread through Scheduler::suspend, so a waiting
// thread never burns a proc that could be running the holder.  Release is a
// direct FIFO handoff: the releaser grants the head claim with one exchange
// on that node's flag, and a parked grantee re-enters the ready queue through
// the scheduler's reschedule → wake_one targeted-wakeup path (proc_core.h).
//
// Claim protocol (the one spot where the spinner and the granter race):
//
//   waiter                                granter
//   ------                                -------
//   spin on phase == kGranted             phase.exchange(kGranted)
//   ...bounded; give up...                  -> saw kSpin: the waiter will
//   suspend([&](ThreadState t) {               observe the flag, either in
//     n.ts = move(t);                          its spin or in the CAS below
//     CAS(phase, kSpin -> kParked)            -> saw kParked: n.ts is valid
//       success: parked; granter wakes us      (the CAS released it);
//       failure: already granted —             reschedule(move(n.ts))
//         reschedule ourselves
//   })
//
// Either the grant lands before the park CAS (the waiter sees it and requeues
// itself) or the CAS publishes the ThreadState first (the granter consumes
// it).  A wakeup can never be lost, and the granter's last access to the node
// is the exchange/reschedule, so a stack-allocated node is safe for waits
// that do not outlive the waiting frame (every primitive except the mutex's
// holder node, which lives from lock() to unlock() and is pooled).
//
// Waiters, below, is the waiter set every blocking primitive parks on.  The
// lock discipline is its policy: queue waits with this claim protocol, tas
// with the paper's enqueue-inside-the-suspend-callback protocol.

namespace mp::threads {

// One waiter's claim ticket.  Padded so two claims never share a line.
struct alignas(arch::kCacheLine) QNode {
  enum class Phase : int {
    kSpin = 0,  // waiter is (or will shortly be) spinning on this flag
    kParked,    // waiter parked; ts holds its ThreadState
    kGranted,   // claim granted; a parked waiter has been rescheduled
  };

  std::atomic<QNode*> next{nullptr};  // MCS successor / intrusive wait-list
  std::atomic<Phase> phase{Phase::kSpin};
  ThreadState ts;          // the parked thread (queue policy: kParked only)
  long tag = 0;            // grant-side stamp (barrier generation check)
  QNode* pool_next = nullptr;  // arch::PaddedPool freelist link
};

using QNodePool = arch::PaddedPool<QNode>;

// Bounded own-flag spin before parking.  Short: it only has to cover the
// grant latency of a near-empty critical section; anything longer and
// parking (whose cost the scheduler's targeted wakeup bounds) is cheaper
// than the burned proc time.  Each round charges kClaimSpinInstr so the
// simulator models the wait deterministically.
inline constexpr int kClaimSpinRounds = 24;
inline constexpr double kClaimSpinInstr = 12;

inline QNode* qnode_get() {
  QNode* n = QNodePool::get();
  n->next.store(nullptr, std::memory_order_relaxed);
  n->phase.store(QNode::Phase::kSpin, std::memory_order_relaxed);
  n->tag = 0;
  return n;
}

inline void qnode_put(QNode* n) { QNodePool::put(n); }

// Wait until `n`'s claim is granted: bounded spin on the node's own flag,
// then park through the scheduler.  The caller must already have published
// `n` where a releaser will find it (lock queue / wait list) and must hold
// no spin guard.  Returns with the claim owned.
inline void claim_wait(Scheduler& sched, QNode& n) {
  Platform& p = sched.platform();
  if (p.max_procs() > 1) {
    // With one proc the granter is a thread this proc has to run first;
    // spinning can never succeed, so go straight to the park.
    for (int round = 0; round < kClaimSpinRounds; round++) {
      if (n.phase.load(std::memory_order_acquire) == QNode::Phase::kGranted) {
        return;
      }
      arch::cpu_relax();
      p.work(kClaimSpinInstr);
    }
    if (n.phase.load(std::memory_order_acquire) == QNode::Phase::kGranted) {
      return;
    }
  }
  MPNJ_METRIC_COUNT(kLockParkWaits, 1);
  sched.suspend([&](ThreadState t) {
    n.ts = std::move(t);
    if (fuzz::injected(fuzz::InjectedBug::kQlockParkRace)) {
      // Deliberately re-introduced pre-PR-6 bug (MPNJ_FUZZ_INJECT): park
      // with a check-then-store instead of the phase CAS.  The check and
      // the store are separated only by a fuzz cost point, so on the
      // simulator the window is closed until the fuzzer injects jitter at
      // exactly this decision — then the granter's exchange lands inside
      // it, sees kSpin, assumes the waiter will notice, and moves on; the
      // store overwrites kGranted with kParked and the waiter sleeps
      // forever (lost wakeup -> deadlock/hang).
      if (n.phase.load(std::memory_order_acquire) == QNode::Phase::kSpin) {
        const double jitter_us = fuzz::point(fuzz::Kind::kCas);
        if (jitter_us > 0) p.work(jitter_us * 100.0);
        n.phase.store(QNode::Phase::kParked, std::memory_order_release);
      } else {
        sched.reschedule(std::move(n.ts));
      }
      return;
    }
    QNode::Phase expect = QNode::Phase::kSpin;
    p.charge_cas();
    if (!n.phase.compare_exchange_strong(expect, QNode::Phase::kParked,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      // The grant landed between our spin and the CAS: the claim is already
      // ours; re-enter the ready queue instead of sleeping on it.
      sched.reschedule(std::move(n.ts));
    }
  });
}

// Grant `n`'s claim (direct handoff).  The caller must have removed `n`
// from whatever queue it was on and must hold no spin guard; after the
// exchange the node belongs to the waiter again and must not be touched.
inline void claim_grant(Scheduler& sched, QNode& n) {
  Platform& p = sched.platform();
  p.charge_lock_handoff();
  const QNode::Phase was =
      n.phase.exchange(QNode::Phase::kGranted, std::memory_order_acq_rel);
  if (was == QNode::Phase::kParked) {
    MPNJ_METRIC_COUNT(kLockHandoffs, 1);
    sched.reschedule(std::move(n.ts));
  }
}

// Which waiting protocol newly constructed waiter sets use (docs/SYNC.md).
enum class LockDiscipline {
  kQueue,  // claim_wait / claim_grant above (default)
  kTas,    // the paper's baseline: park inside the suspend callback
};

namespace detail {
inline std::atomic<LockDiscipline> lock_discipline_cell{LockDiscipline::kQueue};
}  // namespace detail

// Process-wide discipline, kQueue unless set_lock_discipline says otherwise
// (the A-LOCK benches and the stress suite flip it per run).  A waiter set
// samples it once at construction, so flipping it never changes the
// protocol of a live primitive.
inline LockDiscipline lock_discipline() {
  return detail::lock_discipline_cell.load(std::memory_order_relaxed);
}
inline void set_lock_discipline(LockDiscipline d) {
  detail::lock_discipline_cell.store(d, std::memory_order_relaxed);
}

// The waiter set under every blocking primitive (sync.h, the cml cells and
// Mailbox): an intrusive FIFO of claim nodes chained through QNode::next,
// guarded by the primitive's platform spin lock.  Outside Mutex it is the
// only code that reads the lock discipline, and only in park and grant:
//
//   queue — park pushes the claim, drops the guard and claim_waits;
//           grant is claim_grant's direct handoff.
//   tas   — the paper's protocol (Figure 5's send/receive): park enqueues
//           the claim and drops the guard inside the suspend callback;
//           grant reschedules the parked thread.
//
// A releaser pops (or takes) claims under the guard and grants them after
// dropping it.  The waiting frame owns its node; a grant is the granter's
// last touch of it.
class Waiters {
 public:
  Waiters() : tas_(lock_discipline() == LockDiscipline::kTas) {}

  bool tas() const { return tas_; }
  bool empty() const { return head_ == nullptr; }
  int size() const { return count_; }

  void push(QNode* n) {
    n->next.store(nullptr, std::memory_order_relaxed);
    if (tail_ == nullptr) {
      head_ = tail_ = n;
    } else {
      tail_->next.store(n, std::memory_order_relaxed);
      tail_ = n;
    }
    count_++;
  }

  QNode* pop() {
    QNode* n = head_;
    if (n == nullptr) return nullptr;
    head_ = n->next.load(std::memory_order_relaxed);
    if (head_ == nullptr) tail_ = nullptr;
    count_--;
    return n;
  }

  // Steal the whole set (barrier flip, broadcast, latch release); the
  // receiver grants outside the guard.
  Waiters take() {
    Waiters out = *this;
    head_ = tail_ = nullptr;
    count_ = 0;
    return out;
  }

  struct NoThen {
    void operator()() const {}
  };

  // Wait on claim `n` until a releaser grants it.  Called holding `guard`:
  // appends `n`, releases `guard`, runs `then` (a CondVar releases its
  // monitor there) and returns once the claim is granted.
  template <typename Then = NoThen>
  void park(Scheduler& sched, const MutexLock& guard, QNode& n,
            Then then = {}) {
    Platform& p = sched.platform();
    if (!tas_) {
      push(&n);
      p.unlock(guard);
      then();
      claim_wait(sched, n);
      return;
    }
    // The callback runs after callcc has sealed this frame, on a fresh
    // segment with preemption masked, so the claim is complete before a
    // releaser can pop it and nothing runs between the enqueue and the
    // return to the dispatcher (audit: docs/SYNC.md).
    MPNJ_METRIC_COUNT(kLockParkWaits, 1);
    sched.suspend([&](ThreadState t) {
      n.ts = std::move(t);
      push(&n);
      p.unlock(guard);
      then();
    });
  }

  // Grant a claim popped from this set, with the guard released.
  void grant(Scheduler& sched, QNode& n) const {
    if (!tas_) {
      claim_grant(sched, n);
      return;
    }
    MPNJ_METRIC_COUNT(kLockHandoffs, 1);
    sched.reschedule(std::move(n.ts));
  }

  // Grant every claim of a set taken from under the guard, in FIFO order.
  void grant_all(Scheduler& sched) {
    while (QNode* n = pop()) grant(sched, *n);
  }

 private:
  QNode* head_ = nullptr;
  QNode* tail_ = nullptr;
  int count_ = 0;
  const bool tas_;
};

// The MCS-style queue mutex: the lock *is* the claim queue.  tail_ points at
// the most recent claim; a null tail_ is an unheld lock.  Acquire joins with
// one exchange; release either retires the queue (CAS tail_ back to null) or
// hands the lock to the successor claim directly — FIFO-fair across procs by
// construction, with each waiter spinning only on its own padded node.
class QueueLock {
 public:
  QueueLock() = default;
  QueueLock(const QueueLock&) = delete;
  QueueLock& operator=(const QueueLock&) = delete;
  ~QueueLock() {
    MPNJ_CHECK(holder_ == nullptr && tail_.load(std::memory_order_relaxed) == nullptr,
               "QueueLock destroyed while held or contended");
  }

  void init(Scheduler& s) { sched_ = &s; }

  // Debug accessor: true while some thread holds the lock.  Only meaningful
  // to a caller that owns the lock or otherwise excludes lock/unlock.
  bool held() const { return holder_ != nullptr; }

  void lock() {
    Platform& p = sched_->platform();
    QNode* n = qnode_get();
    p.charge_cas();
    QNode* prev = tail_.exchange(n, std::memory_order_acq_rel);
    MPNJ_METRIC_COUNT(kLockAcquires, 1);
    if (prev == nullptr) {  // uncontended: one RMW and we own it
      holder_ = n;
      stamp_acquired();
      return;
    }
    MPNJ_METRIC_COUNT(kLockContended, 1);
#if MPNJ_METRICS
    const bool timed = metrics::registry().enabled();
    const double wait_from = timed ? p.now_us() : 0;
#endif
    prev->next.store(n, std::memory_order_release);
    claim_wait(*sched_, *n);
    holder_ = n;
    stamp_acquired();
#if MPNJ_METRICS
    if (timed) {
      const double waited = p.now_us() - wait_from;
      MPNJ_METRIC_RECORD(kLockWaitUs,
                         waited > 0 ? static_cast<std::uint64_t>(waited) : 0);
    }
#endif
  }

  bool try_lock() {
    Platform& p = sched_->platform();
    if (tail_.load(std::memory_order_relaxed) != nullptr) return false;
    QNode* n = qnode_get();
    QNode* expect = nullptr;
    p.charge_cas();
    if (tail_.compare_exchange_strong(expect, n, std::memory_order_acq_rel)) {
      MPNJ_METRIC_COUNT(kLockAcquires, 1);
      holder_ = n;
      stamp_acquired();
      return true;
    }
    qnode_put(n);
    return false;
  }

  void unlock() {
    Platform& p = sched_->platform();
    MPNJ_CHECK(holder_ != nullptr, "QueueLock::unlock of an unheld lock");
    QNode* n = holder_;
    holder_ = nullptr;
#if MPNJ_METRICS
    if (acquired_us_ >= 0) {
      const double held = p.now_us() - acquired_us_;
      MPNJ_METRIC_RECORD(kLockHoldUs,
                         held > 0 ? static_cast<std::uint64_t>(held) : 0);
      acquired_us_ = -1;
    }
#endif
    QNode* next = n->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      QNode* expect = n;
      p.charge_cas();
      if (tail_.compare_exchange_strong(expect, nullptr,
                                        std::memory_order_acq_rel)) {
        qnode_put(n);  // no waiters: the queue is retired
        return;
      }
      // A claimant won the tail exchange but has not linked itself yet; the
      // window is the two instructions between its exchange and its next
      // store, so this wait is short and bounded.
      while ((next = n->next.load(std::memory_order_acquire)) == nullptr) {
        arch::cpu_relax();
        p.work(kClaimSpinInstr);
      }
    }
    claim_grant(*sched_, *next);
    qnode_put(n);
  }

 private:
  void stamp_acquired() {
#if MPNJ_METRICS
    acquired_us_ = metrics::registry().enabled() ? sched_->platform().now_us()
                                                 : -1;
#endif
  }

  Scheduler* sched_ = nullptr;
  std::atomic<QNode*> tail_{nullptr};
  // Owner-only: the holder's claim node (granted but not yet released) and
  // its acquisition stamp for the hold-time histogram.
  QNode* holder_ = nullptr;
#if MPNJ_METRICS
  double acquired_us_ = -1;
#endif
};

}  // namespace mp::threads
