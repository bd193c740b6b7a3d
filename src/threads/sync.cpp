#include "threads/sync.h"

#include "arch/panic.h"
#include "fuzz/hooks.h"

namespace mp::threads {

// ----- Mutex -----

Mutex::Mutex(Scheduler& sched) : sched_(sched) {
  if (waiters_.tas()) {
    spin_ = sched_.platform().mutex_lock();
  } else {
    q_.init(sched_);
  }
}

void Mutex::lock() {
  if (!waiters_.tas()) {
    q_.lock();
    return;
  }
  Platform& p = sched_.platform();
  p.lock(spin_);
  if (!held_) {
    held_ = true;
    p.unlock(spin_);
    return;
  }
  QNode n;
  waiters_.park(sched_, spin_, n);
  // Granted: ownership was handed to us directly (held_ stayed true).
}

bool Mutex::try_lock() {
  if (!waiters_.tas()) return q_.try_lock();
  Platform& p = sched_.platform();
  p.lock(spin_);
  const bool got = !held_;
  if (got) held_ = true;
  p.unlock(spin_);
  return got;
}

void Mutex::unlock() {
  if (!waiters_.tas()) {
    q_.unlock();
    return;
  }
  Platform& p = sched_.platform();
  p.lock(spin_);
  MPNJ_CHECK(held_, "Mutex::unlock of an unheld mutex");
  QNode* next = waiters_.pop();
  if (next == nullptr) held_ = false;
  p.unlock(spin_);
  if (next != nullptr) waiters_.grant(sched_, *next);  // held_ stays true
}

bool Mutex::held() const {
  if (!waiters_.tas()) return q_.held();
  Platform& p = sched_.platform();
  p.lock(spin_);
  const bool h = held_;
  p.unlock(spin_);
  return h;
}

// ----- CondVar -----

CondVar::CondVar(Scheduler& sched) : sched_(sched) {
  spin_ = sched_.platform().mutex_lock();
}

void CondVar::wait(Mutex& m) {
  MPNJ_CHECK(m.held(), "CondVar::wait without the monitor held");
  // The claim is enqueued before the monitor is released, so a signal that
  // follows the release always finds it; the signaler never touches the
  // monitor, so there is no lock-order cycle.
  Platform& p = sched_.platform();
  QNode n;
  p.lock(spin_);
  waiters_.park(sched_, spin_, n, [&] { m.unlock(); });
  m.lock();
}

void CondVar::signal() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  QNode* n = waiters_.pop();
  p.unlock(spin_);
  if (n != nullptr) waiters_.grant(sched_, *n);
}

void CondVar::broadcast() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  Waiters batch = waiters_.take();
  p.unlock(spin_);
  batch.grant_all(sched_);
}

// ----- Barrier -----

Barrier::Barrier(Scheduler& sched, int parties)
    : sched_(sched), parties_(parties) {
  spin_ = sched_.platform().mutex_lock();
}

void Barrier::arrive_and_wait() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  const long gen = generation_;
  if (++waiting_ == parties_) {
    waiting_ = 0;
    const long released = ++generation_;
    Waiters batch = waiters_.take();
    p.unlock(spin_);
    while (QNode* n = batch.pop()) {
      // Stamp the releasing generation before the grant; the waiter
      // checks it was freed by its own episode's flip.
      n->tag = released;
      if (fuzz::injected(fuzz::InjectedBug::kBarrierGeneration)) {
        // Deliberately re-introduced bug (MPNJ_FUZZ_INJECT): stamp the
        // pre-flip generation, as if the flip forgot to advance before
        // releasing.  Every released waiter's reuse guard then trips.
        n->tag = released - 1;
      }
      batch.grant(sched_, *n);
    }
    return;
  }
  QNode n;
  waiters_.park(sched_, spin_, n);
  MPNJ_CHECK(n.tag == gen + 1,
             "Barrier waiter resumed outside its own generation");
}

// ----- Semaphore -----

Semaphore::Semaphore(Scheduler& sched, long initial)
    : sched_(sched), count_(initial) {
  MPNJ_CHECK(initial >= 0, "Semaphore initialized with a negative count");
  spin_ = sched_.platform().mutex_lock();
}

void Semaphore::acquire() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  if (count_ > 0) {
    count_--;
    p.unlock(spin_);
    return;
  }
  QNode n;
  waiters_.park(sched_, spin_, n);  // the permit passed to us with the grant
}

bool Semaphore::try_acquire() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  const bool got = count_ > 0;
  if (got) count_--;
  p.unlock(spin_);
  return got;
}

void Semaphore::release() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  MPNJ_CHECK(count_ >= 0, "Semaphore count went negative");
  QNode* n = waiters_.pop();
  if (n == nullptr) {
    count_++;
    p.unlock(spin_);
    return;
  }
  MPNJ_CHECK(count_ == 0, "Semaphore waiter parked with permits free");
  p.unlock(spin_);
  waiters_.grant(sched_, *n);  // the permit passes to the waiter
}

// ----- RWLock -----

RWLock::RWLock(Scheduler& sched) : sched_(sched) {
  spin_ = sched_.platform().mutex_lock();
}

void RWLock::lock_shared() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  if (!writer_ && write_waiters_.empty()) {
    readers_++;
    p.unlock(spin_);
    return;
  }
  QNode n;
  read_waiters_.park(sched_, spin_, n);
  // Granted by a releasing writer, which already counted us as a reader.
}

void RWLock::unlock_shared() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  MPNJ_CHECK(readers_ > 0, "RWLock::unlock_shared without a shared hold");
  MPNJ_CHECK(!writer_, "RWLock held shared and exclusive at once");
  QNode* w = --readers_ == 0 ? write_waiters_.pop() : nullptr;
  if (w != nullptr) writer_ = true;
  p.unlock(spin_);
  if (w != nullptr) write_waiters_.grant(sched_, *w);
}

void RWLock::lock_exclusive() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  if (!writer_ && readers_ == 0) {
    writer_ = true;
    p.unlock(spin_);
    return;
  }
  QNode n;
  write_waiters_.park(sched_, spin_, n);  // the granter set writer_ for us
}

void RWLock::unlock_exclusive() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  MPNJ_CHECK(writer_, "RWLock::unlock_exclusive without the exclusive hold");
  MPNJ_CHECK(readers_ == 0, "RWLock held shared and exclusive at once");
  // Phase-fair: the reader batch that accumulated behind this writer goes
  // first, then the next writer — neither side starves.
  if (!read_waiters_.empty()) {
    writer_ = false;
    Waiters batch = read_waiters_.take();
    readers_ += batch.size();
    p.unlock(spin_);
    batch.grant_all(sched_);
    return;
  }
  QNode* w = write_waiters_.pop();
  if (w == nullptr) writer_ = false;  // else a direct writer-to-writer handoff
  p.unlock(spin_);
  if (w != nullptr) write_waiters_.grant(sched_, *w);
}

// ----- CountdownLatch -----

CountdownLatch::CountdownLatch(Scheduler& sched, long count)
    : sched_(sched), count_(count) {
  MPNJ_CHECK(count >= 0, "CountdownLatch initialized with a negative count");
  spin_ = sched_.platform().mutex_lock();
}

void CountdownLatch::count_down() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  if (count_ > 0 && --count_ == 0) {
    Waiters batch = waiters_.take();
    // An awaiter that finds the count at zero may free the latch as soon as
    // the guard drops, so nothing below may touch *this.
    Scheduler& sched = sched_;
    p.unlock(spin_);
    batch.grant_all(sched);
    return;
  }
  MPNJ_CHECK(count_ > 0 || waiters_.empty(),
             "CountdownLatch waiters survived the release");
  p.unlock(spin_);
}

void CountdownLatch::await() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  if (count_ == 0) {
    p.unlock(spin_);
    return;
  }
  QNode n;
  waiters_.park(sched_, spin_, n);
}

long CountdownLatch::remaining() {
  Platform& p = sched_.platform();
  p.lock(spin_);
  const long c = count_;
  p.unlock(spin_);
  return c;
}

}  // namespace mp::threads
