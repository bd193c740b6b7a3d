#pragma once

#include <optional>

#include "arch/panic.h"
#include "cml/mailbox.h"

// Synchronizing memory cells in the CML tradition, synthesized — like the
// channels — from mutex locks, refs and continuations (paper section 3.3):
//
//   * IVar<T>   — write-once cell; readers block until it is filled.
//   * MVar<T>   — a one-slot channel with take/put semantics.
//   * Mailbox<T> — unbounded buffered channel; send never blocks
//                  (cml/mailbox.h).
//
// Each cell is a platform spin guard around its state plus qlock.h Waiters
// sets, so blocked threads park and wake under the lock discipline exactly
// as the sync.h primitives do.

namespace mp::cml {

// Write-once synchronizing variable.
template <typename T>
class IVar {
 public:
  explicit IVar(threads::Scheduler& sched) : sched_(sched) {
    spin_ = sched_.platform().mutex_lock();
  }
  IVar(const IVar&) = delete;
  IVar& operator=(const IVar&) = delete;

  // Fill the cell and wake every blocked reader.  Filling twice panics
  // (the ML version raises Put).
  void put(const T& v) {
    Platform& p = sched_.platform();
    p.lock(spin_);
    MPNJ_CHECK(!full_, "IVar::put on a full IVar");
    slot_ = detail::Payload<T>(p, v);
    full_ = true;
    threads::Waiters readers = readers_.take();
    // A reader that finds the cell full may free it as soon as the guard
    // drops, so nothing below may touch *this.
    threads::Scheduler& sched = sched_;
    p.unlock(spin_);
    readers.grant_all(sched);
  }

  // Read the cell, blocking until it has been filled.
  T get() {
    Platform& p = sched_.platform();
    p.lock(spin_);
    if (full_) {
      p.unlock(spin_);
      return slot_.get();  // immutable once full
    }
    threads::QNode n;
    readers_.park(sched_, spin_, n);
    return slot_.get();
  }

  bool full() {
    Platform& p = sched_.platform();
    p.lock(spin_);
    const bool f = full_;
    p.unlock(spin_);
    return f;
  }

 private:
  threads::Scheduler& sched_;
  MutexLock spin_;
  bool full_ = false;
  detail::Payload<T> slot_;
  threads::Waiters readers_;
};

// One-slot synchronizing variable: put blocks while full, take blocks
// while empty.
template <typename T>
class MVar {
 public:
  explicit MVar(threads::Scheduler& sched) : sched_(sched) {
    spin_ = sched_.platform().mutex_lock();
  }
  MVar(const MVar&) = delete;
  MVar& operator=(const MVar&) = delete;

  void put(const T& v) {
    Platform& p = sched_.platform();
    for (;;) {
      p.lock(spin_);
      if (!full_) {
        slot_ = detail::Payload<T>(p, v);
        full_ = true;
        wake_one(takers_);  // unlocks
        return;
      }
      threads::QNode n;
      putters_.park(sched_, spin_, n);
      // Mesa semantics: re-check after waking.
    }
  }

  T take() {
    Platform& p = sched_.platform();
    for (;;) {
      p.lock(spin_);
      if (full_) {
        T v = slot_.get();
        full_ = false;
        wake_one(putters_);  // unlocks
        return v;
      }
      threads::QNode n;
      takers_.park(sched_, spin_, n);
    }
  }

  bool try_put(const T& v) {
    Platform& p = sched_.platform();
    p.lock(spin_);
    if (full_) {
      p.unlock(spin_);
      return false;
    }
    slot_ = detail::Payload<T>(p, v);
    full_ = true;
    wake_one(takers_);
    return true;
  }

  std::optional<T> try_take() {
    Platform& p = sched_.platform();
    p.lock(spin_);
    if (!full_) {
      p.unlock(spin_);
      return std::nullopt;
    }
    T v = slot_.get();
    full_ = false;
    wake_one(putters_);
    return v;
  }

 private:
  // Pops one waiter (if any), releases the spin lock, then grants it.
  void wake_one(threads::Waiters& q) {
    threads::QNode* n = q.pop();
    sched_.platform().unlock(spin_);
    if (n != nullptr) q.grant(sched_, *n);
  }

  threads::Scheduler& sched_;
  MutexLock spin_;
  bool full_ = false;
  detail::Payload<T> slot_;
  threads::Waiters putters_;
  threads::Waiters takers_;
};

}  // namespace mp::cml
