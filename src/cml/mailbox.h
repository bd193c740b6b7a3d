#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "cont/cont.h"
#include "gc/roots.h"
#include "threads/qlock.h"
#include "threads/scheduler.h"

// An asynchronous buffered channel (CML's mailbox): send enqueues and
// returns immediately — it never parks the sender waiting for a receiver —
// while recv blocks (the thread, never the proc) until a message is
// available.  Messages from one sender are received in the order they were
// sent; messages from different senders interleave in enqueue order.
//
// This is the complement of cml::Channel's rendezvous discipline, for the
// cases where the *sender* must not inherit the receiver's pace: a shard
// owner delivering replies to connection writers (src/kv) must never be
// parked by one stalled connection, or that connection head-of-line blocks
// the shard for everyone else.  The cost of the decoupling is that the
// buffer is unbounded — a mailbox provides no backpressure, so the
// producer-side protocol must bound what can be outstanding (kv bounds it
// by the rendezvous on the *request* channel: a connection can only owe as
// many replies as requests it managed to submit).
//
// A platform spin guard protects the buffer, and receivers park on a
// qlock.h Waiters set, so they cost nothing while parked and follow the
// lock discipline like every sync.h primitive.  A GC-traced payload sits
// in a GlobalRoot while buffered; any other T is stored as is.  Not
// selective: a mailbox is not an Event and cannot appear in a choose();
// use a rendezvous Channel when selectivity matters.

namespace mp::cml {

namespace detail {

// One value held inside a C++ structure.  A GC-traced T lives in a
// GlobalRoot so collections keep it current while it waits; any other T is
// stored as is and costs no root.
template <typename T, bool = cont::is_gc_traced<T>::value>
class Payload {
 public:
  Payload() = default;
  Payload(Platform&, const T& v) : v_(v) {}
  const T& get() const { return v_; }

 private:
  T v_{};
};

template <typename T>
class Payload<T, true> {
 public:
  Payload() = default;
  Payload(Platform& p, const T& v)
      : root_(p.heap(),
              gc::Value::from_raw_bits(cont::detail::encode_slot(v))) {}
  T get() const { return cont::detail::decode_slot<T>(root_.get().raw_bits()); }

 private:
  gc::GlobalRoot root_;
};

}  // namespace detail

template <typename T>
class Mailbox {
 public:
  explicit Mailbox(threads::Scheduler& sched)
      : sched_(sched), spin_(sched.platform().mutex_lock()) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  // Enqueue `v` and return; wakes one parked receiver, if any.
  void send(const T& v) {
    Platform& p = sched_.platform();
    p.lock(spin_);
    buffer_.emplace_back(p, v);
    threads::QNode* n = receivers_.pop();
    p.unlock(spin_);
    if (n != nullptr) receivers_.grant(sched_, *n);
  }

  // Dequeue the oldest message, parking this thread until one exists.
  T recv() {
    Platform& p = sched_.platform();
    for (;;) {
      p.lock(spin_);
      if (!buffer_.empty()) return pop_and_unlock(p);
      threads::QNode n;
      receivers_.park(sched_, spin_, n);
      // Mesa semantics: another receiver may have taken it first.
    }
  }

  // Dequeue without blocking: nullopt when the mailbox is empty.
  std::optional<T> try_recv() {
    Platform& p = sched_.platform();
    p.lock(spin_);
    if (!buffer_.empty()) return pop_and_unlock(p);
    p.unlock(spin_);
    return std::nullopt;
  }

  // Momentary size (racy under concurrent senders; for tests and metrics).
  std::size_t size() {
    Platform& p = sched_.platform();
    p.lock(spin_);
    const std::size_t n = buffer_.size();
    p.unlock(spin_);
    return n;
  }

 private:
  T pop_and_unlock(Platform& p) {
    T v = buffer_.front().get();
    buffer_.pop_front();
    p.unlock(spin_);
    return v;
  }

  threads::Scheduler& sched_;
  MutexLock spin_;
  std::deque<detail::Payload<T>> buffer_;
  threads::Waiters receivers_;
};

}  // namespace mp::cml
