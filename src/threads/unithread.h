#pragma once

#include <deque>
#include <functional>
#include <utility>

#include "arch/rng.h"
#include "cont/cont.h"

// The paper's Figure 1: a user-level thread package for *uniprocessor*
// SML/NJ, built from nothing but first-class continuations and a queue.
// No locks, no platform — elementary exclusion is trivial on a
// uniprocessor (Wand).  The package is parameterized by the queuing
// discipline, the paper's point being that "thread scheduling policy can
// be changed simply by varying the functor's argument".
//
// Runs standalone on the calling thread (it brings its own proc harness),
// or inside a Platform proc.

namespace mp::threads {

// Queue disciplines for UniThread (the QUEUE functor argument).  A
// discipline stores (continuation, id) pairs; deq returns them in its own
// order.
class UniFifo {
 public:
  void enq(std::pair<cont::ContRef, int> t) { q_.push_back(std::move(t)); }
  bool empty() const { return q_.empty(); }
  std::pair<cont::ContRef, int> deq() {
    auto t = std::move(q_.front());
    q_.pop_front();
    return t;
  }

 private:
  std::deque<std::pair<cont::ContRef, int>> q_;
};

class UniLifo {
 public:
  void enq(std::pair<cont::ContRef, int> t) { q_.push_back(std::move(t)); }
  bool empty() const { return q_.empty(); }
  std::pair<cont::ContRef, int> deq() {
    auto t = std::move(q_.back());
    q_.pop_back();
    return t;
  }

 private:
  std::deque<std::pair<cont::ContRef, int>> q_;
};

class UniRandom {
 public:
  explicit UniRandom(std::uint64_t seed = 42) : rng_(seed) {}
  void enq(std::pair<cont::ContRef, int> t) { q_.push_back(std::move(t)); }
  bool empty() const { return q_.empty(); }
  std::pair<cont::ContRef, int> deq() {
    const std::size_t i = rng_.below(q_.size());
    std::swap(q_[i], q_.back());
    auto t = std::move(q_.back());
    q_.pop_back();
    return t;
  }

 private:
  std::deque<std::pair<cont::ContRef, int>> q_;
  arch::Rng rng_;
};

template <typename Queue = UniFifo>
class UniThread {
 public:
  explicit UniThread(Queue queue = Queue()) : ready_(std::move(queue)) {}

  // fork: start a new thread running `child`, giving it a fresh id; the
  // parent is placed on the ready queue (Figure 1's fork runs the child
  // immediately).
  void fork(std::function<void()> child) {
    cont::callcc<cont::Unit>(
        [this, child = std::move(child)](cont::Cont<cont::Unit> parent)
            mutable -> cont::Unit {
          parent.preload(cont::Unit{});
          ready_.enq({std::move(parent).take_ref(), current_id_});
          current_id_ = next_id_++;
          child();
          dispatch();
          return cont::Unit{};  // unreachable
        });
  }

  // yield: temporarily give the processor to another thread.
  void yield() {
    cont::callcc<cont::Unit>([this](cont::Cont<cont::Unit> k) -> cont::Unit {
      k.preload(cont::Unit{});
      ready_.enq({std::move(k).take_ref(), current_id_});
      dispatch();
      return cont::Unit{};  // unreachable
    });
  }

  // id: the current thread's identifier (the root thread is 0).
  int id() const { return current_id_; }

  // Run `main_fn` as thread 0; returns when every thread has finished.
  // Standalone: establishes its own proc context on the calling thread.
  static void run(const std::function<void(UniThread&)>& main_fn,
                  Queue queue = Queue()) {
    cont::ExecContext exec;
    arch::Context idle_ctx;
    exec.idle_ctx = &idle_ctx;
    cont::ExecContext* saved = cont::current_exec();
    cont::set_current_exec(&exec);
    UniThread self(std::move(queue));
    cont::run_from_idle(
        cont::make_entry([&] {
          main_fn(self);
          self.dispatch();  // drain remaining threads, then fall out
        }),
        exec);
    cont::set_current_exec(saved);
  }

 private:
  // Dispatch the next ready thread; with an empty queue, control leaves
  // the package (the analogue of Figure 1's unhandled Queue.Empty).  The
  // resume is a direct switch (cont::switch_to), so every caller is a
  // package-made body whose frames own nothing.
  [[noreturn]] void dispatch() {
    if (ready_.empty()) cont::exit_to_idle();
    auto [k, tid] = ready_.deq();
    current_id_ = tid;
    cont::switch_to(std::move(k));
  }

  Queue ready_;
  int current_id_ = 0;
  int next_id_ = 1;
};

}  // namespace mp::threads
