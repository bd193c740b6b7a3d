#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "arch/wakeport.h"
#include "threads/scheduler.h"

// The event-driven I/O reactor: the bridge between file-descriptor
// readiness and the MLthread scheduler.  A thread that would block on a
// socket instead parks its continuation here (wait_fd / add_waiter) and the
// proc dispatches other runnable threads — a proc never sits in the kernel
// while runnable work exists.  Readiness is drained by the procs
// themselves through the scheduler's IdleWaiter hook: busy procs poll the
// reactor on a short cadence from their dispatch loops, and a fully idle
// proc blocks in the kernel demultiplexer (epoll, or poll(2) as the
// portable fallback) with a bounded timeout.
//
// GC cooperation.  Every blocking entry point brackets itself with
// platform safe points, waits are bounded by ReactorConfig::max_wait_us,
// and the reactor installs a Platform wake hook: posting a signal or
// starting a stop-the-world kicks the in-kernel poller through an eventfd,
// so a parked-in-reactor proc joins the rendezvous at interrupt speed, not
// timeout speed.
//
// Threading.  poll()/wait()/add_waiter()/wait_fd()/forget_fd() run on
// procs (they take the reactor's platform lock).  notify() is
// async-thread-safe — atomics plus one eventfd write — and may be called
// from any OS thread (the preemption ticker, a GC initiator).

namespace mp::io {

namespace detail {

// Moves the callbacks of `ws` whose `dead` predicate holds to `out`,
// keeping the rest in order.  The readiness registries (reactor fd
// waiters, pipe readable callbacks) call it under their lock before each
// push, so a select that keeps losing on a silent source does not pin one
// continuation per loss; offers that are claimed but not committed are not
// dead.  Destroy `out` after unlocking: a callback may hold the last handle
// on a stream, whose close takes the lock.
template <typename W>
void take_dead(std::vector<W>& ws, std::vector<W>& out) {
  auto keep = ws.begin();
  for (auto& w : ws) {
    if (w.dead && w.dead()) {
      out.push_back(std::move(w));
    } else {
      *keep++ = std::move(w);
    }
  }
  ws.erase(keep, ws.end());
}

}  // namespace detail

enum class Interest : unsigned { kRead = 1u, kWrite = 2u };

struct ReactorConfig {
  // Upper bound on one in-kernel wait; also the stop-the-world latency a
  // sleeping proc can add if the wake hook is ever missed.
  double max_wait_us = 2000;
  // Use the portable poll(2) backend even where epoll is available.
  bool force_poll = false;
};

class Reactor final : public threads::IdleWaiter {
 public:
  // Installs itself as `sched`'s idle waiter and as the platform's wake
  // hook; the destructor reverses both (quiescing concurrent dispatchers)
  // before closing kernel state.
  explicit Reactor(threads::Scheduler& sched, ReactorConfig cfg = {});
  ~Reactor() override;
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Park the calling MLthread until `fd` is ready for `interest` (or has
  // an error/hangup pending, which reports as ready so the caller's next
  // syscall observes it).  Level-triggered: callers re-attempt the syscall
  // and come back on EAGAIN.
  void wait_fd(int fd, Interest interest);

  // One-shot readiness callback: `fire` runs once, from whichever proc
  // drains the readiness event, with preemption masked — it must be brief
  // and non-blocking (typical body: reschedule a thread or commit a CML
  // offer).  Fires immediately if registration with the kernel fails with
  // EPERM (regular files: always ready).  `dead`, if given, reports that
  // firing would do nothing any more; such a waiter is dropped unfired at
  // the fd's next registration (see detail::take_dead).  It runs under the
  // reactor lock, so it must only read state.
  void add_waiter(int fd, Interest interest, std::function<void()> fire,
                  std::function<bool()> dead = nullptr);

  // Drop `fd` from the demultiplexer and fire all of its parked waiters
  // (they re-poll and observe whatever state — usually EOF — made the
  // caller close).  Call before close(2)ing a registered fd.
  void forget_fd(int fd);

  threads::Scheduler& scheduler() { return sched_; }

  // ---- threads::IdleWaiter ----
  int poll() override;
  int wait(double max_us) override;
  void notify() override;

 private:
  struct Waiter {
    unsigned mask;
    std::function<void()> fire;
    std::function<bool()> dead;
  };
  struct FdEntry {
    unsigned armed = 0;  // interest mask currently registered in the kernel
    std::vector<Waiter> waiters;
  };
  struct Ready {
    int fd;
    unsigned mask;
  };

  // Re-register `fd`'s kernel interest after its waiter list changed;
  // called with lock_ held.
  void rearm(int fd, FdEntry& e);
  // One demultiplexer pass: collect ready fds (blocking up to timeout_us),
  // detach and run matching waiters.  Returns the number fired.  Callers
  // hold the single-poller slot, not lock_.
  int drive(double timeout_us);
  int collect_epoll(double timeout_us, std::vector<Ready>& out);
  int collect_poll(double timeout_us, std::vector<Ready>& out);
  int fire_ready(const std::vector<Ready>& ready);

  threads::Scheduler& sched_;
  Platform& plat_;
  ReactorConfig cfg_;
  bool use_epoll_ = false;
  int epfd_ = -1;
  // The cross-thread wakeup port (arch/wakeport.h — the same primitive the
  // native platform uses for per-proc parking) lives apart from the Reactor
  // so the platform wake hook (which may run from a ticker thread at any
  // time) can hold it by shared_ptr and never race the Reactor's
  // destruction.
  std::shared_ptr<arch::WakePort> wake_;

  MutexLock lock_;
  std::unordered_map<int, FdEntry> fds_;
  // Fds with kernel interest armed; lets the hot maybe_poll_io path skip
  // the demultiplexer entirely while no I/O is outstanding.
  std::atomic<int> armed_fds_{0};
  // Single-poller slot: one proc at a time sits in the kernel; the others
  // nap briefly through Platform::idle_wait and retry.
  std::atomic<bool> polling_{false};
};

}  // namespace mp::io
