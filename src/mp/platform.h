#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <type_traits>

#include "arch/panic.h"
#include "arch/rng.h"
#include "arch/tas.h"
#include "cont/cont.h"
#include "gc/heap.h"
#include "gc/hooks.h"

// The MP platform (paper section 3): a processor abstraction (Proc) and a
// mutex lock abstraction (Lock) which, together with first-class
// continuations, suffice to build multiprocessor thread packages entirely
// above the runtime.  Two backends implement the interface:
//
//   * NativePlatform (native_platform.h) — procs are kernel threads, locks
//     are hardware test-and-set words; functional parallelism on a real
//     multiprocessor.
//   * SimPlatform (sim_platform.h) — procs are virtual processors of a
//     deterministic machine simulation (sim/engine.h) with a shared-bus
//     cost model; this is the substrate the benchmark harness uses to
//     reproduce the paper's Sequent/SGI measurements.
//
// Client code (src/threads, src/cml, workloads) is written once against
// Platform and runs unchanged on either backend.

namespace mp {

// The client-defined per-proc datum (paper section 3.2).  One machine word,
// read/written by the dedicated-register analogue get_datum/set_datum.
// Clients needing richer state store a pointer here.  The datum is not
// traced by the collector; GC values reachable only through a datum must
// also be held in a GlobalRoot.
using Datum = std::uintptr_t;

// Raised by acquire_proc when every proc is in use (Proc.No_More_Procs).
class NoMoreProcs : public std::exception {
 public:
  const char* what() const noexcept override {
    return "Proc.No_More_Procs: no processor available";
  }
};

namespace detail {
// Backend-specific lock state; clients only ever see MutexLock handles.
struct LockCell {
  virtual ~LockCell() = default;
};
}  // namespace detail

// A first-class mutex lock value (paper section 3.3): a one-bit atomically
// test-and-set location, usable as a spin lock, unlockable by any proc.
// Copyable and cheap to pass around; the cell is reclaimed when the last
// handle drops (in SML the cell would simply be garbage collected).
class MutexLock {
 public:
  MutexLock() = default;
  explicit MutexLock(std::shared_ptr<detail::LockCell> cell)
      : cell_(std::move(cell)) {}
  detail::LockCell* cell() const { return cell_.get(); }
  bool valid() const { return cell_ != nullptr; }
  friend bool operator==(const MutexLock& a, const MutexLock& b) {
    return a.cell_ == b.cell_;
  }

 private:
  std::shared_ptr<detail::LockCell> cell_;
};

// Signals (paper section 3.4): handlers are installed globally — all procs
// share the same handler table and every proc receives each posted signal —
// while masking is controlled per proc.  kPreempt is posted by the platform
// timer when preemption is enabled.
enum class Sig : int { kPreempt = 0, kUsr1 = 1, kUsr2 = 2 };
inline constexpr int kNumSignals = 3;

// State of one proc, shared between the generic layer and the backends.
struct ProcRec {
  // First member of a standard-layout struct: the executing proc's record is
  // its ExecContext (cont::current_exec(), one thread-local load) cast back.
  cont::ExecContext exec;
  int id = -1;
  Datum datum = 0;
  std::uint32_t sig_mask = 0;               // per-proc signal mask
  std::atomic<std::uint32_t> sig_pending{0};  // posted, not yet delivered
  bool active = false;  // currently holding a processor for a client
};
static_assert(std::is_standard_layout_v<ProcRec> &&
              offsetof(ProcRec, exec) == 0);

// Every backend implements both halves of the collector-facing API: the
// gc::Rendezvous stop-the-world / worker-routing protocol and the
// gc::Accounting cost charges (gc/hooks.h).
class Platform : public gc::Rendezvous, public gc::Accounting {
 public:
  ~Platform() override = default;

  // ---- Proc (paper Figure 2) ----

  // Start `k` running in parallel with the caller on a newly acquired proc,
  // with the given per-proc datum.  Throws NoMoreProcs at the proc limit.
  void acquire_proc(cont::Cont<cont::Unit> k, Datum datum);
  // Non-throwing form; returns false at the proc limit.  On failure the
  // continuation has already had its unit value delivered, so the caller
  // can still reschedule it onto a ready queue and fire it later.
  bool try_acquire_proc(cont::Cont<cont::Unit> k, Datum datum);
  // Convenience: acquire a proc to run `f` from scratch (no capture point
  // needed).  Used by schedulers to start their per-proc dispatch loops.
  bool try_acquire_entry(std::function<void()> f, Datum datum) {
    return backend_acquire(cont::make_entry(std::move(f)), datum);
  }
  // Stop executing and return this processor to the operating system.  The
  // caller saves its state with callcc first if it wants to continue later.
  [[noreturn]] void release_proc();

  Datum get_datum() { return self().datum; }
  void set_datum(Datum d) { self().datum = d; }

  // Extensions beyond the paper's signature, needed by schedulers and the
  // benchmark harness.
  int proc_id() { return self().id; }
  virtual int max_procs() const = 0;
  virtual int active_procs() const = 0;

  // ---- Lock (paper Figure 2) ----

  virtual MutexLock mutex_lock() = 0;                // fresh unlocked lock
  virtual bool try_lock(const MutexLock& l) = 0;     // atomic test-and-set
  virtual void lock(const MutexLock& l) = 0;         // spin (maybe backoff)
  virtual void unlock(const MutexLock& l) = 0;       // any proc may unlock

  // ---- Virtual work and time ----

  // Account `instructions` of client computation.  On the simulator this
  // advances virtual time (and is a safe point); on native hardware the
  // computation itself is the cost and this is a plain safe point.
  void work(double instructions) {
    if (charges_work_) {
      charge_work(instructions);
    } else {
      poll();
    }
  }
  virtual double now_us() = 0;
  // GC poll + signal delivery point.  Runtime operations call this; any
  // Value not held in a Roots frame is invalid across it.
  void safe_point() {
    if (charges_work_) {
      charged_safe_point();
    } else {
      poll();
    }
  }
  // Brackets a scheduler's "no work available, polling" loop so the
  // simulator accounts the time as processor idle time (paper section 6
  // reports idle rates; native backend ignores the hint).
  virtual void begin_idle_poll() {}
  virtual void end_idle_poll() {}
  // Bounded cheap wait used by an idle proc that has nothing to run:
  // on native backends the proc sleeps (instead of burning a processor
  // spinning), on the simulator virtual time advances by `max_us`.  Both
  // ends are safe points, and callers must keep `max_us` small enough that
  // a waiting proc stays responsive to collections and posted signals.
  virtual void idle_wait(double max_us) {
    (void)max_us;
    safe_point();
  }
  // Targeted park/unpark (the scheduler's per-proc wakeup protocol).  A
  // proc with nothing to run parks itself for at most `max_us`; any proc —
  // or non-proc thread — can unpark a specific proc by id with one cheap,
  // async-thread-safe kick (an eventfd write on the native backend; a
  // deterministic pending flag on the simulator).  An unpark posted while
  // the target is not parked persists and makes its next park return
  // immediately, so the enqueue-then-unpark order never loses a wakeup.
  // Like idle_wait, both ends are safe points and callers must keep
  // `max_us` bounded; the default degrades to a plain bounded idle wait.
  virtual void park_proc(double max_us) { idle_wait(max_us); }
  virtual void unpark_proc(int proc_id) { (void)proc_id; }
  // Account one hardware compare-and-swap (work-stealing takes, park-state
  // claims).  Free on real hardware; the simulator charges the machine
  // model's CAS cost and a bus transaction.
  virtual void charge_cas() {}
  // Account one queue-lock direct handoff (threads/qlock.h): the grant
  // exchange plus the line transfer that moves the freshly released state to
  // the next holder's cache.  Free on real hardware (the traffic is the
  // cost); the simulator charges the machine model's handoff latency so
  // lock-bound traces stay deterministic.
  virtual void charge_lock_handoff() {}
  // Deterministic per-proc random stream (scheduling decisions, workloads).
  virtual arch::Rng& rng() = 0;

  // ---- Signals (paper section 3.4) ----

  void set_signal_handler(Sig s, std::function<void()> handler);
  void mask_signal(Sig s) { self().sig_mask |= sig_bit(s); }
  void unmask_signal(Sig s) { self().sig_mask &= ~sig_bit(s); }
  bool signal_masked(Sig s) { return (self().sig_mask & sig_bit(s)) != 0; }
  // Deliver `s` to every proc at its next safe point.
  void post_signal(Sig s);
  // Hook run whenever the platform needs every proc to reach a safe point
  // promptly: after posting a signal, and (on native backends) when a
  // collector begins stopping the world.  The I/O reactor installs a
  // callback here that interrupts its blocking OS wait, so a proc parked in
  // the kernel never stalls preemption or a stop-the-world.  May be invoked
  // from non-proc threads (the preemption ticker); the hook must therefore
  // be async-thread-safe and must not take platform locks.
  void set_wake_hook(std::function<void()> hook);
  // Enable preemption: kPreempt is posted to each proc every `us` of its
  // execution (0 disables).  The thread package installs a yield handler.
  virtual void set_preempt_interval(double us) = 0;

  // ---- Heap ----
  gc::Heap& heap() { return *heap_; }
  const gc::Heap& heap() const { return *heap_; }

  // ---- Running ----

  // Execute `root` as the root proc's computation; returns when it has
  // completed and every proc has been released.
  void run(std::function<void()> root, Datum root_datum = 0);
  bool done() const { return done_.load(std::memory_order_acquire); }

 protected:
  // A backend whose work costs nothing beyond the computation itself
  // (native, uni) passes false: its work() and safe_point() are the inline
  // poll.  The simulator passes true and prices them in charge_work and
  // charged_safe_point.
  explicit Platform(bool charges_work) : charges_work_(charges_work) {}
  void init_heap(const gc::HeapConfig& config) {
    heap_ = std::make_unique<gc::Heap>(config, *this, *this);
  }
  // Apply the backend config's stack geometry to the process-wide segment
  // pool (cont/stack_config.h).  Called from every backend constructor,
  // before any proc can acquire a segment; validates and panics on
  // degenerate geometry the same way HeapConfig does.
  void init_stacks(const cont::StackConfig& config) {
    cont::SegmentPool::instance().configure(config);
  }

  // The executing proc's record.
  ProcRec& self() {
    cont::ExecContext* ex = cont::current_exec();
    MPNJ_CHECK(ex != nullptr && ex->proc_id >= 0,
               "MP operation outside a proc");
    return *reinterpret_cast<ProcRec*>(ex);
  }
  // The clean point of a backend that does not charge work: read the stop
  // word and the proc's unmasked pending signals, and leave the inline path
  // only when one of them is set.
  void poll() {
    ProcRec& p = self();
    if (world_stop_.load(std::memory_order_acquire) ||
        (p.sig_pending.load(std::memory_order_acquire) & ~p.sig_mask) != 0)
        [[unlikely]] {
      poll_slow(p);
    }
  }
  // The poll's out-of-line half; the default delivers pending signals.  A
  // backend that stops the world parks here first.
  virtual void poll_slow(ProcRec& p) { deliver_pending_signals(p); }
  // The charging backend's work() and safe_point().
  virtual void charge_work(double instructions) {
    (void)instructions;
    poll();
  }
  virtual void charged_safe_point() { poll(); }
  virtual void for_each_proc(const std::function<void(ProcRec&)>& fn) = 0;
  virtual bool backend_acquire(cont::ContRef k, Datum datum) = 0;
  [[noreturn]] virtual void backend_release() = 0;
  virtual void backend_run(cont::ContRef root, Datum root_datum) = 0;
  virtual void on_done() {}

  // Run any pending unmasked handlers for the current proc.  Called by the
  // backends at safe points.
  void deliver_pending_signals(ProcRec& p);
  void post_signal_to(ProcRec& p, Sig s);
  // Invoke the registered wake hook, if any (backends call this from
  // stop_world so reactor-parked procs reach their GC safe point).
  void run_wake_hook();

  std::atomic<bool> done_{false};
  // Set while a collector stops the world; every poll reads it.  Only the
  // native backend sets it (uni never stops, the simulator's engine parks).
  std::atomic<bool> world_stop_{false};

 private:
  static std::uint32_t sig_bit(Sig s) { return 1u << static_cast<int>(s); }

  const bool charges_work_;
  std::function<void()> handlers_[kNumSignals];
  arch::TasWord handler_lock_;
  std::atomic<std::shared_ptr<const std::function<void()>>> wake_hook_;
  std::unique_ptr<gc::Heap> heap_;
};

}  // namespace mp
