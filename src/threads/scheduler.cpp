#include "threads/scheduler.h"

#include <algorithm>
#include <exception>

#include "arch/panic.h"
#include "fuzz/hooks.h"
#include "metrics/metrics.h"
#include "threads/offer.h"

namespace mp::threads {

using cont::callcc;
using cont::Cont;
using cont::Unit;

namespace {
// Called by the explicit blocking entry points.  The C++ runtime keeps its
// stack of caught exceptions per OS thread, not per MLthread: a thread
// parked inside a catch handler leaves its exception on that stack for
// whichever thread runs next there, and a `throw;` after resuming on
// another proc finds the wrong one or none.
void check_no_live_exception() {
  MPNJ_CHECK(std::current_exception() == nullptr,
             "thread blocked inside a catch handler: take "
             "std::current_exception(), leave the handler, then block");
}
}  // namespace

Scheduler::Scheduler(Platform& platform, SchedulerConfig config)
    : plat_(platform), cfg_(std::move(config)) {
  for (int i = 0; i < plat_.max_procs(); i++) {
    cores_.push_back(std::make_unique<ProcCore>(i));
  }
  queue_ = cfg_.queue ? std::move(cfg_.queue)
                      : std::make_unique<WorkStealingQueue>();
  std::vector<ProcCore*> core_ptrs;
  core_ptrs.reserve(cores_.size());
  for (auto& c : cores_) core_ptrs.push_back(c.get());
  queue_->bind_cores(std::move(core_ptrs));
  queue_->init(plat_);
  next_id_lock_ = plat_.mutex_lock();
  timer_lock_ = plat_.mutex_lock();
  if (cfg_.preempt_interval_us > 0) {
    plat_.set_signal_handler(Sig::kPreempt, [this] { on_preempt(); });
    plat_.set_preempt_interval(cfg_.preempt_interval_us);
  }
  if (cfg_.hold_procs) {
    // "To obtain good performance ... a client can call acquire_proc
    // repeatedly when it starts up, acquiring as many procs as possible,
    // and hold on to them for the duration" (section 3.1).
    while (plat_.try_acquire_entry([this] { worker_loop(); }, 0)) {
    }
  }
}

Scheduler::~Scheduler() = default;

void Scheduler::worker_loop() {
  // Dispatch loops run with preemption masked; the mask is dropped just
  // before control enters a user thread.
  plat_.mask_signal(Sig::kPreempt);
  dispatch();
}

void Scheduler::dispatch() {
  ProcCore& core = *cores_[static_cast<std::size_t>(plat_.proc_id())];
  for (;;) {
    plat_.work(cfg_.costs.dispatch_instr);
    poll_timers(core);
    maybe_poll_io();
    std::optional<ThreadState> t = queue_->deq(plat_);
    if (!t) {
      if (shutdown_.load(std::memory_order_acquire) || !cfg_.hold_procs) {
        // Figure 3 releases the proc whenever the queue is empty; the
        // held-procs configuration only releases at shutdown.
        plat_.end_idle_poll();
        plat_.unmask_signal(Sig::kPreempt);
        plat_.release_proc();
      }
      MPNJ_METRIC_COUNT(kSchedIdlePolls, 1);
      plat_.begin_idle_poll();
      t = idle_step(core);
      if (!t) continue;
    }
    core.backoff_round = 0;
#if MPNJ_METRICS
    if (metrics::registry().enabled()) {
      const long depth = ready_count_.fetch_sub(1, std::memory_order_relaxed);
      MPNJ_METRIC_COUNT(kSchedDispatches, 1);
      // Depth as observed before this dequeue (clamped: enq/deq races can
      // transiently drive the mirror below the true size).
      MPNJ_METRIC_RECORD(kRunQueueDepth,
                         depth > 0 ? static_cast<std::uint64_t>(depth) : 0);
      if (core.pending_wake_us >= 0) {
        const double lat = plat_.now_us() - core.pending_wake_us;
        MPNJ_METRIC_RECORD(kSchedWakeToDispatchUs,
                           lat > 0 ? static_cast<std::uint64_t>(lat) : 0);
      }
    }
    core.pending_wake_us = -1.0;
#endif
    plat_.end_idle_poll();
    plat_.set_datum(static_cast<Datum>(t->id));
    if (cfg_.tracer) {
      cfg_.tracer->record(plat_, TraceKind::kDispatch, t->id);
    }
    plat_.unmask_signal(Sig::kPreempt);
    cont::switch_to(std::move(t->k));
  }
}

namespace {
// Bounded exponential idle backoff: the first rounds keep the seed's cheap
// busy poll (lowest wakeup latency while work is imminent), then the park
// bound doubles from kIdleWaitBaseUs up to kIdleWaitMaxUs.  Parks are woken
// early by wake_one; the cap is a liveness backstop, bounding the cost of
// any wakeup the protocol could ever fail to deliver and the latency a
// sleeping proc adds to a stop-the-world on platforms without ports.
constexpr int kIdleSpinRounds = 8;
constexpr double kIdleWaitBaseUs = 4;
constexpr double kIdleWaitMaxUs = 2000;
// Busy procs drain reactor-ready fds at least this often, so I/O waiters
// wake even when no proc ever goes idle.
constexpr double kIoPollIntervalUs = 200;
// How long a busy dispatch loop may trust its cached copy of the shared
// next-timer deadline before re-reading it (parks always re-read).
constexpr double kTimerRefreshUs = 25;
}  // namespace

void Scheduler::poll_timers(ProcCore& core) {
  const double now = plat_.now_us();
  if (now >= core.timer_refresh_us) {
    core.cached_deadline_us = next_deadline_.load(std::memory_order_acquire);
    core.timer_refresh_us = now + kTimerRefreshUs;
  }
  if (now >= core.cached_deadline_us) {
    run_expired_timers();
    core.cached_deadline_us = next_deadline_.load(std::memory_order_acquire);
  }
}

std::optional<ThreadState> Scheduler::idle_step(ProcCore& core) {
  IdleWaiter* w = acquire_idle_waiter();
  if (w != nullptr && w->poll() > 0) {
    release_idle_waiter();
    core.backoff_round = 0;  // woke work; re-attempt the dequeue
    return std::nullopt;
  }
  const int round = ++core.backoff_round;
  if (round <= kIdleSpinRounds) {
    if (w != nullptr) release_idle_waiter();
    plat_.work(cfg_.costs.poll_instr);
    return std::nullopt;
  }
  MPNJ_METRIC_COUNT(kSchedIdleBackoff, 1);
  const int shift = std::min(round - kIdleSpinRounds - 1, 30);
  double max_us = std::min(kIdleWaitBaseUs * static_cast<double>(1u << shift),
                           kIdleWaitMaxUs);
  // Never sleep past the next timer deadline: parks re-read the shared
  // deadline (the per-proc cursor may be stale by kTimerRefreshUs).
  const double deadline = next_deadline_.load(std::memory_order_acquire);
  if (deadline < std::numeric_limits<double>::infinity()) {
    max_us = std::min(max_us, std::max(deadline - plat_.now_us(), 0.0));
  }
  if (max_us <= 0) {
    if (w != nullptr) release_idle_waiter();
    plat_.work(cfg_.costs.poll_instr);
    return std::nullopt;
  }
  // Reactor election: exactly one idle proc blocks inside the reactor's
  // kernel wait (it owns the fd set); everyone else parks on its own port
  // and is woken individually by wake_one.
  std::optional<ThreadState> found;
  if (w != nullptr) {
    int expect = -1;
    if (io_waiter_proc_.compare_exchange_strong(expect, core.id,
                                                std::memory_order_seq_cst)) {
      found = park_on(core, ParkState::kParkedReactor, w, max_us);
      io_waiter_proc_.store(-1, std::memory_order_seq_cst);
    } else {
      found = park_on(core, ParkState::kParkedPort, nullptr, max_us);
    }
    release_idle_waiter();
  } else {
    found = park_on(core, ParkState::kParkedPort, nullptr, max_us);
  }
  plat_.work(cfg_.costs.poll_instr);
  return found;
}

std::optional<ThreadState> Scheduler::park_on(ProcCore& core, ParkState venue,
                                              IdleWaiter* w, double max_us) {
#if MPNJ_METRICS
  core.pending_wake_us = -1.0;  // a wake that led to no dispatch expires
#endif
  core.park_state.store(venue, std::memory_order_seq_cst);
  parked_count_.fetch_add(1, std::memory_order_seq_cst);
  // Re-check destructively: wake_one enqueues before scanning park states,
  // so either this dequeue sees the new work or the scan sees us parked —
  // the wakeup cannot fall between.
  if (std::optional<ThreadState> t = queue_->deq(plat_)) {
    core.park_state.exchange(ParkState::kRunning, std::memory_order_seq_cst);
    parked_count_.fetch_sub(1, std::memory_order_seq_cst);
    return t;
  }
  MPNJ_METRIC_COUNT(kSchedParkWaits, 1);
#if MPNJ_METRICS
  const double park_start = plat_.now_us();
#endif
  bool woke = false;
  if (venue == ParkState::kParkedReactor) {
    woke = w->wait(max_us) > 0;
  } else {
    plat_.park_proc(max_us);
  }
  const ParkState prev =
      core.park_state.exchange(ParkState::kRunning, std::memory_order_seq_cst);
  parked_count_.fetch_sub(1, std::memory_order_seq_cst);
#if MPNJ_METRICS
  const double parked_us = plat_.now_us() - park_start;
  MPNJ_METRIC_RECORD(kSchedParkUs,
                     parked_us > 0 ? static_cast<std::uint64_t>(parked_us) : 0);
#endif
  if (prev == ParkState::kWakePending) {
    MPNJ_METRIC_COUNT(kSchedParkWakeups, 1);
#if MPNJ_METRICS
    core.pending_wake_us = core.wake_posted_us.load(std::memory_order_relaxed);
#endif
    woke = true;
  }
  if (woke) core.backoff_round = 0;
  return std::nullopt;
}

void Scheduler::wake_one() {
  // Figure 3 mode (hold_procs=false) keeps no idle procs to wake: empty
  // procs release themselves and fork re-acquires.
  if (!cfg_.hold_procs) return;
  // The enqueue this wake follows must be ordered before the parked-state
  // reads (the other half of park_on's publish/re-check).  A seq_cst RMW on
  // parked_count_ is both the Dekker store-load barrier and the fast-path
  // read: park_on increments with a seq_cst RMW on the same word, so either
  // this read observes the parker (and the scan finds it) or the parker's
  // increment reads from this RMW and its queue re-check sees the enqueue.
  // (An atomic_thread_fence would also do, but TSan does not model fences.)
  if (parked_count_.fetch_add(0, std::memory_order_seq_cst) == 0) return;
  // Fuzz choice point: which core the claim scan starts at.  Rotating the
  // scan picks a different parked proc to wake, reordering every wakeup
  // downstream of this enqueue.
  const std::size_t rot =
      fuzz::pick(fuzz::Kind::kWakeScan, cores_.size(), 0);
  for (std::size_t i = 0; i < cores_.size(); i++) {
    ProcCore& c = *cores_[(i + rot) % cores_.size()];
    ParkState st = c.park_state.load(std::memory_order_seq_cst);
    if (st != ParkState::kParkedPort && st != ParkState::kParkedReactor) {
      continue;
    }
    // Stamp before the claim so the sleeper always reads a valid time.
    c.wake_posted_us.store(plat_.now_us(), std::memory_order_relaxed);
    if (!c.park_state.compare_exchange_strong(st, ParkState::kWakePending,
                                              std::memory_order_seq_cst)) {
      continue;  // raced with the sleeper or another waker; try the next
    }
    if (st == ParkState::kParkedReactor) {
      if (IdleWaiter* w = acquire_idle_waiter()) {
        w->notify();
        release_idle_waiter();
      }
    } else {
      plat_.unpark_proc(c.id);
    }
    return;  // exactly one proc woken
  }
}

void Scheduler::wake_all() {
  for (auto& cp : cores_) {
    ProcCore& c = *cp;
    ParkState st = c.park_state.load(std::memory_order_seq_cst);
    if (st != ParkState::kParkedPort && st != ParkState::kParkedReactor) {
      continue;
    }
    c.wake_posted_us.store(plat_.now_us(), std::memory_order_relaxed);
    if (!c.park_state.compare_exchange_strong(st, ParkState::kWakePending,
                                              std::memory_order_seq_cst)) {
      continue;
    }
    if (st == ParkState::kParkedReactor) {
      if (IdleWaiter* w = acquire_idle_waiter()) {
        w->notify();
        release_idle_waiter();
      }
    } else {
      plat_.unpark_proc(c.id);
    }
  }
}

IdleWaiter* Scheduler::acquire_idle_waiter() {
  // Common case (no reactor): one relaxed load, no shared-line traffic.
  if (idle_waiter_.load(std::memory_order_relaxed) == nullptr) return nullptr;
  idle_waiter_users_.fetch_add(1, std::memory_order_seq_cst);
  IdleWaiter* w = idle_waiter_.load(std::memory_order_seq_cst);
  if (w == nullptr) {
    idle_waiter_users_.fetch_sub(1, std::memory_order_seq_cst);
  }
  return w;
}

void Scheduler::release_idle_waiter() {
  idle_waiter_users_.fetch_sub(1, std::memory_order_seq_cst);
}

void Scheduler::set_idle_waiter(IdleWaiter* w) {
  IdleWaiter* old = idle_waiter_.exchange(w, std::memory_order_seq_cst);
  if (old == nullptr || old == w) return;
  // Quiesce: a dispatch loop that acquired `old` either finishes its call
  // soon (waits are bounded) or is blocked inside wait(); keep kicking it
  // until the user count drains, after which `old` may be destroyed.
  while (idle_waiter_users_.load(std::memory_order_seq_cst) > 0) {
    old->notify();
    plat_.work(10);
  }
}

void Scheduler::maybe_poll_io() {
  if (idle_waiter_.load(std::memory_order_relaxed) == nullptr) return;
  const double now = plat_.now_us();
  double next = next_io_poll_us_.load(std::memory_order_relaxed);
  if (now < next) return;
  if (!next_io_poll_us_.compare_exchange_strong(next, now + kIoPollIntervalUs,
                                                std::memory_order_relaxed)) {
    return;  // another proc took this poll slot
  }
  if (IdleWaiter* w = acquire_idle_waiter()) {
    w->poll();
    release_idle_waiter();
  }
}

void Scheduler::fork(std::function<void()> child, SpawnOpts opts) {
  plat_.work(cfg_.costs.fork_instr);
  plat_.mask_signal(Sig::kPreempt);
  MPNJ_METRIC_COUNT(kSchedForks, 1);
  live_.fetch_add(1, std::memory_order_acq_rel);
  // The callcc body is the child, so the requested stack class is simply the
  // class of the fresh segment the body boots on; every later capture the
  // child makes inherits it.
  callcc_on<Unit>(
      opts.stack,
      [this, opts, child = std::move(child)](Cont<Unit> parent) mutable
      -> Unit {
        const int parent_id = static_cast<int>(plat_.get_datum());
        // Move the parent to a freshly acquired proc if one is available;
        // otherwise block it on the ready queue (Figure 3).
        if (!plat_.try_acquire_proc(parent,
                                    static_cast<Datum>(parent_id))) {
          reschedule(ThreadState{std::move(parent).take_ref(), parent_id});
        }
        // Drop this frame's copy: the child's exit dispatches without
        // unwinding the frame, so nothing in it may own a reference.
        parent = {};
        // This proc becomes the child thread.
        plat_.lock(next_id_lock_);
        const int my_id = next_id_++;
        plat_.unlock(next_id_lock_);
        plat_.set_datum(static_cast<Datum>(my_id));
        cont::set_stack_owner(my_id, opts.name);
        if (cfg_.tracer) {
          cfg_.tracer->record(plat_, TraceKind::kFork, parent_id, my_id);
        }
        plat_.unmask_signal(Sig::kPreempt);
        try {
          child();
        } catch (const cont::ThreadCancelled&) {
          // Cancelled at a suspension point: the thread's frames have been
          // unwound; retire it like a normal exit.
        }
        exit_thread();
      });
  // The parent resumes here, possibly on a different proc.
}

void Scheduler::yield() {
  // Mask before charging the yield cost: a preempt landing inside the
  // charge would run its handler (which yields again) on top of this
  // frame, and under a preempt storm — quantum shorter than the dispatch
  // cost — that nesting is unbounded and overflows the thread stack.  The
  // pending preempt is not lost; it delivers at the next unmasked charge.
  plat_.mask_signal(Sig::kPreempt);
  plat_.work(cfg_.costs.yield_instr);
  MPNJ_METRIC_COUNT(kSchedYields, 1);
  if (cfg_.tracer) {
    cfg_.tracer->record(plat_, TraceKind::kYield,
                        static_cast<int>(plat_.get_datum()));
  }
  callcc<Unit>([this](Cont<Unit> k) -> Unit {
    const int my_id = static_cast<int>(plat_.get_datum());
    k.preload(Unit{});
    reschedule(ThreadState{std::move(k).take_ref(), my_id});
    dispatch();
  });
}

int Scheduler::id() { return static_cast<int>(plat_.get_datum()); }

void Scheduler::exit_thread() {
  plat_.mask_signal(Sig::kPreempt);
  if (cfg_.tracer) {
    cfg_.tracer->record(plat_, TraceKind::kExit,
                        static_cast<int>(plat_.get_datum()));
  }
  live_.fetch_sub(1, std::memory_order_acq_rel);
  dispatch();
}

void Scheduler::suspend(const std::function<void(ThreadState)>& park) {
  check_no_live_exception();
  plat_.mask_signal(Sig::kPreempt);
  callcc<Unit>([&, this](Cont<Unit> k) -> Unit {
    const int my_id = static_cast<int>(plat_.get_datum());
    k.preload(Unit{});
    park(ThreadState{std::move(k).take_ref(), my_id});
    // Once parked the thread may already be running on another proc; this
    // proc moves on.
    dispatch();
  });
}

void Scheduler::reschedule(ThreadState t) {
#if MPNJ_METRICS
  if (metrics::registry().enabled()) {
    ready_count_.fetch_add(1, std::memory_order_relaxed);
  }
#endif
  queue_->enq(plat_, std::move(t));
  // Every wakeup source — sync.cpp reschedules, and the offer commits of
  // channels, pipes, the reactor and timers — funnels through this enqueue,
  // so the single wake_one here is the whole targeted-wakeup protocol's
  // entry point.
  wake_one();
}

void Scheduler::cancel(ThreadState t) {
  MPNJ_CHECK(t.id != 0, "the root thread cannot be cancelled");
  cont::mark_cancel(t.k);
  reschedule(std::move(t));
}

void Scheduler::dispatch_from_blocked() {
  check_no_live_exception();
  plat_.mask_signal(Sig::kPreempt);
  dispatch();
}

// ----- timers -----

namespace {
bool later(const std::pair<double, Offer>& a,
           const std::pair<double, Offer>& b) {
  return a.first > b.first;  // min-heap by deadline
}
}  // namespace

void Scheduler::at(double deadline_us, Offer o) {
  plat_.lock(timer_lock_);
  const double previous = next_deadline_.load(std::memory_order_relaxed);
  if (prune_before_push(timers_, timers_until_scan_,
                        [](const auto& t) { return t.second.dead(); })) {
    std::make_heap(timers_.begin(), timers_.end(), later);
  }
  timers_.emplace_back(deadline_us, std::move(o));
  std::push_heap(timers_.begin(), timers_.end(), later);
  const double earliest = timers_.front().first;
  next_deadline_.store(earliest, std::memory_order_release);
  plat_.unlock(timer_lock_);
  if (earliest < previous) {
    // The horizon moved closer: a parked proc may be sleeping past it.
    // Waking one is enough — it re-reads the deadline before re-parking.
    wake_one();
  }
}

void Scheduler::run_expired_timers() {
  // Entered from dispatch with kPreempt masked.
  const double now = plat_.now_us();
  std::vector<Offer> due;
  plat_.lock(timer_lock_);
  while (!timers_.empty() && timers_.front().first <= now) {
    std::pop_heap(timers_.begin(), timers_.end(), later);
    due.push_back(std::move(timers_.back().second));
    timers_.pop_back();
  }
  next_deadline_.store(timers_.empty()
                           ? std::numeric_limits<double>::infinity()
                           : timers_.front().first,
                       std::memory_order_release);
  plat_.unlock(timer_lock_);
  MPNJ_METRIC_COUNT(kSchedTimerFires, due.size());
  for (Offer& o : due) o.fire(*this);
}

void Scheduler::sleep_until(double deadline_us) {
  if (plat_.now_us() >= deadline_us) {
    yield();  // already due: still a scheduling point
    return;
  }
  suspend([&](ThreadState t) { at(deadline_us, Offer::plain(std::move(t))); });
}

void Scheduler::sleep_for(double us) { sleep_until(plat_.now_us() + us); }

void Scheduler::on_preempt() {
  if (shutdown_.load(std::memory_order_acquire)) return;
  MPNJ_METRIC_COUNT(kSchedPreempts, 1);
  if (cfg_.tracer) {
    cfg_.tracer->record(plat_, TraceKind::kPreempt,
                        static_cast<int>(plat_.get_datum()));
  }
  yield();
}

void Scheduler::run(Platform& platform, SchedulerConfig config,
                    const std::function<void(Scheduler&)>& main_fn) {
  platform.run([&] {
    Scheduler sched(platform, std::move(config));
    sched.live_.fetch_add(1);  // the root thread
    platform.set_datum(0);
    cont::set_stack_owner(0, "main");
    main_fn(sched);
    sched.live_.fetch_sub(1);
    // Drain: keep yielding (which also lends this proc to ready threads)
    // until every forked thread has finished.
    long last_live = sched.live_.load();
    long stall = 0;
    while (sched.live_.load(std::memory_order_acquire) > 0) {
      sched.yield();
      const long now_live = sched.live_.load();
      stall = (now_live == last_live) ? stall + 1 : 0;
      last_live = now_live;
      MPNJ_CHECK(stall < 5'000'000,
                 "thread deadlock: forked threads never completed");
    }
    sched.shutdown_.store(true, std::memory_order_release);
    // Parked procs would otherwise only notice shutdown when their bounded
    // parks expire; unpark everyone so release is prompt.
    sched.wake_all();
    // Wait until the held worker procs have observed shutdown and released
    // themselves; the scheduler must outlive every dispatch loop.
    while (platform.active_procs() > 1) platform.work(10);
  });
}

}  // namespace mp::threads
