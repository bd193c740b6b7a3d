#include "mp/native_platform.h"

#include <poll.h>

#include <ctime>

#include <algorithm>

#include "arch/panic.h"
#include "arch/sysio.h"
#include "arch/tas.h"
#include "metrics/metrics.h"

namespace mp {

namespace {

struct NativeLockCell final : detail::LockCell {
  arch::TasWord word;
};

NativeLockCell& cell_of(const MutexLock& l) {
  MPNJ_CHECK(l.valid(), "operation on an invalid MutexLock");
  return *static_cast<NativeLockCell*>(l.cell());
}

}  // namespace

NativePlatform::NativePlatform(NativePlatformConfig config)
    : Platform(/*charges_work=*/false), cfg_(std::move(config)) {
  if (cfg_.max_procs <= 0) {
    cfg_.max_procs =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  procs_.reserve(static_cast<std::size_t>(cfg_.max_procs));
  for (int i = 0; i < cfg_.max_procs; i++) {
    auto p = std::make_unique<NProc>();
    p->id = i;
    p->exec.proc_id = i;
    p->prng.reseed(cfg_.seed ^ (0x9e3779b97f4a7c15ull * (std::uint64_t)(i + 1)));
    p->port.open();
    procs_.push_back(std::move(p));
  }
  epoch_ = std::chrono::steady_clock::now();
  preempt_interval_us_.store(cfg_.preempt_interval_us);
  init_stacks(cfg_.stack);
  init_heap(cfg_.heap);
}

NativePlatform::~NativePlatform() {
  ticker_stop_.store(true);
  if (ticker_.joinable()) ticker_.join();
  for (auto& p : procs_) {
    MPNJ_CHECK(!p->thread.joinable(),
               "platform destroyed with live proc threads (run() not used?)");
  }
}

// ----- identity -----

void NativePlatform::for_each_proc(const std::function<void(ProcRec&)>& fn) {
  for (auto& p : procs_) fn(*p);
}

int NativePlatform::max_procs() const { return cfg_.max_procs; }

int NativePlatform::active_procs() const {
  int n = 0;
  for (const auto& p : procs_) {
    if (p->rstate.load(std::memory_order_acquire) != RunState::kIdle) n++;
  }
  return n;
}

// ----- proc lifecycle -----

void NativePlatform::proc_loop(NProc& p) {
  cont::set_current_exec(&p.exec);
  metrics::Registry::bind_slot(p.id);
  for (;;) {
    cont::ContRef k;
    {
      std::unique_lock<std::mutex> lk(pool_mutex_);
      pool_cv_.wait(lk, [&] { return p.has_work || done(); });
      if (!p.has_work && done()) break;
      p.has_work = false;
      k = std::move(p.mailbox);
    }
    arch::Context idle_ctx;
    p.exec.idle_ctx = &idle_ctx;
    cont::run_from_idle(std::move(k), p.exec);
    p.exec.idle_ctx = nullptr;
    {
      std::unique_lock<std::mutex> lk(pool_mutex_);
      p.active = false;
      p.rstate.store(RunState::kIdle, std::memory_order_release);
    }
    pool_cv_.notify_all();  // run() may be waiting for quiescence
    gc_cv_.notify_all();    // a collector may be waiting on our transition
  }
  cont::set_current_exec(nullptr);
}

bool NativePlatform::backend_acquire(cont::ContRef k, Datum datum) {
  std::unique_lock<std::mutex> lk(pool_mutex_);
  for (auto& up : procs_) {
    NProc& p = *up;
    if (p.rstate.load(std::memory_order_acquire) == RunState::kIdle &&
        !p.has_work) {
      p.mailbox = std::move(k);
      p.datum = datum;
      p.has_work = true;
      p.active = true;
      p.rstate.store(RunState::kActive, std::memory_order_release);
      if (!p.thread.joinable() && p.id != 0) {
        // First use of this slot: create the kernel thread (the runtime may
        // also re-use a previously released one — that is the normal path).
        p.thread = std::thread([this, &p] { proc_loop(p); });
      }
      lk.unlock();
      pool_cv_.notify_all();
      return true;
    }
  }
  return false;
}

void NativePlatform::backend_release() {
  // Reach a clean point first: if a collection is stopping the world we park
  // here instead of vanishing from the collector's count mid-transition.
  safe_point();
  cont::exit_to_idle();
}

void NativePlatform::backend_run(cont::ContRef root, Datum root_datum) {
  if (cfg_.preempt_interval_us > 0 && !ticker_.joinable()) {
    set_preempt_interval(cfg_.preempt_interval_us);
  }
  // The caller's thread becomes proc 0.
  NProc& p0 = *procs_[0];
  {
    std::unique_lock<std::mutex> lk(pool_mutex_);
    p0.mailbox = std::move(root);
    p0.datum = root_datum;
    p0.has_work = true;
    p0.active = true;
    p0.rstate.store(RunState::kActive, std::memory_order_release);
  }
  proc_loop(p0);
  // done() is set; wait until every proc has been released, then reap the
  // pool threads.
  {
    std::unique_lock<std::mutex> lk(pool_mutex_);
    pool_cv_.wait(lk, [&] {
      for (const auto& p : procs_) {
        if (p->rstate.load(std::memory_order_acquire) != RunState::kIdle ||
            p->has_work) {
          return false;
        }
      }
      return true;
    });
  }
  pool_cv_.notify_all();
  for (auto& p : procs_) {
    if (p->thread.joinable()) p->thread.join();
  }
  ticker_stop_.store(true);
  if (ticker_.joinable()) ticker_.join();
  ticker_ = std::thread();
}

void NativePlatform::on_done() { pool_cv_.notify_all(); }

// ----- locks -----

MutexLock NativePlatform::mutex_lock() {
  return MutexLock(std::make_shared<NativeLockCell>());
}

bool NativePlatform::try_lock(const MutexLock& l) {
  return cell_of(l).word.test_and_set();
}

void NativePlatform::lock(const MutexLock& l) {
  NativeLockCell& cell = cell_of(l);
  if (cell.word.test_and_set()) {
    MPNJ_METRIC_COUNT(kLockAcquires, 1);
    return;
  }
  // The paper includes lock in the interface precisely so systems can spin
  // smarter than the naive loop; spin with optional exponential backoff
  // (Anderson) and keep hitting safe points so we park for collections.
  double backoff_us = cfg_.lock_backoff_base_us;
  std::uint64_t iters = 0;
  std::uint64_t backoff_rounds = 0;
  for (;;) {
    arch::cpu_relax();
    ++iters;
    if (cell.word.test_and_set()) break;
    if (iters % 64 == 0) safe_point();
    if (cfg_.lock_backoff_base_us > 0) {
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::duration<double, std::micro>(backoff_us);
      while (std::chrono::steady_clock::now() < until) arch::cpu_relax();
      backoff_us = std::min(backoff_us * 2, 1000.0);
      ++backoff_rounds;
    }
  }
  MPNJ_METRIC_COUNT(kLockAcquires, 1);
  MPNJ_METRIC_COUNT(kLockContended, 1);
  MPNJ_METRIC_COUNT(kLockSpinIters, iters);
  MPNJ_METRIC_COUNT(kLockBackoffRounds, backoff_rounds);
  MPNJ_METRIC_RECORD(kLockSpinIters, iters);
}

void NativePlatform::unlock(const MutexLock& l) { cell_of(l).word.clear(); }

// ----- time / work -----

double NativePlatform::now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void NativePlatform::poll_slow(ProcRec& p) {
  if (world_stop_.load(std::memory_order_acquire) &&
      collector_.load(std::memory_order_acquire) != p.id) {
    park_for_gc(static_cast<NProc&>(p));
  }
  deliver_pending_signals(p);
}

void NativePlatform::idle_wait(double max_us) {
  safe_point();
  if (max_us <= 0) return;
  // A sleeping proc has no safe points until it wakes, so the bound the
  // caller picked is also the worst case it adds to a stop-the-world.
  timespec ts;
  ts.tv_sec = static_cast<time_t>(max_us / 1e6);
  ts.tv_nsec = static_cast<long>((max_us - static_cast<double>(ts.tv_sec) * 1e6) * 1e3);
  arch::retry_eintr([&] { return ::nanosleep(&ts, &ts); });
  safe_point();
}

void NativePlatform::park_proc(double max_us) {
  NProc& p = static_cast<NProc&>(self());
  safe_point();
  if (max_us <= 0) return;
  // A kick posted while we were running (or by a previous spurious signal)
  // ends the park before it starts.
  if (p.port.consume()) {
    safe_point();
    return;
  }
  pollfd pfd{p.port.rfd(), POLLIN, 0};
  timespec ts;
  ts.tv_sec = static_cast<time_t>(max_us / 1e6);
  ts.tv_nsec =
      static_cast<long>((max_us - static_cast<double>(ts.tv_sec) * 1e6) * 1e3);
  // EINTR counts as a wakeup: the park is bounded either way and the caller
  // re-checks its queues.
  ::ppoll(&pfd, 1, &ts, nullptr);
  p.port.consume();
  safe_point();
}

void NativePlatform::unpark_proc(int proc_id) {
  procs_[static_cast<std::size_t>(proc_id)]->port.signal();
}

arch::Rng& NativePlatform::rng() {
  return static_cast<NProc&>(self()).prng;
}

void NativePlatform::set_preempt_interval(double us) {
  preempt_interval_us_.store(us);
  if (us > 0 && !ticker_.joinable()) {
    ticker_stop_.store(false);
    ticker_ = std::thread([this] {
      while (!ticker_stop_.load(std::memory_order_acquire)) {
        const double interval = preempt_interval_us_.load();
        if (interval <= 0) break;
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(interval));
        post_signal(Sig::kPreempt);
      }
    });
  }
}

// ----- GC rendezvous -----

void NativePlatform::park_for_gc(NProc& p) {
  std::unique_lock<std::mutex> lk(gc_mutex_);
  const RunState prev = p.rstate.exchange(RunState::kParked);
  MPNJ_CHECK(prev == RunState::kActive, "parking a non-active proc");
  gc_cv_.notify_all();  // the collector may be waiting on our transition
  while (world_stop_.load(std::memory_order_acquire)) {
    if (gc_work_fn_ && p.gc_epoch_seen != gc_epoch_) {
      // Join the collection as a worker (once per epoch).  The fn spins at
      // the copier's gate until the collector opens the first phase and
      // returns when the heap ends the cycle — all before resume_world, so
      // dropping gc_mutex_ here never lets this proc escape the rendezvous.
      p.gc_epoch_seen = gc_epoch_;
      const gc::WorkerFn fn = gc_work_fn_;
      lk.unlock();
      fn();
      lk.lock();
      continue;
    }
    gc_cv_.wait(lk, [&] {
      return !world_stop_.load(std::memory_order_acquire) ||
             (gc_work_fn_ && p.gc_epoch_seen != gc_epoch_);
    });
  }
  p.rstate.store(RunState::kActive, std::memory_order_release);
}

void NativePlatform::stop_world(gc::WorkerFn work) {
  NProc& me = static_cast<NProc&>(self());
  {
    // Publish the worker entry before the stop flag: a proc that parks the
    // instant world_stop_ flips must already see the fn and epoch.
    std::unique_lock<std::mutex> lk(gc_mutex_);
    gc_work_fn_ = std::move(work);
    gc_epoch_++;
    collector_.store(me.id, std::memory_order_release);
    world_stop_.store(true, std::memory_order_release);
  }
  // Interrupt any proc blocked in the I/O reactor so it parks promptly, and
  // kick every per-proc park port: a port-parked proc has no safe points
  // until it wakes, so without the kick each one would add up to its park
  // bound to this stop-the-world.
  run_wake_hook();
  for (auto& p : procs_) p->port.signal();
  std::unique_lock<std::mutex> lk(gc_mutex_);
  gc_cv_.notify_all();  // parked procs re-check for the new epoch's fn
  gc_cv_.wait(lk, [&] {
    for (const auto& p : procs_) {
      if (p->id == me.id) continue;
      if (p->rstate.load(std::memory_order_acquire) == RunState::kActive) {
        return false;
      }
    }
    return true;
  });
}

void NativePlatform::resume_world() {
  {
    std::unique_lock<std::mutex> lk(gc_mutex_);
    world_stop_.store(false, std::memory_order_release);
    collector_.store(-1, std::memory_order_release);
    gc_work_fn_ = nullptr;
  }
  gc_cv_.notify_all();
}

void NativePlatform::charge_gc(std::uint64_t) {}

void NativePlatform::charge_card_scan(std::uint64_t, std::uint64_t) {}

void NativePlatform::charge_los_alloc(std::uint64_t) {}

void NativePlatform::charge_los_sweep(std::uint64_t) {}

void NativePlatform::charge_alloc(std::uint64_t) {}

void NativePlatform::rendezvous_and_work(const gc::WorkerFn& work) {
  // The registered epoch fn (identical to `work`) is run by park_for_gc, so
  // reaching the clean point is joining the collection.
  (void)work;
  safe_point();
}

int NativePlatform::cur_proc() {
  const cont::ExecContext* ex = cont::current_exec();
  return ex != nullptr ? ex->proc_id : -1;
}

int NativePlatform::nproc() { return cfg_.max_procs; }

cont::ExecContext* NativePlatform::proc_exec(int id) {
  return &procs_[static_cast<std::size_t>(id)]->exec;
}

}  // namespace mp
