#include "mp/uni_platform.h"

#include <ctime>

#include "arch/panic.h"
#include "arch/sysio.h"

namespace mp {

namespace {

// No atomic instructions: a uniprocessor cannot race with itself, and
// runtime operations never suspend between a test and a set.
struct UniLockCell final : detail::LockCell {
  bool held = false;
};

UniLockCell& cell_of(const MutexLock& l) {
  MPNJ_CHECK(l.valid(), "operation on an invalid MutexLock");
  return *static_cast<UniLockCell*>(l.cell());
}

}  // namespace

UniPlatform::UniPlatform(UniPlatformConfig config)
    : Platform(/*charges_work=*/false) {
  proc_.id = 0;
  proc_.exec.proc_id = 0;
  rng_.reseed(config.seed);
  epoch_ = std::chrono::steady_clock::now();
  preempt_interval_us_.store(config.preempt_interval_us);
  init_stacks(config.stack);
  init_heap(config.heap);
}

UniPlatform::~UniPlatform() {
  ticker_stop_.store(true);
  if (ticker_.joinable()) ticker_.join();
}

void UniPlatform::for_each_proc(const std::function<void(ProcRec&)>& fn) {
  fn(proc_);
}

bool UniPlatform::backend_acquire(cont::ContRef, Datum) {
  // The single proc is always the caller's: there is never a second
  // processor to acquire.  Clients written against the full platform
  // (Figure 3) degrade gracefully: fork's acquire fails and the parent
  // goes to the ready queue instead, exactly Figure 1's behaviour.
  return false;
}

void UniPlatform::backend_release() {
  safe_point();
  cont::exit_to_idle();
}

void UniPlatform::backend_run(cont::ContRef root, Datum root_datum) {
  if (preempt_interval_us_.load() > 0 && !ticker_.joinable()) {
    set_preempt_interval(preempt_interval_us_.load());
  }
  proc_.datum = root_datum;
  proc_.active = true;
  running_ = true;
  cont::ExecContext* saved = cont::current_exec();
  cont::set_current_exec(&proc_.exec);
  arch::Context idle_ctx;
  proc_.exec.idle_ctx = &idle_ctx;
  cont::run_from_idle(std::move(root), proc_.exec);
  proc_.exec.idle_ctx = nullptr;
  cont::set_current_exec(saved);
  running_ = false;
  proc_.active = false;
  if (!done()) {
    arch::panic(
        "uniprocessor deadlock: the proc was released before the root "
        "computation completed");
  }
  ticker_stop_.store(true);
  if (ticker_.joinable()) ticker_.join();
  ticker_ = std::thread();
}

MutexLock UniPlatform::mutex_lock() {
  return MutexLock(std::make_shared<UniLockCell>());
}

bool UniPlatform::try_lock(const MutexLock& l) {
  UniLockCell& cell = cell_of(l);
  if (cell.held) return false;
  cell.held = true;
  return true;
}

void UniPlatform::lock(const MutexLock& l) {
  // On a uniprocessor a spinning proc starves the (suspended) holder
  // forever; a blocked lock() is therefore a client bug, not a wait.
  MPNJ_CHECK(try_lock(l),
             "uniprocessor lock() on a held lock would spin forever");
}

void UniPlatform::unlock(const MutexLock& l) { cell_of(l).held = false; }

double UniPlatform::now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void UniPlatform::idle_wait(double max_us) {
  safe_point();
  if (max_us <= 0) return;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(max_us / 1e6);
  ts.tv_nsec = static_cast<long>((max_us - static_cast<double>(ts.tv_sec) * 1e6) * 1e3);
  arch::retry_eintr([&] { return ::nanosleep(&ts, &ts); });
  safe_point();
}

void UniPlatform::set_preempt_interval(double us) {
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

}  // namespace mp
