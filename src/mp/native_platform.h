#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "arch/wakeport.h"
#include "mp/platform.h"

namespace mp {

struct NativePlatformConfig {
  // Analogue of the paper's compile-time proc limit: the runtime statically
  // sizes its per-proc structures.  0 = hardware concurrency.
  int max_procs = 0;
  gc::HeapConfig heap;
  cont::StackConfig stack;
  double preempt_interval_us = 0;
  // Spin-then-backoff behaviour of lock(); 0 = naive spin.
  double lock_backoff_base_us = 0;
  std::uint64_t seed = 0x5eed;
};

// MP on real kernel threads (the production backend): procs map onto
// std::threads sharing the address space — the same shape as the paper's
// Mach kernel threads / Irix+Dynix shared-address-space processes — and
// mutex locks are hardware test-and-set words.  Released kernel threads are
// parked and re-used by later acquire_proc calls, as section 5 describes.
class NativePlatform final : public Platform {
 public:
  explicit NativePlatform(NativePlatformConfig config = {});
  ~NativePlatform() override;

  // ---- Platform ----
  int max_procs() const override;
  int active_procs() const override;
  MutexLock mutex_lock() override;
  bool try_lock(const MutexLock& l) override;
  void lock(const MutexLock& l) override;
  void unlock(const MutexLock& l) override;
  double now_us() override;
  void idle_wait(double max_us) override;
  void park_proc(double max_us) override;
  void unpark_proc(int proc_id) override;
  arch::Rng& rng() override;
  void set_preempt_interval(double us) override;

  // ---- gc::Rendezvous ----
  void stop_world(gc::WorkerFn work) override;
  void resume_world() override;
  void rendezvous_and_work(const gc::WorkerFn& work) override;
  int cur_proc() override;
  int nproc() override;
  cont::ExecContext* proc_exec(int id) override;

  // ---- gc::Accounting (real hardware: the computation is the cost) ----
  void charge_gc(std::uint64_t words_copied) override;
  void charge_alloc(std::uint64_t words) override;
  bool charges_alloc() const override { return false; }
  void charge_card_scan(std::uint64_t cards, std::uint64_t words) override;
  void charge_los_alloc(std::uint64_t pages) override;
  void charge_los_sweep(std::uint64_t pages) override;

 protected:
  void poll_slow(ProcRec& p) override;
  void for_each_proc(const std::function<void(ProcRec&)>& fn) override;
  bool backend_acquire(cont::ContRef k, Datum datum) override;
  [[noreturn]] void backend_release() override;
  void backend_run(cont::ContRef root, Datum root_datum) override;
  void on_done() override;

 private:
  enum class RunState : std::uint8_t { kIdle, kActive, kParked };

  struct NProc : ProcRec {
    std::thread thread;            // empty for proc 0 (the run() caller)
    cont::ContRef mailbox;
    bool has_work = false;
    std::atomic<RunState> rstate{RunState::kIdle};
    arch::Rng prng;
    // Targeted-wakeup port: park_proc waits on it, unpark_proc (any
    // thread) signals it.  stop_world signals every port so parked procs
    // reach their GC safe point at interrupt speed, not timeout speed.
    arch::WakePort port;
    // Last collection epoch whose worker fn this proc ran (under gc_mutex_);
    // ensures one worker entry per proc per stop-the-world.
    std::uint64_t gc_epoch_seen = 0;
  };

  void proc_loop(NProc& p);  // idle loop shared by pool threads and proc 0
  void park_for_gc(NProc& p);

  NativePlatformConfig cfg_;
  std::vector<std::unique_ptr<NProc>> procs_;

  std::mutex pool_mutex_;
  std::condition_variable pool_cv_;

  // GC rendezvous (the stop word itself is Platform::world_stop_).
  std::atomic<int> collector_{-1};
  std::mutex gc_mutex_;
  std::condition_variable gc_cv_;
  // Worker entry for the current collection and its epoch (both guarded by
  // gc_mutex_).  Parked procs run the fn once per epoch, becoming collection
  // workers instead of idling out the stop-the-world.
  gc::WorkerFn gc_work_fn_;
  std::uint64_t gc_epoch_ = 0;

  // Preemption ticker.
  std::thread ticker_;
  std::atomic<bool> ticker_stop_{false};
  std::atomic<double> preempt_interval_us_{0};

  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace mp
