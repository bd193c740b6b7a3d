#pragma once

#include <chrono>
#include <thread>

#include "mp/platform.h"

namespace mp {

struct UniPlatformConfig {
  gc::HeapConfig heap;
  cont::StackConfig stack;
  double preempt_interval_us = 0;
  std::uint64_t seed = 0x5eed;
};

// The paper's "trivial uniprocessor implementation [that] works on all
// processors that run SML/NJ": exactly one proc (the calling thread), no
// kernel threads, and locks that are plain booleans — elementary exclusion
// is free on a uniprocessor (Wand), so no atomic instructions are needed.
// acquire_proc always reports No_More_Procs, which makes the Figure 3
// thread package degenerate gracefully into the Figure 1 uniprocessor one.
//
// Combined with the portable ucontext context-switch backend
// (-DMPNJ_CTX_UCONTEXT=ON) this backend runs on any POSIX system with no
// machine-dependent code at all.
class UniPlatform final : public Platform {
 public:
  explicit UniPlatform(UniPlatformConfig config = {});
  ~UniPlatform() override;

  // ---- Platform ----
  int max_procs() const override { return 1; }
  int active_procs() const override { return proc_.active ? 1 : 0; }
  MutexLock mutex_lock() override;
  bool try_lock(const MutexLock& l) override;
  void lock(const MutexLock& l) override;
  void unlock(const MutexLock& l) override;
  double now_us() override;
  void idle_wait(double max_us) override;
  arch::Rng& rng() override { return rng_; }
  void set_preempt_interval(double us) override;

  // ---- gc::Rendezvous (a one-proc world never needs to stop; the
  // collecting proc is the collection's single, degenerate worker) ----
  void stop_world(gc::WorkerFn) override {}
  void resume_world() override {}
  void rendezvous_and_work(const gc::WorkerFn&) override {}
  int cur_proc() override { return running_ ? 0 : -1; }
  int nproc() override { return 1; }
  cont::ExecContext* proc_exec(int) override { return &proc_.exec; }

  // ---- gc::Accounting ----
  void charge_gc(std::uint64_t) override {}
  void charge_alloc(std::uint64_t) override {}
  bool charges_alloc() const override { return false; }
  void charge_card_scan(std::uint64_t, std::uint64_t) override {}
  void charge_los_alloc(std::uint64_t) override {}
  void charge_los_sweep(std::uint64_t) override {}

 protected:
  void for_each_proc(const std::function<void(ProcRec&)>& fn) override;
  bool backend_acquire(cont::ContRef k, Datum datum) override;
  [[noreturn]] void backend_release() override;
  void backend_run(cont::ContRef root, Datum root_datum) override;

 private:
  ProcRec proc_;
  bool running_ = false;
  arch::Rng rng_;
  std::chrono::steady_clock::time_point epoch_;
  std::thread ticker_;
  std::atomic<bool> ticker_stop_{false};
  std::atomic<double> preempt_interval_us_{0};
};

}  // namespace mp
