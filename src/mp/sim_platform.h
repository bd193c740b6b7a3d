#pragma once

#include <memory>
#include <vector>

#include "mp/platform.h"
#include "sim/engine.h"
#include "sim/machine.h"

namespace mp {

// Aggregate measurements of one simulated run — everything the benchmark
// harness needs to reproduce the paper's Figure 6 curves and in-text tables
// (idle rates, lock contention, bus traffic, GC share).
struct SimReport {
  double total_us = 0;       // elapsed virtual time (max over proc clocks)
  double busy_us = 0;        // summed over procs
  double spin_us = 0;        // subset of busy: spinning on MP locks
  double idle_us = 0;        // parked with no work (incl. trailing idle)
  double gc_wait_us = 0;     // parked at clean points during collections
  double gc_us = 0;          // sequential collection time (collector procs)
  double bus_wait_us = 0;    // stalled waiting for the shared bus
  std::uint64_t lock_acquires = 0;
  std::uint64_t lock_spin_iters = 0;
  sim::BusStats bus;
  gc::HeapStats heap;
  int procs = 0;

  double idle_fraction() const {
    const double denom = total_us * procs;
    return denom > 0 ? (idle_us + gc_wait_us) / denom : 0.0;
  }
  double bus_utilization() const {
    return total_us > 0 ? bus.busy_us / total_us : 0.0;
  }
  double bus_mb_per_s() const {
    return total_us > 0 ? static_cast<double>(bus.bytes) / total_us : 0.0;
  }
};

struct SimPlatformConfig {
  sim::MachineModel machine;
  gc::HeapConfig heap;
  cont::StackConfig stack;
  double preempt_interval_us = 0;  // 0 = no preemption
  // Exponential backoff between spin retries (Anderson); 0 = naive spin.
  double lock_backoff_base_us = 0;
};

// MP on the simulated multiprocessor: each proc is a virtual processor of
// the engine, lock and allocation costs follow the machine model, and runs
// are bit-for-bit deterministic for a given config.
class SimPlatform final : public Platform {
 public:
  explicit SimPlatform(SimPlatformConfig config);
  ~SimPlatform() override;

  // ---- Platform ----
  int max_procs() const override;
  int active_procs() const override;
  MutexLock mutex_lock() override;
  bool try_lock(const MutexLock& l) override;
  void lock(const MutexLock& l) override;
  void unlock(const MutexLock& l) override;
  double now_us() override;
  void begin_idle_poll() override;
  void end_idle_poll() override;
  void idle_wait(double max_us) override;
  void park_proc(double max_us) override;
  void unpark_proc(int proc_id) override;
  void charge_cas() override;
  void charge_lock_handoff() override;
  arch::Rng& rng() override;
  void set_preempt_interval(double us) override;

  // ---- gc::Rendezvous ----
  // The simulation runs every proc on one kernel thread, so parked fibers
  // cannot actually execute the worker fn: the collecting proc is the only
  // real worker and parallel collection is modeled in charge_gc instead.
  void stop_world(gc::WorkerFn work) override;
  void resume_world() override;
  void rendezvous_and_work(const gc::WorkerFn& work) override;
  int cur_proc() override;
  int nproc() override;
  cont::ExecContext* proc_exec(int id) override;

  // ---- gc::Accounting ----
  void charge_gc(std::uint64_t words_copied) override;
  void charge_alloc(std::uint64_t words) override;
  void charge_card_scan(std::uint64_t cards, std::uint64_t words) override;
  void charge_los_alloc(std::uint64_t pages) override;
  void charge_los_sweep(std::uint64_t pages) override;

  // ---- simulation access ----
  sim::Engine& engine() { return *engine_; }
  const sim::MachineModel& machine() const { return cfg_.machine; }
  SimReport report() const;

 protected:
  void charge_work(double instructions) override;
  void charged_safe_point() override;
  void for_each_proc(const std::function<void(ProcRec&)>& fn) override;
  bool backend_acquire(cont::ContRef k, Datum datum) override;
  [[noreturn]] void backend_release() override;
  void backend_run(cont::ContRef root, Datum root_datum) override;

 private:
  struct SimProc : ProcRec {
    cont::ContRef mailbox;
    bool has_work = false;
    bool idle_polling = false;
    double idle_poll_start = 0;
    double idle_poll_us = 0;  // accounted separately in the report
    // Posted unpark not yet consumed by a park (all sim procs share one
    // OS thread, so a plain bool is race-free and deterministic).
    bool unpark_pending = false;
  };

  void proc_main(int id);
  void on_timer(int id);
  bool raw_try_lock(const MutexLock& l);

  SimPlatformConfig cfg_;
  std::unique_ptr<sim::Engine> engine_;
  std::vector<std::unique_ptr<SimProc>> procs_;
};

}  // namespace mp
