#pragma once

#include <string>
#include <vector>

#include "mp/sim_platform.h"
#include "workloads/workload.h"

// Harness that runs a workload on the simulated multiprocessor under the
// paper's evaluated thread-package configuration (distributed run queue,
// signal-based preemption, procs acquired at startup and held) and returns
// the measurements the benchmark binaries print.

namespace mp::workloads {

struct SimRunSpec {
  std::string workload = "mm";
  sim::MachineModel machine = sim::sequent_s81(16);
  std::size_t nursery_bytes = 2u << 20;
  std::size_t old_bytes = 64u << 20;  // must be a power of two (HeapConfig)
  // Model every stopped proc as a parallel-GC copying worker (the
  // gc::ParallelCopier protocol); false reproduces the paper's sequential
  // collector.
  bool parallel_gc = false;
  // Signal-based preemption quantum (a 1990s Unix scheduling tick).
  double preempt_interval_us = 20000;
  bool hold_procs = true;
  // Queue discipline (the paper-faithful harness default is the evaluated
  // distributed lock-per-proc configuration; the scheduler's own default is
  // "ws").  Accepted: ws|ws-lifo|distributed|central-fifo|central-lifo|
  // central-random.
  std::string queue = "distributed";
  double lock_backoff_us = 0;
  // T5 ablation: make collections free of virtual time ("if garbage
  // collection time were omitted", section 6).
  bool free_gc = false;
  int tasks = 0;  // parallelism hint; 0 = one task per proc
};

struct SimRunResult {
  std::string workload;
  int procs = 0;
  bool verified = false;
  std::uint64_t checksum = 0;
  SimReport report;
};

std::unique_ptr<threads::ReadyQueue> make_queue(const std::string& name);

SimRunResult run_sim(const SimRunSpec& spec);

// The same spec swept over proc counts (machine.num_procs is replaced).
std::vector<SimRunResult> sweep_procs(SimRunSpec spec,
                                      const std::vector<int>& proc_counts);

// Self-relative speedup of entry `i` of a sweep whose first entry is the
// 1-proc run.  For `seq` the p-proc run does p copies of the 1-proc work,
// so speedup is p * T(1) / T(p).
double self_relative_speedup(const std::vector<SimRunResult>& sweep,
                             std::size_t i);

}  // namespace mp::workloads
