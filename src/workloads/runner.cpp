#include "workloads/runner.h"

#include "arch/panic.h"
#include "threads/scheduler.h"

namespace mp::workloads {

std::unique_ptr<threads::ReadyQueue> make_queue(const std::string& name) {
  using threads::CentralQueue;
  using threads::WorkStealingQueue;
  if (name == "ws") return std::make_unique<WorkStealingQueue>();
  if (name == "ws-lifo") {
    return std::make_unique<WorkStealingQueue>(
        WorkStealingQueue::OwnerOrder::kLifo);
  }
  if (name == "distributed") return std::make_unique<threads::DistributedQueue>();
  if (name == "central-fifo") {
    return std::make_unique<CentralQueue>(CentralQueue::Order::kFifo);
  }
  if (name == "central-lifo") {
    return std::make_unique<CentralQueue>(CentralQueue::Order::kLifo);
  }
  if (name == "central-random") {
    return std::make_unique<CentralQueue>(CentralQueue::Order::kRandom);
  }
  arch::panic("unknown queue discipline '%s'", name.c_str());
}

SimRunResult run_sim(const SimRunSpec& spec) {
  SimPlatformConfig cfg;
  cfg.machine = spec.machine;
  if (spec.free_gc) {
    cfg.machine.gc_instr_per_word = 0;
    cfg.machine.gc_bus_bytes_per_word = 0;
    cfg.machine.gc_sync_us = 0;
  }
  cfg.heap.nursery_bytes = spec.nursery_bytes;
  cfg.heap.old_bytes = spec.old_bytes;
  cfg.heap.parallel_gc = spec.parallel_gc;
  cfg.lock_backoff_base_us = spec.lock_backoff_us;
  SimPlatform platform(cfg);

  auto workload = make_workload(spec.workload, spec.machine.num_procs);
  const int tasks = spec.tasks > 0 ? spec.tasks : spec.machine.num_procs;

  threads::SchedulerConfig sched_cfg;
  sched_cfg.queue = make_queue(spec.queue);
  sched_cfg.hold_procs = spec.hold_procs;
  sched_cfg.preempt_interval_us = spec.preempt_interval_us;

  threads::Scheduler::run(platform, std::move(sched_cfg),
                          [&](threads::Scheduler& sched) {
                            workload->run(sched, tasks);
                          });

  SimRunResult result;
  result.workload = spec.workload;
  result.procs = spec.machine.num_procs;
  result.verified = workload->verify();
  result.checksum = workload->checksum();
  result.report = platform.report();
  return result;
}

std::vector<SimRunResult> sweep_procs(SimRunSpec spec,
                                      const std::vector<int>& proc_counts) {
  std::vector<SimRunResult> out;
  out.reserve(proc_counts.size());
  for (const int p : proc_counts) {
    spec.machine.num_procs = p;
    out.push_back(run_sim(spec));
  }
  return out;
}

double self_relative_speedup(const std::vector<SimRunResult>& sweep,
                             std::size_t i) {
  const double t1 = sweep.front().report.total_us;
  const double tp = sweep[i].report.total_us;
  if (tp <= 0) return 0;
  double s = t1 / tp;
  if (sweep[i].workload == "seq") s *= sweep[i].procs;
  return s;
}

}  // namespace mp::workloads
