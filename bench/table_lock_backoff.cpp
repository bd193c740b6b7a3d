// Spin-discipline ablation (design choice from section 3.3: `lock` is in
// the interface "because some operating systems may provide a more
// efficient spin than [a naive retry loop] (e.g., by using backoff
// techniques [Anderson])").  Hammers one mutex from p procs with naive
// spinning vs exponential backoff and reports elapsed time and spin cost.

#include "bench_util.h"
#include "cont/cont.h"
#include "mp/sim_platform.h"

namespace {

struct Outcome {
  double total_us;
  double spin_us;
  std::uint64_t spin_iters;
};

Outcome contend(int procs, double backoff_us) {
  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(procs);
  cfg.lock_backoff_base_us = backoff_us;
  mp::SimPlatform p(cfg);
  constexpr int kIters = 300;
  p.run([&] {
    mp::MutexLock l = p.mutex_lock();
    std::atomic<int> done{0};
    for (int i = 1; i < procs; i++) {
      mp::cont::callcc<mp::cont::Unit>(
          [&](mp::cont::Cont<mp::cont::Unit> parent) -> mp::cont::Unit {
            p.acquire_proc(parent, 0);
            for (int n = 0; n < kIters; n++) {
              p.lock(l);
              p.work(30);  // short critical section
              p.unlock(l);
              p.work(10);
            }
            done.fetch_add(1);
            p.release_proc();
          });
    }
    for (int n = 0; n < kIters; n++) {
      p.lock(l);
      p.work(30);
      p.unlock(l);
      p.work(10);
    }
    while (done.load() < procs - 1) p.work(10);
  });
  const auto rep = p.report();
  return {rep.total_us, rep.spin_us, rep.lock_spin_iters};
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::flag(argc, argv, "--quick");
  bench::header("T7", "contended lock: naive spin vs exponential backoff",
                "backoff keeps spinning procs off the bus; naive spinning "
                "degrades as procs are added (Anderson 1990)");
  const std::vector<int> grid =
      quick ? std::vector<int>{2, 8, 16} : std::vector<int>{2, 4, 8, 12, 16};
  std::printf("%5s | %12s %12s | %12s %12s\n", "procs", "naive T(us)",
              "spin(us)", "backoff T(us)", "spin(us)");
  bench::rule();
  for (const int p : grid) {
    const Outcome naive = contend(p, 0);
    const Outcome backoff = contend(p, 5.0);
    std::printf("%5d | %12.0f %12.0f | %12.0f %12.0f\n", p, naive.total_us,
                naive.spin_us, backoff.total_us, backoff.spin_us);
  }
  bench::rule();
  std::printf("the critical path (serial critical sections) bounds both; the\n");
  std::printf("spin columns show the wasted processor time each discipline burns\n");

  // A-LOCK: thread-level mutexes once threads outnumber procs.  The proc
  // rows above spin at the platform layer; here 4 procs multiplex many
  // client threads contending on one mp::threads::Mutex, comparing the
  // paper's test-and-set + Anderson-backoff baseline (LockDiscipline::kTas)
  // against the parking MCS-style queue lock (default).  max/avg wait are
  // exact virtual-time acquire-to-grant delays — the fairness columns.
  std::printf("\n");
  bench::header("A-LOCK", "parking queue lock vs tas+backoff at high "
                "thread:proc ratios",
                "a spinning waiter burns a proc that could run the lock "
                "holder; queue claims park through the scheduler instead");
  constexpr int kProcs = 4;
  const std::vector<int> ratios =
      quick ? std::vector<int>{16} : std::vector<int>{16, 32, 64};
  const int iters = quick ? 20 : 40;
  std::printf("%7s | %5s | %10s %9s | %12s %12s | %6s\n", "ratio", "disc",
              "T(us)", "ops/ms", "max wait(us)", "avg wait(us)", "parks");
  bench::rule();
  for (const int ratio : ratios) {
    const int threads = kProcs * ratio;
    if (bench::discipline_row_enabled("tas")) {
      const auto tas = bench::contended_mutex(
          mp::threads::LockDiscipline::kTas, kProcs, threads, iters);
      std::printf("%4d:%-2d | %5s | %10.0f %9.1f | %12.0f %12.1f | %6llu\n",
                  threads, kProcs, "tas", tas.total_us, tas.ops_per_ms,
                  tas.max_wait_us, tas.avg_wait_us,
                  static_cast<unsigned long long>(tas.park_waits));
    }
    if (bench::discipline_row_enabled("queue")) {
      const auto q = bench::contended_mutex(
          mp::threads::LockDiscipline::kQueue, kProcs, threads, iters);
      std::printf("%4d:%-2d | %5s | %10.0f %9.1f | %12.0f %12.1f | %6llu\n",
                  threads, kProcs, "queue", q.total_us, q.ops_per_ms,
                  q.max_wait_us, q.avg_wait_us,
                  static_cast<unsigned long long>(q.park_waits));
    }
  }
  bench::rule();
  std::printf("FIFO direct handoff bounds max wait near avg wait; the tas\n");
  std::printf("baseline's guard spins and backoff delays stretch the tail\n");
  return 0;
}
