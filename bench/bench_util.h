#pragma once

// Shared helpers for the table/figure reproduction binaries.  Each binary
// regenerates one piece of the paper's evaluation (section 6) and prints
// the measured series next to what the paper reports, so EXPERIMENTS.md can
// be regenerated by running everything under build/bench/.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "mp/sim_platform.h"
#include "threads/scheduler.h"
#include "threads/sync.h"
#include "workloads/runner.h"

namespace bench {

// Dumps the merged runtime metrics snapshot as one tagged JSON line so the
// micro/table binaries report event counts (lock spins, GC pauses, scheduler
// dispatches, ...) next to their timings.  Scrape with:
//   grep '^metrics_snapshot' | cut -d' ' -f3-
inline void dump_metrics_json(const char* binary) {
  std::printf("metrics_snapshot %s %s\n", binary,
              mp::metrics::registry().snapshot().to_json().c_str());
}

inline bool flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

inline void header(const char* id, const char* title, const char* paper) {
  std::printf("==============================================================================\n");
  std::printf("%s: %s\n", id, title);
  std::printf("paper: %s\n", paper);
  std::printf("==============================================================================\n");
}

inline void rule() {
  std::printf("------------------------------------------------------------------------------\n");
}

// Nearest-index percentile (0 <= q <= 1) of an ascending-sorted sample:
// the element at round(q * (n - 1)), or 0 for an empty sample.
template <typename T>
double percentile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return static_cast<double>(sorted[std::min(idx, sorted.size() - 1)]);
}

// Standard proc grids.
inline std::vector<int> sequent_grid(bool quick) {
  if (quick) return {1, 4, 8, 16};
  return {1, 2, 4, 6, 8, 10, 12, 14, 16};
}

// MPNJ_LOCK=queue|tas restricts the lock benches to that discipline's rows.
// It is only a row filter: the runtime's discipline is set_lock_discipline.
inline bool discipline_row_enabled(const char* name) {
  const char* env = std::getenv("MPNJ_LOCK");
  return env == nullptr || std::strcmp(env, name) == 0;
}

// One thread-level contended-mutex run on the simulator: `threads` client
// threads on `procs` procs (ratios of 16:1 and up are the KV-server regime
// the ROADMAP targets) hammer one mp::threads::Mutex under the given lock
// discipline.  Deterministic for a given configuration; the waiter-delay
// columns are exact virtual-time measurements, not samples.
struct LockContendOutcome {
  double total_us = 0;     // elapsed virtual time
  double ops_per_ms = 0;   // critical sections retired per virtual ms
  double max_wait_us = 0;  // worst single acquire-to-grant delay (fairness)
  double avg_wait_us = 0;
  double spin_us = 0;             // proc time burned spinning on MP locks
  std::uint64_t park_waits = 0;   // claims that parked instead of spinning
};

inline LockContendOutcome contended_mutex(mp::threads::LockDiscipline disc,
                                          int procs, int threads, int iters,
                                          double backoff_us = 5.0) {
  const mp::threads::LockDiscipline saved = mp::threads::lock_discipline();
  mp::threads::set_lock_discipline(disc);
  mp::metrics::registry().reset();

  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(procs);
  // The tas baseline gets the Anderson backoff the paper recommends.
  cfg.lock_backoff_base_us =
      disc == mp::threads::LockDiscipline::kTas ? backoff_us : 0;
  cfg.heap.nursery_bytes = 512 * 1024;
  mp::SimPlatform p(cfg);

  // Per-thread wait aggregates: the sim runs every proc on this OS thread,
  // so plain slots are race-free and the reduction is exact.
  std::vector<double> max_wait(static_cast<std::size_t>(threads), 0.0);
  std::vector<double> sum_wait(static_cast<std::size_t>(threads), 0.0);
  mp::threads::Scheduler::run(p, {}, [&](mp::threads::Scheduler& s) {
    mp::threads::Mutex m(s);
    mp::threads::CountdownLatch done(s, threads);
    for (int t = 0; t < threads; t++) {
      s.fork([&, t] {
        for (int i = 0; i < iters; i++) {
          const double t0 = p.now_us();
          m.lock();
          const double waited = p.now_us() - t0;
          auto& mw = max_wait[static_cast<std::size_t>(t)];
          mw = std::max(mw, waited);
          sum_wait[static_cast<std::size_t>(t)] += waited;
          p.work(30);  // short critical section
          m.unlock();
          p.work(10);
        }
        done.count_down();
      });
    }
    done.await();
  });

  LockContendOutcome out;
  out.total_us = p.report().total_us;
  out.spin_us = p.report().spin_us;
  const double ops = static_cast<double>(threads) * iters;
  out.ops_per_ms = out.total_us > 0 ? ops / (out.total_us / 1000.0) : 0;
  double sum = 0;
  for (int t = 0; t < threads; t++) {
    out.max_wait_us =
        std::max(out.max_wait_us, max_wait[static_cast<std::size_t>(t)]);
    sum += sum_wait[static_cast<std::size_t>(t)];
  }
  out.avg_wait_us = ops > 0 ? sum / ops : 0;
  out.park_waits = mp::metrics::registry().snapshot().counter(
      mp::metrics::Counter::kLockParkWaits);
  mp::threads::set_lock_discipline(saved);
  return out;
}

}  // namespace bench
