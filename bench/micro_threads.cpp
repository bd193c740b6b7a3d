// Native microbenchmarks for the thread package: fork/exit, yield, and the
// synthesized synchronization primitives.  `--soak=N` (default 1M) switches
// to the live-thread soak: park N threads on small pooled stack slots at
// once, assert the resident set stays inside a budget, then drain and time
// raw fork+join — the acceptance numbers for the pooled-stack work.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "cont/cont.h"
#include "mp/native_platform.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

namespace {

using mp::threads::CountdownLatch;
using mp::threads::Mutex;
using mp::threads::Scheduler;
using mp::threads::SchedulerConfig;
using mp::threads::ThreadState;

void BM_ForkJoin(benchmark::State& state) {
  mp::NativePlatformConfig cfg;
  cfg.max_procs = 1;
  mp::NativePlatform p(cfg);
  Scheduler::run(p, {}, [&](Scheduler& s) {
    for (auto _ : state) {
      CountdownLatch latch(s, 1);
      s.fork([&] { latch.count_down(); });
      latch.await();
    }
  });
}
BENCHMARK(BM_ForkJoin);

void BM_YieldSelf(benchmark::State& state) {
  mp::NativePlatformConfig cfg;
  cfg.max_procs = 1;
  mp::NativePlatform p(cfg);
  Scheduler::run(p, {}, [&](Scheduler& s) {
    for (auto _ : state) s.yield();
  });
}
BENCHMARK(BM_YieldSelf);

void BM_YieldPingPong(benchmark::State& state) {
  mp::NativePlatformConfig cfg;
  cfg.max_procs = 1;
  mp::NativePlatform p(cfg);
  // Outlives the run body: the partner still reads it when Scheduler::run
  // drains it after the body has returned.
  std::atomic<bool> stop{false};
  Scheduler::run(p, {}, [&](Scheduler& s) {
    s.fork([&] {
      while (!stop.load(std::memory_order_relaxed)) s.yield();
    });
    for (auto _ : state) s.yield();  // each yield switches to the partner
    stop.store(true);
  });
}
BENCHMARK(BM_YieldPingPong);

void BM_UserMutexUncontended(benchmark::State& state) {
  mp::NativePlatformConfig cfg;
  cfg.max_procs = 1;
  mp::NativePlatform p(cfg);
  Scheduler::run(p, {}, [&](Scheduler& s) {
    Mutex m(s);
    for (auto _ : state) {
      m.lock();
      m.unlock();
    }
  });
}
BENCHMARK(BM_UserMutexUncontended);

void BM_ForkManyThenDrain(benchmark::State& state) {
  mp::NativePlatformConfig cfg;
  cfg.max_procs = 2;
  mp::NativePlatform p(cfg);
  const int batch = static_cast<int>(state.range(0));
  Scheduler::run(p, {}, [&](Scheduler& s) {
    for (auto _ : state) {
      CountdownLatch latch(s, batch);
      for (int i = 0; i < batch; i++) {
        s.fork([&] { latch.count_down(); });
      }
      latch.await();
    }
  });
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ForkManyThenDrain)->Arg(16)->Arg(128);

// Resident set in bytes, from /proc/self/statm (Linux; 0 elsewhere).
std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long vsize = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &vsize, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

// The million-thread soak.  Every thread forks on a small pooled slot and
// parks; with all N live at once the resident set must stay inside the
// budget (MPNJ_SOAK_RSS_MB, default 12 GiB — ~8 GiB of 8 KiB stacks plus
// cores and scheduler state).  Guard pages are off so N slots cost N/8192
// VMAs instead of 2N (vm.max_map_count is 65530 on stock kernels); overflow
// attribution still works through the pool's committed-neighbour check.
int run_soak(long n) {
  auto& pool = mp::cont::SegmentPool::instance();
  mp::NativePlatformConfig cfg;
  cfg.max_procs = 2;
  cfg.stack = mp::cont::StackConfig{}
                  .with_small_stack_bytes(8 * 1024)
                  .with_guard_pages(0)
                  .with_slots_per_arena(8192)
                  .with_cache_slots_per_proc(64)
                  .with_global_free_target(1024);
  mp::NativePlatform p(cfg);

  long budget_mb = 12 * 1024;
  if (const char* e = std::getenv("MPNJ_SOAK_RSS_MB")) {
    budget_mb = std::atol(e);
  }

  bool ok = true;
  Scheduler::run(p, {}, [&](Scheduler& s) {
    std::vector<ThreadState> parked(static_cast<std::size_t>(n));
    std::atomic<std::size_t> idx{0};
    // Raw s.fork, not fork_thread: the MLthreads alert registry is an O(n)
    // list and would turn the soak quadratic.
    const auto opts = Scheduler::SpawnOpts{}
                          .with_stack(mp::cont::StackClass::kSmall)
                          .with_name("soak");
    CountdownLatch done(s, static_cast<int>(n));
    for (long i = 0; i < n; i++) {
      s.fork(
          [&] {
            s.suspend([&](ThreadState t) {
              parked[idx.fetch_add(1, std::memory_order_relaxed)] =
                  std::move(t);
            });
            done.count_down();
          },
          opts);
      // Yield periodically so children run and park instead of piling a
      // million entries onto the ready queue.
      if ((i & 15) == 15) s.yield();
    }
    while (idx.load(std::memory_order_acquire) <
           static_cast<std::size_t>(n)) {
      s.yield();
    }

    const std::size_t rss = resident_bytes();
    const std::size_t committed = pool.committed_bytes();
    std::printf(
        "soak: live=%ld rss_mb=%zu committed_stack_mb=%zu slots_created=%ld "
        "budget_mb=%ld\n",
        n, rss >> 20, committed >> 20, pool.total_created(), budget_mb);
    if (rss >> 20 > static_cast<std::size_t>(budget_mb)) {
      std::fprintf(stderr, "soak: FAIL resident set %zu MB over budget %ld MB\n",
                   rss >> 20, budget_mb);
      ok = false;
    }

    for (auto& t : parked) s.reschedule(std::move(t));
    parked.clear();
    done.await();

    // Drained: everything is back in the pool.  Trim, then time raw
    // fork+join through the (now hot) per-proc caches.
    pool.trim();
    std::printf("soak: after drain committed_stack_mb=%zu outstanding=%ld\n",
                pool.committed_bytes() >> 20, pool.outstanding());

    constexpr long kTimed = 50000;
    const auto t0 = std::chrono::steady_clock::now();
    for (long i = 0; i < kTimed; i++) {
      CountdownLatch latch(s, 1);
      s.fork([&] { latch.count_down(); }, opts);
      latch.await();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count() /
        static_cast<double>(kTimed);
    std::printf("soak: fork+join %.0f ns/op\n", ns);
  });
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--soak", 6) == 0) {
      long n = 1000000;
      if (argv[i][6] == '=') n = std::atol(argv[i] + 7);
      if (n <= 0) n = 1000000;
      return run_soak(n);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  bench::dump_metrics_json("micro_threads");
  return 0;
}
