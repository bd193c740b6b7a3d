// abisort: the paper's Figure 6 bitonic sort (workloads::make_abisort) on
// two native procs, sorted over and over in one process after a warm-up
// sort.  No I/O, no channels, no kv: the time goes to fork/join and to the
// collector (minor collections of per-merge garbage), so a GC or fork path
// change should move this workload and no other.

#include <algorithm>
#include <memory>
#include <vector>

#include "arch/rng.h"
#include "common.h"
#include "mp/native_platform.h"
#include "perfbench.h"
#include "threads/scheduler.h"
#include "workloads/workload.h"

namespace perfbench {

namespace {

using mp::threads::Scheduler;

constexpr int kLog2N = 15;
constexpr int kProcs = 2;

// The sorted output's digest, computed independently of the workload: the
// same generator make_abisort seeds (arch::Rng, 30-bit keys), then std::sort
// and the FNV-1a fold Workload::checksum uses.
std::uint64_t reference_digest(std::uint64_t seed) {
  mp::arch::Rng rng(seed);
  std::vector<int> v(std::size_t{1} << kLog2N);
  for (int& x : v) x = static_cast<int>(rng.below(1u << 30));
  std::sort(v.begin(), v.end());
  std::uint64_t acc = 1469598103934665603ull;
  for (const int x : v) acc = (acc ^ static_cast<std::uint64_t>(x)) * 1099511628211ull;
  return acc;
}

struct Phase {
  std::vector<double> wall_us;  // per sort
  std::vector<double> cpu_us;   // per sort, whole process
  double wall_s = 0;
  Delta delta;
};

}  // namespace

void run_abisort(const Options& o, Result& r) {
  std::vector<double> setup_s;
  Phase untraced;
  Phase traced;
  std::uint64_t bad = 0;
  std::uint64_t sorts = 0;
  const int setups = o.trace ? 1 : kSetups;

  for (int rep = 0; rep < setups; rep++) {
    const bool measure = rep == setups - 1;
    const double t0 = now_s();
    const std::uint64_t want = reference_digest(o.seed);
    auto work = mp::workloads::make_abisort(kLog2N, o.seed);
    mp::NativePlatformConfig cfg;
    cfg.max_procs = kProcs;
    mp::NativePlatform platform(cfg);
    Scheduler::run(platform, {}, [&](Scheduler& sched) {
      setup_s.push_back(now_s() - t0);
      if (!measure) return;

      CpuRotation rotation(kProcs);  // both procs, a new pair of vCPUs a sort
      // One sort, checked twice: against the workload's own std::sort
      // reference and against the digest computed above.
      auto sort_once = [&](Phase* ph) {
        rotation.step(sorts);
        const double w0 = now_s();
        const double c0 = process_cpu_s();
        work->run(sched, kProcs);
        const double c1 = process_cpu_s();
        const double w1 = now_s();
        std::uint64_t got = work->checksum();
        if (o.corrupt && sorts == 1) got ^= 1;
        const bool ok = work->verify() && got == want;
        sorts++;
        if (!ok) bad++;
        g_done.fetch_add(1);
        if (!ok) g_failed.fetch_add(1);
        if (ph != nullptr) {
          ph->wall_us.push_back((w1 - w0) * 1e6);
          ph->cpu_us.push_back((c1 - c0) * 1e6);
        }
      };
      auto run_phase = [&](Phase& ph, double seconds) {
        ph.delta.before = mp::metrics::registry().snapshot();
        const double start = now_s();
        do {
          sort_once(&ph);
        } while (now_s() - start < seconds);
        ph.wall_s = now_s() - start;
        ph.delta.after = mp::metrics::registry().snapshot();
      };

      sort_once(nullptr);  // warm-up: heap regions, stack pool, LOS pages
      if (!o.trace) {
        run_phase(untraced, o.seconds);
      } else {
        mp::metrics::registry().set_enabled(false);
        run_phase(untraced, o.seconds / 2);
        mp::metrics::registry().set_enabled(true);
        run_phase(traced, o.seconds / 2);
      }
    });
  }

  r.attempted = sorts;
  r.failed = bad;
  if (bad > 0) r.fail(std::to_string(bad) + " sorts differ from std::sort");

  const Phase& u = untraced;
  const double n = static_cast<double>(u.wall_us.size());
  const Tail tail = tail_percentile(u.wall_us, {99, 90, 50});
  r.note("sorts", std::to_string(u.wall_us.size()));
  r.note("sort_ms_tail", tail_json({tail.pct, tail.value / 1e3, tail.samples}));
  if (!o.trace) {
    r.add("setup_s", median(setup_s), "s");
    r.add("ops_per_s", n / u.wall_s, "1/s");
    r.add("p50_us", median(u.wall_us), "us");
    r.add("tail_us", tail.value, "us");
    r.add("cpu_us_per_op", median(u.cpu_us), "us");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  const Delta& d = traced.delta;
  const double runs = std::max<double>(1, static_cast<double>(traced.wall_us.size()));
  auto per_run = [&](const char* name, Counter c) {
    r.add(name, static_cast<double>(d.count(c)) / runs, "count/run");
  };
  per_run("gc.minor_collections", Counter::kGcMinor);
  per_run("gc.major_collections", Counter::kGcMajor);
  r.add("gc.pause_share",
        static_cast<double>(d.count(Counter::kGcPauseUsTotal)) /
            (traced.wall_s * 1e6),
        "share");
  r.add("gc.minor_pause_us_p50",
        histo_quantile(d.histo(Histo::kGcMinorPauseUs), 0.5), "us");
  r.add("gc.minor_pause_us_p99",
        histo_quantile(d.histo(Histo::kGcMinorPauseUs), 0.99), "us");
  per_run("gc.words_copied_per_run", Counter::kGcWordsCopied);
  const auto par = d.count(Counter::kGcParCollections);
  r.add("gc.par_workers_per_collection",
        par > 0 ? static_cast<double>(d.count(Counter::kGcParWorkers)) /
                      static_cast<double>(par)
                : 0,
        "count");
  per_run("gc.chunk_steals_per_run", Counter::kGcChunkSteals);
  per_run("threads.forks_per_run", Counter::kSchedForks);
  per_run("threads.steals_per_run", Counter::kSchedStealCommits);
  per_run("threads.proc_parks_per_run", Counter::kSchedParkWaits);
  per_run("threads.lock_parks_per_run", Counter::kLockParkWaits);
  add_overhead(median(untraced.cpu_us), median(traced.cpu_us), r);
}

}  // namespace perfbench
