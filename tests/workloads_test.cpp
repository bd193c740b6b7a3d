// Tests for the benchmark workloads: exact verification against sequential
// references on both backends, determinism of simulated runs, and the
// qualitative properties the Figure 6 reproduction depends on.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>

#include "metrics/metrics.h"
#include "mp/native_platform.h"
#include "mp/uni_platform.h"
#include "threads/scheduler.h"
#include "workloads/runner.h"
#include "workloads/workload.h"

namespace {

using mp::threads::Scheduler;
using mp::workloads::make_abisort;
using mp::workloads::make_allpairs;
using mp::workloads::make_mm;
using mp::workloads::make_mst;
using mp::workloads::make_seq;
using mp::workloads::make_simple;
using mp::workloads::Range;
using mp::workloads::run_sim;
using mp::workloads::self_relative_speedup;
using mp::workloads::SimRunSpec;
using mp::workloads::sweep_procs;
using mp::workloads::task_range;
using mp::workloads::Workload;

std::unique_ptr<Workload> make_small(const std::string& name, int procs) {
  if (name == "allpairs") return make_allpairs(20);
  if (name == "mst") return make_mst(40);
  if (name == "abisort") return make_abisort(8);
  if (name == "simple") return make_simple(24, 1);
  if (name == "mm") return make_mm(24);
  if (name == "seq") return make_seq(procs, 2000);
  return nullptr;
}

class WorkloadNames : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadNames, VerifiesOnSimulator) {
  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(4);
  cfg.heap.nursery_bytes = 256 * 1024;
  mp::SimPlatform platform(cfg);
  auto w = make_small(GetParam(), 4);
  ASSERT_NE(w, nullptr);
  mp::threads::SchedulerConfig sc;
  sc.preempt_interval_us = 5000;
  Scheduler::run(platform, std::move(sc),
                 [&](Scheduler& s) { w->run(s, 4); });
  EXPECT_TRUE(w->verify()) << w->name() << " produced a wrong result";
}

TEST_P(WorkloadNames, VerifiesOnNativeThreads) {
  mp::NativePlatformConfig cfg;
  cfg.max_procs = 3;
  cfg.heap.nursery_bytes = 256 * 1024;
  mp::NativePlatform platform(cfg);
  auto w = make_small(GetParam(), 3);
  ASSERT_NE(w, nullptr);
  Scheduler::run(platform, {}, [&](Scheduler& s) { w->run(s, 3); });
  EXPECT_TRUE(w->verify()) << w->name() << " produced a wrong result";
}

TEST_P(WorkloadNames, DeterministicVirtualTimeAndChecksum) {
  auto once = [&] {
    mp::SimPlatformConfig cfg;
    cfg.machine = mp::sim::sequent_s81(3);
    cfg.heap.nursery_bytes = 256 * 1024;
    mp::SimPlatform platform(cfg);
    auto w = make_small(GetParam(), 3);
    mp::threads::SchedulerConfig sc;
    sc.preempt_interval_us = 5000;
    Scheduler::run(platform, std::move(sc),
                   [&](Scheduler& s) { w->run(s, 3); });
    return std::pair<double, std::uint64_t>(platform.report().total_us,
                                            w->checksum());
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadNames,
                         ::testing::Values("allpairs", "mst", "abisort",
                                           "simple", "mm", "seq"),
                         [](const auto& info) { return info.param; });

// ---------- exact allocation totals ----------

// make_abisort(10) allocates the same objects under any schedule: per merge
// of n >= 32 elements one array of n/2 fields, and per merge of n >= 2
// elements n/4 + 1 two-field records.  Summed over the recursion that is
// 21058 objects and 73284 words (headers included); the top merge's array
// goes to the large-object space.  Native and uni bump inline, the
// simulator charges every allocation: all must count exactly these, and the
// metrics registry must hold the same totals once the platform is gone.
constexpr std::uint64_t kAbisort10Allocs = 21058;
constexpr std::uint64_t kAbisort10Words = 73284;

struct AllocTotals {
  std::uint64_t allocs = 0;
  std::uint64_t words = 0;
  std::uint64_t minor_gcs = 0;
};

AllocTotals abisort10_totals(
    const std::function<std::unique_ptr<mp::Platform>()>& make_platform) {
  using mp::metrics::Counter;
  const mp::metrics::Snapshot before = mp::metrics::registry().snapshot();
  AllocTotals t;
  {
    std::unique_ptr<mp::Platform> p = make_platform();
    auto w = make_abisort(10);
    const int procs = p->max_procs();
    Scheduler::run(*p, {}, [&](Scheduler& s) { w->run(s, procs); });
    EXPECT_TRUE(w->verify());
    const mp::gc::HeapStats hs = p->heap().stats();
    t.allocs = hs.allocations;
    t.words = hs.words_allocated;
    t.minor_gcs = hs.minor_gcs;
  }
  const mp::metrics::Snapshot after = mp::metrics::registry().snapshot();
  EXPECT_EQ(after.counter(Counter::kGcAllocs) - before.counter(Counter::kGcAllocs),
            t.allocs);
  EXPECT_EQ(after.counter(Counter::kGcAllocWords) -
                before.counter(Counter::kGcAllocWords),
            t.words);
  return t;
}

TEST(AllocTotals, AbisortCountsEveryAllocationOnEveryBackend) {
  // A 64 KiB nursery makes each run collect, so the counts reach the
  // registry both at collections and when the heap is destroyed.
  constexpr std::size_t kNursery = 64 * 1024;
  auto native = [&](int procs) {
    return [=] {
      mp::NativePlatformConfig cfg;
      cfg.max_procs = procs;
      cfg.heap.with_nursery_bytes(kNursery);
      return std::unique_ptr<mp::Platform>(
          std::make_unique<mp::NativePlatform>(cfg));
    };
  };
  const AllocTotals native1 = abisort10_totals(native(1));
  const AllocTotals native2 = abisort10_totals(native(2));
  const AllocTotals uni = abisort10_totals([&] {
    mp::UniPlatformConfig cfg;
    cfg.heap.with_nursery_bytes(kNursery);
    return std::unique_ptr<mp::Platform>(std::make_unique<mp::UniPlatform>(cfg));
  });
  const AllocTotals sim = abisort10_totals([&] {
    mp::SimPlatformConfig cfg;
    cfg.machine = mp::sim::sequent_s81(4);
    cfg.heap.with_nursery_bytes(kNursery);
    return std::unique_ptr<mp::Platform>(std::make_unique<mp::SimPlatform>(cfg));
  });
  for (const AllocTotals& t : {native1, native2, uni, sim}) {
    EXPECT_EQ(t.allocs, kAbisort10Allocs);
    EXPECT_EQ(t.words, kAbisort10Words);
    EXPECT_GT(t.minor_gcs, 0u);
  }
}

// ---------- task_range partition properties ----------

struct RangeCase {
  int n;
  int tasks;
};

class TaskRangeProperty : public ::testing::TestWithParam<RangeCase> {};

TEST_P(TaskRangeProperty, PartitionsExactlyAndEvenly) {
  const auto [n, tasks] = GetParam();
  std::set<int> covered;
  int min_size = n + 1, max_size = -1;
  for (int t = 0; t < tasks; t++) {
    const Range r = task_range(n, tasks, t);
    ASSERT_LE(r.lo, r.hi);
    for (int i = r.lo; i < r.hi; i++) {
      EXPECT_TRUE(covered.insert(i).second) << "index " << i << " covered twice";
    }
    min_size = std::min(min_size, r.hi - r.lo);
    max_size = std::max(max_size, r.hi - r.lo);
  }
  EXPECT_EQ(covered.size(), static_cast<std::size_t>(n));
  if (n > 0) {
    EXPECT_TRUE(covered.count(0) == 1 && covered.count(n - 1) == 1);
  }
  EXPECT_LE(max_size - min_size, 1) << "blocks must differ by at most 1";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TaskRangeProperty,
    ::testing::Values(RangeCase{0, 1}, RangeCase{1, 1}, RangeCase{5, 1},
                      RangeCase{5, 5}, RangeCase{5, 7}, RangeCase{100, 16},
                      RangeCase{75, 16}, RangeCase{4096, 9},
                      RangeCase{13, 4}));

// ---------- runner-level properties (small machine sweeps) ----------

TEST(Runner, SpeedupImprovesWithProcsOnParallelWork) {
  SimRunSpec spec;
  spec.workload = "mm";
  const auto sweep = sweep_procs(spec, {1, 4});
  EXPECT_TRUE(sweep[0].verified);
  EXPECT_TRUE(sweep[1].verified);
  const double s4 = self_relative_speedup(sweep, 1);
  EXPECT_GT(s4, 2.5);
  EXPECT_LT(s4, 4.2);
}

TEST(Runner, SeqSpeedupUsesCopiesScaling) {
  SimRunSpec spec;
  spec.workload = "seq";
  const auto sweep = sweep_procs(spec, {1, 4});
  // 4 procs do 4x the work of the 1-proc run; self-relative speedup ~4.
  const double s4 = self_relative_speedup(sweep, 1);
  EXPECT_GT(s4, 3.0);
  EXPECT_LE(s4, 4.2);
}

TEST(Runner, FreeGcAblationSpeedsUpGcBoundWorkload) {
  SimRunSpec spec;
  spec.workload = "abisort";
  spec.machine = mp::sim::sequent_s81(8);
  const auto with_gc = run_sim(spec);
  spec.free_gc = true;
  const auto without_gc = run_sim(spec);
  EXPECT_TRUE(with_gc.verified);
  EXPECT_TRUE(without_gc.verified);
  EXPECT_LT(without_gc.report.total_us, with_gc.report.total_us);
  EXPECT_EQ(without_gc.checksum, with_gc.checksum);
}

TEST(Runner, QueueDisciplinesAllVerify) {
  for (const char* q :
       {"distributed", "central-fifo", "central-lifo", "central-random"}) {
    SimRunSpec spec;
    spec.workload = "abisort";
    spec.machine = mp::sim::sequent_s81(4);
    spec.queue = q;
    const auto r = run_sim(spec);
    EXPECT_TRUE(r.verified) << "queue " << q;
  }
}

TEST(Runner, UnknownWorkloadPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SimRunSpec spec;
        spec.workload = "nonesuch";
        run_sim(spec);
      },
      "unknown workload");
}

TEST(Runner, UnknownQueuePanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SimRunSpec spec;
        spec.queue = "nonesuch";
        run_sim(spec);
      },
      "unknown queue");
}

TEST(Runner, SimpleHasLimitedParallelismIdleRates) {
  SimRunSpec spec;
  spec.workload = "simple";
  spec.machine = mp::sim::sequent_s81(12);
  const auto r = run_sim(spec);
  EXPECT_TRUE(r.verified);
  // The paper reports >50% average idle for simple at 10+ procs.
  EXPECT_GT(r.report.idle_fraction(), 0.5);
}

TEST(Runner, MmIsBusBoundAtSixteenProcs) {
  SimRunSpec spec;
  spec.workload = "mm";
  spec.machine = mp::sim::sequent_s81(16);
  const auto r = run_sim(spec);
  EXPECT_TRUE(r.verified);
  // Paper: ~20 MB/s of traffic against a ~25 MB/s bus.
  EXPECT_GT(r.report.bus_mb_per_s(), 14.0);
  EXPECT_LT(r.report.bus_mb_per_s(), 25.0);
  EXPECT_GT(r.report.idle_fraction() + r.report.bus_utilization(), 0.5);
}

}  // namespace
