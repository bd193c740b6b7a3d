// Cross-configuration property tests: every workload must verify exactly
// under any machine size, queue discipline, preemption quantum, heap
// geometry, scheduling granularity and backend — and the simulator's
// accounting must always balance.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "mp/native_platform.h"
#include "mp/uni_platform.h"
#include "threads/scheduler.h"
#include "workloads/runner.h"
#include "workloads/workload.h"

namespace {

using mp::threads::Scheduler;
using mp::workloads::make_workload;
using mp::workloads::run_sim;
using mp::workloads::SimRunSpec;
using mp::workloads::Workload;

std::unique_ptr<Workload> small_workload(const std::string& name, int procs) {
  using namespace mp::workloads;
  if (name == "allpairs") return make_allpairs(18);
  if (name == "mst") return make_mst(36);
  if (name == "abisort") return make_abisort(7);
  if (name == "simple") return make_simple(22, 1);
  if (name == "mm") return make_mm(20);
  if (name == "seq") return make_seq(procs, 1500);
  return nullptr;
}

// ---------- workload × machine-size sweep ----------

struct SweepCase {
  std::string workload;
  int procs;
};

// Without a printer gtest dumps the raw bytes, and the std::string's data
// pointer (a heap address, randomised per run) would land in the test names
// that gtest_discover_tests records.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.workload << " on " << c.procs << " procs";
}

class WorkloadSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(WorkloadSweep, VerifiesAndBalancesAccounting) {
  const auto& [name, procs] = GetParam();
  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(procs);
  cfg.heap.nursery_bytes = 256 * 1024;
  mp::SimPlatform platform(cfg);
  auto w = small_workload(name, procs);
  ASSERT_NE(w, nullptr);
  mp::threads::SchedulerConfig sc;
  sc.preempt_interval_us = 10000;
  Scheduler::run(platform, std::move(sc),
                 [&](Scheduler& s) { w->run(s, procs); });
  EXPECT_TRUE(w->verify()) << name << " wrong at p=" << procs;

  // Accounting property: each proc's time decomposes into busy + idle +
  // gc-wait, summing (approximately: rounding at run boundaries) to
  // procs x elapsed.
  const auto r = platform.report();
  const double accounted = r.busy_us + r.idle_us + r.gc_wait_us;
  const double wall = r.total_us * procs;
  EXPECT_GT(r.total_us, 0.0);
  EXPECT_LE(accounted, wall * 1.05);
  EXPECT_GE(accounted, wall * 0.90)
      << "unaccounted processor time at p=" << procs;
  // Spin happens while executing or while idle-polling the run queues
  // (where the report reclassifies the time as idle); GC time is a subset
  // of some proc's execution.
  EXPECT_LE(r.spin_us, r.busy_us + r.idle_us);
  EXPECT_LE(r.gc_us, r.busy_us);
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (const char* w :
       {"allpairs", "mst", "abisort", "simple", "mm", "seq"}) {
    for (const int p : {1, 2, 3, 5, 8, 16}) {
      cases.push_back({w, p});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, WorkloadSweep,
                         ::testing::ValuesIn(sweep_cases()),
                         [](const auto& info) {
                           return info.param.workload + "p" +
                                  std::to_string(info.param.procs);
                         });

// ---------- checksum equality across backends ----------

class BackendChecksum : public ::testing::TestWithParam<std::string> {};

TEST_P(BackendChecksum, SameResultOnSimNativeAndUni) {
  const std::string name = GetParam();

  std::uint64_t sim_sum = 0, native_sum = 0, uni_sum = 0;
  {
    mp::SimPlatformConfig cfg;
    cfg.machine = mp::sim::sequent_s81(4);
    mp::SimPlatform p(cfg);
    auto w = small_workload(name, 4);
    Scheduler::run(p, {}, [&](Scheduler& s) { w->run(s, 4); });
    ASSERT_TRUE(w->verify());
    sim_sum = w->checksum();
  }
  {
    mp::NativePlatformConfig cfg;
    cfg.max_procs = 3;
    mp::NativePlatform p(cfg);
    auto w = small_workload(name, 3);
    Scheduler::run(p, {}, [&](Scheduler& s) { w->run(s, 3); });
    ASSERT_TRUE(w->verify());
    native_sum = w->checksum();
  }
  {
    mp::UniPlatform p;
    auto w = small_workload(name, 1);
    Scheduler::run(p, {}, [&](Scheduler& s) { w->run(s, 1); });
    ASSERT_TRUE(w->verify());
    uni_sum = w->checksum();
  }
  // The computation is schedule-independent: any backend, any machine
  // size, same answer.  (seq's checksum scales with the copy count, so it
  // is excluded from the cross-size comparison.)
  if (name != "seq") {
    EXPECT_EQ(sim_sum, native_sum);
    EXPECT_EQ(sim_sum, uni_sum);
  }
}

INSTANTIATE_TEST_SUITE_P(All, BackendChecksum,
                         ::testing::Values("allpairs", "mst", "abisort",
                                           "simple", "mm"),
                         [](const auto& info) { return info.param; });

// ---------- preemption quantum sweep ----------

class PreemptSweep : public ::testing::TestWithParam<double> {};

TEST_P(PreemptSweep, AbisortVerifiesUnderAnyQuantum) {
  SimRunSpec spec;
  spec.workload = "abisort";
  spec.machine = mp::sim::sequent_s81(6);
  spec.preempt_interval_us = GetParam();
  const auto r = run_sim(spec);
  EXPECT_TRUE(r.verified) << "quantum " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Quanta, PreemptSweep,
                         ::testing::Values(0.0, 500.0, 2000.0, 20000.0,
                                           200000.0));

// ---------- heap geometry sweep ----------

struct HeapCase {
  std::size_t nursery;
  std::size_t chunks_per_proc;
};

class HeapGeometry : public ::testing::TestWithParam<HeapCase> {};

TEST_P(HeapGeometry, AllpairsVerifiesAndHeapStaysConsistent) {
  const auto& [nursery, chunks] = GetParam();
  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(4);
  cfg.heap.nursery_bytes = nursery;
  cfg.heap.chunks_per_proc = chunks;
  mp::SimPlatform platform(cfg);
  auto w = small_workload("allpairs", 4);
  Scheduler::run(platform, {}, [&](Scheduler& s) { w->run(s, 4); });
  EXPECT_TRUE(w->verify());
  std::string err;
  EXPECT_TRUE(platform.heap().verify(&err)) << err;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, HeapGeometry,
    ::testing::Values(HeapCase{64u << 10, 1}, HeapCase{64u << 10, 8},
                      HeapCase{256u << 10, 2}, HeapCase{1u << 20, 4},
                      HeapCase{4u << 20, 16}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.nursery / 1024) + "k_c" +
             std::to_string(info.param.chunks_per_proc);
    });

// ---------- scheduling granularity sweep ----------

class GranularitySweep : public ::testing::TestWithParam<double> {};

TEST_P(GranularitySweep, ResultsExactUnderCoarserInterleaving) {
  SimRunSpec spec;
  spec.workload = "mm";
  spec.machine = mp::sim::sequent_s81(8);
  spec.machine.granularity_us = GetParam();
  const auto r = run_sim(spec);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.report.total_us, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Grains, GranularitySweep,
                         ::testing::Values(0.0, 1.0, 10.0, 100.0));

// ---------- no-speedup-catastrophe property ----------

TEST(SpeedupSanity, AddingProcsNeverCollapsesThroughput) {
  for (const char* w : {"mm", "abisort", "simple", "mst", "allpairs"}) {
    SimRunSpec spec;
    spec.workload = w;
    const auto sweep = mp::workloads::sweep_procs(spec, {1, 2, 8, 16});
    const double t1 = sweep[0].report.total_us;
    for (std::size_t i = 1; i < sweep.size(); i++) {
      EXPECT_TRUE(sweep[i].verified);
      EXPECT_LT(sweep[i].report.total_us, t1 * 1.15)
          << w << " collapsed at p=" << sweep[i].procs;
    }
  }
}

}  // namespace
