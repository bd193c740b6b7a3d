// Tests for the latency-grade GC layers: card-marking remembered set vs the
// paper's store-list baseline (observable equivalence), per-proc promotion
// under real parallelism, the large-object space on all three platform
// backends (born-clean allocation, the dirty list, the coalescing sweep),
// the proc id the allocation fast path reads, simulator bit-reproducibility
// with the new cost knobs, and the configuration death checks.

#include <gtest/gtest.h>

#include <sys/mman.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cont/cont.h"
#include "cont/exec.h"
#include "gc/heap.h"
#include "gc/los.h"
#include "gc/roots.h"
#include "gc/value.h"
#include "mp/native_platform.h"
#include "mp/platform.h"
#include "mp/sim_platform.h"
#include "mp/uni_platform.h"
#include "sim/machine.h"

namespace {

using mp::cont::callcc;
using mp::cont::Cont;
using mp::cont::Unit;
using mp::gc::GlobalRoot;
using mp::gc::Heap;
using mp::gc::HeapConfig;
using mp::gc::RemsetMode;
using mp::gc::Roots;
using mp::gc::Value;

// Every test that does not pin a remset runs on this one, and again on the
// paper's store list (the StoreList instantiations).
const RemsetMode kDefaultRemset = HeapConfig{}.remset;

// Single-proc harness (same shape as gc_test): a ManualProc execution
// context plus collector hooks that additionally record the new latency-GC
// accounting charges.
class LatencyHooks : public mp::gc::Rendezvous, public mp::gc::Accounting {
 public:
  void stop_world(mp::gc::WorkerFn) override {}
  void resume_world() override {}
  void rendezvous_and_work(const mp::gc::WorkerFn&) override {}
  int cur_proc() override { return 0; }
  int nproc() override { return 1; }
  mp::cont::ExecContext* proc_exec(int) override { return exec; }

  void charge_gc(std::uint64_t) override {}
  void charge_alloc(std::uint64_t) override {}
  void charge_card_scan(std::uint64_t cards, std::uint64_t words) override {
    cards_charged += cards;
    card_words_charged += words;
  }
  void charge_los_alloc(std::uint64_t pages) override {
    los_pages_charged += pages;
  }
  void charge_los_sweep(std::uint64_t pages) override {
    los_sweep_pages_charged += pages;
  }

  mp::cont::ExecContext* exec = nullptr;
  std::uint64_t cards_charged = 0;
  std::uint64_t card_words_charged = 0;
  std::uint64_t los_pages_charged = 0;
  std::uint64_t los_sweep_pages_charged = 0;
};

class GcLatencyTest : public ::testing::Test {
 protected:
  GcLatencyTest() {
    exec_.idle_ctx = &idle_ctx_;
    mp::cont::set_current_exec(&exec_);
    hooks_.exec = &exec_;
  }
  ~GcLatencyTest() override { mp::cont::set_current_exec(nullptr); }

  Heap& make_heap_cfg(const HeapConfig& cfg) {
    heap_ = std::make_unique<Heap>(cfg, hooks_, hooks_);
    return *heap_;
  }

  void on_proc(std::function<void()> f) {
    mp::cont::run_from_idle(mp::cont::make_entry(std::move(f)), exec_);
  }

  // The bodies of the tests that leave the remset at its default:
  // GcLatencyTest runs each on the default remset, GcLatencyRemsetTest on
  // the remset its parameter names.
  void los_young_init_fields_survive_minor();
  void los_born_clean_unless_young();
  void los_sweep_frees_unreachable_runs();
  void los_pressure_escalates_to_major();
  void pause_log_records_exact_samples();

  // The configuration those bodies start from.
  HeapConfig base_;
  mp::cont::ExecContext exec_;
  mp::arch::Context idle_ctx_;
  LatencyHooks hooks_;
  std::unique_ptr<Heap> heap_;
};

// The tests above that leave the remset at its default, again with
// HeapConfig::remset set to the parameter; instantiated with the paper's
// store list, the one non-default value.
class GcLatencyRemsetTest : public GcLatencyTest,
                            public ::testing::WithParamInterface<RemsetMode> {
 protected:
  GcLatencyRemsetTest() { base_.remset = GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(StoreList, GcLatencyRemsetTest,
                         ::testing::Values(RemsetMode::kList));

// The store-heavy workload both barrier modes must agree on: an old-gen
// array table takes hot-skewed stores of freshly allocated records while
// churn forces minors at deterministic points.  Returns a checksum over the
// final table contents.  The table is sized below los_threshold_bytes so it
// lives in the old generation proper, where the two remsets differ.
std::uint64_t run_barrier_workload(Heap& h) {
  constexpr std::size_t kSlots = 256;
  GlobalRoot table(h, Value::nil());
  {
    Roots<1> r;
    r[0] = h.alloc_array(kSlots, Value::from_int(0));
    table.set(r[0]);
  }
  h.collect_now();  // promote the table so stores hit the old generation
  EXPECT_TRUE(h.in_old_space(table.get()));

  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int i = 0; i < 20000; i++) {
    // Hot-skewed slot choice: half the stores land in 16 slots.
    const std::uint64_t roll = next();
    const std::size_t slot =
        (roll & 1u) ? (roll >> 1) % 16 : (roll >> 1) % kSlots;
    Roots<1> r;
    r[0] = h.alloc_record({Value::from_int(i), Value::from_int(3 * i)});
    h.store(table.get(), slot, r[0]);
    if ((roll & 0xFu) == 0) {
      // Churn garbage so minors fire while the table carries young pointers.
      for (int n = 0; n < 32; n++) h.alloc_record({Value::from_int(n)});
    }
  }
  h.collect_now();

  std::uint64_t sum = 0;
  const Value t = table.get();
  for (std::size_t s = 0; s < kSlots; s++) {
    const Value v = t.field(s);
    if (!v.is_ptr()) continue;  // never-written slots still hold int 0
    sum = sum * 1099511628211ull +
          static_cast<std::uint64_t>(v.field(0).as_int() * 7 +
                                     v.field(1).as_int());
  }
  return sum;
}

TEST_F(GcLatencyTest, CardAndListBarriersProduceIdenticalHeaps) {
  std::uint64_t card_sum = 0;
  std::uint64_t list_sum = 0;
  std::uint64_t cards_dirtied = 0;
  std::uint64_t list_stores = 0;
  {
    Heap& h = make_heap_cfg(HeapConfig{}
                                .with_nursery_bytes(64 * 1024)
                                .with_old_bytes(4u << 20)
                                .with_remset(RemsetMode::kCard));
    on_proc([&] { card_sum = run_barrier_workload(h); });
    cards_dirtied = h.stats().cards_dirtied;
    EXPECT_GT(h.stats().cards_scanned, 0u);
    std::string err;
    EXPECT_TRUE(h.verify(&err)) << err;
  }
  {
    Heap& h = make_heap_cfg(HeapConfig{}
                                .with_nursery_bytes(64 * 1024)
                                .with_old_bytes(4u << 20)
                                .with_remset(RemsetMode::kList));
    on_proc([&] { list_sum = run_barrier_workload(h); });
    list_stores = h.stats().stores_recorded;
    EXPECT_EQ(h.stats().cards_dirtied, 0u);
    std::string err;
    EXPECT_TRUE(h.verify(&err)) << err;
  }
  EXPECT_EQ(card_sum, list_sum)
      << "card and store-list remsets disagree on the surviving heap";
  EXPECT_GT(cards_dirtied, 0u);
  EXPECT_GT(list_stores, 0u);
  // The whole point of the refactor: dirty cards are bounded by distinct
  // written locations, while the store list grows with every write.
  EXPECT_LT(cards_dirtied, list_stores / 10);
}

TEST_F(GcLatencyTest, CardScanCostIsChargedToAccounting) {
  Heap& h = make_heap_cfg(HeapConfig{}
                              .with_nursery_bytes(64 * 1024)
                              .with_old_bytes(4u << 20)
                              .with_remset(RemsetMode::kCard));
  on_proc([&] { run_barrier_workload(h); });
  EXPECT_GT(hooks_.cards_charged, 0u);
  // Each card spans many words, so the scanned-words charge dominates.
  EXPECT_GT(hooks_.card_words_charged, hooks_.cards_charged);
}

// The latent bug the LOS fixes: a large traced object is born outside the
// nursery with fields pointing INTO the nursery, and no store barrier ever
// sees those initializing writes.  LOS objects are born dirty, so the next
// minor scans them; the old bump-into-old-generation path lost the targets.
void GcLatencyTest::los_young_init_fields_survive_minor() {
  Heap& h = make_heap_cfg(HeapConfig(base_)
                              .with_nursery_bytes(64 * 1024)
                              .with_old_bytes(1u << 20));
  on_proc([&] {
    Roots<2> r;
    r[0] = h.alloc_record({Value::from_int(31), Value::from_int(41)});
    ASSERT_TRUE(h.in_nursery(r[0]));
    // 8192 fields: well above the LOS threshold, initialized with a young
    // pointer in every slot.
    r[1] = h.alloc_array(8192, r[0]);
    ASSERT_TRUE(h.in_los(r[1]));
    // Drop the direct root so only the LOS object keeps the record alive.
    r[0] = Value::nil();
    h.collect_now();
    EXPECT_EQ(r[1].field(0).field(0).as_int(), 31);
    EXPECT_EQ(r[1].field(8191).field(1).as_int(), 41);
    std::string err;
    EXPECT_TRUE(h.verify(&err)) << err;
  });
}
TEST_F(GcLatencyTest, LosYoungInitFieldsSurviveMinor) {
  los_young_init_fields_survive_minor();
}
TEST_P(GcLatencyRemsetTest, LosYoungInitFieldsSurviveMinor) {
  los_young_init_fields_survive_minor();
}

// A large array of immediates and one filled with an old-generation pointer
// hold nothing a minor collection needs: both are born clean, and the next
// minor scans no LOS range.  An array filled with a young pointer is born
// dirty and is the one range the minor after it scans.
void GcLatencyTest::los_born_clean_unless_young() {
  Heap& h = make_heap_cfg(HeapConfig(base_)
                              .with_nursery_bytes(64 * 1024)
                              .with_old_bytes(1u << 20));
  on_proc([&] {
    Roots<5> r;
    r[0] = h.alloc_record({Value::from_int(5), Value::from_int(6)});
    h.collect_now();
    ASSERT_TRUE(h.in_old_space(r[0]));
    r[1] = h.alloc_array(8192, Value::from_int(7));
    r[2] = h.alloc_array(8192, r[0]);
    ASSERT_TRUE(h.in_los(r[1]));
    ASSERT_TRUE(h.in_los(r[2]));
    const std::uint64_t scanned = h.stats().los_scanned;
    h.collect_now();
    EXPECT_EQ(h.stats().los_scanned, scanned);

    r[3] = h.alloc_record({Value::from_int(8)});
    ASSERT_TRUE(h.in_nursery(r[3]));
    r[4] = h.alloc_array(8192, r[3]);
    r[3] = Value::nil();
    h.collect_now();
    EXPECT_EQ(h.stats().los_scanned, scanned + 1);
    EXPECT_EQ(r[4].field(8191).field(0).as_int(), 8);
    EXPECT_EQ(r[2].field(8191).field(1).as_int(), 6);
    EXPECT_EQ(r[1].field(8191).as_int(), 7);
    std::string err;
    EXPECT_TRUE(h.verify(&err)) << err;
  });
}
TEST_F(GcLatencyTest, LosBornCleanUnlessAnInitialValueIsYoung) {
  los_born_clean_unless_young();
}
TEST_P(GcLatencyRemsetTest, LosBornCleanUnlessAnInitialValueIsYoung) {
  los_born_clean_unless_young();
}

using mp::gc::LargeObjectSpace;
constexpr std::size_t kPageWords = LargeObjectSpace::kPageBytes / 8;
// Object sizes (header included) that fill runs of exactly 2 and 4 pages.
constexpr std::size_t kTwoPages = 2 * kPageWords - LargeObjectSpace::kMetaWords;
constexpr std::size_t kFourPages =
    4 * kPageWords - LargeObjectSpace::kMetaWords;

// Allocates `n` two-page runs into `obj`, back to back from the arena's
// lowest free page, and writes every word of each so its pages are resident.
void alloc_touched_two_page_runs(LargeObjectSpace& los, std::uint64_t** obj,
                                 int n) {
  ASSERT_EQ(LargeObjectSpace::run_pages(kTwoPages), 2u);
  for (int i = 0; i < n; i++) {
    obj[i] = los.alloc(kTwoPages);
    ASSERT_NE(obj[i], nullptr);
    if (i > 0) {
      ASSERT_EQ(obj[i], obj[i - 1] + 2 * kPageWords);
    }
    for (std::size_t w = 0; w < kTwoPages; w++) obj[i][w] = w;
  }
}

// How many of the `pages` pages starting at the run that holds `obj` are
// resident, by mincore(2).
std::size_t resident_pages(const std::uint64_t* obj, std::size_t pages) {
  void* run = const_cast<std::uint64_t*>(obj - LargeObjectSpace::kMetaWords);
  std::vector<unsigned char> vec(pages);
  EXPECT_EQ(::mincore(run, pages * LargeObjectSpace::kPageBytes, vec.data()),
            0);
  std::size_t n = 0;
  for (const unsigned char v : vec) n += v & 1u;
  return n;
}

// Sweeping frees dead runs into one coalesced free extent per gap.  Three
// adjacent dead runs become one free extent: a re-allocation of the same
// size reuses its lowest page, and a run twice that size fits in the rest.
// Every dead run lies below the high-water mark, so nothing is released.
// The sweep also empties the dirty list before it frees anything.
TEST(GcLosSweep, AdjacentDeadRunsCoalesceIntoOneExtent) {
  LargeObjectSpace los;
  los.init(64 * LargeObjectSpace::kPageBytes);
  std::uint64_t* obj[6];
  alloc_touched_two_page_runs(los, obj, 6);

  // obj[1..3] die together, obj[5] dies next to the arena's free tail;
  // obj[0] and obj[4] survive.  A dying and a surviving object are listed.
  los.set_dirty(obj[0]);
  los.set_dirty(obj[2]);
  ASSERT_TRUE(LargeObjectSpace::try_mark(obj[0]));
  ASSERT_TRUE(LargeObjectSpace::try_mark(obj[4]));
  const std::size_t used = los.used_bytes();
  const LargeObjectSpace::SweepResult sw = los.sweep();
  EXPECT_EQ(sw.objects_freed, 4u);
  EXPECT_EQ(sw.objects_live, 2u);
  EXPECT_EQ(sw.pages_freed, 8u);
  EXPECT_EQ(sw.pages_released, 0u);
  EXPECT_EQ(los.used_bytes(), used - 8 * LargeObjectSpace::kPageBytes);
  int listed = 0;
  los.for_each_dirty([&](std::uint64_t*) { listed++; });
  EXPECT_EQ(listed, 0);
  EXPECT_EQ(LargeObjectSpace::meta_of(obj[0])->dirty.load(), 0);

  EXPECT_EQ(los.alloc(kTwoPages), obj[1]);
  EXPECT_EQ(los.alloc(kFourPages), obj[2]);
}

// Runs a sweep frees stay committed: the next cycle's allocations of the
// same size land on them and find them resident, with no page fault.
TEST(GcLosSweep, FreedRunsStayResidentForReuse) {
  LargeObjectSpace los;
  los.init(64 * LargeObjectSpace::kPageBytes);
  std::uint64_t* obj[8];
  alloc_touched_two_page_runs(los, obj, 8);
  ASSERT_TRUE(LargeObjectSpace::try_mark(obj[7]));  // the top run survives
  const LargeObjectSpace::SweepResult sw = los.sweep();
  EXPECT_EQ(sw.objects_freed, 7u);
  EXPECT_EQ(sw.pages_released, 0u);
  EXPECT_EQ(resident_pages(obj[0], 14), 14u);
  for (int i = 0; i < 7; i++) EXPECT_EQ(los.alloc(kTwoPages), obj[i]);
  EXPECT_EQ(resident_pages(obj[0], 16), 16u);
}

// When a cycle's large-object demand falls, the sweep that ends it hands
// back the pages above that cycle's high-water mark, which an earlier and
// larger cycle had touched; the pages below it stay resident.
TEST(GcLosSweep, PagesAboveAFallenHighWaterMarkAreReleased) {
  LargeObjectSpace los;
  los.init(64 * LargeObjectSpace::kPageBytes);
  std::uint64_t* big[8];
  alloc_touched_two_page_runs(los, big, 8);  // pages 0-15
  EXPECT_EQ(los.sweep().pages_released, 0u);  // all died, none above the mark
  EXPECT_EQ(resident_pages(big[0], 16), 16u);

  std::uint64_t* small[2];
  alloc_touched_two_page_runs(los, small, 2);  // pages 0-3 again
  ASSERT_EQ(small[0], big[0]);
  const LargeObjectSpace::SweepResult sw = los.sweep();
  EXPECT_EQ(sw.pages_released, 12u);
  EXPECT_EQ(resident_pages(big[0], 4), 4u);
  EXPECT_EQ(resident_pages(big[2], 12), 0u);

  // The next sweep has nothing above its mark left to release.
  alloc_touched_two_page_runs(los, small, 2);
  EXPECT_EQ(los.sweep().pages_released, 0u);
  EXPECT_EQ(resident_pages(big[0], 4), 4u);
}

void GcLatencyTest::los_sweep_frees_unreachable_runs() {
  Heap& h = make_heap_cfg(HeapConfig(base_)
                              .with_nursery_bytes(64 * 1024)
                              .with_old_bytes(1u << 20)
                              .with_los_bytes(8u << 20));
  on_proc([&] {
    Roots<1> keep;
    keep[0] = h.alloc_array(4096, Value::from_int(7));
    for (int i = 0; i < 16; i++) {
      h.alloc_array(4096, Value::from_int(i));  // dropped immediately
    }
    const std::size_t used_before = h.los_used_bytes();
    ASSERT_GT(used_before, 16u * 4096u * 8u);
    h.collect_now(/*force_major=*/true);
    EXPECT_LT(h.los_used_bytes(), used_before / 4);
    EXPECT_GT(h.los_used_bytes(), 0u);  // the kept array survived
    EXPECT_EQ(keep[0].field(0).as_int(), 7);
    EXPECT_GT(hooks_.los_pages_charged, 0u);
    EXPECT_GT(hooks_.los_sweep_pages_charged, 0u);
  });
}
TEST_F(GcLatencyTest, LosSweepFreesUnreachableRuns) {
  los_sweep_frees_unreachable_runs();
}
TEST_P(GcLatencyRemsetTest, LosSweepFreesUnreachableRuns) {
  los_sweep_frees_unreachable_runs();
}

void GcLatencyTest::los_pressure_escalates_to_major() {
  Heap& h = make_heap_cfg(HeapConfig(base_)
                              .with_nursery_bytes(64 * 1024)
                              .with_old_bytes(1u << 20)
                              .with_los_bytes(1u << 20)
                              .with_los_pressure_fraction(0.5));
  on_proc([&] {
    // Fill more than half the tiny LOS arena with garbage, then trigger a
    // minor: the pressure check must escalate it to a major, which sweeps.
    for (int i = 0; i < 15; i++) h.alloc_array(4096, Value::from_int(i));
    ASSERT_GT(h.los_used_bytes(), (1u << 20) / 2);
    const auto majors_before = h.stats().major_gcs;
    h.collect_now(/*force_major=*/false);
    EXPECT_GT(h.stats().major_gcs, majors_before);
    EXPECT_LT(h.los_used_bytes(), (1u << 20) / 2);
  });
}
TEST_F(GcLatencyTest, LosPressureEscalatesToMajor) {
  los_pressure_escalates_to_major();
}
TEST_P(GcLatencyRemsetTest, LosPressureEscalatesToMajor) {
  los_pressure_escalates_to_major();
}

void GcLatencyTest::pause_log_records_exact_samples() {
  Heap& h = make_heap_cfg(HeapConfig(base_)
                              .with_nursery_bytes(64 * 1024)
                              .with_old_bytes(1u << 20)
                              .with_record_pauses(true));
  on_proc([&] {
    for (int i = 0; i < 3; i++) h.collect_now();
    h.collect_now(/*force_major=*/true);
  });
  const auto log = h.pause_log();
  ASSERT_EQ(log.size(), 4u);
  // The first three collections were minor-only.
  for (std::size_t i = 0; i < 3; i++) EXPECT_EQ(log[i].major_us, 0u);
}
TEST_F(GcLatencyTest, PauseLogRecordsExactSamples) {
  pause_log_records_exact_samples();
}
TEST_P(GcLatencyRemsetTest, PauseLogRecordsExactSamples) {
  pause_log_records_exact_samples();
}

// ---------- the large-object space on all three backends ----------

enum class Backend { kSim, kNative, kUni };

std::string backend_name(const ::testing::TestParamInfo<Backend>& info) {
  switch (info.param) {
    case Backend::kSim: return "Sim";
    case Backend::kNative: return "Native";
    case Backend::kUni: return "Uni";
  }
  return "?";
}

class GcLatencyBackendTest : public ::testing::TestWithParam<Backend> {
 protected:
  std::unique_ptr<mp::Platform> make(int procs, HeapConfig heap) {
    heap.remset = remset_;
    switch (GetParam()) {
      case Backend::kSim: {
        mp::SimPlatformConfig cfg;
        cfg.machine = mp::sim::sequent_s81(procs);
        cfg.heap = heap;
        return std::make_unique<mp::SimPlatform>(cfg);
      }
      case Backend::kNative: {
        mp::NativePlatformConfig cfg;
        cfg.max_procs = procs;
        cfg.heap = heap;
        return std::make_unique<mp::NativePlatform>(cfg);
      }
      case Backend::kUni: {
        mp::UniPlatformConfig cfg;
        cfg.heap = heap;
        return std::make_unique<mp::UniPlatform>(cfg);
      }
    }
    __builtin_unreachable();
  }

  void los_alloc_survival_and_sweep();

  RemsetMode remset_ = kDefaultRemset;  // the remset make() configures
};

// The backend test again with the paper's store list.
class GcLatencyListBackendTest : public GcLatencyBackendTest {
 protected:
  GcLatencyListBackendTest() { remset_ = RemsetMode::kList; }
};

void GcLatencyBackendTest::los_alloc_survival_and_sweep() {
  HeapConfig heap;
  heap.with_nursery_bytes(128 * 1024).with_old_bytes(2u << 20);
  auto p = make(GetParam() == Backend::kUni ? 1 : 2, heap);
  p->run([&] {
    Heap& h = p->heap();
    GlobalRoot keep(h, Value::nil());
    keep.set(h.alloc_array(5000, Value::from_int(123)));
    EXPECT_TRUE(h.in_los(keep.get()));
    for (int i = 0; i < 8; i++) h.alloc_array(5000, Value::from_int(i));
    const std::size_t before = h.los_used_bytes();
    h.collect_now(/*force_major=*/true);
    EXPECT_LT(h.los_used_bytes(), before);
    EXPECT_TRUE(h.in_los(keep.get()));
    EXPECT_EQ(keep.get().field(4999).as_int(), 123);
    std::string err;
    EXPECT_TRUE(h.verify(&err)) << err;
  });
}

TEST_P(GcLatencyBackendTest, LosAllocSurvivalAndSweep) {
  los_alloc_survival_and_sweep();
}
TEST_P(GcLatencyListBackendTest, LosAllocSurvivalAndSweep) {
  los_alloc_survival_and_sweep();
}

INSTANTIATE_TEST_SUITE_P(AllBackends, GcLatencyBackendTest,
                         ::testing::Values(Backend::kSim, Backend::kNative,
                                           Backend::kUni),
                         backend_name);
INSTANTIATE_TEST_SUITE_P(AllBackends, GcLatencyListBackendTest,
                         ::testing::Values(Backend::kSim, Backend::kNative,
                                           Backend::kUni),
                         backend_name);

// A large allocation's charge is a clean point on the simulator, where the
// other proc may run a major.  One proc forces majors back to back while
// the other allocates 600-word arrays and keeps the last four rooted: a run
// placed before that clean point would be swept as unmarked, re-used by a
// later array, and found overwritten here.
TEST(GcLosRace, SimMajorAtTheLargeAllocationChargeKeepsTheNewRun) {
  constexpr int kArrays = 1000;
  constexpr std::size_t kWords = 600;
  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(2);
  cfg.heap.with_nursery_bytes(128 * 1024).with_old_bytes(2u << 20);
  mp::SimPlatform p(cfg);
  std::atomic<bool> allocating{true};
  int checks = 0;
  int overwritten = 0;
  p.run([&] {
    Heap& h = p.heap();
    callcc<Unit>([&](Cont<Unit> parent) -> Unit {
      p.acquire_proc(parent, 0);
      while (allocating.load()) h.collect_now(/*force_major=*/true);
      p.release_proc();
    });
    Roots<4> kept;
    for (int i = 0; i < kArrays; i++) {
      kept[i % 4] = h.alloc_array(kWords, Value::from_int(i));
      for (int k = 0; k < 4 && k <= i; k++) {
        const int tag = i - ((i - k) % 4 + 4) % 4;
        const Value a = kept[k];
        bool intact = a.length() == kWords;
        for (std::size_t f = 0; intact && f < kWords; f++) {
          intact = a.field(f).as_int() == tag;
        }
        checks++;
        if (!intact) overwritten++;
      }
    }
    allocating.store(false);
  });
  EXPECT_EQ(checks, 4 * kArrays - 6);
  EXPECT_EQ(overwritten, 0);
  EXPECT_GT(p.heap().stats().major_gcs, 10u);
}

// ---------- parallel promotion under real procs ----------

// Four native procs hammer disjoint slices of a shared old-generation table
// with young records while a small nursery forces frequent minors: the
// per-proc dirty-card buffers, the global flush lock, the card-aligned
// promotion blocks and the crossing-map writes all race for real here (CI
// additionally runs this binary under TSan).
void promotion_and_card_buffers_race(RemsetMode remset) {
  constexpr int kProcs = 4;
  constexpr std::size_t kSlotsPerProc = 64;  // 4*64 slots: old gen, not LOS
  constexpr int kOpsPerProc = 4000;
  mp::NativePlatformConfig cfg;
  cfg.max_procs = kProcs;
  cfg.heap.with_nursery_bytes(256 * 1024)
      .with_old_bytes(16u << 20)
      .with_remset(remset);
  mp::NativePlatform p(cfg);

  std::atomic<int> workers_done{0};
  std::uint64_t op_sum = 0;
  p.run([&] {
    Heap& h = p.heap();
    GlobalRoot table(h, Value::nil());
    {
      Roots<1> r;
      r[0] = h.alloc_array(kProcs * kSlotsPerProc, Value::from_int(0));
      table.set(r[0]);
    }
    h.collect_now();
    ASSERT_TRUE(h.in_old_space(table.get()));

    auto worker = [&](int lane) {
      std::uint64_t rng = 0x1234567 + static_cast<std::uint64_t>(lane);
      for (int i = 0; i < kOpsPerProc; i++) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t slot =
            static_cast<std::size_t>(lane) * kSlotsPerProc +
            (rng >> 33) % kSlotsPerProc;
        Roots<1> r;
        r[0] = h.alloc_record({Value::from_int(lane), Value::from_int(i)});
        h.store(table.get(), slot, r[0]);
        if ((rng & 0x7u) == 0) {
          for (int n = 0; n < 16; n++) h.alloc_record({Value::from_int(n)});
        }
      }
      workers_done.fetch_add(1);
    };

    for (int lane = 1; lane < kProcs; lane++) {
      callcc<Unit>([&, lane](Cont<Unit> parent) -> Unit {
        if (!p.try_acquire_proc(std::move(parent), 0)) {
          ADD_FAILURE() << "proc for lane " << lane << " unavailable";
        }
        // This body is now lane's worker on the original proc; the main
        // flow continues on the freshly acquired proc.
        worker(lane);
        p.release_proc();
      });
    }
    worker(0);
    while (workers_done.load() < kProcs) p.work(50);

    h.collect_now(/*force_major=*/true);
    std::string err;
    EXPECT_TRUE(h.verify(&err)) << err;
    // Every written slot holds a record stamped with its lane.
    const Value t = table.get();
    for (int lane = 0; lane < kProcs; lane++) {
      for (std::size_t s = 0; s < kSlotsPerProc; s++) {
        const Value v =
            t.field(static_cast<std::size_t>(lane) * kSlotsPerProc + s);
        if (!v.is_ptr()) continue;
        EXPECT_EQ(v.field(0).as_int(), lane);
        op_sum += static_cast<std::uint64_t>(v.field(1).as_int());
      }
    }
  });
  EXPECT_EQ(workers_done.load(), kProcs);
  EXPECT_GT(op_sum, 0u);
}
TEST(GcLatencyParallel, PromotionAndCardBuffersRaceUnderNativeProcs) {
  promotion_and_card_buffers_race(kDefaultRemset);
}

// ---------- the allocation fast path under real procs ----------

// Two native procs build cons lists through the inline bump path and drop
// them, across many minor collections and chunk refills, with the heap
// re-verified after every phase.  After each list a proc reads
// Heap::stats() while the other proc allocates, so the per-proc counts are
// read by one thread while their owner writes them.
TEST(GcFastPath, TwoNativeProcsBuildAndDropListsAcrossMinors) {
  constexpr int kProcs = 2;
  constexpr int kLists = 200;  // per proc
  constexpr int kLen = 1000;   // cons cells per list
  mp::NativePlatformConfig cfg;
  cfg.max_procs = kProcs;
  cfg.heap.with_nursery_bytes(64 * 1024).with_verify_after_phase(true);
  mp::NativePlatform p(cfg);

  std::atomic<int> workers_done{0};
  std::atomic<int> bad_lists{0};
  std::atomic<int> stats_went_back{0};
  p.run([&] {
    Heap& h = p.heap();
    auto worker = [&](int lane) {
      std::uint64_t seen = 0;
      for (int l = 0; l < kLists; l++) {
        const std::int64_t base =
            (static_cast<std::int64_t>(lane) * kLists + l) * kLen;
        Roots<1> list;
        for (int i = 0; i < kLen; i++) {
          list[0] = h.cons(Value::from_int(base + i), list[0]);
        }
        // Newest first: base + kLen - 1 down to base, then nil.
        Value v = list[0];
        std::int64_t want = base + kLen - 1;
        while (v.is_ptr() && v.field(0).as_int() == want) {
          v = v.field(1);
          want--;
        }
        if (!v.is_nil() || want != base - 1) bad_lists.fetch_add(1);
        const std::uint64_t now = h.stats().allocations;
        if (now < seen) stats_went_back.fetch_add(1);
        seen = now;
      }
      workers_done.fetch_add(1);
    };

    callcc<Unit>([&](Cont<Unit> parent) -> Unit {
      if (!p.try_acquire_proc(std::move(parent), 0)) {
        ADD_FAILURE() << "second proc unavailable";
      }
      // This body is lane 1's worker on the original proc; the main flow
      // continues on the freshly acquired proc.
      worker(1);
      p.release_proc();
    });
    worker(0);
    while (workers_done.load() < kProcs) p.work(50);
  });

  EXPECT_EQ(workers_done.load(), kProcs);
  EXPECT_EQ(bad_lists.load(), 0);
  EXPECT_EQ(stats_went_back.load(), 0);
  const mp::gc::HeapStats s = p.heap().stats();
  EXPECT_EQ(s.allocations, std::uint64_t{kProcs} * kLists * kLen);
  EXPECT_EQ(s.words_allocated, 3 * s.allocations);
  EXPECT_GE(s.minor_gcs, 50u);
  EXPECT_GT(s.chunk_grabs, s.minor_gcs);
}

// ---------- the LOS dirty list under real procs ----------

// Two native procs store fresh records into the same large arrays (each
// into its own interleaved slots, so no slot is written by both) while a
// small nursery forces a minor every few hundred stores.  After every minor
// both procs race the clean -> dirty exchange of each array again, and the
// heap is re-verified after every phase, so a lost or doubled dirty-list
// push fails the dirty-list check, and a young pointer a minor missed fails
// the content check.
TEST(GcLosDirtyList, TwoNativeProcsStoreYoungPointersIntoSharedArrays) {
  constexpr int kProcs = 2;
  constexpr std::size_t kArrays = 4;
  constexpr std::size_t kSlots = 1024;  // 8 KiB each: large objects
  constexpr int kStoresPerProc = 40000;
  mp::NativePlatformConfig cfg;
  cfg.max_procs = kProcs;
  cfg.heap.with_nursery_bytes(64 * 1024).with_verify_after_phase(true);
  mp::NativePlatform p(cfg);

  std::atomic<int> workers_done{0};
  std::atomic<int> bad_slots{0};
  p.run([&] {
    Heap& h = p.heap();
    std::vector<GlobalRoot> arrays;
    arrays.reserve(kArrays);
    for (std::size_t a = 0; a < kArrays; a++) {
      arrays.emplace_back(h, h.alloc_array(kSlots, Value::from_int(0)));
      ASSERT_TRUE(h.in_los(arrays.back().get()));
    }
    // A stored record is {lane, i, lane * 1000003 + i}.
    auto well_formed = [](Value v) {
      return !v.is_ptr() ||
             v.field(2).as_int() ==
                 v.field(0).as_int() * 1000003 + v.field(1).as_int();
    };
    auto worker = [&](int lane) {
      std::uint64_t rng = 0x5151 + static_cast<std::uint64_t>(lane);
      for (int i = 0; i < kStoresPerProc; i++) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t a = (rng >> 33) % kArrays;
        const std::size_t slot = (rng >> 40) % (kSlots / kProcs) * kProcs +
                                 static_cast<std::size_t>(lane);
        Roots<1> r;
        r[0] = h.alloc_record({Value::from_int(lane), Value::from_int(i),
                               Value::from_int(lane * 1000003 + i)});
        h.store(arrays[a].get(), slot, r[0]);
        h.alloc_record({Value::from_int(i)});  // garbage: more minors
        if (!well_formed(arrays[a].get().field(slot))) bad_slots.fetch_add(1);
      }
      workers_done.fetch_add(1);
    };

    callcc<Unit>([&](Cont<Unit> parent) -> Unit {
      if (!p.try_acquire_proc(std::move(parent), 0)) {
        ADD_FAILURE() << "second proc unavailable";
      }
      // This body is lane 1's worker on the original proc; the main flow
      // continues on the freshly acquired proc.
      worker(1);
      p.release_proc();
    });
    worker(0);
    while (workers_done.load() < kProcs) p.work(50);

    h.collect_now(/*force_major=*/true);
    std::string err;
    EXPECT_TRUE(h.verify(&err)) << err;
    for (const GlobalRoot& arr : arrays) {
      for (std::size_t s = 0; s < kSlots; s++) {
        if (!well_formed(arr.get().field(s))) bad_slots.fetch_add(1);
      }
    }
  });

  EXPECT_EQ(workers_done.load(), kProcs);
  EXPECT_EQ(bad_slots.load(), 0);
  EXPECT_GE(p.heap().stats().minor_gcs, 50u);
  EXPECT_GT(p.heap().stats().los_scanned, 0u);
}

// ---------- the proc id the allocation fast path reads ----------

// Every proc a run reaches reads its ExecContext::proc_id next to
// Rendezvous::cur_proc(): they must agree, and each proc must see its own.
void exec_proc_id_matches_cur_proc(mp::Platform& p, int procs) {
  std::atomic<int> mismatches{0};
  std::atomic<int> seen{0};  // bit per proc id
  std::atomic<int> checked{0};
  p.run([&] {
    auto check = [&] {
      const mp::cont::ExecContext* ex = mp::cont::current_exec();
      const int id = p.cur_proc();
      if (ex == nullptr || id < 0 || ex->proc_id != id) {
        mismatches.fetch_add(1);
      } else {
        seen.fetch_or(1 << id);
      }
      checked.fetch_add(1);
    };
    if (procs > 1) {
      callcc<Unit>([&](Cont<Unit> parent) -> Unit {
        if (!p.try_acquire_proc(std::move(parent), 0)) {
          ADD_FAILURE() << "second proc unavailable";
        }
        check();  // on the original proc
        p.release_proc();
      });
    }
    check();
    while (checked.load() < procs) p.work(50);
  });
  EXPECT_EQ(checked.load(), procs);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(seen.load(), (1 << procs) - 1);
}

TEST(ExecProcId, MatchesCurProcOnOneNativeProc) {
  mp::NativePlatformConfig cfg;
  cfg.max_procs = 1;
  mp::NativePlatform p(cfg);
  exec_proc_id_matches_cur_proc(p, 1);
}

TEST(ExecProcId, MatchesCurProcOnTwoNativeProcs) {
  mp::NativePlatformConfig cfg;
  cfg.max_procs = 2;
  mp::NativePlatform p(cfg);
  exec_proc_id_matches_cur_proc(p, 2);
}

TEST(ExecProcId, MatchesCurProcOnUni) {
  mp::UniPlatform p(mp::UniPlatformConfig{});
  exec_proc_id_matches_cur_proc(p, 1);
}

TEST(ExecProcId, MatchesCurProcOnSim) {
  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(2);
  mp::SimPlatform p(cfg);
  exec_proc_id_matches_cur_proc(p, 2);
}

// ---------- simulator determinism with the new cost knobs ----------

void traces_are_bit_reproducible(RemsetMode remset) {
  auto run_once = [remset] {
    mp::SimPlatformConfig cfg;
    cfg.machine = mp::sim::sequent_s81(3);
    cfg.heap.with_nursery_bytes(128 * 1024)
        .with_old_bytes(2u << 20)
        .with_remset(remset);
    mp::SimPlatform p(cfg);
    double end_us = 0;
    std::uint64_t checksum = 0;
    p.run([&] {
      Heap& h = p.heap();
      GlobalRoot table(h, Value::nil());
      {
        Roots<1> r;
        r[0] = h.alloc_array(256, Value::from_int(0));
        table.set(r[0]);
      }
      h.collect_now();
      std::uint64_t rng = 42;
      for (int i = 0; i < 3000; i++) {
        rng = rng * 2862933555777941757ull + 3037000493ull;
        Roots<1> r;
        r[0] = h.alloc_record({Value::from_int(i)});
        h.store(table.get(), (rng >> 32) % 256, r[0]);
        if (i % 500 == 250) h.alloc_array(2048, Value::from_int(i));  // LOS
      }
      h.collect_now(/*force_major=*/true);
      for (std::size_t s = 0; s < 256; s++) {
        const Value v = table.get().field(s);
        checksum =
            checksum * 31 +
            (v.is_ptr() ? static_cast<std::uint64_t>(v.field(0).as_int())
                        : 0);
      }
      end_us = p.now_us();
    });
    return std::pair<double, std::uint64_t>(end_us, checksum);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first)
      << "virtual time diverged: card/LOS cost charges are nondeterministic";
  EXPECT_EQ(a.second, b.second);
}
TEST(GcLatencySim, TracesAreBitReproducibleWithCardAndLosCosts) {
  traces_are_bit_reproducible(kDefaultRemset);
}

// The two platform tests above, again with the remset the parameter names.
class GcLatencyPlatformTest : public ::testing::TestWithParam<RemsetMode> {};

TEST_P(GcLatencyPlatformTest, PromotionAndCardBuffersRaceUnderNativeProcs) {
  promotion_and_card_buffers_race(GetParam());
}
TEST_P(GcLatencyPlatformTest, TracesAreBitReproducibleWithCardAndLosCosts) {
  traces_are_bit_reproducible(GetParam());
}

INSTANTIATE_TEST_SUITE_P(StoreList, GcLatencyPlatformTest,
                         ::testing::Values(RemsetMode::kList));

// ---------- configuration death checks ----------

using GcLatencyDeathTest = GcLatencyTest;

TEST_F(GcLatencyDeathTest, NonPowerOfTwoCardBytesPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(HeapConfig{}.with_card_bytes(768).validate(), "card_bytes");
}

TEST_F(GcLatencyDeathTest, TinyCardBytesPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(HeapConfig{}.with_card_bytes(32).validate(), "card_bytes");
}

TEST_F(GcLatencyDeathTest, LosThresholdBelowCardSizePanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(HeapConfig{}
                   .with_card_bytes(1024)
                   .with_los_threshold_bytes(512)
                   .validate(),
               "los_threshold_bytes");
}

TEST_F(GcLatencyDeathTest, CardLargerThanParBlockPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(HeapConfig{}
                   .with_par_block_words(64)
                   .with_card_bytes(1024)
                   .validate(),
               "par_block_words");
}

TEST_F(GcLatencyDeathTest, UnalignedLosArenaPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(HeapConfig{}.with_los_bytes(4096 + 512).validate(),
               "los_bytes");
}

}  // namespace
