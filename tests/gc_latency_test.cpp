// Tests for the latency-grade GC layers: card-marking remembered set vs the
// paper's store-list baseline (observable equivalence), per-proc promotion
// under real parallelism, the large-object space on all three platform
// backends, simulator bit-reproducibility with the new cost knobs, and the
// configuration death checks.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cont/cont.h"
#include "gc/heap.h"
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
