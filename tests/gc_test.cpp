// Unit tests for the ML-style heap: tagged values, per-proc allocation,
// rooting discipline, minor/major copying collection, store-list barrier,
// and continuation-slot tracing.  The tests that collect run on both the
// parallel copier and the paper's sequential collector.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "cont/cont.h"
#include "gc/heap.h"
#include "gc/roots.h"
#include "gc/value.h"

namespace {

using mp::gc::GlobalRoot;
using mp::gc::Heap;
using mp::gc::HeapConfig;
using mp::gc::ObjKind;
using mp::gc::Roots;
using mp::gc::Value;

// Single-proc harness: a ManualProc (as in cont_test) plus trivial collector
// hooks, so heap behaviour can be tested in isolation from the platform.
// One-proc world: nothing to stop, and the collecting proc is the
// collection's single (degenerate) parallel worker, so the worker fn passed
// to stop_world is dropped.
class TestHooks : public mp::gc::Rendezvous, public mp::gc::Accounting {
 public:
  // ---- gc::Rendezvous ----
  void stop_world(mp::gc::WorkerFn) override { stops++; }
  void resume_world() override {}
  void rendezvous_and_work(const mp::gc::WorkerFn&) override {}
  int cur_proc() override { return 0; }
  int nproc() override { return 1; }
  mp::cont::ExecContext* proc_exec(int) override { return exec; }

  // ---- gc::Accounting ----
  void charge_gc(std::uint64_t words) override { gc_words += words; }
  void charge_alloc(std::uint64_t words) override { alloc_words += words; }
  void charge_card_scan(std::uint64_t, std::uint64_t) override {}
  void charge_los_alloc(std::uint64_t) override {}
  void charge_los_sweep(std::uint64_t) override {}

  mp::cont::ExecContext* exec = nullptr;
  std::uint64_t gc_words = 0;
  std::uint64_t alloc_words = 0;
  int stops = 0;
};

class GcTest : public ::testing::Test {
 protected:
  GcTest() {
    exec_.idle_ctx = &idle_ctx_;
    mp::cont::set_current_exec(&exec_);
    hooks_.exec = &exec_;
  }
  ~GcTest() override { mp::cont::set_current_exec(nullptr); }

  Heap& make_heap(std::size_t nursery_bytes = 64 * 1024,
                  std::size_t old_bytes = 1 << 20) {
    const HeapConfig cfg = HeapConfig{}
                               .with_nursery_bytes(nursery_bytes)
                               .with_old_bytes(old_bytes)
                               .with_parallel_gc(parallel_gc_);
    heap_ = std::make_unique<Heap>(cfg, hooks_, hooks_);
    return *heap_;
  }

  Heap& make_heap_cfg(const HeapConfig& cfg) {
    heap_ = std::make_unique<Heap>(cfg, hooks_, hooks_);
    return *heap_;
  }

  // Run `f` as a proc client (required for allocation).
  void on_proc(std::function<void()> f) {
    mp::cont::run_from_idle(mp::cont::make_entry(std::move(f)), exec_);
  }

  // The bodies of the tests that collect: GcTest runs each on the default
  // collector, GcCollectorTest on the collector its parameter names.
  void rooted_value_survives_collection();
  void unrooted_garbage_is_not_copied();
  void reachable_graph_is_copied_once();
  void cyclic_structure_via_ref();
  void automatic_minor_collection_on_nursery_exhaustion();
  void store_list_catches_old_to_young_pointer();
  void major_collection_compacts_old_space();
  void nested_root_frames_and_shadowing();
  void global_root_survives_and_moves();
  void global_root_move_preserves_registration();
  void continuation_slot_is_traced();
  void suspended_thread_root_chain_is_traced();
  void large_array_goes_to_large_object_space();
  void chunk_grab_stats_accumulate();
  void verify_passes_on_a_healthy_heap();
  void verify_detects_a_corrupted_header();

  // The collector make_heap configures.
  bool parallel_gc_ = HeapConfig{}.parallel_gc;
  mp::cont::ExecContext exec_;
  mp::arch::Context idle_ctx_;
  TestHooks hooks_;
  std::unique_ptr<Heap> heap_;
};

// The collecting tests again, with HeapConfig::parallel_gc set to the
// parameter; instantiated with the paper's sequential collector, the one
// non-default value.
class GcCollectorTest : public GcTest,
                        public ::testing::WithParamInterface<bool> {
 protected:
  GcCollectorTest() { parallel_gc_ = GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(Sequential, GcCollectorTest, ::testing::Values(false));

// ---------- tagged values ----------

TEST_F(GcTest, IntRoundTrip) {
  for (std::int64_t i : {0L, 1L, -1L, 42L, -1000000L, (1L << 62) - 1, -(1L << 62)}) {
    Value v = Value::from_int(i);
    EXPECT_TRUE(v.is_int());
    EXPECT_FALSE(v.is_ptr());
    EXPECT_FALSE(v.is_nil());
    EXPECT_EQ(v.as_int(), i);
  }
}

TEST_F(GcTest, NilIsDistinctFromZero) {
  EXPECT_TRUE(Value::nil().is_nil());
  EXPECT_FALSE(Value::from_int(0).is_nil());
  EXPECT_FALSE(Value::nil() == Value::from_int(0));
}

TEST_F(GcTest, BoolRoundTrip) {
  EXPECT_TRUE(Value::from_bool(true).as_bool());
  EXPECT_FALSE(Value::from_bool(false).as_bool());
}

// ---------- allocation ----------

TEST_F(GcTest, RecordFields) {
  Heap& h = make_heap();
  on_proc([&] {
    Value r = h.alloc_record({Value::from_int(1), Value::from_int(2),
                              Value::from_int(3)});
    ASSERT_TRUE(r.is_ptr());
    EXPECT_EQ(r.kind(), ObjKind::kRecord);
    EXPECT_EQ(r.length(), 3u);
    EXPECT_EQ(r.field(0).as_int(), 1);
    EXPECT_EQ(r.field(1).as_int(), 2);
    EXPECT_EQ(r.field(2).as_int(), 3);
    EXPECT_TRUE(h.in_nursery(r));
  });
}

TEST_F(GcTest, EmptyRecord) {
  Heap& h = make_heap();
  on_proc([&] {
    Value r = h.alloc_record({});
    EXPECT_EQ(r.length(), 0u);
  });
}

TEST_F(GcTest, ArrayStoreLoad) {
  Heap& h = make_heap();
  on_proc([&] {
    Value a = h.alloc_array(10, Value::from_int(7));
    EXPECT_EQ(a.kind(), ObjKind::kArray);
    EXPECT_EQ(a.length(), 10u);
    for (std::size_t i = 0; i < 10; i++) EXPECT_EQ(a.field(i).as_int(), 7);
    h.store(a, 3, Value::from_int(99));
    EXPECT_EQ(a.field(3).as_int(), 99);
    EXPECT_EQ(a.field(2).as_int(), 7);
  });
}

TEST_F(GcTest, RefCell) {
  Heap& h = make_heap();
  on_proc([&] {
    Value r = h.alloc_ref(Value::from_int(5));
    EXPECT_EQ(r.kind(), ObjKind::kRef);
    EXPECT_EQ(Heap::load_ref(r).as_int(), 5);
    h.store_ref(r, Value::from_int(6));
    EXPECT_EQ(Heap::load_ref(r).as_int(), 6);
  });
}

TEST_F(GcTest, BytesRoundTrip) {
  Heap& h = make_heap();
  on_proc([&] {
    Value s = h.alloc_bytes("hello, multiprocessing");
    EXPECT_EQ(s.kind(), ObjKind::kBytes);
    EXPECT_EQ(s.length(), 22u);
    EXPECT_EQ(std::string(s.bytes(), s.length()), "hello, multiprocessing");
  });
}

TEST_F(GcTest, RealBoxing) {
  Heap& h = make_heap();
  on_proc([&] {
    Value d = h.alloc_real(3.25);
    EXPECT_EQ(d.kind(), ObjKind::kReal);
    EXPECT_DOUBLE_EQ(d.as_real(), 3.25);
  });
}

TEST_F(GcTest, AllocChargesHooks) {
  Heap& h = make_heap();
  on_proc([&] {
    const auto before = hooks_.alloc_words;
    h.alloc_record({Value::from_int(1)});  // header + 1 field
    EXPECT_EQ(hooks_.alloc_words - before, 2u);
  });
}

// ---------- collection ----------

void GcTest::rooted_value_survives_collection() {
  Heap& h = make_heap();
  on_proc([&] {
    Roots<1> r;
    r[0] = h.alloc_record({Value::from_int(11), Value::from_int(22)});
    const std::uint64_t before = r[0].raw_bits();
    h.collect_now();
    EXPECT_NE(r[0].raw_bits(), before) << "copying GC should move the object";
    EXPECT_TRUE(h.in_old_space(r[0]));
    EXPECT_EQ(r[0].field(0).as_int(), 11);
    EXPECT_EQ(r[0].field(1).as_int(), 22);
  });
}
TEST_F(GcTest, RootedValueSurvivesCollection) {
  rooted_value_survives_collection();
}
TEST_P(GcCollectorTest, RootedValueSurvivesCollection) {
  rooted_value_survives_collection();
}

void GcTest::unrooted_garbage_is_not_copied() {
  Heap& h = make_heap();
  on_proc([&] {
    for (int i = 0; i < 100; i++) {
      h.alloc_record({Value::from_int(i)});  // dropped immediately
    }
    h.collect_now();
    EXPECT_EQ(h.old_space_used_words(), 0u);
  });
}
TEST_F(GcTest, UnrootedGarbageIsNotCopied) { unrooted_garbage_is_not_copied(); }
TEST_P(GcCollectorTest, UnrootedGarbageIsNotCopied) {
  unrooted_garbage_is_not_copied();
}

void GcTest::reachable_graph_is_copied_once() {
  Heap& h = make_heap();
  on_proc([&] {
    Roots<2> r;
    r[0] = h.alloc_record({Value::from_int(1)});
    // Two records sharing one child: the child must be copied once and
    // shared after collection.
    r[1] = h.alloc_record({r[0], r[0]});
    h.collect_now();
    EXPECT_EQ(r[1].field(0).raw_bits(), r[1].field(1).raw_bits());
    EXPECT_EQ(r[1].field(0).field(0).as_int(), 1);
  });
}
TEST_F(GcTest, ReachableGraphIsCopiedOnce) { reachable_graph_is_copied_once(); }
TEST_P(GcCollectorTest, ReachableGraphIsCopiedOnce) {
  reachable_graph_is_copied_once();
}

void GcTest::cyclic_structure_via_ref() {
  Heap& h = make_heap();
  on_proc([&] {
    Roots<2> r;
    r[0] = h.alloc_ref(Value::nil());
    r[1] = h.alloc_record({Value::from_int(9), r[0]});
    h.store_ref(r[0], r[1]);  // cycle: ref -> record -> ref
    h.collect_now();
    Value rec = Heap::load_ref(r[0]);
    EXPECT_EQ(rec.field(0).as_int(), 9);
    EXPECT_EQ(rec.field(1).raw_bits(), r[0].raw_bits());
  });
}
TEST_F(GcTest, CyclicStructureViaRef) { cyclic_structure_via_ref(); }
TEST_P(GcCollectorTest, CyclicStructureViaRef) { cyclic_structure_via_ref(); }

void GcTest::automatic_minor_collection_on_nursery_exhaustion() {
  Heap& h = make_heap(/*nursery_bytes=*/32 * 1024);
  on_proc([&] {
    Roots<1> r;
    r[0] = h.alloc_record({Value::from_int(123)});
    // Allocate far more than the nursery; collections must happen.
    for (int i = 0; i < 20000; i++) h.alloc_record({Value::from_int(i)});
    EXPECT_GT(h.stats().minor_gcs, 0u);
    EXPECT_EQ(r[0].field(0).as_int(), 123);
  });
}
TEST_F(GcTest, AutomaticMinorCollectionOnNurseryExhaustion) {
  automatic_minor_collection_on_nursery_exhaustion();
}
TEST_P(GcCollectorTest, AutomaticMinorCollectionOnNurseryExhaustion) {
  automatic_minor_collection_on_nursery_exhaustion();
}

void GcTest::store_list_catches_old_to_young_pointer() {
  Heap& h = make_heap();
  on_proc([&] {
    Roots<2> r;
    r[0] = h.alloc_ref(Value::nil());
    h.collect_now();  // promote the ref to the old generation
    ASSERT_TRUE(h.in_old_space(r[0]));
    // Store a young record into the old ref: only the store list makes this
    // reachable for the minor collection.
    r[1] = Value::nil();
    h.store_ref(r[0], h.alloc_record({Value::from_int(77)}));
    Value young = Heap::load_ref(r[0]);
    ASSERT_TRUE(h.in_nursery(young));
    h.collect_now();
    Value promoted = Heap::load_ref(r[0]);
    EXPECT_TRUE(h.in_old_space(promoted));
    EXPECT_EQ(promoted.field(0).as_int(), 77);
  });
}
TEST_F(GcTest, StoreListCatchesOldToYoungPointer) {
  store_list_catches_old_to_young_pointer();
}
TEST_P(GcCollectorTest, StoreListCatchesOldToYoungPointer) {
  store_list_catches_old_to_young_pointer();
}

void GcTest::major_collection_compacts_old_space() {
  Heap& h = make_heap();
  on_proc([&] {
    Roots<1> r;
    r[0] = h.alloc_record({Value::from_int(5)});
    h.collect_now();  // promote
    // Promote lots of garbage to the old generation.
    {
      Roots<1> g;
      for (int i = 0; i < 50; i++) {
        g[0] = h.alloc_array(100, Value::from_int(i));
        h.collect_now();
      }
    }
    const std::size_t used_before = h.old_space_used_words();
    h.collect_now(/*force_major=*/true);
    EXPECT_LT(h.old_space_used_words(), used_before);
    EXPECT_EQ(r[0].field(0).as_int(), 5);
    EXPECT_GT(h.stats().major_gcs, 0u);
  });
}
TEST_F(GcTest, MajorCollectionCompactsOldSpace) {
  major_collection_compacts_old_space();
}
TEST_P(GcCollectorTest, MajorCollectionCompactsOldSpace) {
  major_collection_compacts_old_space();
}

void GcTest::nested_root_frames_and_shadowing() {
  Heap& h = make_heap();
  on_proc([&] {
    Roots<1> outer;
    outer[0] = h.alloc_record({Value::from_int(1)});
    {
      Roots<2> inner;
      inner[0] = h.alloc_record({Value::from_int(2)});
      inner[1] = outer[0];
      h.collect_now();
      EXPECT_EQ(inner[0].field(0).as_int(), 2);
      EXPECT_EQ(inner[1].raw_bits(), outer[0].raw_bits());
    }
    h.collect_now();
    EXPECT_EQ(outer[0].field(0).as_int(), 1);
  });
}
TEST_F(GcTest, NestedRootFramesAndShadowing) {
  nested_root_frames_and_shadowing();
}
TEST_P(GcCollectorTest, NestedRootFramesAndShadowing) {
  nested_root_frames_and_shadowing();
}

void GcTest::global_root_survives_and_moves() {
  Heap& h = make_heap();
  on_proc([&] {
    GlobalRoot g(h, h.alloc_record({Value::from_int(31)}));
    h.collect_now();
    EXPECT_EQ(g.get().field(0).as_int(), 31);
    EXPECT_TRUE(h.in_old_space(g.get()));
  });
}
TEST_F(GcTest, GlobalRootSurvivesAndMoves) { global_root_survives_and_moves(); }
TEST_P(GcCollectorTest, GlobalRootSurvivesAndMoves) {
  global_root_survives_and_moves();
}

void GcTest::global_root_move_preserves_registration() {
  Heap& h = make_heap();
  on_proc([&] {
    std::vector<GlobalRoot> roots;
    for (int i = 0; i < 20; i++) {
      roots.emplace_back(h, h.alloc_record({Value::from_int(i)}));
    }
    // Force vector reallocation (moves every GlobalRoot).
    roots.reserve(1000);
    h.collect_now();
    for (int i = 0; i < 20; i++) {
      EXPECT_EQ(roots[static_cast<size_t>(i)].get().field(0).as_int(), i);
    }
  });
}
TEST_F(GcTest, GlobalRootMovePreservesRegistration) {
  global_root_move_preserves_registration();
}
TEST_P(GcCollectorTest, GlobalRootMovePreservesRegistration) {
  global_root_move_preserves_registration();
}

void GcTest::continuation_slot_is_traced() {
  Heap& h = make_heap();
  mp::cont::Cont<Value> saved;
  Value got = Value::nil();
  on_proc([&] {
    got = mp::cont::callcc<Value>([&](mp::cont::Cont<Value> k) -> Value {
      saved = std::move(k);
      mp::cont::exit_to_idle();
    });
  });
  // Deliver a heap value to the parked continuation, then collect: the
  // armed slot must be traced and updated.
  on_proc([&] {
    saved.preload(h.alloc_record({Value::from_int(55)}));
    h.collect_now();
  });
  mp::cont::run_from_idle(saved.ref(), exec_);
  ASSERT_TRUE(got.is_ptr());
  EXPECT_EQ(got.field(0).as_int(), 55);
}
TEST_F(GcTest, ContinuationSlotIsTraced) { continuation_slot_is_traced(); }
TEST_P(GcCollectorTest, ContinuationSlotIsTraced) {
  continuation_slot_is_traced();
}

void GcTest::suspended_thread_root_chain_is_traced() {
  Heap& h = make_heap();
  mp::cont::Cont<mp::cont::Unit> saved;
  std::int64_t observed = 0;
  on_proc([&] {
    Roots<1> r;
    r[0] = h.alloc_record({Value::from_int(642)});
    mp::cont::callcc<mp::cont::Unit>(
        [&](mp::cont::Cont<mp::cont::Unit> k) -> mp::cont::Unit {
          saved = std::move(k);
          mp::cont::exit_to_idle();
        });
    // Resumed after a collection: the suspended frame's root must have been
    // updated when the object moved.
    observed = r[0].field(0).as_int();
  });
  on_proc([&] { h.collect_now(); });
  saved.preload(mp::cont::Unit{});
  mp::cont::run_from_idle(saved.ref(), exec_);
  EXPECT_EQ(observed, 642);
}
TEST_F(GcTest, SuspendedThreadRootChainIsTraced) {
  suspended_thread_root_chain_is_traced();
}
TEST_P(GcCollectorTest, SuspendedThreadRootChainIsTraced) {
  suspended_thread_root_chain_is_traced();
}

void GcTest::large_array_goes_to_large_object_space() {
  Heap& h = make_heap(/*nursery_bytes=*/32 * 1024);
  on_proc([&] {
    Roots<1> r;
    r[0] = h.alloc_array(10000, Value::from_int(4));  // bigger than a chunk
    EXPECT_TRUE(h.in_los(r[0]));
    EXPECT_FALSE(h.in_old_space(r[0]));
    EXPECT_EQ(h.stats().large_allocs, 1u);
    EXPECT_GT(h.stats().los_bytes, 10000u * 8u);
    h.store(r[0], 9999, Value::from_int(-4));
    h.collect_now();
    EXPECT_EQ(r[0].field(9999).as_int(), -4);
    EXPECT_EQ(r[0].field(0).as_int(), 4);
    // LOS objects are never copied: the Value is stable across a major.
    const std::uint64_t bits_before = r[0].raw_bits();
    h.collect_now(/*force_major=*/true);
    EXPECT_EQ(r[0].raw_bits(), bits_before);
    EXPECT_TRUE(h.in_los(r[0]));
  });
}
TEST_F(GcTest, LargeArrayGoesToLargeObjectSpace) {
  large_array_goes_to_large_object_space();
}
TEST_P(GcCollectorTest, LargeArrayGoesToLargeObjectSpace) {
  large_array_goes_to_large_object_space();
}

void GcTest::chunk_grab_stats_accumulate() {
  Heap& h = make_heap(/*nursery_bytes=*/64 * 1024);
  on_proc([&] {
    for (int i = 0; i < 5000; i++) h.alloc_record({Value::from_int(i)});
    const auto s = h.stats();
    EXPECT_GT(s.chunk_grabs, 1u);
    EXPECT_GE(s.words_allocated, 10000u);
    EXPECT_EQ(s.allocations, 5000u);
  });
}
TEST_F(GcTest, ChunkGrabStatsAccumulate) { chunk_grab_stats_accumulate(); }
TEST_P(GcCollectorTest, ChunkGrabStatsAccumulate) {
  chunk_grab_stats_accumulate();
}

void GcTest::verify_passes_on_a_healthy_heap() {
  Heap& h = make_heap();
  on_proc([&] {
    Roots<3> r;
    r[0] = h.alloc_record({Value::from_int(1), Value::from_int(2)});
    r[1] = h.alloc_array(10, r[0]);
    r[2] = h.alloc_bytes("verify me");
    std::string err;
    EXPECT_TRUE(h.verify(&err)) << err;
    h.collect_now();
    EXPECT_TRUE(h.verify(&err)) << err;
    h.collect_now(/*force_major=*/true);
    EXPECT_TRUE(h.verify(&err)) << err;
  });
}
TEST_F(GcTest, VerifyPassesOnAHealthyHeap) {
  verify_passes_on_a_healthy_heap();
}
TEST_P(GcCollectorTest, VerifyPassesOnAHealthyHeap) {
  verify_passes_on_a_healthy_heap();
}

void GcTest::verify_detects_a_corrupted_header() {
  Heap& h = make_heap();
  on_proc([&] {
    Roots<1> r;
    r[0] = h.alloc_record({Value::from_int(5)});
    h.collect_now();  // promote so the object is in the verified old space
    ASSERT_TRUE(h.in_old_space(r[0]));
    auto* words = reinterpret_cast<std::uint64_t*>(r[0].raw_bits());
    const std::uint64_t saved = words[0];
    words[0] = 0xDEADBEEFull << 4 | (7u << 1);  // invalid kind
    std::string err;
    EXPECT_FALSE(h.verify(&err));
    EXPECT_FALSE(err.empty());
    words[0] = saved;  // restore so teardown stays sane
    EXPECT_TRUE(h.verify(&err)) << err;
  });
}
TEST_F(GcTest, VerifyDetectsACorruptedHeader) {
  verify_detects_a_corrupted_header();
}
TEST_P(GcCollectorTest, VerifyDetectsACorruptedHeader) {
  verify_detects_a_corrupted_header();
}

// ---------- configuration ----------

TEST_F(GcTest, HeapConfigNamedSettersChain) {
  HeapConfig cfg;
  cfg.with_nursery_bytes(128 * 1024)
      .with_chunks_per_proc(2)
      .with_old_bytes(2u << 20)
      .with_major_fraction(0.5)
      .with_parallel_gc(true)
      .with_par_block_words(256);
  EXPECT_EQ(cfg.nursery_bytes, 128u * 1024);
  EXPECT_EQ(cfg.chunks_per_proc, 2u);
  EXPECT_EQ(cfg.old_bytes, 2u << 20);
  EXPECT_DOUBLE_EQ(cfg.major_fraction, 0.5);
  EXPECT_TRUE(cfg.parallel_gc);
  EXPECT_EQ(cfg.par_block_words, 256u);
  cfg.validate();  // must not panic
  Heap& h = make_heap_cfg(cfg);
  EXPECT_TRUE(h.config().parallel_gc);
  EXPECT_EQ(h.config().par_block_words, 256u);
}

// ---------- parallel collection (degenerate one-worker world) ----------

// The same object graph must survive collection identically whether the
// phase runs through gc::ParallelCopier (here with the collecting proc as
// the single worker) or the paper's sequential Cheney scan.
TEST_F(GcTest, ParallelAndSequentialCollectionAgree) {
  auto run_mode = [&](bool parallel) -> std::uint64_t {
    const HeapConfig cfg = HeapConfig{}
                               .with_nursery_bytes(64 * 1024)
                               .with_old_bytes(1u << 20)
                               .with_parallel_gc(parallel)
                               .with_par_block_words(64);
    Heap& h = make_heap_cfg(cfg);
    std::uint64_t sum = 0;
    on_proc([&] {
      Roots<2> r;
      // A list with shared substructure plus an array of refs into it.
      r[0] = Value::nil();
      for (int i = 0; i < 200; i++) {
        r[0] = h.cons(h.alloc_record({Value::from_int(i)}), r[0]);
      }
      r[1] = h.alloc_array(16, r[0]);
      h.collect_now();
      h.collect_now(/*force_major=*/true);
      std::string err;
      EXPECT_TRUE(h.verify(&err)) << err;
      for (Value p = r[1].field(7); !p.is_nil(); p = p.field(1)) {
        sum = sum * 31 + static_cast<std::uint64_t>(p.field(0).field(0).as_int());
      }
      EXPECT_EQ(r[1].field(0).raw_bits(), r[1].field(15).raw_bits())
          << "shared list head must be forwarded to one copy";
    });
    return sum;
  };
  const std::uint64_t par = run_mode(true);
  const std::uint64_t seq = run_mode(false);
  EXPECT_EQ(par, seq);
  EXPECT_NE(par, 0u);
}

// Block tails left by the parallel copier are padded with untraced filler
// objects, so the old generation still parses linearly and the live words
// reported by the copier never exceed the space consumed.
TEST_F(GcTest, ParallelCollectionPadsParse) {
  const HeapConfig cfg = HeapConfig{}
                             .with_nursery_bytes(64 * 1024)
                             .with_old_bytes(1u << 20)
                             .with_parallel_gc(true)
                             .with_par_block_words(64);
  Heap& h = make_heap_cfg(cfg);
  on_proc([&] {
    Roots<1> r;
    r[0] = Value::nil();
    for (int i = 0; i < 500; i++) {
      r[0] = h.cons(Value::from_int(i), r[0]);
    }
    h.collect_now();
    std::string err;
    ASSERT_TRUE(h.verify(&err)) << err;
    const auto s = h.stats();
    EXPECT_GE(h.old_space_used_words(), s.words_copied_minor)
        << "pads count toward space used but not toward words copied";
    // All 500 cons cells (3 words each) survived.
    EXPECT_GE(s.words_copied_minor, 1500u);
    int n = 0;
    for (Value p = r[0]; !p.is_nil(); p = p.field(1)) n++;
    EXPECT_EQ(n, 500);
  });
}

using GcDeathTest = GcTest;

TEST_F(GcDeathTest, ZeroChunkNurseryPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(HeapConfig{}.with_chunks_per_proc(0).validate(),
               "chunks_per_proc");
}

TEST_F(GcDeathTest, NonPowerOfTwoNurseryPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(HeapConfig{}.with_nursery_bytes(3 * 1024).validate(),
               "power of two");
}

TEST_F(GcDeathTest, NonPowerOfTwoOldSpacePanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(HeapConfig{}.with_old_bytes(48u << 20).validate(),
               "power of two");
}

TEST_F(GcDeathTest, BadMajorFractionPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(HeapConfig{}.with_major_fraction(0.0).validate(),
               "major_fraction");
}

TEST_F(GcDeathTest, TinyParBlockPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(HeapConfig{}.with_par_block_words(32).validate(),
               "par_block_words");
}

TEST_F(GcDeathTest, AllocationOffProcPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Heap& h = make_heap();
        mp::cont::set_current_exec(nullptr);
        h.alloc_record({});
      },
      "outside a proc");
}

TEST_F(GcDeathTest, StoreToRecordPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Heap& h = make_heap();
        on_proc([&] {
          Value r = h.alloc_record({Value::from_int(1)});
          h.store(r, 0, Value::from_int(2));
        });
      },
      "immutable");
}

TEST_F(GcDeathTest, OutOfRangeFieldPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Heap& h = make_heap();
        on_proc([&] {
          Value r = h.alloc_record({Value::from_int(1)});
          (void)r.field(1);
        });
      },
      "out of range");
}

}  // namespace
