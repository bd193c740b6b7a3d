// Tests for the pooled stack-slot subsystem: StackConfig validation, slot
// pooling and committed-byte accounting, guard-page overflow reporting (one
// death test per backend), a parked-thread mini-soak, and simulator
// bit-reproducibility of pooled-slot runs.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "arch/fiber_san.h"
#include "cont/cont.h"
#include "cont/exec.h"
#include "cont/segment.h"
#include "cont/stack_config.h"
#include "mp/native_platform.h"
#include "mp/sim_platform.h"
#include "mp/uni_platform.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

namespace {

using mp::cont::callcc;
using mp::cont::callcc_on;
using mp::cont::Cont;
using mp::cont::ContRef;
using mp::cont::exit_to_idle;
using mp::cont::make_entry;
using mp::cont::run_from_idle;
using mp::cont::SegmentPool;
using mp::cont::StackClass;
using mp::cont::StackConfig;
using mp::cont::throw_to;
using mp::cont::Unit;
using mp::threads::CountdownLatch;
using mp::threads::Scheduler;
using mp::threads::ThreadState;

// Same minimal proc as cont_test: an ExecContext plus an idle context the
// test thread drives directly.
class ManualProc {
 public:
  ManualProc() {
    exec_.idle_ctx = &idle_ctx_;
    mp::cont::set_current_exec(&exec_);
  }
  ~ManualProc() { mp::cont::set_current_exec(nullptr); }

  void run(std::function<void()> f) {
    run_from_idle(make_entry(std::move(f)), exec_);
  }
  void resume(ContRef k) { run_from_idle(std::move(k), exec_); }

 private:
  mp::cont::ExecContext exec_;
  mp::arch::Context idle_ctx_;
};

class StackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    baseline_segments_ = SegmentPool::instance().outstanding();
  }
  void TearDown() override {
    EXPECT_EQ(SegmentPool::instance().outstanding(), baseline_segments_)
        << "stack segments leaked by test";
    // Leave the process-wide pool on the default geometry for later tests.
    SegmentPool::instance().configure(StackConfig{});
  }

  std::int64_t baseline_segments_ = 0;
};

// ---- StackConfig validation: one death per rule ----

using StackConfigDeathTest = StackTest;

TEST_F(StackConfigDeathTest, SmallClassBelowMinimumPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(StackConfig{}.with_small_stack_bytes(4 * 1024).validate(),
               "small stack class below the 8 KiB minimum");
}

TEST_F(StackConfigDeathTest, LargeClassBelowSmallPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(StackConfig{}
                   .with_small_stack_bytes(32 * 1024)
                   .with_large_stack_bytes(16 * 1024)
                   .validate(),
               "large stack class smaller than the small class");
}

TEST_F(StackConfigDeathTest, ClassAboveCeilingPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      StackConfig{}.with_large_stack_bytes(std::size_t{512} << 20).validate(),
      "stack class above the 256 MiB ceiling");
}

TEST_F(StackConfigDeathTest, TooManyGuardPagesPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(StackConfig{}.with_guard_pages(65).validate(),
               "more than 64 guard pages");
}

TEST_F(StackConfigDeathTest, TooFewSlotsPerArenaPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(StackConfig{}.with_slots_per_arena(4).validate(),
               "fewer than 8 slots per arena");
}

TEST_F(StackConfigDeathTest, TooManySlotsPerArenaPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      StackConfig{}.with_slots_per_arena(std::size_t{2} << 20).validate(),
      "more than 2\\^20 slots per arena");
}

TEST_F(StackConfigDeathTest, CacheAboveCapPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(StackConfig{}.with_cache_slots_per_proc(5000).validate(),
               "per-proc slot cache above the 4096 cap");
}

TEST_F(StackConfigDeathTest, ReconfigureWithSegmentsOutstandingPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ManualProc proc;
        Cont<Unit> saved;
        proc.run([&] {
          callcc<Unit>([&](Cont<Unit> k) -> Unit {
            saved = std::move(k);
            exit_to_idle();
          });
        });
        // `saved` pins a live segment; changing the geometry now must panic.
        SegmentPool::instance().configure(
            StackConfig{}.with_small_stack_bytes(32 * 1024));
      },
      "cannot reconfigure stack slots while segments are outstanding");
}

// ---- pooling behaviour ----

TEST_F(StackTest, SmallClassSegmentsAreRecycled) {
  ManualProc proc;
  const auto created_before = SegmentPool::instance().total_created();
  proc.run([&] {
    for (int i = 0; i < 1000; i++) {
      callcc_on<int>(StackClass::kSmall, [&](Cont<int> k) -> int {
        throw_to(std::move(k), 0);
      });
    }
  });
  EXPECT_LE(SegmentPool::instance().total_created() - created_before, 8);
}

TEST_F(StackTest, CallccInheritsStackClassOfCurrentSegment) {
  // A nested capture inside a kSmall body must carve kSmall replacement
  // slots, not kLarge ones: after warm-up, repeated nested captures should
  // create no fresh slots of either class.
  ManualProc proc;
  proc.run([&] {
    callcc_on<Unit>(StackClass::kSmall, [&](Cont<Unit> outer) -> Unit {
      const auto created_before = SegmentPool::instance().total_created();
      for (int i = 0; i < 500; i++) {
        callcc<int>([&](Cont<int> k) -> int {  // inherits kSmall
          throw_to(std::move(k), 0);
        });
      }
      EXPECT_LE(SegmentPool::instance().total_created() - created_before, 4);
      throw_to(std::move(outer), Unit{});
    });
  });
}

TEST_F(StackTest, CommittedBytesTrackLiveSlotsAndTrimReleasesThem) {
  std::int64_t committed_live = 0;
  {
    ManualProc proc;
    std::vector<Cont<Unit>> parked;
    for (int i = 0; i < 64; i++) {
      proc.run([&] {
        callcc_on<Unit>(StackClass::kSmall, [&](Cont<Unit> k) -> Unit {
          parked.push_back(std::move(k));
          exit_to_idle();
        });
      });
    }
    committed_live = SegmentPool::instance().committed_bytes();
    // 64 live small slots plus change must be committed.
    EXPECT_GE(committed_live,
              64 * static_cast<std::int64_t>(
                       SegmentPool::instance().config().small_stack_bytes));
    parked.clear();  // drop every suspended thread
  }  // ManualProc dtor drains the per-proc slot cache to the global pool
  SegmentPool::instance().trim();
  // Everything was released: the committed gauge must have fallen back to
  // (at most) where this test found it, minus the 64 slots we freed.
  EXPECT_LE(SegmentPool::instance().committed_bytes(),
            committed_live -
                64 * static_cast<std::int64_t>(
                         SegmentPool::instance().config().small_stack_bytes));
}

TEST_F(StackTest, SpawnOptsThreadNamesAndSmallStacksRunEverywhere) {
  // Functional check on all three backends: a small-stack named thread runs
  // and joins.  (The fault-report content is covered by the death tests.)
  const auto opts = Scheduler::SpawnOpts{}
                        .with_stack(StackClass::kSmall)
                        .with_name("worker");
  for (int backend = 0; backend < 3; backend++) {
    std::unique_ptr<mp::Platform> p;
    if (backend == 0) {
      mp::NativePlatformConfig cfg;
      cfg.max_procs = 2;
      p = std::make_unique<mp::NativePlatform>(cfg);
    } else if (backend == 1) {
      p = std::make_unique<mp::UniPlatform>(mp::UniPlatformConfig{});
    } else {
      mp::SimPlatformConfig cfg;
      cfg.machine = mp::sim::sequent_s81(2);
      p = std::make_unique<mp::SimPlatform>(cfg);
    }
    std::atomic<int> ran{0};
    Scheduler::run(*p, {}, [&](Scheduler& s) {
      for (int i = 0; i < 8; i++) {
        s.fork([&] { ran.fetch_add(1); }, opts);
      }
    });
    EXPECT_EQ(ran.load(), 8) << "backend " << backend;
  }
}

// ---- guard-page overflow: deterministic fault, panic names the thread ----

// Burn stack until the guard page faults.  The volatile frame keeps the
// recursion honest (no tail call, no frame elision).
__attribute__((noinline)) int burn_stack(int depth) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  if (depth <= 0) return frame[0];
  return burn_stack(depth - 1) + frame[0];
}

#if !MPNJ_SAN_ADDRESS && !MPNJ_SAN_THREAD
// Sanitizers own the SIGSEGV handler (and ASan would flag the guard hit
// itself); the overflow report is a plain-build feature.

using StackOverflowDeathTest = StackTest;

constexpr const char* kOverflowPattern =
    "stack overflow: thread [0-9]+ \\(burner\\) overflowed its "
    "[0-9]+-byte stack slot";

TEST_F(StackOverflowDeathTest, NativeOverflowPanicsNamingThread) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        mp::NativePlatformConfig cfg;
        cfg.max_procs = 2;
        mp::NativePlatform p(cfg);
        Scheduler::run(p, {}, [&](Scheduler& s) {
          s.fork([&] { burn_stack(1 << 20); },
                 Scheduler::SpawnOpts{}
                     .with_stack(StackClass::kSmall)
                     .with_name("burner"));
        });
      },
      kOverflowPattern);
}

TEST_F(StackOverflowDeathTest, UniOverflowPanicsNamingThread) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        mp::UniPlatform p(mp::UniPlatformConfig{});
        Scheduler::run(p, {}, [&](Scheduler& s) {
          s.fork([&] { burn_stack(1 << 20); },
                 Scheduler::SpawnOpts{}
                     .with_stack(StackClass::kSmall)
                     .with_name("burner"));
        });
      },
      kOverflowPattern);
}

TEST_F(StackOverflowDeathTest, SimOverflowPanicsNamingThread) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        mp::SimPlatformConfig cfg;
        cfg.machine = mp::sim::sequent_s81(2);
        mp::SimPlatform p(cfg);
        Scheduler::run(p, {}, [&](Scheduler& s) {
          s.fork([&] { burn_stack(1 << 20); },
                 Scheduler::SpawnOpts{}
                     .with_stack(StackClass::kSmall)
                     .with_name("burner"));
        });
      },
      kOverflowPattern);
}

TEST_F(StackOverflowDeathTest, UnnamedThreadReportedAsUnnamed) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        mp::NativePlatformConfig cfg;
        cfg.max_procs = 2;
        mp::NativePlatform p(cfg);
        Scheduler::run(p, {}, [&](Scheduler& s) {
          s.fork([&] { burn_stack(1 << 20); },
                 Scheduler::SpawnOpts{}.with_stack(StackClass::kSmall));
        });
      },
      "stack overflow: thread [0-9]+ \\(unnamed\\)");
}

#endif  // !MPNJ_SAN_ADDRESS && !MPNJ_SAN_THREAD

// ---- mini-soak: thousands of guarded parked threads, then full drain ----

TEST_F(StackTest, TenThousandParkedGuardedThreadsDrainCleanly) {
#if MPNJ_SAN_THREAD
  // TSan models every stack slot as a fiber and dies at 8128 of them; keep
  // the same shape well under that hard limit.
  constexpr int kThreads = 4000;
#else
  constexpr int kThreads = 10000;
#endif
  mp::NativePlatformConfig cfg;
  cfg.max_procs = 2;
  cfg.stack = StackConfig{}
                  .with_small_stack_bytes(8 * 1024)
                  .with_guard_pages(1)
                  .with_slots_per_arena(1024);
  mp::NativePlatform p(cfg);
  auto& pool = SegmentPool::instance();
  Scheduler::run(p, {}, [&](Scheduler& s) {
    std::vector<ThreadState> parked(kThreads);
    std::atomic<std::size_t> idx{0};
    CountdownLatch done(s, kThreads);
    const auto opts = Scheduler::SpawnOpts{}
                          .with_stack(StackClass::kSmall)
                          .with_name("parked");
    for (int i = 0; i < kThreads; i++) {
      s.fork(
          [&] {
            s.suspend([&](ThreadState t) {
              parked[idx.fetch_add(1, std::memory_order_relaxed)] =
                  std::move(t);
            });
            done.count_down();
          },
          opts);
      if ((i & 15) == 15) s.yield();
    }
    while (idx.load(std::memory_order_acquire) < kThreads) s.yield();

    // All live at once: at least kThreads small slots are committed.
    EXPECT_GE(pool.committed_bytes(),
              static_cast<std::int64_t>(kThreads) * 8 * 1024);
    EXPECT_GE(pool.outstanding(), kThreads);

    for (auto& t : parked) s.reschedule(std::move(t));
    done.await();
  });
}

// ---- simulator bit-reproducibility with pooled slots ----

TEST_F(StackTest, SimPooledSlotRunsAreBitReproducible) {
  // Fresh-slot commits charge virtual time.  SimPlatform trims the pool
  // cold at boot, and a cold-slot acquire charges exactly what a fresh
  // carve does, so two identical runs must agree on every clock to the
  // last bit no matter what ran before them in this process.
  auto run_once = [] {
    mp::SimPlatformConfig cfg;
    cfg.machine = mp::sim::sequent_s81(4);
    mp::SimPlatform p(cfg);
    Scheduler::run(p, {}, [&](Scheduler& s) {
      CountdownLatch done(s, 200);
      for (int i = 0; i < 200; i++) {
        s.fork(
            [&, i] {
              for (int y = 0; y < (i % 5); y++) s.yield();
              done.count_down();
            },
            Scheduler::SpawnOpts{}.with_stack(
                i % 2 ? StackClass::kSmall : StackClass::kLarge));
      }
      done.await();
    });
    return p.report();
  };
  const mp::SimReport a = run_once();
  const mp::SimReport b = run_once();
  EXPECT_EQ(a.total_us, b.total_us);
  EXPECT_EQ(a.busy_us, b.busy_us);
  EXPECT_EQ(a.idle_us, b.idle_us);
  EXPECT_EQ(a.lock_acquires, b.lock_acquires);
  EXPECT_EQ(a.bus.bytes, b.bus.bytes);
}

}  // namespace
