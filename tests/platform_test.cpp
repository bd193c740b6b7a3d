// Tests of the MP platform API (paper Figure 2) run against BOTH backends:
// the deterministic simulator and real kernel threads.  The client code is
// identical for the two — which is itself the paper's portability claim.
// The clean-point tests that need one proc only run on the uniprocessor too.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "arch/tas.h"
#include "cont/cont.h"
#include "gc/roots.h"
#include "mp/native_platform.h"
#include "mp/platform.h"
#include "mp/sim_platform.h"
#include "mp/uni_platform.h"

namespace {

using mp::cont::callcc;
using mp::cont::Cont;
using mp::cont::fire_preloaded;
using mp::cont::throw_to;
using mp::cont::Unit;
using mp::gc::Roots;
using mp::gc::Value;

enum class Backend { kSim, kNative, kUni };

std::string backend_name(const ::testing::TestParamInfo<Backend>& info) {
  switch (info.param) {
    case Backend::kSim: return "Sim";
    case Backend::kNative: return "Native";
    case Backend::kUni: return "Uni";
  }
  return "?";
}

class PlatformTest : public ::testing::TestWithParam<Backend> {
 protected:
  std::unique_ptr<mp::Platform> make(int procs, double preempt_us = 0,
                                     std::size_t nursery = 256 * 1024) {
    switch (GetParam()) {
      case Backend::kSim: {
        mp::SimPlatformConfig cfg;
        cfg.machine = mp::sim::sequent_s81(procs);
        cfg.preempt_interval_us = preempt_us;
        cfg.heap.nursery_bytes = nursery;
        return std::make_unique<mp::SimPlatform>(cfg);
      }
      case Backend::kNative: {
        mp::NativePlatformConfig cfg;
        cfg.max_procs = procs;
        cfg.preempt_interval_us = preempt_us;
        cfg.heap.nursery_bytes = nursery;
        return std::make_unique<mp::NativePlatform>(cfg);
      }
      case Backend::kUni: {
        EXPECT_EQ(procs, 1) << "the uniprocessor has one proc";
        mp::UniPlatformConfig cfg;
        cfg.preempt_interval_us = preempt_us;
        cfg.heap.nursery_bytes = nursery;
        return std::make_unique<mp::UniPlatform>(cfg);
      }
    }
    __builtin_unreachable();
  }
};

// The one-proc tests again on the uniprocessor (UniPlatform), whose clean
// point is the same inline poll as the native backend's.
class OneProcTest : public PlatformTest {};

// Aborts the test binary unless disarmed within `limit`: a test whose
// failure is a hang (a collector waiting forever for a proc) fails instead.
class Watchdog {
 public:
  Watchdog(std::chrono::seconds limit, const char* what)
      : thread_([this, limit, what] {
          std::unique_lock<std::mutex> lk(mu_);
          if (!cv_.wait_for(lk, limit, [this] { return disarmed_; })) {
            std::fprintf(stderr, "watchdog: %s\n", what);
            std::abort();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      disarmed_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread thread_;
};

TEST_P(PlatformTest, RunRootToCompletion) {
  auto p = make(2);
  bool ran = false;
  p->run([&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_TRUE(p->done());
}

TEST_P(PlatformTest, RootDatum) {
  auto p = make(1);
  mp::Datum seen = 0;
  p->run([&] {
    seen = p->get_datum();
    p->set_datum(99);
    EXPECT_EQ(p->get_datum(), 99u);
  },
         /*root_datum=*/42);
  EXPECT_EQ(seen, 42u);
}

TEST_P(PlatformTest, RootRunsOnProcZero) {
  auto p = make(3);
  int id = -1;
  p->run([&] { id = p->proc_id(); });
  EXPECT_EQ(id, 0);
}

// The paper's fork shape (Figure 3): capture the parent, hand it to a new
// proc, run the child on the current proc.
TEST_P(PlatformTest, AcquireProcRunsWorkInParallel) {
  constexpr int kProcs = 4;
  auto p = make(kProcs);
  std::atomic<int> workers_done{0};
  std::set<int> worker_procs;
  mp::MutexLock set_lock;
  p->run([&] {
    set_lock = p->mutex_lock();
    for (int i = 1; i < kProcs; i++) {
      callcc<Unit>([&](Cont<Unit> parent) -> Unit {
        if (!p->try_acquire_proc(std::move(parent), 0)) {
          ADD_FAILURE() << "proc " << i << " unavailable";
        }
        // This body is now the worker on the original proc; the parent
        // continues on the freshly acquired proc.
        p->lock(set_lock);
        worker_procs.insert(p->proc_id());
        p->unlock(set_lock);
        workers_done.fetch_add(1);
        p->release_proc();
      });
    }
    while (workers_done.load() < kProcs - 1) p->work(10);
  });
  EXPECT_EQ(workers_done.load(), kProcs - 1);
  // Workers run on whichever proc the forking thread occupied, and released
  // procs are re-used, so we only require that more than one proc did work.
  EXPECT_GE(worker_procs.size(), 2u);
  EXPECT_LE(worker_procs.size(), static_cast<std::size_t>(kProcs));
}

TEST_P(PlatformTest, NoMoreProcsAtLimit) {
  constexpr int kProcs = 3;
  auto p = make(kProcs);
  int acquired = 0;
  bool exhausted = false;
  std::atomic<int> release_count{0};
  std::atomic<bool> quit{false};
  p->run([&] {
    // Occupy every proc with a spinning worker, then one more acquire must
    // raise No_More_Procs.
    for (int i = 0; i < kProcs + 1; i++) {
      bool ok = true;
      callcc<Unit>([&](Cont<Unit> parent) -> Unit {
        try {
          p->acquire_proc(parent, 0);
        } catch (const mp::NoMoreProcs&) {
          ok = false;
          fire_preloaded(std::move(parent).take_ref());
        }
        // Worker: spin until told to quit.
        while (!quit.load()) p->work(10);
        release_count.fetch_add(1);
        p->release_proc();
      });
      if (ok) {
        acquired++;
      } else {
        exhausted = true;
        break;
      }
    }
    quit.store(true);
    while (release_count.load() < acquired) p->work(10);
  });
  EXPECT_TRUE(exhausted);
  EXPECT_EQ(acquired, kProcs - 1);  // the root holds one proc throughout
}

TEST_P(PlatformTest, ReleasedProcsAreReused) {
  auto p = make(2);
  p->run([&] {
    for (int round = 0; round < 5; round++) {
      std::atomic<bool> child_ran{false};
      callcc<Unit>([&](Cont<Unit> parent) -> Unit {
        p->acquire_proc(parent, 0);
        child_ran.store(true);
        p->release_proc();
      });
      while (!child_ran.load()) p->work(10);
      // Wait for the worker to actually release its proc before re-acquiring.
      while (p->active_procs() > 1) p->work(10);
    }
  });
}

TEST_P(PlatformTest, TryLockSemantics) {
  auto p = make(1);
  p->run([&] {
    mp::MutexLock l = p->mutex_lock();
    EXPECT_TRUE(p->try_lock(l));
    EXPECT_FALSE(p->try_lock(l));
    p->unlock(l);
    EXPECT_TRUE(p->try_lock(l));
    p->unlock(l);
  });
}

TEST_P(PlatformTest, LocksAreIndependent) {
  auto p = make(1);
  p->run([&] {
    mp::MutexLock a = p->mutex_lock();
    mp::MutexLock b = p->mutex_lock();
    EXPECT_TRUE(p->try_lock(a));
    EXPECT_TRUE(p->try_lock(b));
    p->unlock(a);
    EXPECT_TRUE(p->try_lock(a));
    p->unlock(a);
    p->unlock(b);
  });
}

TEST_P(PlatformTest, LockProvidesMutualExclusion) {
  constexpr int kProcs = 4;
  constexpr int kIters = 500;
  auto p = make(kProcs);
  long counter = 0;  // deliberately unprotected by atomics
  std::atomic<int> done_workers{0};
  p->run([&] {
    mp::MutexLock l = p->mutex_lock();
    for (int i = 1; i < kProcs; i++) {
      callcc<Unit>([&](Cont<Unit> parent) -> Unit {
        p->acquire_proc(parent, 0);
        for (int n = 0; n < kIters; n++) {
          p->lock(l);
          counter++;  // protected read-modify-write
          p->unlock(l);
          p->work(5);
        }
        done_workers.fetch_add(1);
        p->release_proc();
      });
    }
    for (int n = 0; n < kIters; n++) {
      p->lock(l);
      counter++;
      p->unlock(l);
      p->work(5);
    }
    while (done_workers.load() < kProcs - 1) p->work(10);
  });
  EXPECT_EQ(counter, static_cast<long>(kProcs) * kIters);
}

TEST_P(PlatformTest, UnlockByADifferentProc) {
  auto p = make(2);
  std::atomic<bool> child_done{false};
  p->run([&] {
    mp::MutexLock l = p->mutex_lock();
    p->lock(l);
    callcc<Unit>([&](Cont<Unit> parent) -> Unit {
      p->acquire_proc(parent, 0);
      // The paper allows unlock by any proc, not just the one that set it.
      p->unlock(l);
      child_done.store(true);
      p->release_proc();
    });
    while (!child_done.load()) p->work(10);
    EXPECT_TRUE(p->try_lock(l));
    p->unlock(l);
  });
}

void signals_delivered_at_safe_points(std::unique_ptr<mp::Platform> p) {
  int delivered = 0;
  p->run([&] {
    p->set_signal_handler(mp::Sig::kUsr1, [&] { delivered++; });
    p->post_signal(mp::Sig::kUsr1);
    EXPECT_EQ(delivered, 0) << "delivery only happens at safe points";
    p->safe_point();
    EXPECT_EQ(delivered, 1);
    p->safe_point();
    EXPECT_EQ(delivered, 1) << "a signal is consumed by its delivery";
  });
}
TEST_P(PlatformTest, SignalsDeliveredAtSafePoints) {
  signals_delivered_at_safe_points(make(1));
}
TEST_P(OneProcTest, SignalsDeliveredAtSafePoints) {
  signals_delivered_at_safe_points(make(1));
}

void masked_signals_are_held_pending(std::unique_ptr<mp::Platform> p) {
  int delivered = 0;
  p->run([&] {
    p->set_signal_handler(mp::Sig::kUsr2, [&] { delivered++; });
    p->mask_signal(mp::Sig::kUsr2);
    p->post_signal(mp::Sig::kUsr2);
    p->safe_point();
    EXPECT_EQ(delivered, 0);
    p->unmask_signal(mp::Sig::kUsr2);
    p->safe_point();
    EXPECT_EQ(delivered, 1);
  });
}
TEST_P(PlatformTest, MaskedSignalsAreHeldPending) {
  masked_signals_are_held_pending(make(1));
}
TEST_P(OneProcTest, MaskedSignalsAreHeldPending) {
  masked_signals_are_held_pending(make(1));
}

TEST_P(PlatformTest, HeapAllocationAndCollectionAcrossProcs) {
  constexpr int kProcs = 3;
  auto p = make(kProcs, 0, /*nursery=*/64 * 1024);
  std::atomic<int> done_workers{0};
  p->run([&] {
    auto& h = p->heap();
    Roots<1> r;
    r[0] = h.alloc_record({Value::from_int(1234)});
    for (int i = 1; i < kProcs; i++) {
      callcc<Unit>([&](Cont<Unit> parent) -> Unit {
        p->acquire_proc(parent, 0);
        // Worker: allocate heavily, forcing shared minor collections.
        {
          Roots<1> mine;
          mine[0] = h.alloc_record({Value::from_int(p->proc_id())});
          for (int n = 0; n < 5000; n++) {
            h.alloc_record({Value::from_int(n), mine[0]});
          }
          if (mine[0].field(0).as_int() != p->proc_id()) {
            ADD_FAILURE() << "worker root corrupted by collection";
          }
        }
        done_workers.fetch_add(1);
        p->release_proc();
      });
    }
    for (int n = 0; n < 5000; n++) h.alloc_record({Value::from_int(n)});
    while (done_workers.load() < kProcs - 1) p->work(10);
    EXPECT_EQ(r[0].field(0).as_int(), 1234);
    EXPECT_GT(h.stats().minor_gcs, 0u);
  });
}

void preemption_signal_fires(std::unique_ptr<mp::Platform> p) {
  int preempts = 0;
  p->run([&] {
    p->set_signal_handler(mp::Sig::kPreempt, [&] { preempts++; });
    // now_us is virtual on the simulator and real time on native hardware;
    // either way the timer must fire well within 2 seconds.
    while (preempts == 0 && p->now_us() < 2e6) p->work(100);
  });
  EXPECT_GT(preempts, 0);
}
TEST_P(PlatformTest, PreemptionSignalFires) {
  preemption_signal_fires(make(1, /*preempt_us=*/500));
}
TEST_P(OneProcTest, PreemptionSignalFires) {
  preemption_signal_fires(make(1, /*preempt_us=*/500));
}

// A signal posted by a thread that is no proc (as the preemption ticker
// is) is consumed at the target proc's next work(), with nothing else
// happening in between.
void signal_from_a_plain_thread(std::unique_ptr<mp::Platform> p) {
  int delivered = 0;
  p->run([&] {
    p->set_signal_handler(mp::Sig::kUsr1, [&] { delivered++; });
    std::atomic<bool> posted{false};
    std::thread poster([&] {
      p->post_signal(mp::Sig::kUsr1);
      posted.store(true, std::memory_order_release);
    });
    while (!posted.load(std::memory_order_acquire)) mp::arch::cpu_relax();
    poster.join();
    EXPECT_EQ(delivered, 0);
    p->work(1);
    EXPECT_EQ(delivered, 1);
  });
}
TEST_P(PlatformTest, SignalFromAPlainThreadIsConsumedAtTheNextWork) {
  signal_from_a_plain_thread(make(1));
}
TEST_P(OneProcTest, SignalFromAPlainThreadIsConsumedAtTheNextWork) {
  signal_from_a_plain_thread(make(1));
}

INSTANTIATE_TEST_SUITE_P(Backends, PlatformTest,
                         ::testing::Values(Backend::kSim, Backend::kNative),
                         backend_name);
INSTANTIATE_TEST_SUITE_P(Backends, OneProcTest,
                         ::testing::Values(Backend::kUni), backend_name);

// ---------- native-specific behaviour ----------

// A proc that only computes reaches no clean point but work(): its inline
// poll must park it for every collection the other proc starts, or that
// collection waits forever.
TEST(NativePlatform, WorkOnlyProcJoinsEveryCollection) {
  mp::NativePlatformConfig cfg;
  cfg.max_procs = 2;
  cfg.heap.nursery_bytes = 64 * 1024;
  mp::NativePlatform p(cfg);
  const Watchdog dog(std::chrono::seconds(60),
                     "a collection waited for a proc in a work() loop");
  std::atomic<bool> computing{false};
  std::atomic<bool> allocating{true};
  std::uint64_t minors = 0;
  p.run([&] {
    callcc<Unit>([&](Cont<Unit> parent) -> Unit {
      p.acquire_proc(parent, 0);
      computing.store(true);
      while (allocating.load(std::memory_order_acquire)) p.work(1);
      p.release_proc();
    });
    while (!computing.load()) mp::arch::cpu_relax();
    auto& h = p.heap();
    Roots<1> r;
    while (h.stats().minor_gcs < 50) {
      r[0] = Value::nil();  // a list of 1000 cells, dropped at the next one
      for (int i = 0; i < 1000; i++) {
        r[0] = h.alloc_record({Value::from_int(i), r[0]});
      }
    }
    minors = h.stats().minor_gcs;
    allocating.store(false, std::memory_order_release);
  });
  EXPECT_GE(minors, 50u);
}

// ---------- simulator-specific behaviour ----------

TEST(SimPlatform, DeterministicAcrossRuns) {
  auto run_once = [] {
    mp::SimPlatformConfig cfg;
    cfg.machine = mp::sim::sequent_s81(4);
    mp::SimPlatform p(cfg);
    std::atomic<int> done_workers{0};
    p.run([&] {
      mp::MutexLock l = p.mutex_lock();
      for (int i = 1; i < 4; i++) {
        callcc<Unit>([&](Cont<Unit> parent) -> Unit {
          p.acquire_proc(parent, 0);
          for (int n = 0; n < 200; n++) {
            p.lock(l);
            p.work(20);
            p.unlock(l);
            p.work(p.rng().below(50));
          }
          done_workers.fetch_add(1);
          p.release_proc();
        });
      }
      while (done_workers.load() < 3) p.work(10);
    });
    return p.report();
  };
  const mp::SimReport a = run_once();
  const mp::SimReport b = run_once();
  EXPECT_EQ(a.total_us, b.total_us);
  EXPECT_EQ(a.busy_us, b.busy_us);
  EXPECT_EQ(a.spin_us, b.spin_us);
  EXPECT_EQ(a.bus.bytes, b.bus.bytes);
  EXPECT_EQ(a.lock_acquires, b.lock_acquires);
}

TEST(SimPlatform, LockCostMatchesMachineModel) {
  // Paper section 6 footnote: lock+unlock takes ~46us on the Sequent and
  // ~6us on the SGI.  The machine models are calibrated to land near these.
  auto lock_pair_us = [](const mp::sim::MachineModel& m) {
    mp::SimPlatformConfig cfg;
    cfg.machine = m;
    mp::SimPlatform p(cfg);
    double elapsed = 0;
    p.run([&] {
      mp::MutexLock l = p.mutex_lock();
      const double t0 = p.now_us();
      constexpr int kPairs = 1000;
      for (int i = 0; i < kPairs; i++) {
        p.lock(l);
        p.unlock(l);
      }
      elapsed = (p.now_us() - t0) / kPairs;
    });
    return elapsed;
  };
  const double sequent = lock_pair_us(mp::sim::sequent_s81(1));
  const double sgi = lock_pair_us(mp::sim::sgi_4d380(1));
  EXPECT_NEAR(sequent, 46.0, 8.0);
  EXPECT_NEAR(sgi, 6.0, 1.5);
}

TEST(SimPlatform, BusSaturationSlowsAllocation) {
  // Allocation traffic from many procs must queue on the shared bus: the
  // 16-proc run cannot allocate 16x faster than the 1-proc run.
  auto alloc_run_us = [](int procs) {
    mp::SimPlatformConfig cfg;
    cfg.machine = mp::sim::sequent_s81(procs);
    cfg.heap.nursery_bytes = 4u << 20;
    mp::SimPlatform p(cfg);
    p.run([&] {
      std::atomic<int> done_workers{0};
      for (int i = 1; i < procs; i++) {
        callcc<Unit>([&](Cont<Unit> parent) -> Unit {
          p.acquire_proc(parent, 0);
          for (int n = 0; n < 3000; n++) {
            p.heap().alloc_record(
                {Value::from_int(n), Value::from_int(n + 1)});
          }
          done_workers.fetch_add(1);
          p.release_proc();
        });
      }
      for (int n = 0; n < 3000; n++) {
        p.heap().alloc_record({Value::from_int(n), Value::from_int(n + 1)});
      }
      while (done_workers.load() < procs - 1) p.work(10);
    });
    return p.report();
  };
  const auto r1 = alloc_run_us(1);
  const auto r16 = alloc_run_us(16);
  // Same per-proc work; with a saturated bus the 16-proc run takes longer
  // than the 1-proc run rather than matching it.
  EXPECT_GT(r16.total_us, r1.total_us * 1.5);
  EXPECT_GT(r16.bus.busy_us / r16.total_us, 0.8) << "bus should be saturated";
}

TEST(SimPlatform, DeadlockPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        mp::SimPlatformConfig cfg;
        cfg.machine = mp::sim::uniprocessor();
        mp::SimPlatform p(cfg);
        p.run([&] {
          // Release the only proc without completing the computation.
          p.release_proc();
        });
      },
      "deadlock");
}

}  // namespace
