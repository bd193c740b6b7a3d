// Tests for the trivial uniprocessor backend: the full client stack
// (Figure 3 scheduler, sync primitives, channels, GC) must run unchanged
// on a single cooperatively scheduled proc — the paper's portability
// bottom rung.

#include <gtest/gtest.h>

#include <vector>

#include "cml/cml.h"
#include "cml/sync_cells.h"
#include "gc/roots.h"
#include "mp/uni_platform.h"
#include "threads/mlthreads.h"
#include "threads/scheduler.h"
#include "threads/sync.h"
#include "threads/unithread.h"

namespace {

using mp::UniPlatform;
using mp::UniPlatformConfig;
using mp::cont::callcc;
using mp::cont::Cont;
using mp::cont::Unit;
using mp::gc::Roots;
using mp::gc::Value;
using mp::threads::CountdownLatch;
using mp::threads::Scheduler;
using mp::threads::SchedulerConfig;

TEST(UniPlatform, RunsRootToCompletion) {
  UniPlatform p;
  bool ran = false;
  mp::Datum datum_seen = 0;
  p.run(
      [&] {
        ran = true;
        datum_seen = p.get_datum();
        EXPECT_EQ(p.proc_id(), 0);
        EXPECT_EQ(p.max_procs(), 1);
        EXPECT_EQ(p.active_procs(), 1);
      },
      /*root_datum=*/17);
  EXPECT_TRUE(ran);
  EXPECT_EQ(datum_seen, 17u);
}

TEST(UniPlatform, AcquireAlwaysRaisesNoMoreProcs) {
  UniPlatform p;
  bool raised = false;
  p.run([&] {
    callcc<Unit>([&](Cont<Unit> k) -> Unit {
      try {
        p.acquire_proc(k, 0);
      } catch (const mp::NoMoreProcs&) {
        raised = true;
        mp::cont::fire_preloaded(std::move(k).take_ref());
      }
      ADD_FAILURE() << "acquire_proc succeeded on a uniprocessor";
      mp::cont::exit_to_idle();
    });
  });
  EXPECT_TRUE(raised);
}

TEST(UniPlatform, LocksAreBooleanAndUncontended) {
  UniPlatform p;
  p.run([&] {
    mp::MutexLock l = p.mutex_lock();
    EXPECT_TRUE(p.try_lock(l));
    EXPECT_FALSE(p.try_lock(l));
    p.unlock(l);
    p.lock(l);  // free: must succeed immediately
    p.unlock(l);
  });
}

TEST(UniPlatformDeathTest, LockOnHeldLockPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        UniPlatform p;
        p.run([&] {
          mp::MutexLock l = p.mutex_lock();
          p.lock(l);
          p.lock(l);  // would spin forever: the holder cannot run
        });
      },
      "spin forever");
}

TEST(UniPlatform, SchedulerDegeneratesToCooperativeThreads) {
  // The multiprocessor package of Figure 3, run on the trivial backend:
  // every fork takes the No_More_Procs path and the package behaves like
  // Figure 1.
  UniPlatform p;
  std::vector<int> trace;
  SchedulerConfig cfg;
  cfg.queue = std::make_unique<mp::threads::CentralQueue>();
  Scheduler::run(p, std::move(cfg), [&](Scheduler& s) {
    CountdownLatch latch(s, 2);
    for (int id = 1; id <= 2; id++) {
      s.fork([&, id] {
        for (int i = 0; i < 3; i++) {
          trace.push_back(id);
          s.yield();
        }
        latch.count_down();
      });
    }
    latch.await();
  });
  ASSERT_EQ(trace.size(), 6u);
  for (std::size_t i = 1; i < trace.size(); i++) {
    EXPECT_NE(trace[i], trace[i - 1]) << "threads must alternate";
  }
}

TEST(UniPlatform, ChannelsRendezvousCooperatively) {
  UniPlatform p;
  long sum = 0;
  Scheduler::run(p, {}, [&](Scheduler& s) {
    mp::cml::Channel<int> ch(s);
    s.fork([&] {
      for (int i = 0; i < 25; i++) ch.send(i);
    });
    for (int i = 0; i < 25; i++) sum += ch.recv();
  });
  EXPECT_EQ(sum, 24L * 25 / 2);
}

TEST(UniPlatform, SelectAndTimeoutsWork) {
  UniPlatform p;
  int got = 0;
  bool timed_out = false;
  // Outlives the root lambda: the polling thread below may still be running
  // (inside Scheduler::run's drain loop) after the lambda's frame is gone.
  std::atomic<bool> stop{false};
  Scheduler::run(p, {}, [&](Scheduler& s) {
    mp::cml::Channel<int> a(s), b(s);
    s.fork([&] { b.send(5); });
    for (int i = 0; i < 10; i++) s.yield();
    got = mp::cml::select_receive<int>({&a, &b});
    // And a timeout on a silent channel (requires an active polling thread
    // for the scheduler's timer).
    s.fork([&] {
      while (!stop.load()) s.yield();
    });
    timed_out = !mp::cml::recv_timeout(a, 10'000).has_value();
    stop.store(true);
  });
  EXPECT_EQ(got, 5);
  EXPECT_TRUE(timed_out);
}

TEST(UniPlatform, GarbageCollectionWorksWithoutStoppingAnything) {
  UniPlatformConfig cfg;
  cfg.heap.nursery_bytes = 64 * 1024;
  UniPlatform p(cfg);
  p.run([&] {
    auto& h = p.heap();
    Roots<1> r;
    r[0] = h.alloc_record({Value::from_int(2718)});
    for (int i = 0; i < 20000; i++) h.alloc_record({Value::from_int(i)});
    EXPECT_GT(h.stats().minor_gcs, 0u);
    EXPECT_EQ(r[0].field(0).as_int(), 2718);
  });
}

TEST(UniPlatform, PreemptionTimerInterleavesComputeThreads) {
  UniPlatformConfig cfg;
  cfg.preempt_interval_us = 500;  // real time on this backend
  UniPlatform p(cfg);
  std::vector<int> trace;
  SchedulerConfig sc;
  sc.preempt_interval_us = 500;
  Scheduler::run(p, std::move(sc), [&](Scheduler& s) {
    CountdownLatch latch(s, 2);
    for (int id = 1; id <= 2; id++) {
      s.fork([&, id] {
        for (int i = 0; i < 50; i++) {
          trace.push_back(id);
          const double t0 = s.platform().now_us();
          while (s.platform().now_us() - t0 < 100) s.platform().work(20);
        }
        latch.count_down();
      });
    }
    latch.await();
  });
  int switches = 0;
  for (std::size_t i = 1; i < trace.size(); i++) {
    if (trace[i] != trace[i - 1]) switches++;
  }
  EXPECT_GT(switches, 1) << "the timer must preempt compute-bound threads";
}

TEST(UniPlatform, MlThreadsJoinAndAlerts) {
  UniPlatform p;
  long got = 0;
  bool alerted = false;
  Scheduler::run(p, {}, [&](Scheduler& s) {
    auto t = mp::threads::fork_thread<long>(s, [] { return 12L; });
    got = t.join();
    auto v = mp::threads::fork_thread<Unit>(s, [&] {
      for (;;) mp::threads::alert_pause(s);
      return Unit{};
    });
    for (int i = 0; i < 5; i++) s.yield();
    v.alert();
    try {
      v.join();
    } catch (const mp::threads::Alerted&) {
      alerted = true;
    }
  });
  EXPECT_EQ(got, 12);
  EXPECT_TRUE(alerted);
}

TEST(UniPlatformDeathTest, ReleasingTheOnlyProcPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        UniPlatform p;
        p.run([&] { p.release_proc(); });
      },
      "uniprocessor deadlock");
}

}  // namespace
