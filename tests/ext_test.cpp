// Tests for the extensions beyond the paper's core: the Figure 1
// uniprocessor package, scheduler timers and sleep, CML timeout events,
// IVar/MVar/Mailbox cells, the priority queue discipline, and the
// cache-fitting-nursery model (section 7 future work).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "cml/cml.h"
#include "cml/sync_cells.h"
#include "mp/native_platform.h"
#include "mp/sim_platform.h"
#include "threads/scheduler.h"
#include "threads/unithread.h"
#include "workloads/runner.h"

namespace {

using mp::cont::Unit;
using mp::cml::Channel;
using mp::cml::Event;
using mp::cml::IVar;
using mp::cml::Mailbox;
using mp::cml::MVar;
using mp::threads::CountdownLatch;
using mp::threads::PriorityQueue;
using mp::threads::Scheduler;
using mp::threads::SchedulerConfig;
using mp::threads::UniFifo;
using mp::threads::UniLifo;
using mp::threads::UniRandom;
using mp::threads::UniThread;

enum class Backend { kSim, kNative };

std::string backend_name(const ::testing::TestParamInfo<Backend>& info) {
  return info.param == Backend::kSim ? "Sim" : "Native";
}

std::unique_ptr<mp::Platform> make_platform(Backend b, int procs) {
  if (b == Backend::kSim) {
    mp::SimPlatformConfig cfg;
    cfg.machine = mp::sim::sequent_s81(procs);
    return std::make_unique<mp::SimPlatform>(cfg);
  }
  mp::NativePlatformConfig cfg;
  cfg.max_procs = procs;
  return std::make_unique<mp::NativePlatform>(cfg);
}

// ---------- UniThread (paper Figure 1) ----------

TEST(UniThread, ForkRunsChildImmediately) {
  std::vector<int> trace;
  UniThread<>::run([&](UniThread<>& t) {
    trace.push_back(1);
    t.fork([&] { trace.push_back(2); });  // child runs now, parent queued
    trace.push_back(3);
  });
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

TEST(UniThread, IdsFollowFigureOne) {
  std::vector<int> ids;
  UniThread<>::run([&](UniThread<>& t) {
    ids.push_back(t.id());  // root = 0
    t.fork([&] { ids.push_back(t.id()); });
    t.fork([&] { ids.push_back(t.id()); });
    ids.push_back(t.id());
  });
  EXPECT_EQ(ids, (std::vector<int>{0, 1, 2, 0}));
}

TEST(UniThread, YieldRoundRobinsFifo) {
  std::vector<int> trace;
  UniThread<>::run([&](UniThread<>& t) {
    for (int id = 1; id <= 2; id++) {
      t.fork([&, id] {
        for (int i = 0; i < 3; i++) {
          trace.push_back(id * 10 + i);
          t.yield();
        }
      });
    }
    while (!trace.empty() && trace.size() < 6) t.yield();
  });
  ASSERT_EQ(trace.size(), 6u);
  EXPECT_EQ(trace[0], 10);
  EXPECT_EQ(trace[1], 20);
}

TEST(UniThread, LifoDisciplineChangesOrder) {
  std::vector<int> fifo_trace, lifo_trace;
  UniThread<UniFifo>::run([&](UniThread<UniFifo>& t) {
    for (int i = 1; i <= 3; i++) {
      t.fork([&, i] { fifo_trace.push_back(i); });
    }
  });
  UniThread<UniLifo>::run([&](UniThread<UniLifo>& t) {
    for (int i = 1; i <= 3; i++) {
      t.fork([&, i] { lifo_trace.push_back(i); });
    }
  });
  // Children run immediately in both, in fork order.
  EXPECT_EQ(fifo_trace, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(lifo_trace, (std::vector<int>{1, 2, 3}));
}

TEST(UniThread, RandomDisciplineCompletesEverything) {
  int done = 0;
  UniThread<UniRandom>::run(
      [&](UniThread<UniRandom>& t) {
        for (int i = 0; i < 50; i++) {
          t.fork([&] {
            t.yield();
            done++;
          });
        }
      },
      UniRandom(7));
  EXPECT_EQ(done, 50);
}

TEST(UniThread, ManyThreadsDeepYields) {
  long total = 0;
  UniThread<>::run([&](UniThread<>& t) {
    for (int i = 0; i < 200; i++) {
      t.fork([&, i] {
        for (int n = 0; n < i % 7; n++) t.yield();
        total += i;
      });
    }
  });
  EXPECT_EQ(total, 199L * 200 / 2);
}

TEST(UniThread, RunsInsidePlatformProcToo) {
  auto p = make_platform(Backend::kSim, 1);
  int done = 0;
  p->run([&] {
    UniThread<>::run([&](UniThread<>& t) {
      t.fork([&] { done++; });
      t.fork([&] { done++; });
    });
  });
  EXPECT_EQ(done, 2);
}

// ---------- scheduler timers / sleep ----------

class ExtTest : public ::testing::TestWithParam<Backend> {};

TEST_P(ExtTest, SleepForAdvancesClock) {
  auto p = make_platform(GetParam(), 2);
  double before = 0, after = 0;
  // Outlives the root lambda: the partner thread still reads it while the
  // scheduler drains.
  std::atomic<bool> stop{false};
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    // A busy partner keeps the dispatch loop turning so timers fire.
    s.fork([&] {
      while (!stop.load()) {
        s.platform().work(50);
        s.yield();
      }
    });
    before = s.platform().now_us();
    s.sleep_for(3000);
    after = s.platform().now_us();
    stop.store(true);
  });
  EXPECT_GE(after - before, 3000.0);
  EXPECT_LT(after - before, 3e6);
}

TEST_P(ExtTest, TimerCallbacksFireInDeadlineOrder) {
  auto p = make_platform(GetParam(), 2);
  std::vector<int> order;
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    constexpr double kGapUs = 5000;
    double t0 = 0;
    mp::threads::Mutex m(s);
    CountdownLatch go(s, 1);
    CountdownLatch woke(s, 3);
    // Forked out of deadline order, and the deadlines are set only once
    // all three exist (a fork can outlast a gap on a slow host): the timer
    // heap must wake them in deadline order.
    for (const int n : {3, 1, 2}) {
      s.fork([&, n] {
        go.await();
        s.sleep_until(t0 + kGapUs * n);
        m.lock();
        order.push_back(n);
        m.unlock();
        woke.count_down();
      });
    }
    t0 = s.platform().now_us();
    go.count_down();
    woke.await();
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(ExtTest, ManySleepersAllWake) {
  auto p = make_platform(GetParam(), 3);
  std::atomic<int> woke{0};
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    CountdownLatch latch(s, 20);
    for (int i = 0; i < 20; i++) {
      s.fork([&, i] {
        s.sleep_for(100.0 * (i % 5 + 1));
        woke.fetch_add(1);
        latch.count_down();
      });
    }
    // Keep a dispatch loop hot.
    while (latch.remaining() > 0) {
      s.platform().work(50);
      s.yield();
    }
    latch.await();
  });
  EXPECT_EQ(woke.load(), 20);
}

// ---------- CML timeout events ----------

TEST_P(ExtTest, RecvTimesOutOnSilentChannel) {
  auto p = make_platform(GetParam(), 2);
  bool got_nothing = false;
  std::atomic<bool> stop{false};
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    s.fork([&] {  // keep dispatch loops active for the timer
      while (!stop.load()) {
        s.platform().work(50);
        s.yield();
      }
    });
    Channel<int> quiet(s);
    got_nothing = !mp::cml::recv_timeout(quiet, 2000).has_value();
    stop.store(true);
  });
  EXPECT_TRUE(got_nothing);
}

TEST_P(ExtTest, RecvBeatsTimeoutWhenSenderIsReady) {
  auto p = make_platform(GetParam(), 2);
  std::optional<int> got;
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    Channel<int> ch(s);
    s.fork([&] { ch.send(31); });
    for (int i = 0; i < 10; i++) s.yield();
    got = mp::cml::recv_timeout(ch, 1e6);
  });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 31);
}

TEST_P(ExtTest, SendTimeoutFailsWithoutReceiver) {
  auto p = make_platform(GetParam(), 2);
  bool sent = true;
  std::atomic<bool> stop{false};
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    s.fork([&] {
      while (!stop.load()) {
        s.platform().work(50);
        s.yield();
      }
    });
    Channel<int> quiet(s);
    sent = mp::cml::send_timeout(quiet, 5, 2000);
    stop.store(true);
  });
  EXPECT_FALSE(sent);
}

TEST_P(ExtTest, TimedOutOfferDoesNotFireLater) {
  auto p = make_platform(GetParam(), 2);
  int second = 0;
  std::atomic<bool> stop{false};
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    s.fork([&] {
      while (!stop.load()) {
        s.platform().work(50);
        s.yield();
      }
    });
    Channel<int> ch(s);
    ASSERT_FALSE(mp::cml::recv_timeout(ch, 1000).has_value());
    // The timed-out receive offer is dead: a fresh sender must pair with a
    // fresh receiver, not the stale offer.
    s.fork([&] { ch.send(77); });
    second = ch.recv();
    stop.store(true);
  });
  EXPECT_EQ(second, 77);
}

// ---------- IVar / MVar / Mailbox ----------

TEST_P(ExtTest, IVarBlocksReadersUntilPut) {
  auto p = make_platform(GetParam(), 3);
  std::atomic<long> sum{0};
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    IVar<long> iv(s);
    CountdownLatch latch(s, 3);
    for (int i = 0; i < 3; i++) {
      s.fork([&] {
        sum.fetch_add(iv.get());
        latch.count_down();
      });
    }
    for (int i = 0; i < 20; i++) s.yield();
    EXPECT_FALSE(iv.full());
    iv.put(7);
    latch.await();
    EXPECT_EQ(iv.get(), 7) << "get after put must not block";
  });
  EXPECT_EQ(sum.load(), 21);
}

TEST_P(ExtTest, IVarDoublePutPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        auto p = make_platform(GetParam(), 1);
        Scheduler::run(*p, {}, [&](Scheduler& s) {
          IVar<long> iv(s);
          iv.put(1);
          iv.put(2);
        });
      },
      "full IVar");
}

TEST_P(ExtTest, MVarTakePutAlternate) {
  auto p = make_platform(GetParam(), 2);
  std::vector<long> got;
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    MVar<long> mv(s);
    s.fork([&] {
      for (long i = 0; i < 30; i++) mv.put(i);
    });
    for (int i = 0; i < 30; i++) got.push_back(mv.take());
  });
  ASSERT_EQ(got.size(), 30u);
  for (long i = 0; i < 30; i++) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST_P(ExtTest, MVarTryOperations) {
  auto p = make_platform(GetParam(), 1);
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    MVar<long> mv(s);
    EXPECT_FALSE(mv.try_take().has_value());
    EXPECT_TRUE(mv.try_put(5));
    EXPECT_FALSE(mv.try_put(6));
    auto v = mv.try_take();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 5);
  });
}

TEST_P(ExtTest, MailboxBuffersWithoutBlockingSender) {
  auto p = make_platform(GetParam(), 2);
  long sum = 0;
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    Mailbox<long> mb(s);
    // Asynchronous: all sends complete before any recv.
    for (long i = 0; i < 50; i++) mb.send(i);
    EXPECT_EQ(mb.size(), 50u);
    for (int i = 0; i < 50; i++) sum += mb.recv();
    EXPECT_FALSE(mb.try_recv().has_value());
  });
  EXPECT_EQ(sum, 49L * 50 / 2);
}

TEST_P(ExtTest, MailboxWakesBlockedReceiver) {
  auto p = make_platform(GetParam(), 2);
  long got = 0;
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    Mailbox<long> mb(s);
    CountdownLatch latch(s, 1);
    s.fork([&] {
      got = mb.recv();  // blocks: mailbox empty
      latch.count_down();
    });
    for (int i = 0; i < 20; i++) s.yield();
    mb.send(99);
    latch.await();
  });
  EXPECT_EQ(got, 99);
}

TEST_P(ExtTest, MailboxCarriesGcValues) {
  auto p = make_platform(GetParam(), 2);
  long field_sum = 0;
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    auto& h = s.platform().heap();
    Mailbox<mp::gc::Value> mb(s);
    for (long i = 0; i < 40; i++) {
      mp::gc::Roots<1> r;
      r[0] = h.alloc_record({mp::gc::Value::from_int(i)});
      mb.send(r[0]);
    }
    h.collect_now();  // everything queued must survive via its Payload root
    for (int i = 0; i < 40; i++) {
      mp::gc::Roots<1> r;
      r[0] = mb.recv();
      field_sum += r[0].field(0).as_int();
    }
  });
  EXPECT_EQ(field_sum, 39L * 40 / 2);
}

// ---------- priority queue discipline ----------

TEST_P(ExtTest, PriorityQueueDirectOrdering) {
  auto p = make_platform(GetParam(), 1);
  p->run([&] {
    PriorityQueue q;
    q.init(*p);
    q.set_priority(*p, 11, 1);
    q.set_priority(*p, 12, 5);
    q.set_priority(*p, 13, 5);
    // Enqueue in id order; expect dequeue by (priority desc, FIFO within).
    for (int id : {10, 11, 12, 13}) {
      q.enq(*p, mp::threads::ThreadState{mp::cont::ContRef(), id});
    }
    std::vector<int> order;
    while (auto t = q.deq(*p)) order.push_back(t->id);
    EXPECT_EQ(order, (std::vector<int>{12, 13, 11, 10}));
    EXPECT_FALSE(q.deq(*p).has_value());
  });
}

TEST_P(ExtTest, PriorityQueueSchedulerSmoke) {
  auto p = make_platform(GetParam(), 2);
  std::atomic<int> done{0};
  SchedulerConfig cfg;
  cfg.queue = std::make_unique<PriorityQueue>();
  Scheduler::run(*p, std::move(cfg), [&](Scheduler& s) {
    CountdownLatch latch(s, 30);
    for (int i = 0; i < 30; i++) {
      s.fork([&] {
        s.yield();
        done.fetch_add(1);
        latch.count_down();
      });
    }
    latch.await();
  });
  EXPECT_EQ(done.load(), 30);
}

INSTANTIATE_TEST_SUITE_P(Backends, ExtTest,
                         ::testing::Values(Backend::kSim, Backend::kNative),
                         backend_name);

// ---------- thread cancellation ----------

TEST_P(ExtTest, CancelUnwindsASuspendedThread) {
  auto p = make_platform(GetParam(), 2);
  bool dtor_ran = false;
  bool resumed_user_code = false;
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    mp::threads::ThreadState parked;
    std::atomic<bool> have_parked{false};
    s.fork([&] {
      struct Raii {
        bool* flag;
        ~Raii() { *flag = true; }
      };
      Raii r{&dtor_ran};
      s.suspend([&](mp::threads::ThreadState t) {
        parked = std::move(t);
        have_parked = true;
      });
      resumed_user_code = true;  // must NOT run: we get cancelled instead
    });
    while (!have_parked) s.yield();
    EXPECT_FALSE(dtor_ran);
    s.cancel(std::move(parked));
    // Scheduler::run's drain waits for the cancelled thread to retire.
  });
  EXPECT_TRUE(dtor_ran) << "cancellation must unwind the thread's frames";
  EXPECT_FALSE(resumed_user_code);
}

TEST_P(ExtTest, CancelledThreadCanCatchAndFinish) {
  auto p = make_platform(GetParam(), 2);
  bool observed = false;
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    mp::threads::ThreadState parked;
    std::atomic<bool> have_parked{false};
    s.fork([&] {
      try {
        s.suspend([&](mp::threads::ThreadState t) {
          parked = std::move(t);
          have_parked = true;
        });
      } catch (const mp::cont::ThreadCancelled&) {
        observed = true;  // a thread may intercept its own cancellation
      }
    });
    while (!have_parked) s.yield();
    s.cancel(std::move(parked));
  });
  EXPECT_TRUE(observed);
}

TEST_P(ExtTest, RootThreadCancelPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        auto p = make_platform(GetParam(), 1);
        Scheduler::run(*p, {}, [&](Scheduler& s) {
          s.cancel(mp::threads::ThreadState{mp::cont::ContRef(), 0});
        });
      },
      "root thread cannot be cancelled");
}

// ---------- cache-fitting nursery model (sim only) ----------

TEST(CacheModel, TinyNurseryCutsAllocationBusTraffic) {
  auto run_with_nursery = [](std::size_t nursery) {
    mp::workloads::SimRunSpec spec;
    spec.workload = "seq";
    spec.machine = mp::sim::sequent_s81(8);
    spec.nursery_bytes = nursery;
    return mp::workloads::run_sim(spec);
  };
  const auto big = run_with_nursery(2u << 20);
  const auto tiny = run_with_nursery(32u << 10);  // fits the 64K cache
  EXPECT_TRUE(big.verified);
  EXPECT_TRUE(tiny.verified);
  EXPECT_LT(static_cast<double>(tiny.report.bus.bytes),
            0.6 * static_cast<double>(big.report.bus.bytes));
  EXPECT_GT(tiny.report.heap.minor_gcs, big.report.heap.minor_gcs);
}

}  // namespace
