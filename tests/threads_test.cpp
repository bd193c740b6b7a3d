// Tests for the thread package (paper Figures 1/3): fork/yield/id over the
// queue disciplines, preemption, and the synthesized synchronization
// primitives — on both the simulator and native kernel threads.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "mp/native_platform.h"
#include "mp/sim_platform.h"
#include "threads/offer.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

namespace {

using mp::threads::Barrier;
using mp::threads::CentralQueue;
using mp::threads::CondVar;
using mp::threads::CountdownLatch;
using mp::threads::DistributedQueue;
using mp::threads::Mutex;
using mp::threads::Offer;
using mp::threads::OfferList;
using mp::threads::RWLock;
using mp::threads::Scheduler;
using mp::threads::SchedulerConfig;
using mp::threads::Semaphore;
using mp::threads::SyncCell;

enum class Backend { kSim, kNative };

std::string backend_name(const ::testing::TestParamInfo<Backend>& info) {
  return info.param == Backend::kSim ? "Sim" : "Native";
}

class ThreadsTest : public ::testing::TestWithParam<Backend> {
 protected:
  std::unique_ptr<mp::Platform> make(int procs,
                                     std::size_t nursery = 512 * 1024) {
    if (GetParam() == Backend::kSim) {
      mp::SimPlatformConfig cfg;
      cfg.machine = mp::sim::sequent_s81(procs);
      cfg.heap.nursery_bytes = nursery;
      return std::make_unique<mp::SimPlatform>(cfg);
    }
    mp::NativePlatformConfig cfg;
    cfg.max_procs = procs;
    cfg.heap.nursery_bytes = nursery;
    return std::make_unique<mp::NativePlatform>(cfg);
  }

  void run(mp::Platform& p, const std::function<void(Scheduler&)>& fn,
           SchedulerConfig cfg = {}) {
    Scheduler::run(p, std::move(cfg), fn);
  }
};

TEST_P(ThreadsTest, ForkRunsChild) {
  auto p = make(2);
  std::atomic<bool> child_ran{false};
  run(*p, [&](Scheduler& s) {
    s.fork([&] { child_ran.store(true); });
    // Scheduler::run drains forked threads before returning.
  });
  EXPECT_TRUE(child_ran.load());
}

TEST_P(ThreadsTest, ManyForksAllComplete) {
  constexpr int kThreads = 200;
  auto p = make(4);
  std::atomic<int> completed{0};
  run(*p, [&](Scheduler& s) {
    CountdownLatch latch(s, kThreads);
    for (int i = 0; i < kThreads; i++) {
      s.fork([&] {
        completed.fetch_add(1);
        latch.count_down();
      });
    }
    latch.await();
    EXPECT_EQ(completed.load(), kThreads);
  });
  EXPECT_EQ(completed.load(), kThreads);
}

TEST_P(ThreadsTest, ThreadIdsAreUnique) {
  constexpr int kThreads = 50;
  auto p = make(3);
  std::set<int> ids;
  run(*p, [&](Scheduler& s) {
    EXPECT_EQ(s.id(), 0) << "root thread is id 0";
    Mutex m(s);
    CountdownLatch latch(s, kThreads);
    for (int i = 0; i < kThreads; i++) {
      s.fork([&] {
        m.lock();
        ids.insert(s.id());
        m.unlock();
        latch.count_down();
      });
    }
    latch.await();
  });
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(ids.count(0), 0u) << "children must not reuse the root id";
}

TEST_P(ThreadsTest, YieldInterleavesThreadsOnOneProc) {
  auto p = make(1);
  std::vector<int> trace;
  SchedulerConfig cfg;
  cfg.queue = std::make_unique<CentralQueue>();
  run(*p,
      [&](Scheduler& s) {
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
      },
      std::move(cfg));
  // With a single proc and a FIFO queue the two threads must alternate.
  ASSERT_EQ(trace.size(), 6u);
  for (std::size_t i = 0; i + 2 < trace.size(); i += 2) {
    EXPECT_NE(trace[i], trace[i + 1]) << "threads did not interleave at " << i;
  }
}

TEST_P(ThreadsTest, NestedForksFormATree) {
  auto p = make(4);
  std::atomic<long> sum{0};
  run(*p, [&](Scheduler& s) {
    CountdownLatch latch(s, 1);
    // Parallel divide-and-conquer sum of 1..64.
    std::function<void(int, int, CountdownLatch*)> go =
        [&](int lo, int hi, CountdownLatch* done) {
          if (hi - lo <= 4) {
            long acc = 0;
            for (int i = lo; i < hi; i++) acc += i;
            sum.fetch_add(acc);
            done->count_down();
            return;
          }
          const int mid = lo + (hi - lo) / 2;
          auto* inner = new CountdownLatch(s, 2);
          s.fork([&go, lo, mid, inner] { go(lo, mid, inner); });
          s.fork([&go, mid, hi, inner] { go(mid, hi, inner); });
          inner->await();
          delete inner;
          done->count_down();
        };
    go(1, 65, &latch);
    latch.await();
  });
  EXPECT_EQ(sum.load(), 64L * 65 / 2);
}

TEST_P(ThreadsTest, Figure3ModeReleasesProcsWhenIdle) {
  auto p = make(3);
  std::atomic<int> completed{0};
  SchedulerConfig cfg;
  cfg.hold_procs = false;  // exact Figure 3 behaviour
  run(*p,
      [&](Scheduler& s) {
        CountdownLatch latch(s, 20);
        for (int i = 0; i < 20; i++) {
          s.fork([&] {
            s.yield();
            completed.fetch_add(1);
            latch.count_down();
          });
        }
        latch.await();
      },
      std::move(cfg));
  EXPECT_EQ(completed.load(), 20);
}

TEST_P(ThreadsTest, AllQueueDisciplinesComplete) {
  for (int which = 0; which < 4; which++) {
    auto p = make(4);
    std::atomic<int> completed{0};
    SchedulerConfig cfg;
    switch (which) {
      case 0:
        cfg.queue = std::make_unique<CentralQueue>(CentralQueue::Order::kFifo);
        break;
      case 1:
        cfg.queue = std::make_unique<CentralQueue>(CentralQueue::Order::kLifo);
        break;
      case 2:
        cfg.queue =
            std::make_unique<CentralQueue>(CentralQueue::Order::kRandom);
        break;
      case 3: cfg.queue = std::make_unique<DistributedQueue>(); break;
    }
    run(*p,
        [&](Scheduler& s) {
          CountdownLatch latch(s, 60);
          for (int i = 0; i < 60; i++) {
            s.fork([&] {
              s.yield();
              completed.fetch_add(1);
              latch.count_down();
            });
          }
          latch.await();
        },
        std::move(cfg));
    EXPECT_EQ(completed.load(), 60) << "discipline " << which;
    completed = 0;
  }
}

TEST_P(ThreadsTest, MutexProtectsCriticalSection) {
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  auto p = make(4);
  long counter = 0;
  run(*p, [&](Scheduler& s) {
    Mutex m(s);
    CountdownLatch latch(s, kThreads);
    for (int i = 0; i < kThreads; i++) {
      s.fork([&] {
        for (int n = 0; n < kIters; n++) {
          m.lock();
          counter++;
          m.unlock();
          s.platform().work(10);
        }
        latch.count_down();
      });
    }
    latch.await();
  });
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST_P(ThreadsTest, MutexTryLock) {
  auto p = make(2);
  run(*p, [&](Scheduler& s) {
    Mutex m(s);
    EXPECT_TRUE(m.try_lock());
    EXPECT_FALSE(m.try_lock());
    m.unlock();
    EXPECT_TRUE(m.try_lock());
    m.unlock();
  });
}

TEST_P(ThreadsTest, CondVarProducerConsumer) {
  auto p = make(3);
  std::vector<int> consumed;
  run(*p, [&](Scheduler& s) {
    Mutex m(s);
    CondVar cv(s);
    std::deque<int> buffer;
    bool done = false;
    CountdownLatch latch(s, 2);
    s.fork([&] {  // consumer
      m.lock();
      for (;;) {
        while (buffer.empty() && !done) cv.wait(m);
        if (!buffer.empty()) {
          consumed.push_back(buffer.front());
          buffer.pop_front();
        } else if (done) {
          break;
        }
      }
      m.unlock();
      latch.count_down();
    });
    s.fork([&] {  // producer
      for (int i = 0; i < 50; i++) {
        m.lock();
        buffer.push_back(i);
        cv.signal();
        m.unlock();
        if (i % 7 == 0) s.yield();
      }
      m.lock();
      done = true;
      cv.broadcast();
      m.unlock();
      latch.count_down();
    });
    latch.await();
  });
  ASSERT_EQ(consumed.size(), 50u);
  for (int i = 0; i < 50; i++) EXPECT_EQ(consumed[static_cast<size_t>(i)], i);
}

TEST_P(ThreadsTest, BarrierRunsInLockstep) {
  constexpr int kThreads = 6;
  constexpr int kPhases = 5;
  auto p = make(3);
  std::atomic<int> phase_counts[kPhases] = {};
  std::atomic<bool> violation{false};
  run(*p, [&](Scheduler& s) {
    Barrier barrier(s, kThreads);
    CountdownLatch latch(s, kThreads);
    for (int t = 0; t < kThreads; t++) {
      s.fork([&] {
        for (int ph = 0; ph < kPhases; ph++) {
          phase_counts[ph].fetch_add(1);
          barrier.arrive_and_wait();
          // After the barrier, every thread must have finished this phase.
          if (phase_counts[ph].load() != kThreads) violation.store(true);
        }
        latch.count_down();
      });
    }
    latch.await();
  });
  EXPECT_FALSE(violation.load());
  for (int ph = 0; ph < kPhases; ph++) {
    EXPECT_EQ(phase_counts[ph].load(), kThreads);
  }
}

TEST_P(ThreadsTest, SemaphoreBoundsConcurrency) {
  constexpr int kThreads = 10;
  constexpr int kPermits = 3;
  auto p = make(4);
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  run(*p, [&](Scheduler& s) {
    Semaphore sem(s, kPermits);
    CountdownLatch latch(s, kThreads);
    for (int i = 0; i < kThreads; i++) {
      s.fork([&] {
        for (int n = 0; n < 20; n++) {
          sem.acquire();
          const int now = inside.fetch_add(1) + 1;
          int prev = peak.load();
          while (now > prev && !peak.compare_exchange_weak(prev, now)) {
          }
          s.platform().work(20);
          inside.fetch_sub(1);
          sem.release();
        }
        latch.count_down();
      });
    }
    latch.await();
  });
  EXPECT_LE(peak.load(), kPermits);
  EXPECT_GT(peak.load(), 0);
}

TEST_P(ThreadsTest, RWLockAllowsConcurrentReaders) {
  auto p = make(4);
  std::atomic<int> readers_inside{0};
  std::atomic<int> max_readers{0};
  std::atomic<bool> writer_overlap{false};
  run(*p, [&](Scheduler& s) {
    RWLock rw(s);
    CountdownLatch latch(s, 7);
    for (int i = 0; i < 6; i++) {
      s.fork([&] {
        for (int n = 0; n < 30; n++) {
          rw.lock_shared();
          const int now = readers_inside.fetch_add(1) + 1;
          int prev = max_readers.load();
          while (now > prev && !max_readers.compare_exchange_weak(prev, now)) {
          }
          s.platform().work(15);
          readers_inside.fetch_sub(1);
          rw.unlock_shared();
          s.yield();
        }
        latch.count_down();
      });
    }
    s.fork([&] {  // writer
      for (int n = 0; n < 10; n++) {
        rw.lock_exclusive();
        if (readers_inside.load() != 0) writer_overlap.store(true);
        s.platform().work(30);
        if (readers_inside.load() != 0) writer_overlap.store(true);
        rw.unlock_exclusive();
        s.yield();
      }
      latch.count_down();
    });
    latch.await();
  });
  EXPECT_FALSE(writer_overlap.load());
}

TEST_P(ThreadsTest, PreemptionInterleavesComputeBoundThreads) {
  constexpr double kIntervalUs = 300;
  auto p = make(1);
  std::vector<int> trace;
  int switches = 0;
  SchedulerConfig cfg;
  cfg.preempt_interval_us = kIntervalUs;
  run(*p,
      [&](Scheduler& s) {
        // Compute-bound: never yields voluntarily.  Each thread computes in
        // 50 us steps (virtual on the simulator, real on native), logging
        // each step, until the log shows 4 switches.  The bound is 40
        // intervals' worth of steps: it rides out a host that keeps the
        // ticker thread asleep for a while, and it counts compute, not wall
        // time, so a stall of the whole process does not use it up.  A
        // timer far slower than configured still runs it out.
        constexpr double kStepUs = 50;
        constexpr std::size_t kMaxSteps = 40 * kIntervalUs / kStepUs;
        CountdownLatch latch(s, 2);
        for (int id = 1; id <= 2; id++) {
          s.fork([&, id] {
            while (switches <= 3 && trace.size() < kMaxSteps) {
              if (!trace.empty() && trace.back() != id) switches++;
              trace.push_back(id);
              const double t0 = s.platform().now_us();
              while (s.platform().now_us() - t0 < kStepUs) {
                s.platform().work(20);
              }
            }
            latch.count_down();
          });
        }
        latch.await();
      },
      std::move(cfg));
  // Without preemption thread 1 would fully precede thread 2 on one proc;
  // the timer must have forced at least a few switches.
  EXPECT_GT(switches, 3);
}

TEST_P(ThreadsTest, ForkedThreadsAllocateOnTheSharedHeap) {
  auto p = make(4, /*nursery=*/64 * 1024);
  std::atomic<long> checksum{0};
  run(*p, [&](Scheduler& s) {
    auto& h = s.platform().heap();
    CountdownLatch latch(s, 6);
    for (int t = 0; t < 6; t++) {
      s.fork([&, t] {
        mp::gc::Roots<1> r;
        r[0] = h.alloc_record({mp::gc::Value::from_int(t * 1000)});
        for (int n = 0; n < 3000; n++) {
          h.alloc_record({mp::gc::Value::from_int(n)});
          if (n % 512 == 0) s.yield();
        }
        checksum.fetch_add(r[0].field(0).as_int());
        latch.count_down();
      });
    }
    latch.await();
    EXPECT_GT(h.stats().minor_gcs, 0u);
  });
  EXPECT_EQ(checksum.load(), (0 + 1 + 2 + 3 + 4 + 5) * 1000L);
}

TEST_P(ThreadsTest, StressManyThreadsWithYields) {
  constexpr int kThreads = 500;
  auto p = make(4);
  std::atomic<int> completed{0};
  run(*p, [&](Scheduler& s) {
    CountdownLatch latch(s, kThreads);
    for (int i = 0; i < kThreads; i++) {
      s.fork([&, i] {
        for (int n = 0; n < i % 5; n++) s.yield();
        completed.fetch_add(1);
        latch.count_down();
      });
    }
    latch.await();
  });
  EXPECT_EQ(completed.load(), kThreads);
}

INSTANTIATE_TEST_SUITE_P(Backends, ThreadsTest,
                         ::testing::Values(Backend::kSim, Backend::kNative),
                         backend_name);

TEST(ThreadsSim, DeterministicSchedule) {
  auto run_once = [] {
    mp::SimPlatformConfig cfg;
    cfg.machine = mp::sim::sequent_s81(8);
    mp::SimPlatform p(cfg);
    double total = 0;
    Scheduler::run(p, {}, [&](Scheduler& s) {
      CountdownLatch latch(s, 100);
      for (int i = 0; i < 100; i++) {
        s.fork([&, i] {
          s.platform().work(100 + (i % 13) * 17);
          s.yield();
          s.platform().work(50);
          latch.count_down();
        });
      }
      latch.await();
    });
    total = p.report().total_us;
    return total;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ThreadsSim, MoreProcsFinishSoonerOnParallelWork) {
  auto elapsed = [](int procs) {
    mp::SimPlatformConfig cfg;
    cfg.machine = mp::sim::sequent_s81(procs);
    mp::SimPlatform p(cfg);
    Scheduler::run(p, {}, [&](Scheduler& s) {
      CountdownLatch latch(s, 32);
      for (int i = 0; i < 32; i++) {
        s.fork([&] {
          s.platform().work(20000);  // pure compute, no bus traffic
          latch.count_down();
        });
      }
      latch.await();
    });
    return p.report().total_us;
  };
  const double t1 = elapsed(1);
  const double t8 = elapsed(8);
  EXPECT_GT(t1 / t8, 5.0) << "8 procs should speed up close to 8x";
  EXPECT_LT(t1 / t8, 8.5);
}

// ---------- the offer list (threads/offer.h) ----------

// An offer of base `base` of the sync `cell` decides; list tests never
// resume it, so it carries no continuation.
Offer offer_of(const std::shared_ptr<SyncCell>& cell, int base = 0) {
  Offer o;
  o.cell = cell;
  o.base = base;
  return o;
}

TEST(OfferList, PushPrunesCommittedOffersAndKeepsClaimedOnes) {
  OfferList list;
  const auto committed = std::make_shared<SyncCell>();
  const auto claimed = std::make_shared<SyncCell>();
  list.push(offer_of(committed));
  list.push(offer_of(claimed));
  committed->commit_self(0);  // its sync committed through another base
  ASSERT_TRUE(claimed->try_claim());
  // A scan comes within as many pushes as the list held at the last one.
  constexpr int kLive = 8;
  for (int i = 0; i < kLive; i++) {
    list.push(offer_of(std::make_shared<SyncCell>()));
  }
  EXPECT_EQ(list.size(), static_cast<std::size_t>(kLive) + 1);
  std::optional<Offer> first = list.take(nullptr);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->cell, claimed);
}

TEST(OfferList, TakeReturnsOffersInFifoOrder) {
  OfferList list;
  for (int i = 0; i < 5; i++) {
    list.push(offer_of(std::make_shared<SyncCell>(), i));
  }
  for (int i = 0; i < 5; i++) {
    std::optional<Offer> o = list.take(nullptr);
    ASSERT_TRUE(o.has_value());
    EXPECT_EQ(o->base, i);
  }
  EXPECT_FALSE(list.take(nullptr).has_value());
}

TEST(OfferList, TakeSkipsDeadOffersAndTheTakersOwn) {
  OfferList list;
  const auto dead = std::make_shared<SyncCell>();
  const auto own = std::make_shared<SyncCell>();
  list.push(offer_of(dead, 0));
  list.push(offer_of(own, 1));
  list.push(offer_of(std::make_shared<SyncCell>(), 2));
  list.push(offer_of(own, 3));
  list.push(offer_of(std::make_shared<SyncCell>(), 4));
  dead->commit_self(0);
  std::optional<Offer> o = list.take(own.get());
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(o->base, 2);
  o = list.take(own.get());
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(o->base, 4);
  EXPECT_FALSE(list.take(own.get()).has_value());
  EXPECT_EQ(list.size(), 2u);  // the taker's own offers stay parked
}

TEST(OfferList, AListWhoseOffersAllLoseHoldsAtMostOne) {
  OfferList list;
  for (int i = 0; i < 1000; i++) {
    const auto cell = std::make_shared<SyncCell>();
    list.push(offer_of(cell));
    EXPECT_LE(list.size(), 1u);
    cell->commit_self(1);  // the sync commits elsewhere: the offer loses
  }
}

}  // namespace
