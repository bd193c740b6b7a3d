// Sync-layer stress suite: no-lost-wakeup property tests for the six
// primitives and the cml cells (IVar, MVar, Mailbox) at high thread:proc
// ratios (64 threads on 4 procs) on both backends and both lock
// disciplines, the barrier reuse-across-generations regression, a CondVar
// signal/broadcast stress that pins the suspend-callback monitor-release
// ordering under TSan, the RWLock's phase-fair admission order, the panic
// paths of the invariant checks, and bit-reproducibility of lock-bound sim
// runs under both disciplines.

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cml/sync_cells.h"
#include "mp/native_platform.h"
#include "mp/sim_platform.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

namespace {

using mp::cml::IVar;
using mp::cml::Mailbox;
using mp::cml::MVar;
using mp::threads::Barrier;
using mp::threads::CondVar;
using mp::threads::CountdownLatch;
using mp::threads::LockDiscipline;
using mp::threads::Mutex;
using mp::threads::RWLock;
using mp::threads::Scheduler;
using mp::threads::SchedulerConfig;
using mp::threads::Semaphore;

enum class Backend { kSim, kNative };

constexpr int kProcs = 4;
constexpr int kThreads = 64;  // 16:1 thread:proc ratio

// Every test runs on {sim, native} × {queue, tas}: the property must hold
// for the new claim/release core and for the paper's baseline protocol.
class SyncStress
    : public ::testing::TestWithParam<std::tuple<Backend, LockDiscipline>> {
 protected:
  void SetUp() override {
    saved_ = mp::threads::lock_discipline();
    mp::threads::set_lock_discipline(std::get<1>(GetParam()));
  }
  void TearDown() override { mp::threads::set_lock_discipline(saved_); }

  std::unique_ptr<mp::Platform> make(int procs = kProcs) {
    if (std::get<0>(GetParam()) == Backend::kSim) {
      mp::SimPlatformConfig cfg;
      cfg.machine = mp::sim::sequent_s81(procs);
      cfg.heap.nursery_bytes = 512 * 1024;
      return std::make_unique<mp::SimPlatform>(cfg);
    }
    mp::NativePlatformConfig cfg;
    cfg.max_procs = procs;
    cfg.heap.nursery_bytes = 512 * 1024;
    return std::make_unique<mp::NativePlatform>(cfg);
  }

 private:
  LockDiscipline saved_ = LockDiscipline::kQueue;
};

std::string param_name(
    const ::testing::TestParamInfo<std::tuple<Backend, LockDiscipline>>& i) {
  std::string n =
      std::get<0>(i.param) == Backend::kSim ? "Sim" : "Native";
  n += std::get<1>(i.param) == LockDiscipline::kQueue ? "Queue" : "Tas";
  return n;
}

// ---------- Mutex: mutual exclusion + no lost handoff at 16:1 ----------

TEST_P(SyncStress, MutexNoLostWakeupsAtHighRatio) {
  constexpr int kIters = 50;
  auto p = make();
  long counter = 0;  // protected by m; the final count proves every
                     // contended acquire was eventually granted
  std::atomic<int> in_crit{0};
  SchedulerConfig sc;
  sc.preempt_interval_us = 2000;  // preemption inside critical sections too
  Scheduler::run(*p, std::move(sc), [&](Scheduler& s) {
    Mutex m(s);
    CountdownLatch done(s, kThreads);
    for (int t = 0; t < kThreads; t++) {
      s.fork([&] {
        for (int i = 0; i < kIters; i++) {
          m.lock();
          EXPECT_EQ(in_crit.fetch_add(1, std::memory_order_acq_rel), 0);
          counter++;
          if (i % 8 == 0) s.yield();  // park/resume while holding the lock
          in_crit.fetch_sub(1, std::memory_order_acq_rel);
          m.unlock();
        }
        done.count_down();
      });
    }
    done.await();
  });
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST_P(SyncStress, MutexTryLockNeverBreaksExclusion) {
  auto p = make();
  std::atomic<int> in_crit{0};
  std::atomic<int> acquired{0};
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    Mutex m(s);
    CountdownLatch done(s, kThreads);
    for (int t = 0; t < kThreads; t++) {
      s.fork([&, t] {
        for (int i = 0; i < 40; i++) {
          const bool via_try = (t + i) % 3 == 0;
          if (via_try && !m.try_lock()) continue;
          if (!via_try) m.lock();
          EXPECT_EQ(in_crit.fetch_add(1, std::memory_order_acq_rel), 0);
          acquired.fetch_add(1, std::memory_order_relaxed);
          in_crit.fetch_sub(1, std::memory_order_acq_rel);
          m.unlock();
        }
        done.count_down();
      });
    }
    done.await();
  });
  EXPECT_GT(acquired.load(), 0);
}

// ---------- CondVar: the signal/broadcast ordering stress ----------
//
// Pins the suspend-callback monitor-release protocol (sync.cpp): a bounded
// buffer where every producer signal races consumer parks through the
// monitor handoff.  Run under the CI TSan leg, a reordering of the
// enqueue / m.unlock() steps shows up as a lost wakeup (hang) or a data
// race on the buffer.

TEST_P(SyncStress, CondVarBoundedBufferNoLostSignals) {
  constexpr int kProducers = kThreads / 2;
  constexpr int kConsumers = kThreads / 2;
  constexpr int kPerProducer = 40;
  constexpr std::size_t kCap = 4;
  auto p = make();
  long produced_sum = 0, consumed_sum = 0;
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    Mutex m(s);
    CondVar not_full(s), not_empty(s);
    std::deque<int> buf;  // protected by m
    CountdownLatch done(s, kThreads);
    for (int t = 0; t < kProducers; t++) {
      s.fork([&, t] {
        for (int i = 0; i < kPerProducer; i++) {
          const int item = t * kPerProducer + i;
          m.lock();
          while (buf.size() >= kCap) not_full.wait(m);
          buf.push_back(item);
          produced_sum += item;
          m.unlock();
          not_empty.signal();
        }
        done.count_down();
      });
    }
    for (int t = 0; t < kConsumers; t++) {
      s.fork([&] {
        for (int i = 0; i < kPerProducer; i++) {
          m.lock();
          while (buf.empty()) not_empty.wait(m);
          consumed_sum += buf.front();
          buf.pop_front();
          m.unlock();
          not_full.signal();
        }
        done.count_down();
      });
    }
    done.await();
    EXPECT_TRUE(buf.empty());
  });
  EXPECT_EQ(produced_sum, consumed_sum);
}

TEST_P(SyncStress, CondVarBroadcastWakesEveryWaiter) {
  constexpr int kRounds = 20;
  constexpr int kWaiters = kThreads - 1;
  auto p = make();
  std::atomic<int> released_total{0};
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    Mutex m(s);
    CondVar cv(s);
    int epoch = 0;  // protected by m
    CountdownLatch done(s, kWaiters);
    Barrier round(s, kThreads);  // waiters + the broadcaster
    for (int t = 0; t < kWaiters; t++) {
      s.fork([&] {
        for (int r = 0; r < kRounds; r++) {
          round.arrive_and_wait();
          m.lock();
          while (epoch <= r) cv.wait(m);
          m.unlock();
          released_total.fetch_add(1, std::memory_order_relaxed);
        }
        done.count_down();
      });
    }
    s.fork([&] {
      for (int r = 0; r < kRounds; r++) {
        round.arrive_and_wait();
        // Waiters of this round are at or past the barrier; some have
        // parked on cv, some are still between.  Broadcast must free every
        // one of them exactly once per round.
        m.lock();
        epoch = r + 1;
        m.unlock();
        cv.broadcast();
        // Stragglers that re-check after the broadcast see the epoch.
      }
    });
    done.await();
  });
  EXPECT_EQ(released_total.load(), kWaiters * kRounds);
}

// ---------- Semaphore: permits conserved at 16:1 ----------

TEST_P(SyncStress, SemaphorePermitsConserved) {
  constexpr int kPermits = 4;
  constexpr int kIters = 30;
  auto p = make();
  std::atomic<int> active{0};
  std::atomic<int> completed{0};
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    Semaphore sem(s, kPermits);
    CountdownLatch done(s, kThreads);
    for (int t = 0; t < kThreads; t++) {
      s.fork([&] {
        for (int i = 0; i < kIters; i++) {
          sem.acquire();
          const int now = active.fetch_add(1, std::memory_order_acq_rel) + 1;
          EXPECT_LE(now, kPermits);
          if (i % 4 == 0) s.yield();
          active.fetch_sub(1, std::memory_order_acq_rel);
          sem.release();
        }
        completed.fetch_add(1, std::memory_order_relaxed);
        done.count_down();
      });
    }
    done.await();
  });
  EXPECT_EQ(completed.load(), kThreads);
  EXPECT_EQ(active.load(), 0);
}

// ---------- RWLock: exclusion + no lost readers/writers ----------

TEST_P(SyncStress, RWLockReadersSeeConsistentPairs) {
  constexpr int kWriters = 8;
  constexpr int kReaders = kThreads - kWriters;
  constexpr int kIters = 25;
  auto p = make();
  long a = 0, b = 0;  // protected by rw; writers keep a == b
  std::atomic<int> active_writers{0};
  std::atomic<int> active_readers{0};
  std::atomic<int> completed{0};
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    RWLock rw(s);
    CountdownLatch done(s, kThreads);
    for (int t = 0; t < kWriters; t++) {
      s.fork([&] {
        for (int i = 0; i < kIters; i++) {
          rw.lock_exclusive();
          EXPECT_EQ(active_writers.fetch_add(1, std::memory_order_acq_rel), 0);
          EXPECT_EQ(active_readers.load(std::memory_order_acquire), 0);
          a++;
          if (i % 4 == 0) s.yield();
          b++;
          active_writers.fetch_sub(1, std::memory_order_acq_rel);
          rw.unlock_exclusive();
        }
        completed.fetch_add(1, std::memory_order_relaxed);
        done.count_down();
      });
    }
    for (int t = 0; t < kReaders; t++) {
      s.fork([&] {
        for (int i = 0; i < kIters; i++) {
          rw.lock_shared();
          active_readers.fetch_add(1, std::memory_order_acq_rel);
          EXPECT_EQ(active_writers.load(std::memory_order_acquire), 0);
          EXPECT_EQ(a, b);  // never a torn write
          active_readers.fetch_sub(1, std::memory_order_acq_rel);
          rw.unlock_shared();
        }
        completed.fetch_add(1, std::memory_order_relaxed);
        done.count_down();
      });
    }
    done.await();
  });
  EXPECT_EQ(completed.load(), kThreads);
  EXPECT_EQ(a, static_cast<long>(kWriters) * kIters);
  EXPECT_EQ(a, b);
}

// ---------- Barrier: reuse across generations (PR-6 regression) ----------
//
// The seed's generation_ field was write-only: nothing verified that a
// resumed waiter was freed by its own episode's flip.  Every party now
// checks the generation it observes, and the episode counts prove no party
// ever crossed the barrier before the whole previous round arrived.

TEST_P(SyncStress, BarrierReuseAcrossGenerations) {
  constexpr int kParties = 8;
  constexpr int kRounds = 50;
  auto p = make();
  std::atomic<int> arrived[kRounds];
  for (auto& r : arrived) r.store(0);
  std::atomic<int> violations{0};
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    Barrier bar(s, kParties);
    CountdownLatch done(s, kParties);
    for (int t = 0; t < kParties; t++) {
      s.fork([&] {
        for (int r = 0; r < kRounds; r++) {
          arrived[r].fetch_add(1, std::memory_order_acq_rel);
          bar.arrive_and_wait();
          // The whole round must have arrived before anyone passes.
          if (arrived[r].load(std::memory_order_acquire) != kParties) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
        done.count_down();
      });
    }
    done.await();
    EXPECT_EQ(bar.generation(), kRounds);
  });
  EXPECT_EQ(violations.load(), 0);
}

// ---------- CountdownLatch: every waiter freed, none early ----------

TEST_P(SyncStress, LatchFreesAllWaitersOnlyAtZero) {
  constexpr int kWaiters = kThreads / 2;
  constexpr int kCounters = kThreads / 2;
  constexpr long kCount = 256;  // divisible by kCounters
  auto p = make();
  std::atomic<long> counted{0};
  std::atomic<int> released{0};
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    CountdownLatch latch(s, kCount);
    CountdownLatch done(s, kThreads);
    for (int t = 0; t < kWaiters; t++) {
      s.fork([&] {
        latch.await();
        EXPECT_EQ(counted.load(std::memory_order_acquire), kCount);
        released.fetch_add(1, std::memory_order_relaxed);
        done.count_down();
      });
    }
    for (int t = 0; t < kCounters; t++) {
      s.fork([&] {
        for (long i = 0; i < kCount / kCounters; i++) {
          counted.fetch_add(1, std::memory_order_acq_rel);
          latch.count_down();
          if (i % 3 == 0) s.yield();
        }
        done.count_down();
      });
    }
    done.await();
    EXPECT_EQ(latch.remaining(), 0);
  });
  EXPECT_EQ(released.load(), kWaiters);
}

// ---------- the cml cells: same waiter set, same property ----------

TEST_P(SyncStress, IVarWakesEveryReader) {
  constexpr int kRounds = 20;
  constexpr int kReaders = kThreads - 1;
  auto p = make();
  std::atomic<long> sum{0};
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    std::vector<std::unique_ptr<IVar<long>>> cells;
    for (int r = 0; r < kRounds; r++) {
      cells.push_back(std::make_unique<IVar<long>>(s));
    }
    CountdownLatch done(s, kReaders);
    for (int t = 0; t < kReaders; t++) {
      s.fork([&] {
        for (const auto& cell : cells) sum.fetch_add(cell->get());
        done.count_down();
      });
    }
    s.fork([&] {
      for (int r = 0; r < kRounds; r++) {
        for (int i = 0; i < 3; i++) s.yield();  // let readers park
        cells[static_cast<std::size_t>(r)]->put(r + 1);
      }
    });
    done.await();
  });
  EXPECT_EQ(sum.load(),
            static_cast<long>(kReaders) * kRounds * (kRounds + 1) / 2);
}

TEST_P(SyncStress, MVarHandsEveryValueOverOnce) {
  constexpr int kPairs = kThreads / 2;
  constexpr int kPer = 30;
  auto p = make();
  std::atomic<long> taken_sum{0};
  std::atomic<int> taken{0};
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    MVar<long> mv(s);
    CountdownLatch done(s, kThreads);
    for (int t = 0; t < kPairs; t++) {
      s.fork([&, t] {
        for (int i = 0; i < kPer; i++) mv.put(t * kPer + i);
        done.count_down();
      });
      s.fork([&] {
        for (int i = 0; i < kPer; i++) {
          taken_sum.fetch_add(mv.take());
          taken.fetch_add(1, std::memory_order_relaxed);
        }
        done.count_down();
      });
    }
    done.await();
    EXPECT_FALSE(mv.try_take().has_value());
  });
  constexpr long kValues = static_cast<long>(kPairs) * kPer;
  EXPECT_EQ(taken.load(), kValues);
  EXPECT_EQ(taken_sum.load(), kValues * (kValues - 1) / 2);
}

TEST_P(SyncStress, MailboxDeliversEveryMessageOnce) {
  constexpr int kSenders = kThreads / 2;
  constexpr int kReceivers = kThreads / 2;
  constexpr int kPer = 40;
  auto p = make();
  std::atomic<long> received_sum{0};
  Scheduler::run(*p, {}, [&](Scheduler& s) {
    Mailbox<long> mb(s);
    CountdownLatch done(s, kThreads);
    // Receivers first, so most of them park on an empty mailbox.
    for (int t = 0; t < kReceivers; t++) {
      s.fork([&] {
        for (int i = 0; i < kPer; i++) received_sum.fetch_add(mb.recv());
        done.count_down();
      });
    }
    for (int t = 0; t < kSenders; t++) {
      s.fork([&, t] {
        for (int i = 0; i < kPer; i++) {
          mb.send(t * kPer + i);
          if (i % 8 == 0) s.yield();
        }
        done.count_down();
      });
    }
    done.await();
    EXPECT_FALSE(mb.try_recv().has_value());
    EXPECT_EQ(mb.size(), 0u);
  });
  constexpr long kValues = static_cast<long>(kSenders) * kPer;
  EXPECT_EQ(received_sum.load(), kValues * (kValues - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndDisciplines, SyncStress,
    ::testing::Combine(::testing::Values(Backend::kSim, Backend::kNative),
                       ::testing::Values(LockDiscipline::kQueue,
                                         LockDiscipline::kTas)),
    param_name);

// ---------- queue-discipline sim runs stay bit-reproducible ----------

double contended_sim_total_us() {
  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(kProcs);
  cfg.heap.nursery_bytes = 512 * 1024;
  mp::SimPlatform platform(cfg);
  long counter = 0;
  Scheduler::run(platform, {}, [&](Scheduler& s) {
    Mutex m(s);
    CountdownLatch done(s, kThreads);
    for (int t = 0; t < kThreads; t++) {
      s.fork([&] {
        for (int i = 0; i < 20; i++) {
          m.lock();
          counter++;
          if (i % 8 == 0) s.yield();
          m.unlock();
        }
        done.count_down();
      });
    }
    done.await();
  });
  EXPECT_EQ(counter, kThreads * 20L);
  return platform.report().total_us;
}

void expect_bit_reproducible(LockDiscipline d) {
  const LockDiscipline saved = mp::threads::lock_discipline();
  mp::threads::set_lock_discipline(d);
  const double a = contended_sim_total_us();
  const double b = contended_sim_total_us();
  mp::threads::set_lock_discipline(saved);
  EXPECT_EQ(a, b);  // bitwise: same config, same virtual-time trace
  EXPECT_GT(a, 0);
}

TEST(SyncSimDeterminism, QueueLockTracesBitReproducible) {
  expect_bit_reproducible(LockDiscipline::kQueue);
}

TEST(SyncSimDeterminism, TasLockTracesBitReproducible) {
  expect_bit_reproducible(LockDiscipline::kTas);
}

// ---------- RWLock admission order (phase-fair under both) ----------
//
// One sim proc and no preemption make the interleaving exact: a writer
// holds, a reader queues behind it, then a writer queues behind the
// reader.  The release must admit the reader first, whatever the
// discipline.

class RWLockOrder : public ::testing::TestWithParam<LockDiscipline> {};

TEST_P(RWLockOrder, ReleasingWriterAdmitsQueuedReaderFirst) {
  const LockDiscipline saved = mp::threads::lock_discipline();
  mp::threads::set_lock_discipline(GetParam());
  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(1);
  mp::SimPlatform platform(cfg);
  std::string order;
  Scheduler::run(platform, {}, [&](Scheduler& s) {
    RWLock rw(s);
    CountdownLatch done(s, 2);
    bool reader_queued = false, writer_queued = false;
    rw.lock_exclusive();
    s.fork([&] {
      reader_queued = true;  // runs straight into the park: one proc
      rw.lock_shared();
      order += 'r';
      rw.unlock_shared();
      done.count_down();
    });
    while (!reader_queued) s.yield();
    s.fork([&] {
      writer_queued = true;
      rw.lock_exclusive();
      order += 'w';
      rw.unlock_exclusive();
      done.count_down();
    });
    while (!writer_queued) s.yield();
    rw.unlock_exclusive();
    done.await();
  });
  mp::threads::set_lock_discipline(saved);
  EXPECT_EQ(order, "rw");
}

INSTANTIATE_TEST_SUITE_P(
    Disciplines, RWLockOrder,
    ::testing::Values(LockDiscipline::kQueue, LockDiscipline::kTas),
    [](const ::testing::TestParamInfo<LockDiscipline>& i) {
      return std::string(i.param == LockDiscipline::kQueue ? "Queue" : "Tas");
    });

// ---------- the invariant checks actually fire ----------

class SyncDeathTest : public ::testing::Test {
 protected:
  static void run_sim(const std::function<void(Scheduler&)>& fn) {
    mp::SimPlatformConfig cfg;
    cfg.machine = mp::sim::sequent_s81(1);
    mp::SimPlatform platform(cfg);
    Scheduler::run(platform, {}, fn);
  }
};

TEST_F(SyncDeathTest, UnlockSharedWithoutHoldPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (LockDiscipline d : {LockDiscipline::kQueue, LockDiscipline::kTas}) {
    EXPECT_DEATH(
        {
          mp::threads::set_lock_discipline(d);
          run_sim([](Scheduler& s) {
            RWLock rw(s);
            rw.unlock_shared();
          });
        },
        "unlock_shared without a shared hold");
  }
}

TEST_F(SyncDeathTest, UnlockExclusiveWithoutHoldPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (LockDiscipline d : {LockDiscipline::kQueue, LockDiscipline::kTas}) {
    EXPECT_DEATH(
        {
          mp::threads::set_lock_discipline(d);
          run_sim([](Scheduler& s) {
            RWLock rw(s);
            rw.unlock_exclusive();
          });
        },
        "unlock_exclusive without the exclusive hold");
  }
}

TEST_F(SyncDeathTest, MutexUnlockUnheldPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (LockDiscipline d : {LockDiscipline::kQueue, LockDiscipline::kTas}) {
    EXPECT_DEATH(
        {
          mp::threads::set_lock_discipline(d);
          run_sim([](Scheduler& s) {
            Mutex m(s);
            m.unlock();
          });
        },
        "unheld");
  }
}

TEST_F(SyncDeathTest, CondVarWaitWithoutMonitorPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        mp::threads::set_lock_discipline(LockDiscipline::kQueue);
        run_sim([](Scheduler& s) {
          Mutex m(s);
          CondVar cv(s);
          cv.wait(m);  // monitor not held
        });
      },
      "without the monitor held");
}

}  // namespace
