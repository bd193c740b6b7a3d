// Runtime switches — a scheduler dispatch, a callcc body's normal return —
// resume the next thread directly, without the C++ unwind that client
// throw_to keeps.  These tests loop every kind of switch the thread package
// and CML make (yield, fork+join, channel rendezvous immediate and parked,
// a select whose losing offer dies, Mailbox and pipe round trips) on each
// backend and check that the abandoned frames leak nothing — no
// continuation core, no stack slot — and that no abandon-unwind is raised,
// while one client throw_to still raises exactly one.  They also check the
// rule that a thread must never block inside a catch handler.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "cml/cml.h"
#include "cml/mailbox.h"
#include "cont/cont.h"
#include "io/stream.h"
#include "metrics/metrics.h"
#include "mp/native_platform.h"
#include "mp/sim_platform.h"
#include "threads/scheduler.h"
#include "threads/sync.h"
#include "threads/unithread.h"

namespace {

using mp::cml::Channel;
using mp::cml::Mailbox;
using mp::cont::Cont;
using mp::cont::SegmentPool;
using mp::cont::Unit;
using mp::threads::CountdownLatch;
using mp::threads::Scheduler;

constexpr int kRounds = 40;

bool counting_unwinds() {
#if MPNJ_METRICS
  return mp::metrics::registry().enabled();
#else
  return false;
#endif
}

std::uint64_t unwinds() {
  return mp::metrics::registry().snapshot().counter(
      mp::metrics::Counter::kContUnwinds);
}

// One client throw_to: the transfer that keeps its unwind.
void one_throw_to() {
  mp::cont::callcc<int>(
      [](Cont<int> k) -> int { mp::cont::throw_to(std::move(k), 1); });
}

// Every runtime switch the scheduler and CML make, kRounds times each.
void scheduler_loops(Scheduler& s) {
  for (int i = 0; i < kRounds; i++) s.yield();

  for (int i = 0; i < kRounds; i++) {
    CountdownLatch done(s, 1);
    s.fork([&] { done.count_down(); });
    done.await();
  }

  {
    // Ping-pong: whichever side arrives first parks its offer, the other
    // commits immediately.
    Channel<int> ping(s);
    Channel<int> pong(s);
    CountdownLatch done(s, 1);
    s.fork([&] {
      for (int i = 0; i < kRounds; i++) pong.send(ping.recv() + 1);
      done.count_down();
    });
    for (int i = 0; i < kRounds; i++) {
      ping.send(i);
      EXPECT_EQ(pong.recv(), i + 1);
    }
    done.await();
  }

  for (int i = 0; i < kRounds; i++) {
    // The selector parks an offer on both channels; the send on `a`
    // commits one and leaves the other, on `b`, dead in b's queue until
    // the channels die.
    Channel<int> a(s);
    Channel<int> b(s);
    CountdownLatch done(s, 1);
    int got = -1;
    s.fork([&] {
      got = mp::cml::select_receive<int>({&a, &b});
      done.count_down();
    });
    a.send(i);
    done.await();
    EXPECT_EQ(got, i);
  }

  {
    Mailbox<int> req(s);
    Mailbox<int> rep(s);
    CountdownLatch done(s, 1);
    s.fork([&] {
      for (int v = req.recv(); v >= 0; v = req.recv()) rep.send(v * 2);
      done.count_down();
    });
    for (int i = 0; i < kRounds; i++) {
      req.send(i);
      EXPECT_EQ(rep.recv(), 2 * i);
    }
    req.send(-1);
    done.await();
  }

  {
    auto [up_r, up_w] = mp::io::Stream::pipe(s);
    auto [down_r, down_w] = mp::io::Stream::pipe(s);
    CountdownLatch done(s, 1);
    s.fork([&] {
      char c = 0;
      while (up_r.read_some(&c, 1) == 1) down_w.write_all(&c, 1);
      down_w.close();
      done.count_down();
    });
    for (int i = 0; i < kRounds; i++) {
      const char out = static_cast<char>('a' + i % 26);
      char in = 0;
      up_w.write_all(&out, 1);
      down_r.read_exact(&in, 1);
      EXPECT_EQ(in, out);
    }
    up_w.close();
    done.await();
  }
}

// UniThread (paper Figure 1) has no channels or joins: yield and fork only.
void uni_loops(mp::threads::UniThread<>& t) {
  for (int i = 0; i < kRounds; i++) t.yield();
  for (int i = 0; i < kRounds; i++) {
    bool ran = false;
    t.fork([&] { ran = true; });
    while (!ran) t.yield();
  }
}

struct Observed {
  std::uint64_t loop_unwinds = 0;
  std::uint64_t throw_unwinds = 0;
};

void run_scheduler(mp::Platform& plat, Observed* seen,
                   bool hold_procs = true) {
  mp::threads::SchedulerConfig cfg;
  cfg.hold_procs = hold_procs;
  Scheduler::run(plat, std::move(cfg), [&](Scheduler& s) {
    const std::uint64_t before = unwinds();
    scheduler_loops(s);
    const std::uint64_t mid = unwinds();
    one_throw_to();
    seen->loop_unwinds = mid - before;
    seen->throw_unwinds = unwinds() - mid;
  });
}

// Runs the loops on the named backend.  "fig3" is the simulator under
// Figure 3's proc policy (acquire on fork, release when idle), the one mode
// in which fork hands its parent to a freshly acquired proc.
void run_backend(const std::string& backend, Observed* seen) {
  if (backend == "native1" || backend == "native2") {
    mp::NativePlatformConfig cfg;
    cfg.max_procs = backend == "native1" ? 1 : 2;
    mp::NativePlatform plat(cfg);
    run_scheduler(plat, seen);
  } else if (backend == "sim" || backend == "fig3") {
    mp::SimPlatformConfig cfg;
    cfg.machine = mp::sim::sequent_s81(4);
    mp::SimPlatform plat(cfg);
    run_scheduler(plat, seen, /*hold_procs=*/backend == "sim");
  } else {
    mp::threads::UniThread<>::run([&](mp::threads::UniThread<>& t) {
      const std::uint64_t before = unwinds();
      uni_loops(t);
      const std::uint64_t mid = unwinds();
      one_throw_to();
      seen->loop_unwinds = mid - before;
      seen->throw_unwinds = unwinds() - mid;
    });
  }
}

class RuntimeSwitchLeaks : public ::testing::TestWithParam<std::string> {};

TEST_P(RuntimeSwitchLeaks, LeavesNoCoreOrSegmentBehind) {
  const std::size_t cores = mp::cont::live_core_count();
  const std::int64_t segs = SegmentPool::instance().outstanding();
  Observed seen;
  run_backend(GetParam(), &seen);
  EXPECT_EQ(mp::cont::live_core_count(), cores);
  // Counted after the platform is gone: while a SimPlatform lives, its
  // engine holds one slot per simulated proc as that proc's host stack.
  EXPECT_EQ(SegmentPool::instance().outstanding(), segs);
}

INSTANTIATE_TEST_SUITE_P(Backends, RuntimeSwitchLeaks,
                         ::testing::Values("native1", "native2", "sim",
                                           "fig3", "uni"),
                         [](const auto& info) { return info.param; });

// Figure 3's releases are exits to the idle loop, which unwind; the held-
// procs backends make none inside the loops.
class RuntimeSwitchUnwinds : public ::testing::TestWithParam<std::string> {};

TEST_P(RuntimeSwitchUnwinds, RaisesNoUnwindButThrowToDoes) {
  if (!counting_unwinds()) {
    GTEST_SKIP() << "the unwind counter needs the metrics registry";
  }
  Observed seen;
  run_backend(GetParam(), &seen);
  EXPECT_EQ(seen.loop_unwinds, 0u);
  EXPECT_EQ(seen.throw_unwinds, 1u);
}

INSTANTIATE_TEST_SUITE_P(Backends, RuntimeSwitchUnwinds,
                         ::testing::Values("native1", "native2", "sim",
                                           "uni"),
                         [](const auto& info) { return info.param; });

// A thread must never block inside a catch handler: the C++ runtime keeps
// its caught-exception stack per OS thread, not per MLthread.

TEST(RuntimeSwitchDeathTest, SuspendInsideCatchHandlerPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        mp::SimPlatform plat(mp::SimPlatformConfig{});
        Scheduler::run(plat, {}, [](Scheduler& s) {
          CountdownLatch never(s, 1);
          try {
            throw std::runtime_error("failure");
          } catch (...) {
            never.await();
          }
        });
      },
      "blocked inside a catch handler");
}

TEST(RuntimeSwitchDeathTest, ChannelBlockInsideCatchHandlerPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        mp::SimPlatform plat(mp::SimPlatformConfig{});
        Scheduler::run(plat, {}, [](Scheduler& s) {
          Channel<int> ch(s);
          try {
            throw std::runtime_error("failure");
          } catch (...) {
            ch.recv();
          }
        });
      },
      "blocked inside a catch handler");
}

}  // namespace
