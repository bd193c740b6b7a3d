// Tests for the selective-communication facility (paper section 4.2) and
// the CML-style event combinators, on both backends.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <vector>

#include "cml/cml.h"
#include "cml/mailbox.h"
#include "mp/native_platform.h"
#include "mp/sim_platform.h"

namespace {

using mp::cont::Unit;
using mp::cml::Channel;
using mp::cml::Event;
using mp::cml::select_receive;
using mp::gc::Value;
using mp::threads::CountdownLatch;
using mp::threads::Scheduler;

enum class Backend { kSim, kNative };

std::string backend_name(const ::testing::TestParamInfo<Backend>& info) {
  return info.param == Backend::kSim ? "Sim" : "Native";
}

class CmlTest : public ::testing::TestWithParam<Backend> {
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

  void run(mp::Platform& p, const std::function<void(Scheduler&)>& fn) {
    Scheduler::run(p, {}, fn);
  }
};

TEST_P(CmlTest, SendRecvTransfersValuesInOrder) {
  auto p = make(2);
  std::vector<int> got;
  run(*p, [&](Scheduler& s) {
    Channel<int> ch(s);
    s.fork([&] {
      for (int i = 0; i < 20; i++) ch.send(i * 3);
    });
    for (int i = 0; i < 20; i++) got.push_back(ch.recv());
  });
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; i++) EXPECT_EQ(got[static_cast<size_t>(i)], i * 3);
}

TEST_P(CmlTest, SendBlocksUntilAReceiverArrives) {
  auto p = make(2);
  std::atomic<bool> sent{false};
  bool was_blocked = false;
  run(*p, [&](Scheduler& s) {
    Channel<int> ch(s);
    s.fork([&] {
      ch.send(7);  // no receiver yet: must block
      sent.store(true);
    });
    for (int i = 0; i < 50; i++) s.yield();  // give the sender every chance
    was_blocked = !sent.load();
    EXPECT_EQ(ch.recv(), 7);
  });
  EXPECT_TRUE(was_blocked) << "send completed without a receiver";
  EXPECT_TRUE(sent.load());
}

TEST_P(CmlTest, RecvBlocksUntilASenderArrives) {
  auto p = make(2);
  std::atomic<bool> received{false};
  bool was_blocked = false;
  run(*p, [&](Scheduler& s) {
    Channel<int> ch(s);
    s.fork([&] {
      (void)ch.recv();
      received.store(true);
    });
    for (int i = 0; i < 50; i++) s.yield();
    was_blocked = !received.load();
    ch.send(1);
  });
  EXPECT_TRUE(was_blocked);
  EXPECT_TRUE(received.load());
}

TEST_P(CmlTest, ManyProducersOneConsumer) {
  constexpr int kProducers = 8;
  constexpr int kEach = 25;
  auto p = make(4);
  long sum = 0;
  run(*p, [&](Scheduler& s) {
    Channel<int> ch(s);
    for (int t = 0; t < kProducers; t++) {
      s.fork([&, t] {
        for (int i = 0; i < kEach; i++) ch.send(t * 1000 + i);
      });
    }
    for (int n = 0; n < kProducers * kEach; n++) sum += ch.recv();
  });
  long expect = 0;
  for (int t = 0; t < kProducers; t++) {
    for (int i = 0; i < kEach; i++) expect += t * 1000 + i;
  }
  EXPECT_EQ(sum, expect);
}

TEST_P(CmlTest, UnitChannelSynchronizesTwoThreads) {
  auto p = make(2);
  std::vector<int> trace;
  run(*p, [&](Scheduler& s) {
    Channel<Unit> go(s);
    Channel<Unit> done(s);
    s.fork([&] {
      go.recv();
      trace.push_back(2);
      done.send(Unit{});
    });
    trace.push_back(1);
    go.send(Unit{});
    done.recv();
    trace.push_back(3);
  });
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

TEST_P(CmlTest, SelectPicksTheReadyChannel) {
  auto p = make(2);
  int got = 0;
  run(*p, [&](Scheduler& s) {
    Channel<int> a(s), b(s), c(s);
    s.fork([&] { b.send(55); });
    // Let the sender park its offer on b first.
    for (int i = 0; i < 20; i++) s.yield();
    got = select_receive<int>({&a, &b, &c});
  });
  EXPECT_EQ(got, 55);
}

TEST_P(CmlTest, SelectBlocksAcrossManyChannelsUntilAnySenderArrives) {
  auto p = make(2);
  int got = 0;
  run(*p, [&](Scheduler& s) {
    Channel<int> a(s), b(s), c(s);
    s.fork([&] {
      for (int i = 0; i < 30; i++) s.yield();
      c.send(99);  // the selector is already parked on all three channels
    });
    got = select_receive<int>({&a, &b, &c});
  });
  EXPECT_EQ(got, 99);
}

TEST_P(CmlTest, SelectDeliversEachValueExactlyOnce) {
  constexpr int kValues = 60;
  auto p = make(4);
  std::multiset<int> got;
  run(*p, [&](Scheduler& s) {
    Channel<int> chans[3] = {Channel<int>(s), Channel<int>(s), Channel<int>(s)};
    mp::threads::Mutex m(s);
    CountdownLatch latch(s, 3);
    for (int t = 0; t < 3; t++) {
      s.fork([&, t] {
        for (int i = 0; i < kValues / 3; i++) {
          chans[t].send(t * 100 + i);
        }
        latch.count_down();
      });
    }
    for (int n = 0; n < kValues; n++) {
      const int v = select_receive<int>({&chans[0], &chans[1], &chans[2]});
      m.lock();
      got.insert(v);
      m.unlock();
    }
    latch.await();
  });
  EXPECT_EQ(got.size(), static_cast<std::size_t>(kValues));
  for (int t = 0; t < 3; t++) {
    for (int i = 0; i < kValues / 3; i++) {
      EXPECT_EQ(got.count(t * 100 + i), 1u) << "value " << t * 100 + i;
    }
  }
}

TEST_P(CmlTest, ChooseWithAlwaysNeverBlocks) {
  auto p = make(1);
  int got = 0;
  run(*p, [&](Scheduler& s) {
    Channel<int> never(s);
    got = Event<int>::choose(
              {never.recv_event(), Event<int>::always(42)})
              .sync(s);
  });
  EXPECT_EQ(got, 42);
}

TEST_P(CmlTest, WrapTransformsTheResult) {
  auto p = make(2);
  std::string got;
  run(*p, [&](Scheduler& s) {
    Channel<int> ch(s);
    s.fork([&] { ch.send(5); });
    got = ch.recv_event()
              .wrap<std::string>([](int v) { return std::to_string(v * 2); })
              .sync(s);
  });
  EXPECT_EQ(got, "10");
}

TEST_P(CmlTest, AbandonedOfferDoesNotFireLater) {
  auto p = make(2);
  int first = 0, second = 0;
  run(*p, [&](Scheduler& s) {
    Channel<int> a(s), b(s);
    s.fork([&] { b.send(1); });
    for (int i = 0; i < 20; i++) s.yield();
    // The choose parks an offer on `a`, then commits on `b`; the offer on
    // `a` is dead.
    first = Event<int>::choose({a.recv_event(), b.recv_event()}).sync(s);
    // A later rendezvous on `a` must pair the new sender with the new
    // receiver, not with the dead offer.
    s.fork([&] { a.send(2); });
    second = a.recv();
  });
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
}

TEST_P(CmlTest, SelectiveSendCommitsExactlyOne) {
  auto p = make(2);
  int received = 0;
  bool sent_unit = false;
  run(*p, [&](Scheduler& s) {
    Channel<int> a(s), b(s);
    s.fork([&] {
      // Receiver ready on b only.
      received = b.recv();
    });
    for (int i = 0; i < 20; i++) s.yield();
    // Offer sends on both; only b has a receiver.
    Event<Unit> e = Event<Unit>::choose({a.send_event(10), b.send_event(20)});
    e.sync(s);
    sent_unit = true;
    // a must still be empty: a fresh receive pairs with a fresh sender.
    s.fork([&] { a.send(30); });
    EXPECT_EQ(a.recv(), 30);
  });
  EXPECT_TRUE(sent_unit);
  EXPECT_EQ(received, 20);
}

TEST_P(CmlTest, GcValuesFlowThroughChannels) {
  auto p = make(3, /*nursery=*/64 * 1024);
  long checksum = 0;
  run(*p, [&](Scheduler& s) {
    auto& h = s.platform().heap();
    Channel<Value> ch(s);
    s.fork([&] {
      for (int i = 0; i < 200; i++) {
        mp::gc::Roots<1> r;
        r[0] = h.alloc_record({Value::from_int(i), Value::from_int(i * 7)});
        ch.send(r[0]);
        // Churn the heap so collections run while values sit in channel
        // queues and continuation slots.
        for (int n = 0; n < 50; n++) h.alloc_record({Value::from_int(n)});
      }
    });
    for (int i = 0; i < 200; i++) {
      mp::gc::Roots<1> r;
      r[0] = ch.recv();
      for (int n = 0; n < 30; n++) h.alloc_record({Value::from_int(n)});
      checksum += r[0].field(1).as_int() - 7 * r[0].field(0).as_int();
    }
    EXPECT_GT(h.stats().minor_gcs, 0u);
  });
  EXPECT_EQ(checksum, 0) << "values corrupted in transit";
}

TEST_P(CmlTest, PingPongManyRounds) {
  auto p = make(2);
  long rounds = 0;
  run(*p, [&](Scheduler& s) {
    Channel<int> ping(s), pong(s);
    s.fork([&] {
      for (;;) {
        const int v = ping.recv();
        if (v < 0) break;
        pong.send(v + 1);
      }
    });
    for (int i = 0; i < 500; i++) {
      ping.send(i);
      if (pong.recv() == i + 1) rounds++;
    }
    ping.send(-1);
  });
  EXPECT_EQ(rounds, 500);
}

TEST_P(CmlTest, BothSidesSelecting) {
  // Two threads each offering {send on own, recv on other}: exactly one
  // pairing must commit per round, with no lost or duplicated values.  On
  // two native procs the selects cross: each may claim its own sync and
  // then find the other's claimed, and neither may wait for the other.
  constexpr int kRounds = 10000;
  auto p = make(2);
  std::atomic<int> transfers{0};
  run(*p, [&](Scheduler& s) {
    Channel<int> ab(s), ba(s);
    CountdownLatch latch(s, 2);
    s.fork([&] {
      for (int i = 0; i < kRounds; i++) {
        Event<int>::choose(
            {ab.send_event(i).wrap<int>([](Unit) { return -1; }),
             ba.recv_event()})
            .sync(s);
        transfers.fetch_add(1);
      }
      latch.count_down();
    });
    s.fork([&] {
      for (int i = 0; i < kRounds; i++) {
        Event<int>::choose(
            {ba.send_event(i).wrap<int>([](Unit) { return -1; }),
             ab.recv_event()})
            .sync(s);
        transfers.fetch_add(1);
      }
      latch.count_down();
    });
    latch.await();
  });
  EXPECT_EQ(transfers.load(), 2 * kRounds);
}

TEST_P(CmlTest, SelectOfferingSendAndRecvOnOneChannelPairsWithAPartner) {
  // One proc: the forked select runs first and parks both of its offers
  // before the partner arrives, so each base polls the other's offer.  A
  // sync must never match its own offer (claiming its own cell and then
  // waiting on that claim spins forever); the partner pairs with one base.
  auto p = make(1);
  int sent = 0, first = 0, second = 0;
  run(*p, [&](Scheduler& s) {
    Channel<int> ch(s);
    const auto select = [&](int* result) {
      *result = Event<int>::choose(
                    {ch.send_event(1).wrap<int>([](Unit) { return -1; }),
                     ch.recv_event()})
                    .sync(s);
    };
    s.fork([&] { select(&first); });
    sent = ch.recv();  // takes the select's send
    s.fork([&] { select(&second); });
    ch.send(2);  // takes the select's receive
  });
  EXPECT_EQ(sent, 1);
  EXPECT_EQ(first, -1);
  EXPECT_EQ(second, 2);
}

// ---------- Mailbox: the asynchronous buffered channel ----------

TEST_P(CmlTest, MailboxSendNeverBlocksAndRecvDrainsInOrder) {
  auto p = make(1);
  run(*p, [&](Scheduler& s) {
    mp::cml::Mailbox<std::uint64_t> mb(s);
    // With no receiver anywhere, every send must return immediately — on
    // one proc, a rendezvous send here would deadlock the whole run.
    for (std::uint64_t i = 0; i < 100; i++) mb.send(i);
    EXPECT_EQ(mb.size(), 100u);
    for (std::uint64_t i = 0; i < 100; i++) EXPECT_EQ(mb.recv(), i);
    EXPECT_FALSE(mb.try_recv().has_value());
    mb.send(7);
    const std::optional<std::uint64_t> got = mb.try_recv();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 7u);
  });
}

TEST_P(CmlTest, MailboxWakesAParkedReceiver) {
  auto p = make(2);
  std::atomic<long> sum{0};
  run(*p, [&](Scheduler& s) {
    mp::cml::Mailbox<std::uint64_t> mb(s);
    CountdownLatch done(s, 1);
    s.fork([&] {
      // Parks until the producers below post.
      for (int i = 0; i < 60; i++) sum.fetch_add(static_cast<long>(mb.recv()));
      done.count_down();
    });
    for (int t = 0; t < 3; t++) {
      s.fork([&, t] {
        for (int i = 0; i < 20; i++) {
          mb.send(static_cast<std::uint64_t>(t * 20 + i));
        }
      });
    }
    done.await();
  });
  EXPECT_EQ(sum.load(), 59L * 60 / 2);
}

INSTANTIATE_TEST_SUITE_P(Backends, CmlTest,
                         ::testing::Values(Backend::kSim, Backend::kNative),
                         backend_name);

TEST(CmlSim, DeterministicCommunication) {
  auto run_once = [] {
    mp::SimPlatformConfig cfg;
    cfg.machine = mp::sim::sequent_s81(4);
    mp::SimPlatform p(cfg);
    double total = 0;
    Scheduler::run(p, {}, [&](Scheduler& s) {
      Channel<int> ch(s);
      for (int t = 0; t < 3; t++) {
        s.fork([&, t] {
          for (int i = 0; i < 50; i++) ch.send(t * 50 + i);
        });
      }
      long sum = 0;
      for (int i = 0; i < 150; i++) sum += ch.recv();
      EXPECT_EQ(sum, 150L * 149 / 2);
    });
    total = p.report().total_us;
    return total;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
