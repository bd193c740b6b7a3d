// Tests for the src/io subsystem: the EINTR/errno syscall discipline, the
// virtual-pipe and TCP streams, the reactor's proc-parking protocol (a proc
// never blocks in the kernel while runnable threads exist), CML select over
// channel + timer + stream readiness, pruning of the dead offers losing
// selects leave behind, GC while parked, and the net_echo workload
// acceptance runs.

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "arch/fiber_san.h"
#include "arch/sysio.h"
#include "cml/cml.h"
#include "gc/heap.h"
#include "io/io_event.h"
#include "io/reactor.h"
#include "io/stream.h"
#include "metrics/metrics.h"
#include "mp/native_platform.h"
#include "mp/sim_platform.h"
#include "mp/uni_platform.h"
#include "threads/scheduler.h"
#include "workloads/workload.h"

namespace {

using mp::cont::Unit;
using mp::cml::Channel;
using mp::cml::Event;
using mp::io::Duplex;
using mp::io::EofError;
using mp::io::Interest;
using mp::io::Listener;
using mp::io::Reactor;
using mp::io::ReactorConfig;
using mp::io::Stream;
using mp::threads::CountdownLatch;
using mp::threads::Scheduler;
using mp::threads::SchedulerConfig;

enum class Backend { kSim, kNative, kUni };

// Keeps compute loops from being optimized away.
std::atomic<long> benchmark_sink{0};

std::string backend_name(const ::testing::TestParamInfo<Backend>& info) {
  switch (info.param) {
    case Backend::kSim:
      return "Sim";
    case Backend::kNative:
      return "Native";
    default:
      return "Uni";
  }
}

std::unique_ptr<mp::Platform> make_platform(Backend b, int procs) {
  if (b == Backend::kSim) {
    mp::SimPlatformConfig cfg;
    cfg.machine = mp::sim::sequent_s81(procs);
    return std::make_unique<mp::SimPlatform>(cfg);
  }
  if (b == Backend::kNative) {
    mp::NativePlatformConfig cfg;
    cfg.max_procs = procs;
    return std::make_unique<mp::NativePlatform>(cfg);
  }
  return std::make_unique<mp::UniPlatform>();
}

void run_threads(mp::Platform& p, const std::function<void(Scheduler&)>& fn) {
  Scheduler::run(p, SchedulerConfig{}, fn);
}

// ---------- arch/sysio: EINTR retry + errno mapping ----------

TEST(SysIo, SysErrorCarriesOpAndCode) {
  try {
    mp::arch::raise_errno("connect", ECONNREFUSED);
    FAIL() << "raise_errno returned";
  } catch (const mp::arch::SysError& e) {
    EXPECT_EQ(e.code(), ECONNREFUSED);
    EXPECT_STREQ(e.op(), "connect");
    EXPECT_NE(std::string(e.what()).find("connect"), std::string::npos);
  }
}

TEST(SysIo, RetryEintrRestartsOnlyEintr) {
  int calls = 0;
  const long r = mp::arch::retry_eintr([&]() -> long {
    calls++;
    if (calls < 3) {
      errno = EINTR;
      return -1;
    }
    return 42;
  });
  EXPECT_EQ(r, 42);
  EXPECT_EQ(calls, 3);

  calls = 0;
  errno = 0;
  const long f = mp::arch::retry_eintr([&]() -> long {
    calls++;
    errno = EBADF;
    return -1;
  });
  EXPECT_EQ(f, -1);
  EXPECT_EQ(calls, 1);  // non-EINTR failures are not retried
  EXPECT_EQ(errno, EBADF);
}

TEST(SysIo, CheckSysThrowsOnFailure) {
  EXPECT_THROW(mp::arch::check_sys("fstat",
                                   []() -> long {
                                     errno = EBADF;
                                     return -1;
                                   }),
               mp::arch::SysError);
  EXPECT_EQ(mp::arch::check_sys("ok", []() -> long { return 7; }), 7);
}

// ---------- virtual pipes ----------

TEST(Pipe, RoundtripAndEof) {
  auto p = make_platform(Backend::kUni, 1);
  run_threads(*p, [](Scheduler& sched) {
    auto [rd, wr] = Stream::pipe(sched, 16);
    const char msg[] = "hello, reactor";
    wr.write_all(msg, sizeof(msg));
    char buf[sizeof(msg)] = {};
    rd.read_exact(buf, sizeof(msg));
    EXPECT_STREQ(buf, msg);
    wr.close();
    EXPECT_TRUE(rd.poll_readable());  // EOF counts as readable
    EXPECT_EQ(rd.read_some(buf, sizeof(buf)), 0u);
  });
}

TEST(Pipe, WriterGetsEpipeAfterReaderClose) {
  auto p = make_platform(Backend::kUni, 1);
  run_threads(*p, [](Scheduler& sched) {
    auto [rd, wr] = Stream::pipe(sched, 16);
    rd.close();
    char b = 'x';
    try {
      wr.write_all(&b, 1);
      FAIL() << "write to a closed pipe succeeded";
    } catch (const mp::arch::SysError& e) {
      EXPECT_EQ(e.code(), EPIPE);
    }
  });
}

TEST(Pipe, BoundedCapacityParksWriterUntilDrained) {
  auto p = make_platform(Backend::kNative, 2);
  run_threads(*p, [](Scheduler& sched) {
    auto [rd, wr] = Stream::pipe(sched, 8);  // far smaller than the message
    std::vector<unsigned char> msg(4096);
    std::iota(msg.begin(), msg.end(), 0);
    CountdownLatch done(sched, 1);
    sched.fork([&, wr]() mutable {
      wr.write_all(msg.data(), msg.size());
      wr.close();
      done.count_down();
    });
    std::vector<unsigned char> got(msg.size());
    rd.read_exact(got.data(), got.size());
    done.await();
    EXPECT_EQ(got, msg);
    EXPECT_EQ(rd.read_some(got.data(), 1), 0u);
  });
}

TEST(Pipe, ReadExactThrowsEofOnShortStream) {
  auto p = make_platform(Backend::kUni, 1);
  run_threads(*p, [](Scheduler& sched) {
    auto [rd, wr] = Stream::pipe(sched, 16);
    wr.write_all("ab", 2);
    wr.close();
    char buf[8];
    EXPECT_THROW(rd.read_exact(buf, 8), EofError);
  });
}

// ---------- reactor + TCP on a single proc ----------

// One proc serving both ends of a TCP connection is only possible if a
// blocked socket op releases the proc: the client parks in the reactor and
// the server thread runs.
TEST(Reactor, TcpEchoOnOneProc) {
  auto p = make_platform(Backend::kUni, 1);
  run_threads(*p, [](Scheduler& sched) {
    Reactor reactor(sched);
    Listener lis = Listener::tcp(reactor);
    CountdownLatch done(sched, 1);
    sched.fork([&] {
      Stream s = lis.accept();
      char buf[5];
      s.read_exact(buf, 5);
      s.write_all(buf, 5);
      s.close();
      done.count_down();
    });
    Stream c = Stream::connect_tcp(reactor, lis.port());
    c.write_all("12345", 5);
    char buf[5] = {};
    c.read_exact(buf, 5);
    EXPECT_EQ(std::memcmp(buf, "12345", 5), 0);
    c.close();
    done.await();
    lis.close();
  });
}

TEST(Reactor, PollBackendEcho) {
  auto p = make_platform(Backend::kUni, 1);
  run_threads(*p, [](Scheduler& sched) {
    ReactorConfig cfg;
    cfg.force_poll = true;  // portable poll(2) demultiplexer
    Reactor reactor(sched, cfg);
    Listener lis = Listener::tcp(reactor);
    CountdownLatch done(sched, 1);
    sched.fork([&] {
      Stream s = lis.accept();
      char buf[3];
      s.read_exact(buf, 3);
      s.write_all(buf, 3);
      s.close();
      done.count_down();
    });
    Stream c = Stream::connect_tcp(reactor, lis.port());
    c.write_all("abc", 3);
    char buf[3] = {};
    c.read_exact(buf, 3);
    EXPECT_EQ(std::memcmp(buf, "abc", 3), 0);
    c.close();
    done.await();
    lis.close();
  });
}

// Acceptance: no proc blocks in the kernel while runnable threads exist.
// A thread waits on a socket that stays silent; meanwhile a batch of
// compute threads must all run to completion on the same procs.
TEST(Reactor, ComputeProgressesWhileThreadParkedOnSocket) {
  auto p = make_platform(Backend::kNative, 4);
  run_threads(*p, [](Scheduler& sched) {
    Reactor reactor(sched);
    Listener lis = Listener::tcp(reactor);
    CountdownLatch accepted(sched, 1);
    CountdownLatch reader_done(sched, 1);
    std::atomic<bool> reader_finished{false};
    Stream server;
    sched.fork([&] {
      server = lis.accept();
      accepted.count_down();
    });
    Stream client = Stream::connect_tcp(reactor, lis.port());
    accepted.await();

    sched.fork([&, client]() mutable {
      char b;
      ASSERT_EQ(client.read_some(&b, 1), 1u);  // parks: no data yet
      EXPECT_EQ(b, '!');
      reader_finished.store(true);
      reader_done.count_down();
    });

    // 64 compute threads across 4 procs; every one must finish while the
    // reader stays parked against the silent socket.
    std::atomic<int> computed{0};
    mp::workloads::parallel_for_tasks(sched, 64, [&](int t) {
      long acc = 0;
      for (long i = 0; i < 20000; i++) acc += i ^ t;
      benchmark_sink.fetch_add(acc, std::memory_order_relaxed);
      computed.fetch_add(1);
    });
    EXPECT_EQ(computed.load(), 64);
    EXPECT_FALSE(reader_finished.load())
        << "reader completed with no data: the socket wait did not park";

    server.write_all("!", 1);
    reader_done.await();
    EXPECT_TRUE(reader_finished.load());
    client.close();
    server.close();
    lis.close();
  });
}

TEST(Reactor, LargeTransferBothDirections) {
  auto p = make_platform(Backend::kNative, 4);
  run_threads(*p, [](Scheduler& sched) {
    Reactor reactor(sched);
    Listener lis = Listener::tcp(reactor);
    constexpr std::size_t kBytes = 256 * 1024;  // far beyond socket buffers
    CountdownLatch echoed(sched, 1);
    CountdownLatch server_done(sched, 1);
    sched.fork([&] {  // server: echo everything, then close
      Stream s = lis.accept();
      std::vector<unsigned char> buf(8192);
      for (;;) {
        const std::size_t n = s.read_some(buf.data(), buf.size());
        if (n == 0) break;
        s.write_all(buf.data(), n);
      }
      s.close();
      server_done.count_down();
    });
    Stream c = Stream::connect_tcp(reactor, lis.port());
    std::vector<unsigned char> got;
    got.reserve(kBytes);
    sched.fork([&, c]() mutable {  // concurrent reader of the echo
      std::vector<unsigned char> buf(8192);
      while (got.size() < kBytes) {
        const std::size_t n = c.read_some(buf.data(), buf.size());
        ASSERT_GT(n, 0u);
        got.insert(got.end(), buf.begin(), buf.begin() + n);
      }
      echoed.count_down();
    });
    std::vector<unsigned char> sent(kBytes);
    for (std::size_t i = 0; i < kBytes; i++) {
      sent[i] = static_cast<unsigned char>(i * 2654435761u >> 7);
    }
    c.write_all(sent.data(), sent.size());  // parks repeatedly on full buffers
    echoed.await();
    EXPECT_EQ(got, sent);
    c.close();  // EOF ends the server's echo loop
    server_done.await();
    lis.close();
  });
}

// GC cooperation: a stop-the-world must complete while a thread is parked
// against a silent socket (the reactor's bounded wait + wake hook keep the
// sleeping proc reaching its safe point).  Run with the parallel copier (the
// default) and the sequential collector.
void gc_while_parked_run(bool parallel_gc) {
  mp::NativePlatformConfig cfg;
  cfg.max_procs = 2;
  cfg.heap.nursery_bytes = 64 * 1024;  // force frequent minor collections
  cfg.heap.parallel_gc = parallel_gc;
  mp::NativePlatform plat(cfg);
  run_threads(plat, [&](Scheduler& sched) {
    Reactor reactor(sched);
    Listener lis = Listener::tcp(reactor);
    CountdownLatch accepted(sched, 1);
    CountdownLatch reader_done(sched, 1);
    Stream server;
    sched.fork([&] {
      server = lis.accept();
      accepted.count_down();
    });
    Stream client = Stream::connect_tcp(reactor, lis.port());
    accepted.await();
    sched.fork([&, client]() mutable {
      char b;
      ASSERT_EQ(client.read_some(&b, 1), 1u);
      reader_done.count_down();
    });
    auto& h = sched.platform().heap();
    const std::uint64_t minors_before = h.stats().minor_gcs;
    for (int i = 0; i < 20000; i++) {
      mp::gc::Roots<1> cell;
      cell[0] = h.alloc_record({mp::gc::Value::from_int(i),
                                mp::gc::Value::from_int(i * 2)});
      sched.platform().work(5);
    }
    EXPECT_GT(h.stats().minor_gcs, minors_before)
        << "allocation loop did not trigger a collection";
    server.write_all("x", 1);
    reader_done.await();
    client.close();
    server.close();
    lis.close();
  });
}

TEST(Reactor, GcCompletesWhileThreadParkedOnSocket) {
  gc_while_parked_run(mp::gc::HeapConfig{}.parallel_gc);
}

TEST(Reactor, SequentialGcCompletesWhileThreadParkedOnSocket) {
  gc_while_parked_run(false);
}

// Heavier variant of the test above, and the CI gc-stress workload: four
// procs, several threads parked against silent sockets, several threads
// allocating linked structures, with forced major collections mixed into the
// automatic minors.  Run with the parallel copier both on and off so the
// rendezvous worker dispatch and the sequential fallback both see the same
// churn (the TSan leg runs this test too).
void gc_stress_run(bool parallel_gc) {
  mp::NativePlatformConfig cfg;
  cfg.max_procs = 4;
  cfg.heap.nursery_bytes = 64 * 1024;  // force frequent minor collections
  cfg.heap.old_bytes = 2u << 20;
  cfg.heap.parallel_gc = parallel_gc;
  mp::NativePlatform plat(cfg);
  run_threads(plat, [&](Scheduler& sched) {
    Reactor reactor(sched);
    Listener lis = Listener::tcp(reactor);
    constexpr int kReaders = 2;
    constexpr int kAllocators = 3;
    constexpr int kRounds = 6;
    constexpr int kCells = 400;
    CountdownLatch accepted(sched, kReaders);
    CountdownLatch readers_done(sched, kReaders);
    std::vector<Stream> servers(kReaders);
    std::vector<Stream> clients;
    for (int i = 0; i < kReaders; i++) {
      sched.fork([&, i] {
        servers[static_cast<std::size_t>(i)] = lis.accept();
        accepted.count_down();
      });
    }
    for (int i = 0; i < kReaders; i++) {
      clients.push_back(Stream::connect_tcp(reactor, lis.port()));
    }
    accepted.await();
    for (int i = 0; i < kReaders; i++) {
      Stream c = clients[static_cast<std::size_t>(i)];
      sched.fork([&, c]() mutable {
        char b;
        ASSERT_EQ(c.read_some(&b, 1), 1u);  // parks until the final write
        readers_done.count_down();
      });
    }

    auto& h = sched.platform().heap();
    std::atomic<bool> sums_ok{true};
    CountdownLatch allocs_done(sched, kAllocators);
    for (int t = 0; t < kAllocators; t++) {
      sched.fork([&, t] {
        constexpr long kWant = static_cast<long>(kCells) * (kCells - 1) / 2;
        for (int round = 0; round < kRounds; round++) {
          mp::gc::Roots<1> r;
          r[0] = mp::gc::Value::nil();
          for (int i = 0; i < kCells; i++) {
            r[0] = h.cons(h.alloc_record({mp::gc::Value::from_int(i)}), r[0]);
            sched.platform().work(2);
          }
          // One thread folds forced collections (alternating minor-only and
          // major) into everyone else's automatic minors.
          if (t == 0) h.collect_now(/*force_major=*/(round % 2) == 1);
          long sum = 0;
          for (mp::gc::Value p = r[0]; !p.is_nil(); p = p.field(1)) {
            sum += p.field(0).field(0).as_int();
          }
          if (sum != kWant) sums_ok = false;
        }
        allocs_done.count_down();
      });
    }
    allocs_done.await();
    EXPECT_TRUE(sums_ok) << "a collection corrupted a live list";
    const auto s = h.stats();
    EXPECT_GT(s.minor_gcs, 0u);
    EXPECT_GT(s.major_gcs, 0u);

    for (auto& sv : servers) sv.write_all("x", 1);
    readers_done.await();
    for (auto& c : clients) c.close();
    for (auto& sv : servers) sv.close();
    lis.close();
  });
  std::string err;
  EXPECT_TRUE(plat.heap().verify(&err)) << err;
}

TEST(Reactor, GcStressParallelWithParkedReaders) { gc_stress_run(true); }

TEST(Reactor, GcStressSequentialWithParkedReaders) { gc_stress_run(false); }

// ---------- CML select: channel vs timer vs stream readiness ----------

struct SelectCounts {
  int channel = 0;
  int timer = 0;
  int stream = 0;
};

// One race round: three sources (channel send, timer, pipe write) armed
// with the given delays; the selector syncs on all three at once.  After
// the race, the leftovers are consumed so every source thread terminates
// and the stream's byte is accounted for.
void select_race_round(Scheduler& sched, double send_delay_us,
                       double timer_us, double write_delay_us,
                       SelectCounts& counts) {
  Channel<std::uint64_t> ch(sched);
  auto [rd, wr] = Stream::pipe(sched, 4);
  CountdownLatch sources(sched, 2);
  sched.fork([&, send_delay_us] {
    if (send_delay_us > 0) sched.sleep_for(send_delay_us);
    ch.send(7);
    sources.count_down();
  });
  sched.fork([&, write_delay_us]() {
    if (write_delay_us > 0) sched.sleep_for(write_delay_us);
    wr.write_all("!", 1);
    sources.count_down();
  });

  int winner = -1;
  Event<Unit>::choose(
      {ch.recv_event().wrap<Unit>([&](std::uint64_t v) {
        EXPECT_EQ(v, 7u);
        winner = 0;
        return Unit{};
      }),
       Event<Unit>::after(sched, timer_us).wrap<Unit>([&](Unit) {
         winner = 1;
         return Unit{};
       }),
       mp::io::readable_event(rd).wrap<Unit>([&](Unit) {
         winner = 2;
         return Unit{};
       })})
      .sync(sched);
  ASSERT_GE(winner, 0);
  ASSERT_LE(winner, 2);
  (winner == 0 ? counts.channel : winner == 1 ? counts.timer : counts.stream)++;

  // Post-race cleanup: whatever did not win is still pending.  The channel
  // sender must rendezvous (unless it already did) and the written byte
  // must still be readable.
  if (winner != 0) {
    EXPECT_EQ(ch.recv(), 7u);
  }
  char b = 0;
  rd.read_exact(&b, 1);
  EXPECT_EQ(b, '!');
  sources.await();
  wr.close();
  rd.close();
}

class IoSelect : public ::testing::TestWithParam<Backend> {};

TEST_P(IoSelect, RacesChannelTimerAndStreamReadiness) {
  auto p = make_platform(GetParam(), 4);
  run_threads(*p, [](Scheduler& sched) {
    SelectCounts counts;
    // Delay grids push each source to win some rounds: immediate sends,
    // immediate data, short timers, and mixed orderings.  TSan slows
    // dispatch enough that sub-millisecond margins between the timer and
    // the delayed senders vanish; stretch real time so the orderings the
    // grid encodes still hold.  (Sim runs on virtual time — the scale is
    // harmless there.)
    const double scale = MPNJ_SAN_THREAD ? 25.0 : 1.0;
    const double delays[] = {0, 300 * scale, 900 * scale};
    for (int rep = 0; rep < 2; rep++) {
      for (const double sd : delays) {
        for (const double td : {200.0 * scale, 700.0 * scale}) {
          for (const double wd : delays) {
            select_race_round(sched, sd, td, wd, counts);
          }
        }
      }
    }
    const int total = counts.channel + counts.timer + counts.stream;
    EXPECT_EQ(total, 2 * 3 * 2 * 3);  // exactly one winner per round
    // Every source must be capable of winning (delay 0 beats a 200us timer;
    // an all-delayed round falls to the timer).
    EXPECT_GT(counts.channel, 0);
    EXPECT_GT(counts.timer, 0);
    EXPECT_GT(counts.stream, 0);
  });
}

INSTANTIATE_TEST_SUITE_P(All, IoSelect,
                         ::testing::Values(Backend::kSim, Backend::kNative,
                                           Backend::kUni),
                         backend_name);

// The same select is deterministic on the simulator: two runs on fresh
// engines produce identical winner tallies and identical virtual finish
// times.
TEST(IoSelect, DeterministicOnSim) {
  auto tally = [] {
    mp::SimPlatformConfig cfg;
    cfg.machine = mp::sim::sequent_s81(4);
    mp::SimPlatform plat(cfg);
    SelectCounts counts;
    run_threads(plat, [&](Scheduler& sched) {
      for (const double sd : {0.0, 250.0, 800.0}) {
        for (const double wd : {0.0, 250.0, 800.0}) {
          select_race_round(sched, sd, 400.0, wd, counts);
        }
      }
    });
    return std::tuple{counts.channel, counts.timer, counts.stream,
                      plat.report().total_us};
  };
  EXPECT_EQ(tally(), tally());
}

// ---------- dead offers ----------

// A select that loses to another branch leaves its offer parked on the
// silent source; the offer's sync has committed, so it is dead, but it holds
// the sync's continuation core.  The source's offer list prunes dead offers
// before its pushes (threads/offer.h), so a run of losing selects leaves no
// more than the last one's offer.
constexpr int kLosingSelects = 2000;
constexpr std::ptrdiff_t kCoreSlack = 4;

// Syncs kLosingSelects selects of `silent` against an always-ready event,
// which always wins (a select that polls `silent` first parks an offer
// there that the win leaves dead), and returns how many continuation cores
// they left alive.
std::ptrdiff_t cores_left_by_losing_selects(
    Scheduler& sched, const std::function<Event<Unit>()>& silent) {
  const auto before =
      static_cast<std::ptrdiff_t>(mp::cont::live_core_count());
  for (int i = 0; i < kLosingSelects; i++) {
    Event<Unit>::choose({Event<Unit>::always(Unit{}), silent()}).sync(sched);
  }
  return static_cast<std::ptrdiff_t>(mp::cont::live_core_count()) - before;
}

TEST(DeadOffers, LosingSelectsOnASilentPipeLeaveNoCores) {
  auto p = make_platform(Backend::kNative, 1);
  run_threads(*p, [](Scheduler& sched) {
    auto [rd, wr] = Stream::pipe(sched);
    EXPECT_LE(cores_left_by_losing_selects(
                  sched, [&] { return mp::io::readable_event(rd); }),
              kCoreSlack);
    wr.close();
    rd.close();
  });
}

TEST(DeadOffers, LosingSelectsOnASilentSocketLeaveNoCores) {
  auto p = make_platform(Backend::kNative, 1);
  run_threads(*p, [](Scheduler& sched) {
    Reactor reactor(sched);
    Listener lis = Listener::tcp(reactor);
    Stream server;
    CountdownLatch accepted(sched, 1);
    sched.fork([&] {
      server = lis.accept();
      accepted.count_down();
    });
    Stream client = Stream::connect_tcp(reactor, lis.port());
    accepted.await();
    EXPECT_LE(cores_left_by_losing_selects(
                  sched, [&] { return mp::io::readable_event(client); }),
              kCoreSlack);
    client.close();
    server.close();
    lis.close();
  });
}

TEST(DeadOffers, LosingSelectsOnANeverSentChannelLeaveNoCores) {
  auto p = make_platform(Backend::kNative, 1);
  run_threads(*p, [](Scheduler& sched) {
    Channel<std::uint64_t> never(sched);
    const auto silent = [&] {
      return never.recv_event().wrap<Unit>(
          [](std::uint64_t) { return Unit{}; });
    };
    EXPECT_LE(cores_left_by_losing_selects(sched, silent), kCoreSlack);
  });
}

TEST(DeadOffers, LosingTimeoutsLeaveNoCores) {
  auto p = make_platform(Backend::kNative, 1);
  run_threads(*p, [](Scheduler& sched) {
    EXPECT_LE(cores_left_by_losing_selects(
                  sched, [&] { return Event<Unit>::after(sched, 60e6); }),
              kCoreSlack);
  });
}

// ---------- net_echo workload ----------

TEST(NetEcho, PipeTransportOnEveryBackend) {
  for (const Backend b : {Backend::kSim, Backend::kNative, Backend::kUni}) {
    auto p = make_platform(b, 4);
    mp::workloads::NetEchoOptions opts;
    opts.connections = 8;
    opts.roundtrips = 20;
    opts.payload_bytes = 48;
    auto w = mp::workloads::make_net_echo(opts);
    run_threads(*p, [&](Scheduler& sched) { w->run(sched, 4); });
    EXPECT_TRUE(w->verify()) << "backend " << static_cast<int>(b);
  }
}

TEST(NetEcho, PipeChecksumMatchesAcrossBackends) {
  std::vector<std::uint64_t> sums;
  for (const Backend b : {Backend::kSim, Backend::kNative, Backend::kUni}) {
    auto p = make_platform(b, 4);
    auto w = mp::workloads::make_net_echo({});
    run_threads(*p, [&](Scheduler& sched) { w->run(sched, 4); });
    ASSERT_TRUE(w->verify());
    sums.push_back(w->checksum());
  }
  EXPECT_EQ(sums[0], sums[1]);
  EXPECT_EQ(sums[1], sums[2]);
}

// Acceptance: >= 10,000 echo roundtrips across >= 4 procs over real
// loopback TCP, exact verification.
TEST(NetEcho, TenThousandTcpRoundtripsOnFourProcs) {
  auto p = make_platform(Backend::kNative, 4);
  mp::workloads::NetEchoOptions opts;
  opts.connections = 64;
  opts.roundtrips = 160;  // 64 * 160 = 10,240 roundtrips
  opts.payload_bytes = 64;
  opts.tcp = true;
  auto w = mp::workloads::make_net_echo(opts);
  run_threads(*p, [&](Scheduler& sched) { w->run(sched, 4); });
  EXPECT_TRUE(w->verify());
}

// CI smoke: 256 concurrent connections through one reactor.
TEST(NetEcho, Loopback256Connections) {
  auto p = make_platform(Backend::kNative, 4);
  mp::workloads::NetEchoOptions opts;
  opts.connections = 256;
  opts.roundtrips = 10;
  opts.payload_bytes = 32;
  opts.tcp = true;
  auto w = mp::workloads::make_net_echo(opts);
  run_threads(*p, [&](Scheduler& sched) { w->run(sched, 4); });
  EXPECT_TRUE(w->verify());
}

// ---------- scheduler idle backoff + reactor metrics ----------

#if MPNJ_METRICS
TEST(IdleMetrics, BackoffAndReactorCountersAdvance) {
  auto& reg = mp::metrics::registry();
  const auto before = reg.snapshot();
  auto p = make_platform(Backend::kNative, 4);
  run_threads(*p, [](Scheduler& sched) {
    Reactor reactor(sched);
    Listener lis = Listener::tcp(reactor);
    CountdownLatch done(sched, 1);
    sched.fork([&] {
      Stream s = lis.accept();
      char b;
      ASSERT_EQ(s.read_some(&b, 1), 1u);
      s.write_all(&b, 1);
      s.close();
      done.count_down();
    });
    Stream c = Stream::connect_tcp(reactor, lis.port());
    sched.sleep_for(4000);  // all procs idle: the backoff path must engage
    c.write_all("z", 1);
    char b = 0;
    c.read_exact(&b, 1);
    done.await();
    c.close();
    lis.close();
  });
  const auto after = reg.snapshot();
  using mp::metrics::Counter;
  auto delta = [&](Counter c) {
    return after.counter(c) - before.counter(c);
  };
  EXPECT_GT(delta(Counter::kSchedIdleBackoff), 0u);
  EXPECT_GT(delta(Counter::kIoParked), 0u);
  EXPECT_GT(delta(Counter::kIoWakeups), 0u);
  EXPECT_GT(delta(Counter::kIoBytesRead), 0u);
  EXPECT_GT(delta(Counter::kIoBytesWritten), 0u);
}
#endif

}  // namespace
