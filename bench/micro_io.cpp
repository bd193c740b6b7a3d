// Native microbenchmarks for the mp::io layer: virtual-pipe roundtrips,
// loopback TCP roundtrips through the reactor (the cost of a park + epoll
// wakeup + reschedule), and select over channel vs socket readiness.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "cml/cml.h"
#include "io/io_event.h"
#include "io/reactor.h"
#include "io/stream.h"
#include "mp/native_platform.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

namespace {

using mp::cml::Channel;
using mp::cml::Event;
using mp::cont::Unit;
using mp::io::Listener;
using mp::io::Reactor;
using mp::io::Stream;
using mp::threads::Scheduler;

void run_procs(int procs, const std::function<void(Scheduler&)>& fn) {
  mp::NativePlatformConfig cfg;
  cfg.max_procs = procs;
  mp::NativePlatform p(cfg);
  Scheduler::run(p, {}, fn);
}

// A payload each way through a bounded in-process pipe: two thread parks
// and two reschedules per iteration, no kernel involvement.  The ring holds
// at least one whole payload, so /1024 adds four 1 KiB ring copies to /1's
// switch cost and no extra parks.
void BM_PipeRoundtrip(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::size_t capacity = std::max<std::size_t>(64, bytes);
  run_procs(1, [&](Scheduler& s) {
    auto [req_rd, req_wr] = Stream::pipe(s, capacity);
    auto [rep_rd, rep_wr] = Stream::pipe(s, capacity);
    s.fork([rd = req_rd, wr = rep_wr, bytes]() mutable {
      std::vector<unsigned char> buf(bytes);
      for (;;) {
        const std::size_t n = rd.read_some(buf.data(), buf.size());
        if (n == 0) break;
        wr.write_all(buf.data(), n);
      }
      wr.close();
    });
    std::vector<unsigned char> payload(bytes, 7);
    std::vector<unsigned char> reply(bytes);
    for (auto _ : state) {
      req_wr.write_all(payload.data(), payload.size());
      rep_rd.read_exact(reply.data(), reply.size());
      benchmark::DoNotOptimize(reply.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * bytes));
    req_wr.close();
  });
}
BENCHMARK(BM_PipeRoundtrip)->Arg(1)->Arg(1024);

// Payload echo over loopback TCP: the echoing thread parks on fd readiness,
// so each iteration pays a full reactor wakeup (epoll + fire + dispatch).
void BM_TcpEchoRoundtrip(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  const std::size_t bytes = static_cast<std::size_t>(state.range(1));
  run_procs(procs, [&](Scheduler& s) {
    Reactor reactor(s);
    Listener lis = Listener::tcp(reactor);
    // The reactor dies with this scope, so every thread touching a stream
    // must be joined before returning (the mp::io lifetime rule).
    mp::threads::CountdownLatch served(s, 1);
    s.fork([&] {
      Stream srv = lis.accept();
      std::vector<unsigned char> buf(bytes);
      for (;;) {
        const std::size_t n = srv.read_some(buf.data(), buf.size());
        if (n == 0) break;
        srv.write_all(buf.data(), n);
      }
      srv.close();
      served.count_down();
    });
    Stream cli = Stream::connect_tcp(reactor, lis.port());
    std::vector<unsigned char> payload(bytes, 0x5a);
    std::vector<unsigned char> reply(bytes);
    for (auto _ : state) {
      cli.write_all(payload.data(), payload.size());
      cli.read_exact(reply.data(), reply.size());
      benchmark::DoNotOptimize(reply.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * bytes));
    cli.close();  // EOF ends the echo loop
    served.await();
    lis.close();
  });
}
// The benchmarked MLthread migrates between procs (OS threads), so the
// per-thread CPU clock the library reads by default would mix two threads'
// clocks; time the row by wall clock and report the process's CPU.
BENCHMARK(BM_TcpEchoRoundtrip)
    ->Args({1, 64})
    ->Args({2, 64})
    ->Args({4, 4096})
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// CML select where a socket readiness event loses to an always-ready
// channel: the cost of arming + retracting the fd branch every iteration.
void BM_SelectChannelVsSocket(benchmark::State& state) {
  run_procs(1, [&](Scheduler& s) {
    Reactor reactor(s);
    Listener lis = Listener::tcp(reactor);
    mp::threads::CountdownLatch finished(s, 1);
    mp::threads::CountdownLatch served(s, 1);
    s.fork([&] {
      Stream srv = lis.accept();  // held open and silent until the end
      finished.await();
      srv.close();
      served.count_down();
    });
    Stream cli = Stream::connect_tcp(reactor, lis.port());
    Channel<std::uint64_t> ch(s);
    Channel<std::uint64_t> quit(s);
    s.fork([&] {  // feed ch until the quit rendezvous wins the select
      for (;;) {
        bool done = false;
        Event<Unit>::choose(
            {ch.send_event(1), quit.recv_event().wrap<Unit>([&](std::uint64_t) {
              done = true;
              return Unit{};
            })})
            .sync(s);
        if (done) return;
      }
    });
    for (auto _ : state) {
      auto ev = Event<std::uint64_t>::choose(
          {ch.recv_event(), mp::io::readable_event(cli).wrap<std::uint64_t>(
                                [](Unit) { return std::uint64_t{0}; })});
      benchmark::DoNotOptimize(std::move(ev).sync(s));
    }
    quit.send(0);  // rendezvous with the feeder wherever it is parked
    finished.count_down();
    served.await();
    cli.close();
    lis.close();
  });
}
BENCHMARK(BM_SelectChannelVsSocket);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  bench::dump_metrics_json("micro_io");
  return 0;
}
