// KV service scaling table (ROADMAP "per-proc services" item): the sharded
// ownership-routed KV store (src/kv) under a closed-loop pipelined load, on
// the simulated multiprocessor and on native procs.  Reports throughput and
// exact client-observed latency percentiles (p50/p99/p999) over a
// procs x connections grid — the oversubscribed columns (256 connections on
// a handful of procs) are the regime the scheduler-aware parking locks and
// work-stealing cores were built for — plus a GC-pause row pair showing how
// stop-the-world collections land in the tail percentiles.
//
// table_kv [--quick] [--full] [--tcp]
//   --quick  smaller per-connection op counts (CI)
//   --full   adds 8- and 16-proc rows to the sim grid
//   --tcp    native section uses loopback TCP through the reactor
//            (default: virtual duplex pipes)

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "gc/heap.h"
#include "io/stream.h"
#include "kv/client.h"
#include "kv/server.h"
#include "kv/service.h"
#include "mp/native_platform.h"

namespace {

using mp::io::Duplex;
using mp::io::Stream;
using mp::kv::KvClient;
using mp::kv::KvService;
using mp::threads::CountdownLatch;
using mp::threads::Scheduler;

struct Outcome {
  double elapsed_us = 0;
  double kops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  std::uint64_t gc_collections = 0;
  double gc_pause_total_us = 0;
};

// One closed-loop run: `conns` connections, each keeping `window` pipelined
// requests in flight, `ops` requests per connection (90% point ops, 10%
// RANGE).  Latency is measured at the client — batch flush to that reply's
// parse — with the platform clock, so sim numbers are exact virtual time.
Outcome run_kv(mp::Platform& platform, int procs, int conns, int ops,
               int window, bool gc_churn, bool tcp) {
  Outcome out;
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(conns));
  const auto gc_before = mp::metrics::registry().snapshot();

  // Preemption on: the churn threads are compute loops that would otherwise
  // pin their procs forever, and the evaluated package runs with a quantum.
  mp::threads::SchedulerConfig sched_cfg;
  sched_cfg.preempt_interval_us = 1000;
  Scheduler::run(platform, std::move(sched_cfg), [&](Scheduler& sched) {
    mp::kv::KvConfig cfg;
    cfg.shards = procs;
    KvService svc(sched, cfg);
    svc.start();

    std::unique_ptr<mp::io::Reactor> reactor;
    mp::io::Listener listener;
    if (tcp) {
      reactor = std::make_unique<mp::io::Reactor>(sched);
      listener = mp::io::Listener::tcp(*reactor, 0, std::max(conns, 128));
    }

    // Optional allocation churn: one SML/NJ-rate cons loop per proc keeps
    // the collector busy so its stop-the-world pauses land inside request
    // latencies.
    std::atomic<bool> stop_churn{false};
    CountdownLatch churn_done(sched, gc_churn ? procs : 0);
    if (gc_churn) {
      auto& h = platform.heap();
      for (int t = 0; t < procs; t++) {
        sched.fork([&] {
          std::vector<mp::gc::GlobalRoot> live;
          long i = 0;
          while (!stop_churn.load(std::memory_order_relaxed)) {
            mp::gc::Roots<1> cell;
            cell[0] = h.alloc_record({mp::gc::Value::from_int(i),
                                      mp::gc::Value::from_int(i ^ 7)});
            if (i % 256 == 0) {
              if (live.size() > 2048) live.clear();
              live.emplace_back(h, cell[0]);
            }
            platform.work(30);
            i++;
          }
          churn_done.count_down();
        });
      }
    }

    CountdownLatch clients_done(sched, conns);
    CountdownLatch servers_done(sched, conns);
    if (tcp) {
      sched.fork([&] {
        for (int c = 0; c < conns; c++) {
          Stream s = listener.accept();
          sched.fork([&svc, &servers_done, s]() mutable {
            mp::kv::serve(svc, Duplex{s, s});
            servers_done.count_down();
          });
        }
      });
    }

    const double t_start = platform.now_us();
    for (int c = 0; c < conns; c++) {
      Duplex client_end;
      if (!tcp) {
        auto [client, server] = mp::io::duplex_pipe(sched, 4096);
        client_end = client;
        sched.fork([&svc, &servers_done, server]() mutable {
          mp::kv::serve(svc, server);
          servers_done.count_down();
        });
      }
      sched.fork([&, client_end, c]() mutable {
        Duplex conn = client_end;
        if (tcp) {
          Stream s = Stream::connect_tcp(*reactor, listener.port());
          conn = Duplex{s, s};
        }
        KvClient cli(conn);
        std::vector<double>& lats = lat[static_cast<std::size_t>(c)];
        lats.reserve(static_cast<std::size_t>(ops));
        const std::string val(32, 'v');
        // Appended rather than "c" + std::to_string(c): GCC 12 reports a
        // false -Wrestrict on the latter at -O3.
        std::string prefix = "c";
        prefix += std::to_string(c);
        int sent = 0;
        while (sent < ops) {
          const int batch = std::min(window, ops - sent);
          for (int i = 0; i < batch; i++) {
            const int op = sent + i;
            const std::string key = prefix + ":k" + std::to_string(op % 64);
            if (op % 10 == 9) {
              cli.queue_range(prefix + ":k0", prefix + ":k9", 16);
            } else if (op % 3 == 0) {
              cli.queue_set(key, val);
            } else {
              cli.queue_get(key);
            }
          }
          const double t0 = platform.now_us();
          cli.flush();
          for (int i = 0; i < batch; i++) {
            (void)cli.recv_reply();
            lats.push_back(platform.now_us() - t0);
          }
          sent += batch;
        }
        cli.quit();
        clients_done.count_down();
      });
    }

    clients_done.await();
    out.elapsed_us = platform.now_us() - t_start;
    servers_done.await();
    if (gc_churn) {
      stop_churn.store(true, std::memory_order_relaxed);
      churn_done.await();
    }
    svc.stop();
    if (tcp) {
      listener.close();
      reactor.reset();
    }
  });

  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  out.p50_us = bench::percentile(all, 0.50);
  out.p99_us = bench::percentile(all, 0.99);
  out.p999_us = bench::percentile(all, 0.999);
  const double total_ops = static_cast<double>(conns) * ops;
  out.kops_per_s =
      out.elapsed_us > 0 ? total_ops / (out.elapsed_us / 1e6) / 1e3 : 0;
  const auto gc_after = mp::metrics::registry().snapshot();
  using mp::metrics::Counter;
  out.gc_collections =
      gc_after.counter(Counter::kGcMinor) + gc_after.counter(Counter::kGcMajor) -
      gc_before.counter(Counter::kGcMinor) - gc_before.counter(Counter::kGcMajor);
  out.gc_pause_total_us =
      static_cast<double>(gc_after.counter(Counter::kGcPauseUsTotal) -
                          gc_before.counter(Counter::kGcPauseUsTotal));
  return out;
}

Outcome run_sim_kv(int procs, int conns, int ops, bool gc_churn) {
  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(procs);
  mp::SimPlatform p(cfg);
  return run_kv(p, procs, conns, ops, 8, gc_churn, false);
}

Outcome run_native_kv(int procs, int conns, int ops, bool tcp) {
  mp::NativePlatformConfig cfg;
  cfg.max_procs = procs;
  mp::NativePlatform p(cfg);
  return run_kv(p, procs, conns, ops, 8, false, tcp);
}

void print_row(int procs, int conns, const Outcome& o) {
  std::printf("  %2d     %4d   %9.1f  %8.1f %9.1f %9.1f\n", procs, conns,
              o.kops_per_s, o.p50_us, o.p99_us, o.p999_us);
}

int ops_for(int conns, bool quick) {
  const int total = quick ? 4000 : 16000;
  return std::max(25, total / conns);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::flag(argc, argv, "--quick");
  const bool full = bench::flag(argc, argv, "--full");
  const bool tcp = bench::flag(argc, argv, "--tcp");
  bench::header("A-KV", "sharded KV service: throughput and tail latency",
                "ownership-routed shards turn data-structure locking into "
                "scheduling; the paper's platform claim is that the thread "
                "package carries server workloads like this portably");

  std::vector<int> procs_grid = {1, 2, 4};
  if (full) {
    procs_grid.push_back(8);
    procs_grid.push_back(16);
  }
  const std::vector<int> conns_grid = {16, 256};

  std::printf("simulated (sequent_s81, virtual-time percentiles, exact):\n");
  std::printf("  procs  conns      kops/s    p50_us    p99_us   p999_us\n");
  bench::rule();
  for (const int p : procs_grid) {
    for (const int c : conns_grid) {
      print_row(p, c, run_sim_kv(p, c, ops_for(c, quick), false));
    }
  }
  bench::rule();
  std::printf("expected: throughput scales with procs until the shard\n");
  std::printf("channels saturate; 256-connection tails stay bounded because\n");
  std::printf("waiting is parking, not spinning\n\n");

  // ---- GC pause impact on the tail ----
  const int gp = std::min(4, procs_grid.back());
  std::printf("GC-pause impact (sim, %d procs, 16 conns, +cons churn):\n", gp);
  std::printf("  churn  conns      kops/s    p50_us    p99_us   p999_us"
              "   gcs  pause_ms\n");
  bench::rule();
  for (const bool churn : {false, true}) {
    const Outcome o = run_sim_kv(gp, 16, ops_for(16, quick), churn);
    std::printf("  %-5s   %4d   %9.1f  %8.1f %9.1f %9.1f  %4llu  %8.2f\n",
                churn ? "yes" : "no", 16, o.kops_per_s, o.p50_us, o.p99_us,
                o.p999_us, static_cast<unsigned long long>(o.gc_collections),
                o.gc_pause_total_us / 1000.0);
  }
  bench::rule();
  std::printf("expected: churn leaves p50 mostly alone and pushes the\n");
  std::printf("stop-the-world pauses into p99/p999\n\n");

  std::printf("native (%s, wall-clock percentiles):\n",
              tcp ? "loopback TCP" : "virtual duplex pipes");
  std::printf("  procs  conns      kops/s    p50_us    p99_us   p999_us\n");
  bench::rule();
  for (const int p : procs_grid) {
    for (const int c : conns_grid) {
      print_row(p, c, run_native_kv(p, c, ops_for(c, quick), tcp));
    }
  }
  bench::rule();
  bench::dump_metrics_json("table_kv");
  return 0;
}
