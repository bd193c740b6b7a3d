// The sharded KV service (src/kv) as a real TCP server: one shard owner
// MLthread per proc, connections served over the reactor, no locks anywhere
// on the request path.  By default it drives itself — a loopback client
// fleet runs a mixed GET/SET/DEL/RANGE load, checks every reply against a
// per-client model, and the process exits 0 only if every reply matched.
//
//   ./build/examples/kv_server [--procs N] [--clients N] [--ops N] [--serve]
//
// --serve skips the fleet and listens until killed, so you can talk to it
// from another terminal with e.g.:
//   printf 'SET greeting 5\nhello\nGET greeting\nQUIT\n' | nc 127.0.0.1 <port>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "io/stream.h"
#include "kv/client.h"
#include "kv/server.h"
#include "kv/service.h"
#include "mp/native_platform.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

using mp::io::Duplex;
using mp::io::Listener;
using mp::io::Reactor;
using mp::io::Stream;
using mp::kv::KvClient;
using mp::kv::KvService;
using mp::threads::CountdownLatch;
using mp::threads::Scheduler;

namespace {

int arg_int(int argc, char** argv, const char* name, int fallback) {
  for (int i = 1; i + 1 < argc; i++) {
    if (std::strcmp(argv[i], name) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

bool arg_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

// One client: a scripted mixed load on a private key prefix, every reply
// checked against a local model.
void client_fleet_member(KvClient& cli, int id, int ops,
                         std::atomic<long>& failures) {
  std::map<std::string, std::string> model;
  // Appended rather than "c" + std::to_string(id): GCC 12 reports a false
  // -Wrestrict on the latter at -O3.
  std::string prefix = "c";
  prefix += std::to_string(id);
  prefix += ':';
  long bad = 0;
  if (!cli.ping()) bad++;
  for (int i = 0; i < ops; i++) {
    const std::string key = prefix + "k" + std::to_string((i * 7) % 23);
    switch (i % 5) {
      case 0:
      case 1: {
        std::string val = "v";
        val += std::to_string(id);
        val += '.';
        val += std::to_string(i);
        if (!cli.set(key, val)) bad++;
        model[key] = val;
        break;
      }
      case 2:
      case 3: {
        std::string got;
        const bool hit = cli.get(key, &got);
        const auto it = model.find(key);
        if (hit != (it != model.end()) || (hit && got != it->second)) bad++;
        break;
      }
      default: {
        if (i % 10 == 4) {
          const long n = cli.del(key);
          if (n != static_cast<long>(model.erase(key))) bad++;
        } else {
          const auto pairs = cli.range(prefix, prefix + "k~", -1);
          if (pairs.size() != model.size()) bad++;
        }
        break;
      }
    }
  }
  cli.quit();
  failures.fetch_add(bad);
}

}  // namespace

int main(int argc, char** argv) {
  const int procs = arg_int(argc, argv, "--procs", 4);
  const int clients = arg_int(argc, argv, "--clients", 64);
  const int ops = arg_int(argc, argv, "--ops", 100);
  const bool serve_forever = arg_flag(argc, argv, "--serve");

  mp::NativePlatformConfig config;
  config.max_procs = procs;
  mp::NativePlatform platform(config);

  std::atomic<long> failures{0};
  std::atomic<long> served{0};
  Scheduler::run(platform, {}, [&](Scheduler& s) {
    mp::kv::KvConfig cfg;
    cfg.shards = procs;
    KvService svc(s, cfg);
    svc.start();

    Reactor reactor(s);
    Listener listener = Listener::tcp(reactor, 0, std::max(clients, 128));
    std::printf("kv server: %d shards on %d procs, 127.0.0.1:%u\n",
                svc.shards(), procs, listener.port());

    // Per-connection readers are mostly parked in the reactor; small stack
    // slots keep a large connection fleet's memory footprint flat.
    const auto conn_opts = Scheduler::SpawnOpts{}
                               .with_stack(mp::cont::StackClass::kSmall)
                               .with_name("kv-conn");
    if (serve_forever) {
      for (;;) {
        Stream conn = listener.accept();
        s.fork(
            [&svc, conn]() mutable { mp::kv::serve(svc, Duplex{conn, conn}); },
            conn_opts);
      }
    }

    CountdownLatch servers_done(s, clients);
    CountdownLatch clients_done(s, clients);
    s.fork(
        [&] {
          for (int i = 0; i < clients; i++) {
            Stream conn = listener.accept();
            s.fork(
                [&svc, &servers_done, conn]() mutable {
                  mp::kv::serve(svc, Duplex{conn, conn});
                  servers_done.count_down();
                },
                conn_opts);
          }
        },
        Scheduler::SpawnOpts{}.with_name("kv-accept"));

    for (int c = 0; c < clients; c++) {
      s.fork(
          [&, c] {
            Stream conn = Stream::connect_tcp(reactor, listener.port());
            KvClient cli(conn, conn);
            client_fleet_member(cli, c, ops, failures);
            served.fetch_add(1);
            clients_done.count_down();
          },
          Scheduler::SpawnOpts{}.with_name("kv-client"));
    }

    clients_done.await();
    servers_done.await();
    const auto st = svc.stats();
    std::printf("stats: keys=%zu bytes=%zu ops=%llu shards=%d\n", st.keys,
                st.bytes, static_cast<unsigned long long>(st.ops), st.shards);
    svc.stop();
    listener.close();
  });

  std::printf("served %ld clients, %ld reply mismatches\n", served.load(),
              failures.load());
  return failures.load() == 0 && served.load() == clients ? 0 : 1;
}
