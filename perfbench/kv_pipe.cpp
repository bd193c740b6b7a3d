// kv-pipe: closed-loop KV serving on one native proc over virtual duplex
// pipes.  Four client MLthreads each keep a window of 16 pipelined requests
// in flight (45% SET, 35% GET, 10% DEL, 10% RANGE over 64 keys a
// connection, the workloads/kv.cpp mix).  There is no kernel I/O, reactor
// or GC on this path, so the time goes to context switches, channel
// rendezvous, mailbox replies, the protocol parser and the shard store.
//
// Each connection replays a precomputed script cycle: 4096 scripted ops,
// then a DEL of each of its keys, which empties its key range again so the
// cycle can repeat with identical replies for as long as the run lasts.
// Every reply is checked against the cycle's model-predicted digest.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "io/stream.h"
#include "kv/client.h"
#include "kv/server.h"
#include "kv/service.h"
#include "kv_common.h"
#include "mp/native_platform.h"
#include "perfbench.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

namespace perfbench {

namespace {

using mp::threads::CountdownLatch;
using mp::threads::Scheduler;

constexpr int kConns = 4;
constexpr int kWindow = 16;
constexpr int kKeys = 64;
constexpr int kValueBytes = 32;
constexpr int kScriptOps = 4096;

struct Script {
  std::string wire;                  // every request of one cycle, encoded
  std::vector<std::size_t> end;      // end offset of request i in `wire`
  std::vector<std::uint64_t> expect; // digest of the reply request i must get
};

std::string key_name(int conn, int idx) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "c%03d:k%04d", conn, idx);
  return buf;
}

Script make_script(std::uint64_t seed, int conn) {
  Script s;
  std::uint64_t rng = mix_seed(seed, static_cast<std::uint64_t>(conn));
  std::map<std::string, std::string> model;
  std::string value(kValueBytes, 'x');
  auto push = [&s](const std::string& expect) {
    s.end.push_back(s.wire.size());
    s.expect.push_back(fnv(expect));
  };
  for (int i = 0; i < kScriptOps; i++) {
    const std::uint64_t r = xorshift(rng);
    const int idx = static_cast<int>((r >> 32) % kKeys);
    const std::string key = key_name(conn, idx);
    const auto pick = r % 100;
    std::string expect;
    if (pick < 45) {
      for (auto& ch : value) ch = static_cast<char>('a' + xorshift(rng) % 26);
      mp::kv::encode_set(&s.wire, key, value);
      model[key] = value;
      mp::kv::encode_ok(&expect);
    } else if (pick < 80) {
      mp::kv::encode_get(&s.wire, key);
      const auto it = model.find(key);
      if (it != model.end()) {
        mp::kv::encode_bulk(&expect, it->second);
      } else {
        mp::kv::encode_nil(&expect);
      }
    } else if (pick < 90) {
      mp::kv::encode_del(&s.wire, key);
      mp::kv::encode_int(&expect, static_cast<long>(model.erase(key)));
    } else {
      const int jdx = static_cast<int>((r >> 16) % kKeys);
      const std::string lo = key_name(conn, std::min(idx, jdx));
      const std::string hi = key_name(conn, std::max(idx, jdx));
      const long limit = (r >> 8) % 4 == 0 ? kKeys / 4 : -1;
      mp::kv::encode_range(&s.wire, lo, hi, limit);
      std::string body;
      std::size_t items = 0;
      for (auto it = model.lower_bound(lo); it != model.end() && it->first <= hi;
           ++it) {
        if (limit >= 0 && items / 2 >= static_cast<std::size_t>(limit)) break;
        mp::kv::encode_bulk(&body, it->first);
        mp::kv::encode_bulk(&body, it->second);
        items += 2;
      }
      mp::kv::encode_array_header(&expect, items);
      expect += body;
    }
    push(expect);
  }
  for (int idx = 0; idx < kKeys; idx++) {  // the cycle's reset tail
    const std::string key = key_name(conn, idx);
    mp::kv::encode_del(&s.wire, key);
    std::string expect;
    mp::kv::encode_int(&expect, static_cast<long>(model.erase(key)));
    push(expect);
  }
  return s;
}

// One client's record of the run.
struct ClientLog {
  std::vector<LatencyHisto> lat;  // per slice: batch flush to each reply
  LatencyHisto flush;  // traced phase: time inside KvClient::flush
  LatencyHisto wait;   // traced phase: flush end to the batch's last reply
  std::uint64_t requests = 0;
  std::uint64_t mismatches = 0;
};

// Slice edges, taken by the root thread.
struct Mark {
  double at_s = 0;
  double cpu_s = 0;
  mp::metrics::Snapshot snap;
};

Mark mark() {
  Mark m;
  m.at_s = now_s();
  m.cpu_s = process_cpu_s();
  m.snap = mp::metrics::registry().snapshot();
  return m;
}

}  // namespace

void run_kv_pipe(const Options& o, Result& r) {
  const SlicePlan plan = plan_slices(o);
  const int n_slices = plan.count;
  std::vector<double> setup_s;
  std::vector<ClientLog> logs(kConns);
  std::vector<Mark> marks;
  const int setups = o.trace ? 1 : kSetups;

  for (int rep = 0; rep < setups; rep++) {
    const bool measure = rep == setups - 1;
    const double t0 = now_s();
    std::vector<Script> scripts;
    for (int c = 0; c < kConns; c++) scripts.push_back(make_script(o.seed, c));
    for (auto& log : logs) {
      log = ClientLog{};
      log.lat.resize(static_cast<std::size_t>(n_slices));
    }

    mp::NativePlatformConfig cfg;
    cfg.max_procs = 1;
    mp::NativePlatform platform(cfg);
    Scheduler::run(platform, {}, [&](Scheduler& sched) {
      mp::kv::KvConfig kcfg;
      kcfg.shards = 1;
      kcfg.seed = o.seed;
      mp::kv::KvService svc(sched, kcfg);
      svc.start();

      std::atomic<bool> stop{!measure};
      std::atomic<int> slice{-1};  // where replies are recorded; -1: nowhere
      std::atomic<bool> tracing{false};
      CountdownLatch ready(sched, kConns);
      CountdownLatch clients_done(sched, kConns);
      CountdownLatch servers_done(sched, kConns);
      for (int c = 0; c < kConns; c++) {
        auto [client_end, server_end] = mp::io::duplex_pipe(sched, 4096);
        sched.fork([&svc, &servers_done, server_end]() mutable {
          mp::kv::serve(svc, server_end);
          servers_done.count_down();
        });
        sched.fork([&, c, conn = client_end]() mutable {
          const Script& sc = scripts[static_cast<std::size_t>(c)];
          ClientLog& log = logs[static_cast<std::size_t>(c)];
          mp::kv::KvClient cli(conn);
          if (!cli.ping()) log.mismatches++;
          ready.count_down();
          const std::size_t ops = sc.expect.size();
          std::size_t i = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            const std::size_t first = i;
            for (int k = 0; k < kWindow; k++) {
              const std::size_t begin = i == 0 ? 0 : sc.end[i - 1];
              cli.queue_raw(std::string_view(sc.wire).substr(begin, sc.end[i] - begin));
              i = (i + 1) % ops;
            }
            const double f0 = now_s();
            cli.flush();
            const double f1 = now_s();
            std::size_t j = first;
            double last = f1;
            for (int k = 0; k < kWindow; k++) {
              std::uint64_t got = reply_digest(cli.recv_reply());
              last = now_s();
              if (o.corrupt && c == 0 && log.requests == 100) got ^= 1;
              if (got != sc.expect[j]) log.mismatches++;
              const int s = slice.load(std::memory_order_relaxed);
              if (s >= 0) log.lat[static_cast<std::size_t>(s)].add((last - f0) * 1e6);
              log.requests++;
              j = (j + 1) % ops;
            }
            if (tracing.load(std::memory_order_relaxed)) {
              log.flush.add((f1 - f0) * 1e6);
              log.wait.add((last - f1) * 1e6);
            }
            g_done.fetch_add(kWindow, std::memory_order_relaxed);
          }
          cli.quit();
          clients_done.count_down();
        });
      }
      ready.await();
      setup_s.push_back(now_s() - t0);

      if (measure) {
        CpuRotation rotation(1);  // the one proc's thread, one vCPU a slice
        rotation.step(0);
        sched.sleep_for(kWarmupS * 1e6);
        if (o.trace) mp::metrics::registry().set_enabled(false);
        for (int k = 0; k < n_slices; k++) {
          if (k == plan.first_traced) {
            mp::metrics::registry().set_enabled(true);
            tracing.store(true, std::memory_order_relaxed);
          }
          rotation.step(static_cast<std::size_t>(k));
          marks.push_back(mark());
          slice.store(k, std::memory_order_relaxed);
          sched.sleep_for(kSliceS * 1e6);
        }
        marks.push_back(mark());
        slice.store(-1, std::memory_order_relaxed);
        stop.store(true, std::memory_order_relaxed);
      }
      clients_done.await();
      servers_done.await();
      svc.stop();
    });
  }

  std::uint64_t requests = 0;
  std::uint64_t mismatches = 0;
  for (const auto& log : logs) {
    requests += log.requests;
    mismatches += log.mismatches;
  }
  r.attempted = requests;
  r.failed = mismatches;
  g_failed.store(mismatches);
  if (mismatches > 0) r.fail(std::to_string(mismatches) + " replies differ from the model");

  std::vector<Slice> slices(static_cast<std::size_t>(n_slices));
  for (int k = 0; k < n_slices; k++) {
    Slice& sl = slices[static_cast<std::size_t>(k)];
    sl.wall_s = marks[k + 1].at_s - marks[k].at_s;
    sl.cpu_s = marks[k + 1].cpu_s - marks[k].cpu_s;
    for (const auto& log : logs) sl.lat.merge(log.lat[static_cast<std::size_t>(k)]);
    sl.ops = static_cast<double>(sl.lat.count());
  }
  Delta d;
  d.before = marks[static_cast<std::size_t>(plan.first_traced)].snap;
  d.after = marks.back().snap;
  report_kv(slices, plan, o.trace, setup_s, d, r);
  if (!o.trace) return;
  LatencyHisto flush, wait;
  for (const auto& log : logs) {
    flush.merge(log.flush);
    wait.merge(log.wait);
  }
  r.add("bench.client_flush_us", flush.percentile(50), "us");
  r.add("bench.client_wait_us", wait.percentile(50), "us");
}

}  // namespace perfbench
