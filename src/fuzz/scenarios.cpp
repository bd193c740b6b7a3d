#include "fuzz/scenarios.h"

#include <memory>
#include <utility>

#include "arch/panic.h"
#include "cml/cml.h"
#include "gc/heap.h"
#include "io/stream.h"
#include "kv/client.h"
#include "kv/server.h"
#include "kv/service.h"
#include "mp/sim_platform.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

namespace mp::fuzz {

namespace {

using threads::Barrier;
using threads::CountdownLatch;
using threads::Mutex;
using threads::Scheduler;

SimPlatformConfig base_config(const ScenarioOpts& o) {
  SimPlatformConfig cfg;
  cfg.machine = sim::sequent_s81(o.procs);
  cfg.machine.seed = o.seed;
  cfg.heap.parallel_gc = o.parallel_gc;
  return cfg;
}

threads::SchedulerConfig sched_config(const ScenarioOpts& o) {
  threads::SchedulerConfig cfg;
  if (o.queue == "ws" || o.queue == "work-stealing") {
    cfg.queue = std::make_unique<threads::WorkStealingQueue>();
  } else if (o.queue == "distributed") {
    cfg.queue = std::make_unique<threads::DistributedQueue>();
  } else {
    arch::panic("fuzz scenario: unknown queue discipline '%s'",
                o.queue.c_str());
  }
  // Preemption keeps every proc passing through the dispatcher, which is
  // where most of the interesting decision points live.  The quantum must
  // stay well above the dispatcher's own cost (a distributed-queue steal
  // sweep is ~40-130us of lock traffic at 4 MIPS) or every resumed thread
  // re-preempts before doing any work and the run degenerates into a
  // preempt storm.
  cfg.preempt_interval_us = 250;
  return cfg;
}

// ---- cml-ring ----
//
// The committed-lock CML protocol under load: tokens circulate a ring of
// rendezvous channels (every hop is a two-party commit), while a producer
// pair feeds a select_receive consumer (multi-offer commit, the protocol's
// hard case).  Checksum folds the token values deposited after their final
// lap with the select consumer's ledger.

ExecResult run_cml_ring(const ScenarioOpts& o) {
  SimPlatform platform(base_config(o));
  constexpr int kStations = 4;
  constexpr int kTokens = 3;
  const int laps = 4 * o.scale;
  const int noise = 24 * o.scale;

  long deposits = 0;
  long ledger = 0;
  Scheduler::run(platform, sched_config(o), [&](Scheduler& s) {
    std::vector<std::unique_ptr<cml::Channel<long>>> ring;
    for (int i = 0; i < kStations; i++) {
      ring.push_back(std::make_unique<cml::Channel<long>>(s));
    }
    CountdownLatch done(s, kStations + 2);

    // Token format: value in the high bits, hops remaining in the low 16.
    for (int i = 0; i < kStations; i++) {
      s.fork([&, i] {
        for (int h = 0; h < laps * kTokens; h++) {
          const long packed = ring[i]->recv();
          long hops = packed & 0xffff;
          long val = (packed >> 16) + i + 1;
          hops--;
          if (hops == 0) {
            deposits += val;  // only station kStations-1 ever gets here
          } else {
            ring[(i + 1) % kStations]->send((val << 16) | hops);
          }
        }
        done.count_down();
      });
    }

    std::vector<std::unique_ptr<cml::Channel<long>>> side;
    side.push_back(std::make_unique<cml::Channel<long>>(s));
    side.push_back(std::make_unique<cml::Channel<long>>(s));
    std::vector<cml::Channel<long>*> side_ptrs = {side[0].get(),
                                                  side[1].get()};
    s.fork([&] {
      for (int j = 0; j < noise; j++) side[j % 2]->send(1000 + j);
      done.count_down();
    });
    s.fork([&] {
      for (int j = 0; j < noise; j++) {
        ledger += cml::select_receive<long>(side_ptrs);
      }
      done.count_down();
    });

    // Inject the tokens (each send is itself a rendezvous with station 0).
    const long hops = static_cast<long>(laps) * kStations;
    for (int t = 0; t < kTokens; t++) {
      ring[0]->send((static_cast<long>(t + 1) << 16) | hops);
    }
    done.await();
  });

  ExecResult r;
  r.checksum = static_cast<std::uint64_t>(deposits) * 31 +
               static_cast<std::uint64_t>(ledger);
  r.virtual_us = platform.report().total_us;
  return r;
}

// ---- qlock-storm ----
//
// The PR-6 queue-lock claim/grant/park protocol: more threads than procs
// hammer one mutex in short critical sections (with occasional yields while
// holding, so waiters exhaust their spin and park), punctuated by barrier
// episodes that exercise the generation-tagged flip.  This is the scenario
// that re-finds the injected qlock-park-race and barrier-generation bugs.

ExecResult run_qlock_storm(const ScenarioOpts& o) {
  SimPlatform platform(base_config(o));
  const int threads = o.procs * 2 < 4 ? 4 : o.procs * 2;
  const int episodes = 3 * o.scale;
  constexpr int kInner = 10;

  long counter = 0;
  Scheduler::run(platform, sched_config(o), [&](Scheduler& s) {
    Mutex m(s);
    Barrier bar(s, threads);
    CountdownLatch done(s, threads);
    for (int t = 0; t < threads; t++) {
      s.fork([&, t] {
        for (int e = 0; e < episodes; e++) {
          for (int k = 0; k < kInner; k++) {
            m.lock();
            counter += t * 131 + e * 17 + k;
            if ((t + k) % 5 == 0) s.yield();  // hold across a reschedule
            m.unlock();
            if ((t + k) % 3 == 0) s.yield();
          }
          bar.arrive_and_wait();
        }
        done.count_down();
      });
    }
    done.await();
  });

  ExecResult r;
  r.checksum = static_cast<std::uint64_t>(counter);
  r.virtual_us = platform.report().total_us;
  return r;
}

// ---- wake-storm ----
//
// The PR-5 targeted wakeup protocol: waves of short tasks separated by full
// joins, with staggered timer sleeps inside each wave.  Between waves every
// proc drains, goes idle and parks; the next wave's forks must find and
// wake them (wake_one), and the sleeps route wakeups through the timer
// path.  A lost wakeup deadlocks the join.

ExecResult run_wake_storm(const ScenarioOpts& o) {
  SimPlatform platform(base_config(o));
  const int waves = 4 * o.scale;
  const int fan = o.procs * 3;

  std::vector<long> acc(static_cast<std::size_t>(fan), 0);
  Scheduler::run(platform, sched_config(o), [&](Scheduler& s) {
    for (int w = 0; w < waves; w++) {
      CountdownLatch latch(s, fan);
      for (int i = 0; i < fan; i++) {
        s.fork([&, w, i] {
          if ((w + i) % 2 == 0) s.yield();
          s.sleep_for(static_cast<double>((i % 7) * 3 + 1));
          acc[static_cast<std::size_t>(i)] += w * 1000 + i;
          latch.count_down();
        });
      }
      latch.await();
    }
  });

  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < acc.size(); i++) {
    sum += static_cast<std::uint64_t>(acc[i]) * (i + 1);
  }
  ExecResult r;
  r.checksum = sum;
  r.virtual_us = platform.report().total_us;
  return r;
}

// ---- gc-churn ----
//
// The parallel copier under allocation pressure: each thread grows a cons
// list in a tiny nursery (collections every few hundred allocations),
// periodically dropping its list to make garbage, while all threads mutate
// a shared old array under a mutex (write-barrier traffic and cross-thread
// pointers) and cycle LOS-sized arrays through a rotating root (dirty-flag
// scans, marks, and — with the deliberately tiny arena — pressure-driven
// sweeps).  Together with the card remset this reaches every fuzz decision
// point the latency GC added: kCardFlush (early dirty-card buffer flushes)
// and kLosSweep (minors mutated into LOS-sweeping majors).  Checksum
// traverses the surviving structures, so an object the copier loses or
// mis-links changes the answer even without a panic.

ExecResult run_gc_churn(const ScenarioOpts& o) {
  SimPlatformConfig cfg = base_config(o);
  cfg.heap.nursery_bytes = 32 * 1024;
  cfg.heap.old_bytes = 16u << 20;
  // Small enough that the rotating large arrays cross the LOS pressure
  // threshold within one run, so sweep scheduling becomes a fuzzed decision.
  cfg.heap.los_bytes = 1u << 20;
  cfg.heap.los_pressure_fraction = 0.25;
  SimPlatform platform(cfg);
  const int threads = o.procs < 2 ? 2 : o.procs;
  const int steps = 220 * o.scale;

  std::vector<long> sums(static_cast<std::size_t>(threads), 0);
  std::uint64_t shared_sum = 0;
  Scheduler::run(platform, sched_config(o), [&](Scheduler& s) {
    auto& h = platform.heap();
    Mutex m(s);
    CountdownLatch done(s, threads);
    gc::GlobalRoot shared(
        s.platform().heap(),
        h.alloc_array(static_cast<std::size_t>(threads) + 1,
                      gc::Value::from_int(0)));
    for (int t = 0; t < threads; t++) {
      s.fork([&, t] {
        gc::GlobalRoot list(h, gc::Value::nil());
        gc::GlobalRoot big(h, gc::Value::nil());
        for (int i = 0; i < steps; i++) {
          const long id = t * 1000000L + i;
          list = gc::GlobalRoot(
              h, h.alloc_record({gc::Value::from_int(id), list.get()}));
          // Immediately-dead filler keeps the tiny nursery overflowing, so
          // the baseline itself reaches do_collect's kLosSweep pick (the
          // fuzzer can only override decisions present in the baseline).
          h.alloc_array(24, gc::Value::from_int(i));
          if (i % 64 == 63) list = gc::GlobalRoot(h, gc::Value::nil());
          if (i % 13 == 0) {
            m.lock();
            h.store(shared.get(), static_cast<std::size_t>(t) + 1,
                    gc::Value::from_int(id));
            m.unlock();
          }
          if (i % 8 == 3) {
            // An LOS-sized array holding a young pointer (the list head)
            // replaces the previous one, which becomes sweepable garbage.
            big = gc::GlobalRoot(h, h.alloc_array(1200, list.get()));
          }
          if (i % 17 == 0) s.yield();
        }
        long sum = 0;
        gc::Value v = list.get();
        while (v.is_ptr()) {
          sum += v.field(0).as_int();
          v = v.field(1);
        }
        if (big.get().is_ptr()) {
          sum += big.get().length();
          const gc::Value head = big.get().field(0);
          if (head.is_ptr()) sum += head.field(0).as_int();
        }
        sums[static_cast<std::size_t>(t)] = sum;
        done.count_down();
      });
    }
    done.await();
    for (int t = 0; t < threads; t++) {
      shared_sum = shared_sum * 1099511628211ull +
                   static_cast<std::uint64_t>(
                       shared.get()
                           .field(static_cast<std::size_t>(t) + 1)
                           .as_int());
    }
  });

  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < sums.size(); i++) {
    sum += static_cast<std::uint64_t>(sums[i]) * (i + 1);
  }
  ExecResult r;
  r.checksum = sum ^ shared_sum;
  r.virtual_us = platform.report().total_us;
  return r;
}

// ---- kv-pipeline ----
//
// The PR-8 sharded KV service end to end: several pipelined connections
// (duplex pipes, so every backend schedules the same bytes) hammer a
// multi-shard service with interleaved SET/GET/DEL, cross-shard RANGE
// scatter-gathers, and deliberately malformed commands.  This drives the
// whole stack at once — frame parser resync, per-shard ownership channels,
// the writer's seq reorder buffer, and reader-side fan-out — and any
// schedule-dependent reordering of replies changes the checksum.

std::uint64_t fold_reply(std::uint64_t h, const kv::Reply& rep) {
  auto mix = [&h](std::string_view s) {
    for (const char ch : s) {
      h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
    }
  };
  h = h * 31 + static_cast<std::uint64_t>(rep.kind);
  h = h * 31 + static_cast<std::uint64_t>(rep.ival);
  mix(rep.text);
  for (const auto& it : rep.items) mix(it);
  return h;
}

ExecResult run_kv_pipeline(const ScenarioOpts& o) {
  SimPlatform platform(base_config(o));
  const int conns = o.procs < 3 ? 3 : o.procs;
  const int ops = 30 * o.scale;
  constexpr int kWindow = 6;

  std::vector<std::uint64_t> digests(static_cast<std::size_t>(conns),
                                     1469598103934665603ull);
  Scheduler::run(platform, sched_config(o), [&](Scheduler& s) {
    kv::KvConfig cfg;
    cfg.shards = o.procs < 2 ? 2 : o.procs;
    kv::KvService svc(s, cfg);
    svc.start();

    CountdownLatch servers_done(s, conns);
    CountdownLatch clients_done(s, conns);
    for (int c = 0; c < conns; c++) {
      auto [client_end, server_end] = io::duplex_pipe(s, 512);
      s.fork([&svc, &servers_done, server_end]() mutable {
        kv::serve(svc, server_end);
        servers_done.count_down();
      });
      s.fork([&, client_end, c]() mutable {
        kv::KvClient cli(client_end);
        std::uint64_t& h = digests[static_cast<std::size_t>(c)];
        int sent = 0;
        while (sent < ops) {
          const int batch = kWindow < ops - sent ? kWindow : ops - sent;
          for (int i = 0; i < batch; i++) {
            const int op = sent + i;
            // Keys are shared across connections (no per-conn prefix), so
            // shard channels see genuine cross-connection interleaving.
            // Appended rather than "k" + std::to_string(n): GCC 12 reports
            // a false -Wrestrict on the latter at -O3.
            std::string key = "k";
            key += std::to_string((c + op * 3) % 40);
            switch (op % 7) {
              case 0:
              case 1:
              case 4: {
                std::string val = "v";
                val += std::to_string(c * 1000 + op);
                cli.queue_set(key, val);
                break;
              }
              case 2:
              case 5:
                cli.queue_get(key);
                break;
              case 3:
                cli.queue_del(key);
                break;
              default:
                if (op % 14 == 6) {
                  cli.queue_raw("BOGUS command\n");  // parser resync path
                } else {
                  cli.queue_range("k0", "k9~", 8);  // cross-shard fan-out
                }
                break;
            }
          }
          cli.flush();
          for (int i = 0; i < batch; i++) {
            const kv::Reply rep = cli.recv_reply();
            // Values race across connections, so fold only schedule-stable
            // facts: frame kind, error-vs-ok, and structural sizes.
            kv::Reply shape;
            shape.kind = rep.kind;
            shape.ival = rep.kind == kv::Reply::Kind::kArray
                             ? static_cast<long>(rep.items.size())
                             : 0;
            if (rep.kind == kv::Reply::Kind::kSimple ||
                rep.kind == kv::Reply::Kind::kError) {
              shape.text = rep.text;
            }
            h = fold_reply(h, shape);
          }
          sent += batch;
        }
        cli.quit();
        clients_done.count_down();
      });
    }
    clients_done.await();
    servers_done.await();

    // Final state is schedule-dependent per key, but the service must agree
    // with itself: STATS totals come from the shards' own counters.
    const kv::ShardStats st = svc.stats();
    digests[0] = digests[0] * 31 + st.ops;
    svc.stop();
  });

  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < digests.size(); i++) {
    sum += digests[i] * (i + 1);
  }
  ExecResult r;
  r.checksum = sum;
  r.virtual_us = platform.report().total_us;
  return r;
}

}  // namespace

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> kScenarios = {
      {"cml-ring",
       "rendezvous ring + select consumer (committed-lock CML protocol)",
       &run_cml_ring},
      {"qlock-storm",
       "contended mutex + barrier episodes (qlock claim/grant/park)",
       &run_qlock_storm},
      {"wake-storm",
       "fork/join waves with timer sleeps (park/unpark wake protocol)",
       &run_wake_storm},
      {"gc-churn",
       "multi-thread allocation churn in a tiny nursery (parallel copier)",
       &run_gc_churn},
      {"kv-pipeline",
       "pipelined connections into the sharded KV service (PR-8 stack)",
       &run_kv_pipeline},
  };
  return kScenarios;
}

const Scenario* find_scenario(const std::string& name) {
  for (const Scenario& s : scenarios()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

BodyFn scenario_body(std::string name, ScenarioOpts opts) {
  return [name = std::move(name), opts]() -> ExecResult {
    const Scenario* s = find_scenario(name);
    if (s == nullptr) arch::panic("unknown fuzz scenario '%s'", name.c_str());
    return s->fn(opts);
  };
}

}  // namespace mp::fuzz
