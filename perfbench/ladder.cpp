// The layer ladder: isolated calls into one layer at a time, each reported
// as the median over batches of ns (or us) per call.  Every step that runs
// partner MLthreads joins them before Scheduler::run's body returns, so no
// partner ever touches a frame that is already gone.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "arch/ctx.h"
#include "cml/cml.h"
#include "cml/mailbox.h"
#include "common.h"
#include "perfbench.h"
#include "cont/cont.h"
#include "gc/heap.h"
#include "io/reactor.h"
#include "io/stream.h"
#include "kv/proto.h"
#include "kv/store.h"
#include "mp/native_platform.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

namespace perfbench {

namespace {

using mp::threads::CountdownLatch;
using mp::threads::Scheduler;

constexpr int kBatches = 7;
constexpr double kMinBatchS = 0.004;

// Runs `batch(n)` (n calls into the layer) with n doubled until one batch
// takes kMinBatchS, then kBatches more; returns median seconds per call.
double per_call_s(const std::function<void(long)>& batch, long start_n = 64) {
  long n = start_n;
  for (;;) {
    const double t0 = now_s();
    batch(n);
    if (now_s() - t0 >= kMinBatchS || n >= (1L << 26)) break;
    n *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; b++) {
    const double t0 = now_s();
    batch(n);
    per_call.push_back((now_s() - t0) / static_cast<double>(n));
  }
  return median(per_call);
}

void on_procs(int procs, const std::function<void(Scheduler&)>& body) {
  mp::NativePlatformConfig cfg;
  cfg.max_procs = procs;
  mp::NativePlatform p(cfg);
  Scheduler::run(p, {}, body);
}

// ---- arch: raw context switch between two stacks ----

struct SwapPair {
  mp::arch::Context main;
  mp::arch::Context co;
};

[[noreturn]] void swap_partner(void* arg) {
  auto* pair = static_cast<SwapPair*>(arg);
  for (;;) mp::arch::ctx_swap(pair->co, pair->main);
}

double ctx_swap_ns() {
  constexpr std::size_t kStack = 64 * 1024;
  std::vector<unsigned char> stack(kStack);
  SwapPair pair;
  mp::arch::ctx_make(pair.co, stack.data(), stack.size(), swap_partner, &pair);
  // One round trip is two swaps; the partner stays parked in its loop when
  // the stack is freed, which is fine: nothing resumes it again.
  return per_call_s([&](long n) {
           for (long i = 0; i < n; i++) mp::arch::ctx_swap(pair.main, pair.co);
         }) *
         1e9 / 2;
}

double callcc_throw_ns() {
  double s = 0;
  on_procs(1, [&](Scheduler&) {
    s = per_call_s([](long n) {
      for (long i = 0; i < n; i++) {
        const int v = mp::cont::callcc<int>(
            [](mp::cont::Cont<int> k) -> int { mp::cont::throw_to(std::move(k), 1); });
        if (v != 1) std::abort();
      }
    });
  });
  return s * 1e9;
}

double yield_ns() {
  double s = 0;
  on_procs(1, [&](Scheduler& sched) {
    std::atomic<bool> stop{false};
    CountdownLatch joined(sched, 1);
    sched.fork([&] {
      while (!stop.load(std::memory_order_relaxed)) sched.yield();
      joined.count_down();
    });
    // Each root yield switches to the partner, whose yield switches back.
    s = per_call_s([&](long n) {
          for (long i = 0; i < n; i++) sched.yield();
        }) /
        2;
    stop.store(true, std::memory_order_relaxed);
    joined.await();
  });
  return s * 1e9;
}

double fork_join_ns() {
  double s = 0;
  on_procs(1, [&](Scheduler& sched) {
    s = per_call_s([&](long n) {
      for (long i = 0; i < n; i++) {
        CountdownLatch latch(sched, 1);
        sched.fork([&] { latch.count_down(); });
        latch.await();
      }
    });
  });
  return s * 1e9;
}

double mutex_pair_ns() {
  double s = 0;
  on_procs(1, [&](Scheduler& sched) {
    mp::threads::Mutex m(sched);
    s = per_call_s([&](long n) {
      for (long i = 0; i < n; i++) {
        m.lock();
        m.unlock();
      }
    });
  });
  return s * 1e9;
}

double channel_rtt_ns() {
  double s = 0;
  on_procs(1, [&](Scheduler& sched) {
    mp::cml::Channel<int> ping(sched), pong(sched);
    CountdownLatch joined(sched, 1);
    sched.fork([&] {
      for (int v = ping.recv(); v >= 0; v = ping.recv()) pong.send(v);
      joined.count_down();
    });
    s = per_call_s([&](long n) {
      for (long i = 0; i < n; i++) {
        ping.send(1);
        if (pong.recv() != 1) std::abort();
      }
    });
    ping.send(-1);
    joined.await();
  });
  return s * 1e9;
}

double mailbox_rtt_ns() {
  double s = 0;
  on_procs(1, [&](Scheduler& sched) {
    mp::cml::Mailbox<std::uint64_t> req(sched), rep(sched);
    CountdownLatch joined(sched, 1);
    sched.fork([&] {
      for (std::uint64_t v = req.recv(); v != 0; v = req.recv()) rep.send(v);
      joined.count_down();
    });
    s = per_call_s([&](long n) {
      for (long i = 0; i < n; i++) {
        req.send(1);
        if (rep.recv() != 1) std::abort();
      }
    });
    req.send(0);
    joined.await();
  });
  return s * 1e9;
}

double pipe_rtt_ns() {
  double s = 0;
  on_procs(1, [&](Scheduler& sched) {
    auto [req_rd, req_wr] = mp::io::Stream::pipe(sched, 64);
    auto [rep_rd, rep_wr] = mp::io::Stream::pipe(sched, 64);
    CountdownLatch joined(sched, 1);
    sched.fork([&, rd = req_rd, wr = rep_wr]() mutable {
      unsigned char b = 0;
      while (rd.read_some(&b, 1) == 1) wr.write_all(&b, 1);
      wr.close();
      joined.count_down();
    });
    s = per_call_s([&](long n) {
      unsigned char b = 7;
      for (long i = 0; i < n; i++) {
        req_wr.write_all(&b, 1);
        if (rep_rd.read_some(&b, 1) != 1) std::abort();
      }
    });
    req_wr.close();
    joined.await();
  });
  return s * 1e9;
}

double tcp_rtt_ns() {
  double s = 0;
  on_procs(2, [&](Scheduler& sched) {
    mp::io::Reactor reactor(sched);
    mp::io::Listener lis = mp::io::Listener::tcp(reactor);
    CountdownLatch joined(sched, 1);
    sched.fork([&] {
      mp::io::Stream srv = lis.accept();
      unsigned char buf[64];
      for (std::size_t n = srv.read_some(buf, sizeof(buf)); n > 0;
           n = srv.read_some(buf, sizeof(buf))) {
        srv.write_all(buf, n);
      }
      srv.close();
      joined.count_down();
    });
    mp::io::Stream cli = mp::io::Stream::connect_tcp(reactor, lis.port());
    unsigned char payload[64] = {0x5a};
    s = per_call_s(
        [&](long n) {
          for (long i = 0; i < n; i++) {
            cli.write_all(payload, sizeof(payload));
            cli.read_exact(payload, sizeof(payload));
          }
        },
        16);
    cli.close();
    joined.await();
    lis.close();
  });
  return s * 1e9;
}

// ---- kv: protocol parser and shard store, called directly ----

std::string key_of(int i) { return "k" + std::to_string(100000 + i); }

double parse_ns() {
  // The kv-pipe request mix, pre-encoded once.
  std::string wire;
  const std::string value(32, 'v');
  constexpr int kReqs = 1024;
  for (int i = 0; i < kReqs; i++) {
    const std::string k = key_of(i % 64);
    const int pick = i % 20;  // 45% SET, 35% GET, 10% DEL, 10% RANGE
    if (pick < 9) {
      mp::kv::encode_set(&wire, k, value);
    } else if (pick < 16) {
      mp::kv::encode_get(&wire, k);
    } else if (pick < 18) {
      mp::kv::encode_del(&wire, k);
    } else {
      mp::kv::encode_range(&wire, key_of(0), key_of(63), 16);
    }
  }
  mp::kv::FrameParser parser;
  mp::kv::Request req;
  return per_call_s(
             [&](long n) {
               for (long b = 0; b < n; b++) {
                 parser.feed(wire.data(), wire.size());
                 int got = 0;
                 while (parser.next(&req)) got++;
                 if (got != kReqs) std::abort();
               }
             },
             1) *
         1e9 / kReqs;
}

struct StoreSteps {
  double get_ns = 0;
  double set_ns = 0;
  double range_ns = 0;
};

StoreSteps store_ns(std::uint64_t seed) {
  constexpr int kKeys = 4096;
  mp::kv::ShardStore store(seed);
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; i++) keys.push_back(key_of(i));
  const std::string value(32, 'v');
  for (const auto& k : keys) store.set(k, value);
  std::uint64_t x = seed | 1;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<std::size_t>(x % kKeys);
  };
  StoreSteps out;
  std::size_t sink = 0;
  out.get_ns = per_call_s([&](long n) {
                 for (long i = 0; i < n; i++) {
                   const std::string* v = store.get(keys[next()]);
                   sink += v != nullptr ? v->size() : 0;
                 }
               }) *
               1e9;
  out.set_ns = per_call_s([&](long n) {
                 for (long i = 0; i < n; i++) store.set(keys[next()], value);
               }) *
               1e9;
  out.range_ns = per_call_s([&](long n) {
                   for (long i = 0; i < n; i++) {
                     const std::size_t lo = next();
                     store.range(keys[lo], keys[std::min<std::size_t>(lo + 64, kKeys - 1)],
                                 16, [&](std::string_view, std::string_view v) {
                                   sink += v.size();
                                   return true;
                                 });
                   }
                 }) *
                 1e9;
  if (sink == 0) std::abort();
  return out;
}

// ---- gc: allocation fast path and a minor collection of a fixed live set ----

double alloc_record_ns() {
  double s = 0;
  mp::NativePlatformConfig cfg;
  cfg.max_procs = 1;
  mp::NativePlatform p(cfg);
  p.run([&] {
    auto& h = p.heap();
    s = per_call_s([&](long n) {
      for (long i = 0; i < n; i++) {
        h.alloc_record({mp::gc::Value::from_int(i), mp::gc::Value::from_int(2)});
      }
    });
  });
  return s * 1e9;
}

double minor_pause_us() {
  constexpr long kLive = 20000;  // cons cells live at each collection
  constexpr int kSamples = 15;
  std::vector<double> us;
  mp::NativePlatformConfig cfg;
  cfg.max_procs = 1;
  mp::NativePlatform p(cfg);
  p.run([&] {
    auto& h = p.heap();
    mp::gc::GlobalRoot list(h, mp::gc::Value::from_int(0));
    for (int s = 0; s < kSamples; s++) {
      for (long i = 0; i < kLive; i++) {
        list.set(h.cons(mp::gc::Value::from_int(i), list.get()));
      }
      const double t0 = now_s();
      h.collect_now();
      us.push_back((now_s() - t0) * 1e6);
      list.set(mp::gc::Value::from_int(0));
    }
  });
  return median(us);
}

}  // namespace

void run_ladder(std::uint64_t seed, Result& r) {
  r.add("arch.ctx_swap_ns", ctx_swap_ns(), "ns");
  r.add("cont.callcc_throw_ns", callcc_throw_ns(), "ns");
  r.add("threads.yield_ns", yield_ns(), "ns");
  r.add("threads.fork_join_ns", fork_join_ns(), "ns");
  r.add("threads.mutex_pair_ns", mutex_pair_ns(), "ns");
  r.add("cml.channel_rtt_ns", channel_rtt_ns(), "ns");
  r.add("cml.mailbox_rtt_ns", mailbox_rtt_ns(), "ns");
  r.add("io.pipe_rtt_ns", pipe_rtt_ns(), "ns");
  r.add("io.tcp_rtt_ns", tcp_rtt_ns(), "ns");
  r.add("kv.parse_ns", parse_ns(), "ns");
  const StoreSteps st = store_ns(seed);
  r.add("kv.store_get_ns", st.get_ns, "ns");
  r.add("kv.store_set_ns", st.set_ns, "ns");
  r.add("kv.store_range_ns", st.range_ns, "ns");
  r.add("gc.alloc_record_ns", alloc_record_ns(), "ns");
  r.add("gc.minor_pause_us", minor_pause_us(), "us");
}

}  // namespace perfbench
