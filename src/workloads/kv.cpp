// kv: the sharded KV service (src/kv) under a pipelined mixed-op load —
// the proof workload for ownership-routed shards.  The service side is the
// real thing: KvService shard threads plus the serve() connection layer,
// over virtual pipes (every backend, deterministic in the simulator) or
// loopback TCP through the reactor (native/uni).
//
// Verification is exact despite full pipelining: each connection owns a
// disjoint key prefix, so a private std::map replayed at queue time predicts
// every reply byte-for-byte (per-connection program order holds because a
// connection's batches keep arrival order and each submit() is a
// rendezvous — it returns only once the owning shard has dequeued the
// batch).  Both the expected and actual digests are
// independent of shard count, proc count, and schedule, which is what the
// cross-backend determinism checks key on.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "arch/panic.h"
#include "io/stream.h"
#include "kv/client.h"
#include "kv/server.h"
#include "kv/service.h"
#include "workloads/workload.h"

namespace mp::workloads {

namespace {

using kv::Reply;

std::uint64_t fnv(std::string_view s) {
  std::uint64_t acc = 1469598103934665603ull;
  for (const char c : s) {
    acc = (acc ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return acc;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

// One scripted client operation, fully determined by (seed, conn, opnum).
struct OpSpec {
  kv::Op kind;
  std::string key;    // point-op key / RANGE lower bound
  std::string value;  // SET payload
  std::string hi;     // RANGE upper bound
  long limit = -1;
};

std::string key_name(int conn, int idx) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "c%03d:k%04d", conn, idx);
  return buf;
}

// Generates and replays one connection's script against a sequential model,
// invoking fn(spec, expected_encoded_reply) per op.  Used twice with the
// same inputs: by the constructor to precompute the expected digest and by
// the live clients to know what each reply must be.
template <typename Fn>
void replay_script(const KvWorkloadOptions& opts, int conn, Fn&& fn) {
  std::uint64_t rng = mix64(opts.seed ^ (0x9e3779b97f4a7c15ull +
                                         static_cast<std::uint64_t>(conn)));
  std::map<std::string, std::string> model;
  std::string value(static_cast<std::size_t>(opts.value_bytes), 'x');
  for (int i = 0; i < opts.ops; i++) {
    const std::uint64_t r = xorshift(rng);
    OpSpec spec;
    std::string expect;
    const int idx = static_cast<int>((r >> 32) %
                                     static_cast<std::uint64_t>(opts.keys));
    spec.key = key_name(conn, idx);
    const auto pick = r % 100;
    if (pick < 45) {
      spec.kind = kv::Op::kSet;
      for (auto& ch : value) {
        ch = static_cast<char>('a' + (xorshift(rng) % 26));
      }
      spec.value = value;
      model[spec.key] = value;
      kv::encode_ok(&expect);
    } else if (pick < 80) {
      spec.kind = kv::Op::kGet;
      const auto it = model.find(spec.key);
      if (it != model.end()) {
        kv::encode_bulk(&expect, it->second);
      } else {
        kv::encode_nil(&expect);
      }
    } else if (pick < 90) {
      spec.kind = kv::Op::kDel;
      kv::encode_int(&expect,
                     static_cast<long>(model.erase(spec.key)));
    } else {
      spec.kind = kv::Op::kRange;
      const int jdx = static_cast<int>((r >> 16) %
                                       static_cast<std::uint64_t>(opts.keys));
      spec.key = key_name(conn, std::min(idx, jdx));
      spec.hi = key_name(conn, std::max(idx, jdx));
      spec.limit = (r >> 8) % 4 == 0
                       ? static_cast<long>(std::max(opts.keys / 4, 1))
                       : -1;
      std::string body;
      std::size_t items = 0;
      for (auto it = model.lower_bound(spec.key);
           it != model.end() && it->first <= spec.hi; ++it) {
        if (spec.limit >= 0 &&
            items / 2 >= static_cast<std::size_t>(spec.limit)) {
          break;
        }
        kv::encode_bulk(&body, it->first);
        kv::encode_bulk(&body, it->second);
        items += 2;
      }
      kv::encode_array_header(&expect, items);
      expect += body;
    }
    fn(spec, expect);
  }
}

// Canonical re-encoding of a parsed reply, for byte comparison against the
// model's expectation (same encoders on both sides).
std::string reencode(const Reply& rep) {
  std::string out;
  switch (rep.kind) {
    case Reply::Kind::kSimple:
      out = "+" + rep.text + "\r\n";
      break;
    case Reply::Kind::kError:
      out = "-ERR " + rep.text + "\r\n";
      break;
    case Reply::Kind::kInt:
      kv::encode_int(&out, rep.ival);
      break;
    case Reply::Kind::kBulk:
      kv::encode_bulk(&out, rep.text);
      break;
    case Reply::Kind::kNil:
      kv::encode_nil(&out);
      break;
    case Reply::Kind::kArray:
      kv::encode_array_header(&out, rep.items.size());
      for (const std::string& item : rep.items) kv::encode_bulk(&out, item);
      break;
  }
  return out;
}

class KvWorkload final : public Workload {
 public:
  explicit KvWorkload(KvWorkloadOptions opts) : opts_(opts) {
    MPNJ_CHECK(opts_.connections > 0 && opts_.ops > 0 && opts_.window > 0 &&
                   opts_.keys > 0 && opts_.value_bytes > 0,
               "kv workload needs positive connections/ops/window/keys/bytes");
    for (int c = 0; c < opts_.connections; c++) {
      replay_script(opts_, c, [this](const OpSpec&, const std::string& e) {
        expected_sum_ += fnv(e);
      });
    }
  }

  const char* name() const override { return "kv"; }

  void run(threads::Scheduler& sched, int tasks) override {
    (void)tasks;  // parallelism comes from the shard + connection counts
    ops_done_ = 0;
    mismatches_ = 0;
    client_sum_ = 0;

    kv::KvConfig cfg;
    cfg.shards = opts_.shards;
    cfg.seed = opts_.seed;
    kv::KvService svc(sched, cfg);
    svc.start();

    std::unique_ptr<io::Reactor> reactor;
    io::Listener listener;
    if (opts_.tcp) {
      reactor = std::make_unique<io::Reactor>(sched);
      listener = io::Listener::tcp(*reactor, 0,
                                   std::max(opts_.connections, 128));
    }

    threads::CountdownLatch clients_done(sched, opts_.connections);
    threads::CountdownLatch servers_done(sched, opts_.connections);

    if (opts_.tcp) {
      sched.fork([&] {
        for (int c = 0; c < opts_.connections; c++) {
          io::Stream s = listener.accept();
          sched.fork([&svc, &servers_done, s]() mutable {
            kv::serve(svc, io::Duplex{s, s});
            servers_done.count_down();
          });
        }
      });
    }

    for (int c = 0; c < opts_.connections; c++) {
      io::Duplex client_end;
      if (!opts_.tcp) {
        auto [client, server] = io::duplex_pipe(sched, 4096);
        client_end = client;
        sched.fork([&svc, &servers_done, server]() mutable {
          kv::serve(svc, server);
          servers_done.count_down();
        });
      }
      sched.fork([this, &sched, &reactor, &listener, &clients_done,
                  client_end, c]() mutable {
        io::Duplex conn = client_end;
        if (opts_.tcp) {
          io::Stream s = io::Stream::connect_tcp(*reactor, listener.port());
          conn = io::Duplex{s, s};
        }
        client_loop(conn, c);
        clients_done.count_down();
      });
    }

    clients_done.await();
    servers_done.await();
    svc.stop();
    if (opts_.tcp) {
      listener.close();
      reactor.reset();
    }
  }

  bool verify() const override {
    return ops_done_.load() == static_cast<std::uint64_t>(opts_.connections) *
                                   static_cast<std::uint64_t>(opts_.ops) &&
           mismatches_.load() == 0 && client_sum_.load() == expected_sum_;
  }

  std::uint64_t checksum() const override { return client_sum_.load(); }

 private:
  void client_loop(io::Duplex conn, int c) {
    kv::KvClient cli(conn);
    if (!cli.ping()) mismatches_.fetch_add(1);

    // Windowed pipelining: queue up to `window` scripted requests, push the
    // whole batch in one write, then drain and check the matching replies.
    std::uint64_t local_sum = 0;
    std::uint64_t local_mismatch = 0;
    std::uint64_t local_done = 0;
    std::deque<std::string> expected;
    auto drain = [&] {
      while (!expected.empty()) {
        const Reply rep = cli.recv_reply();
        if (reencode(rep) == expected.front()) {
          local_sum += fnv(expected.front());
        } else {
          local_mismatch++;
        }
        expected.pop_front();
        local_done++;
      }
    };
    replay_script(opts_, c, [&](const OpSpec& spec, const std::string& e) {
      switch (spec.kind) {
        case kv::Op::kSet:
          cli.queue_set(spec.key, spec.value);
          break;
        case kv::Op::kGet:
          cli.queue_get(spec.key);
          break;
        case kv::Op::kDel:
          cli.queue_del(spec.key);
          break;
        default:
          cli.queue_range(spec.key, spec.hi, spec.limit);
          break;
      }
      expected.push_back(e);
      if (expected.size() >= static_cast<std::size_t>(opts_.window)) {
        cli.flush();
        drain();
      }
    });
    cli.flush();
    drain();

    // STATS is exercised but excluded from the digest (its body depends on
    // live cross-connection state).
    if (cli.stats().empty()) local_mismatch++;
    cli.quit();

    ops_done_.fetch_add(local_done);
    mismatches_.fetch_add(local_mismatch);
    client_sum_.fetch_add(local_sum);
  }

  KvWorkloadOptions opts_;
  std::uint64_t expected_sum_ = 0;
  std::atomic<std::uint64_t> ops_done_{0};
  std::atomic<std::uint64_t> mismatches_{0};
  std::atomic<std::uint64_t> client_sum_{0};
};

}  // namespace

std::unique_ptr<Workload> make_kv(KvWorkloadOptions opts) {
  return std::make_unique<KvWorkload>(opts);
}

}  // namespace mp::workloads
