// Tests for the src/kv subsystem: the incremental frame/reply parsers under
// adversarial read boundaries (byte-at-a-time, split mid-frame, oversized
// and malformed input with the connection kept alive), the ShardStore
// against a sequential reference, rendezvous key routing, the served
// protocol end-to-end on the simulator and on native (pipes and TCP), and
// the kv workload's exact verification + cross-schedule determinism.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cml/mailbox.h"

#include "io/stream.h"
#include "kv/client.h"
#include "kv/proto.h"
#include "kv/server.h"
#include "kv/service.h"
#include "kv/store.h"
#include "metrics/metrics.h"
#include "mp/mp.h"  // with kv/service.h: one cml::Mailbox for both
#include "mp/native_platform.h"
#include "mp/sim_platform.h"
#include "mp/uni_platform.h"
#include "threads/scheduler.h"
#include "workloads/runner.h"
#include "workloads/workload.h"

namespace {

using mp::io::Duplex;
using mp::io::Stream;
using mp::kv::FrameParser;
using mp::kv::KvBatch;
using mp::kv::KvClient;
using mp::kv::KvConfig;
using mp::kv::KvService;
using mp::kv::Op;
using mp::kv::Reply;
using mp::kv::ReplyParser;
using mp::kv::Request;
using mp::kv::ShardStore;
using mp::threads::CountdownLatch;
using mp::threads::Scheduler;
using mp::threads::SchedulerConfig;

void run_threads(mp::Platform& p, const std::function<void(Scheduler&)>& fn) {
  Scheduler::run(p, SchedulerConfig{}, fn);
}

std::unique_ptr<mp::Platform> sim_platform(int procs) {
  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(procs);
  return std::make_unique<mp::SimPlatform>(cfg);
}

std::unique_ptr<mp::Platform> native_platform(int procs) {
  mp::NativePlatformConfig cfg;
  cfg.max_procs = procs;
  return std::make_unique<mp::NativePlatform>(cfg);
}

// Drains every complete request out of the parser.
std::vector<Request> drain(FrameParser& p) {
  std::vector<Request> out;
  Request r;
  while (p.next(&r)) out.push_back(r);
  return out;
}

// ---------- FrameParser: read boundaries ----------

TEST(FrameParser, ParsesAMixedScriptFedByteAtATime) {
  std::string wire;
  mp::kv::encode_set(&wire, "alpha", "value-1");
  mp::kv::encode_get(&wire, "alpha");
  mp::kv::encode_del(&wire, "alpha");
  mp::kv::encode_range(&wire, "a", "z", 10);
  mp::kv::encode_stats(&wire);
  mp::kv::encode_ping(&wire);
  mp::kv::encode_quit(&wire);

  FrameParser p;
  std::vector<Request> got;
  for (const char c : wire) {
    p.feed(&c, 1);
    for (Request& r : drain(p)) got.push_back(std::move(r));
  }
  ASSERT_EQ(got.size(), 7u);
  EXPECT_EQ(got[0].op, Op::kSet);
  EXPECT_EQ(got[0].key, "alpha");
  EXPECT_EQ(got[0].value, "value-1");
  EXPECT_EQ(got[1].op, Op::kGet);
  EXPECT_EQ(got[2].op, Op::kDel);
  EXPECT_EQ(got[3].op, Op::kRange);
  EXPECT_EQ(got[3].key, "a");
  EXPECT_EQ(got[3].hi, "z");
  EXPECT_EQ(got[3].limit, 10);
  EXPECT_EQ(got[4].op, Op::kStats);
  EXPECT_EQ(got[5].op, Op::kPing);
  EXPECT_EQ(got[6].op, Op::kQuit);
  for (const Request& r : got) EXPECT_TRUE(r.ok());
}

TEST(FrameParser, EverySplitPointOfAPipelinedBatch) {
  std::string wire;
  const std::string binary("binary\n\r\0value", 14);  // newlines + NUL inside
  mp::kv::encode_set(&wire, "k1", binary);
  mp::kv::encode_get(&wire, "k1");
  mp::kv::encode_set(&wire, "k2", "");
  mp::kv::encode_get(&wire, "k2");

  for (std::size_t split = 0; split <= wire.size(); split++) {
    FrameParser p;
    std::vector<Request> got;
    p.feed(wire.data(), split);
    for (Request& r : drain(p)) got.push_back(std::move(r));
    p.feed(wire.data() + split, wire.size() - split);
    for (Request& r : drain(p)) got.push_back(std::move(r));
    ASSERT_EQ(got.size(), 4u) << "split at " << split;
    EXPECT_EQ(got[0].value, binary) << "split at " << split;
    EXPECT_EQ(got[2].op, Op::kSet);
    EXPECT_TRUE(got[2].value.empty());
  }
}

TEST(FrameParser, SetPayloadIsLengthDelimitedNotLineDelimited) {
  FrameParser p;
  const std::string wire = "SET k 5\nab\ncd\nGET k\n";
  p.feed(wire.data(), wire.size());
  Request r;
  ASSERT_TRUE(p.next(&r));
  EXPECT_EQ(r.op, Op::kSet);
  EXPECT_EQ(r.value, "ab\ncd");
  ASSERT_TRUE(p.next(&r));
  EXPECT_EQ(r.op, Op::kGet);
  EXPECT_FALSE(p.next(&r));
}

TEST(FrameParser, CrlfAndBlankLinesAreAccepted) {
  FrameParser p;
  const std::string wire = "\r\nPING\r\n\nSET a 2\r\nhi\r\nGET a\r\n";
  p.feed(wire.data(), wire.size());
  const std::vector<Request> got = drain(p);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].op, Op::kPing);
  EXPECT_EQ(got[1].value, "hi");
  EXPECT_EQ(got[2].op, Op::kGet);
}

// ---------- FrameParser: malformed input keeps the stream framed ----------

TEST(FrameParser, MalformedCommandsYieldErrorsInStreamOrder) {
  FrameParser p;
  const std::string wire =
      "BOGUS x\nGET\nSET k nope\nRANGE a\nGET ok\n";
  p.feed(wire.data(), wire.size());
  const std::vector<Request> got = drain(p);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_FALSE(got[0].ok());
  EXPECT_FALSE(got[1].ok());
  EXPECT_FALSE(got[2].ok());
  EXPECT_FALSE(got[3].ok());
  EXPECT_TRUE(got[4].ok());  // the stream recovered
  EXPECT_EQ(got[4].key, "ok");
}

TEST(FrameParser, OversizedKeyIsAnErrorAndTheParserResyncs) {
  FrameParser p;
  const std::string long_key(mp::kv::kMaxKeyBytes + 1, 'k');
  std::string wire = "GET " + long_key + "\nPING\n";
  p.feed(wire.data(), wire.size());
  const std::vector<Request> got = drain(p);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_FALSE(got[0].ok());
  EXPECT_EQ(got[1].op, Op::kPing);
}

TEST(FrameParser, OversizedValueIsSkippedByteAccurately) {
  // The payload contains newlines and command-shaped text; a parser that
  // resynced on newline instead of counting bytes would mis-frame it.
  const std::size_t huge = mp::kv::kMaxValueBytes + 17;
  std::string payload(huge, 'v');
  payload[10] = '\n';
  const std::string fake = "GET smuggled\n";
  payload.replace(100, fake.size(), fake);
  std::string wire = "SET k " + std::to_string(huge) + "\n" + payload +
                     "\nGET real\n";
  FrameParser p;
  // Feed in chunks so the discard path runs incrementally.
  std::vector<Request> got;
  for (std::size_t off = 0; off < wire.size(); off += 4096) {
    const std::size_t n = std::min<std::size_t>(4096, wire.size() - off);
    p.feed(wire.data() + off, n);
    for (Request& r : drain(p)) got.push_back(std::move(r));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_FALSE(got[0].ok());  // "value too long", after the skip completes
  EXPECT_TRUE(got[1].ok());
  EXPECT_EQ(got[1].key, "real");
}

TEST(FrameParser, UnterminatedLineIsDiscardedWithOneError) {
  FrameParser p;
  const std::string junk(mp::kv::kMaxLineBytes + 100, 'j');
  p.feed(junk.data(), junk.size());
  Request r;
  EXPECT_FALSE(p.next(&r));  // still no newline: nothing to report yet
  const std::string tail = "\nPING\n";
  p.feed(tail.data(), tail.size());
  const std::vector<Request> got = drain(p);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_FALSE(got[0].ok());
  EXPECT_EQ(got[1].op, Op::kPing);
}

// ---------- ReplyParser ----------

TEST(ReplyParser, RoundtripsEveryReplyKindByteAtATime) {
  std::string wire;
  mp::kv::encode_ok(&wire);
  mp::kv::encode_error(&wire, "nope");
  mp::kv::encode_int(&wire, -3);
  mp::kv::encode_bulk(&wire, "a\r\nb");  // CRLF inside a bulk body
  mp::kv::encode_nil(&wire);
  mp::kv::encode_array_header(&wire, 2);
  mp::kv::encode_bulk(&wire, "k");
  mp::kv::encode_bulk(&wire, "v");
  mp::kv::encode_array_header(&wire, 0);

  ReplyParser p;
  std::vector<Reply> got;
  Reply rep;
  for (const char c : wire) {
    p.feed(&c, 1);
    while (p.next(&rep)) got.push_back(rep);
  }
  ASSERT_EQ(got.size(), 7u);
  EXPECT_EQ(got[0].kind, Reply::Kind::kSimple);
  EXPECT_EQ(got[0].text, "OK");
  EXPECT_EQ(got[1].kind, Reply::Kind::kError);
  EXPECT_EQ(got[1].text, "nope");  // "ERR " prefix stripped
  EXPECT_EQ(got[2].kind, Reply::Kind::kInt);
  EXPECT_EQ(got[2].ival, -3);
  EXPECT_EQ(got[3].kind, Reply::Kind::kBulk);
  EXPECT_EQ(got[3].text, "a\r\nb");
  EXPECT_EQ(got[4].kind, Reply::Kind::kNil);
  EXPECT_EQ(got[5].kind, Reply::Kind::kArray);
  ASSERT_EQ(got[5].items.size(), 2u);
  EXPECT_EQ(got[5].items[0], "k");
  EXPECT_EQ(got[5].items[1], "v");
  EXPECT_EQ(got[6].kind, Reply::Kind::kArray);
  EXPECT_TRUE(got[6].items.empty());
}

// ---------- ShardStore ----------

TEST(ShardStore, PointOpsMatchAMapReference) {
  ShardStore store(42);
  std::map<std::string, std::string> ref;
  std::uint64_t rng = 0x12345678;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int i = 0; i < 5000; i++) {
    const std::string key = "key" + std::to_string(next() % 257);
    const std::uint64_t roll = next() % 10;
    if (roll < 6) {
      const std::string val = "v" + std::to_string(next() % 1000);
      const bool fresh = store.set(key, val);
      EXPECT_EQ(fresh, ref.find(key) == ref.end());
      ref[key] = val;
    } else if (roll < 8) {
      const std::string* got = store.get(key);
      const auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_EQ(got, nullptr);
      } else {
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(*got, it->second);
      }
    } else {
      EXPECT_EQ(store.del(key), ref.erase(key) > 0);
    }
    ASSERT_EQ(store.size(), ref.size());
  }
}

TEST(ShardStore, RangeIsInclusiveSortedAndLimited) {
  ShardStore store(7);
  std::map<std::string, std::string> ref;
  for (int i = 0; i < 100; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%03d", i * 3);  // gaps between keys
    store.set(buf, std::to_string(i));
    ref[buf] = std::to_string(i);
  }
  const auto collect = [&](const std::string& lo, const std::string& hi,
                           long limit) {
    std::vector<std::pair<std::string, std::string>> out;
    store.range(lo, hi, limit, [&](std::string_view k, std::string_view v) {
      out.emplace_back(k, v);
      return true;
    });
    return out;
  };
  // Inclusive on both bounds, including bounds that are not present.
  auto got = collect("k006", "k012", -1);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got.front().first, "k006");
  EXPECT_EQ(got.back().first, "k012");
  got = collect("k005", "k013", -1);  // neither bound exists
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got.front().first, "k006");
  // Limit truncates from the low end.
  got = collect("k000", "k999", 5);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[4].first, "k012");
  // Early-stop from the callback.
  int seen = 0;
  store.range("k000", "k999", -1, [&](std::string_view, std::string_view) {
    return ++seen < 2;
  });
  EXPECT_EQ(seen, 2);
  // Empty and inverted ranges.
  EXPECT_TRUE(collect("x", "z", -1).empty());
  EXPECT_TRUE(collect("k012", "k006", -1).empty());
  // Full sweep matches the reference order exactly.
  got = collect("", "\x7f", -1);
  ASSERT_EQ(got.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [k, v] : got) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TEST(ShardStore, DeterministicAcrossInstancesWithTheSameSeed) {
  ShardStore a(99), b(99);
  for (int i = 0; i < 500; i++) {
    std::string k = "k";  // not "k" + to_string: GCC 12 -O3 -Wrestrict
    k += std::to_string(i);
    a.set(k, k);
    b.set(k, k);
  }
  EXPECT_EQ(a.bytes(), b.bytes());
  EXPECT_EQ(a.size(), b.size());
}

// ---------- routing ----------

TEST(KvService, RendezvousRoutingIsStableAndCoversAllShards) {
  auto p = sim_platform(4);
  run_threads(*p, [](Scheduler& sched) {
    KvConfig cfg;
    cfg.shards = 4;
    KvService svc(sched, cfg);
    std::vector<int> hits(4, 0);
    for (int i = 0; i < 400; i++) {
      const std::string key = "key-" + std::to_string(i);
      const int s = svc.shard_of(key);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, 4);
      EXPECT_EQ(svc.shard_of(key), s);  // stable
      hits[static_cast<std::size_t>(s)]++;
    }
    for (int s = 0; s < 4; s++) EXPECT_GT(hits[static_cast<std::size_t>(s)], 0);
  });
}

// ---------- served protocol, end to end ----------

void serve_one_connection_checks(Scheduler& sched, int shards) {
  KvConfig cfg;
  cfg.shards = shards;
  KvService svc(sched, cfg);
  svc.start();
  auto [client_end, server_end] = mp::io::duplex_pipe(sched, 4096);
  CountdownLatch served(sched, 1);
  sched.fork([&svc, &served, server_end]() mutable {
    mp::kv::serve(svc, server_end);
    served.count_down();
  });

  KvClient cli(client_end);
  EXPECT_TRUE(cli.ping());
  EXPECT_TRUE(cli.set("a:1", "one"));
  EXPECT_TRUE(cli.set("a:2", "two"));
  EXPECT_TRUE(cli.set("b:1", "three"));
  std::string v;
  EXPECT_TRUE(cli.get("a:1", &v));
  EXPECT_EQ(v, "one");
  EXPECT_FALSE(cli.get("missing", &v));
  EXPECT_EQ(cli.del("a:2"), 1);
  EXPECT_EQ(cli.del("a:2"), 0);

  // RANGE merges slices across all shards back into one sorted run.
  EXPECT_TRUE(cli.set("a:2", "2"));
  const auto pairs = cli.range("a:0", "b:9", -1);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].first, "a:1");
  EXPECT_EQ(pairs[1].first, "a:2");
  EXPECT_EQ(pairs[2].first, "b:1");
  EXPECT_EQ(pairs[1].second, "2");
  const auto limited = cli.range("a:0", "b:9", 2);
  ASSERT_EQ(limited.size(), 2u);
  EXPECT_EQ(limited[1].first, "a:2");

  const std::string st = cli.stats();
  EXPECT_NE(st.find("keys=3"), std::string::npos);
  EXPECT_NE(st.find("shards=" + std::to_string(svc.shards())),
            std::string::npos);

  // A protocol error answers -ERR and keeps the connection alive.
  cli.queue_raw("NOSUCH op\n");
  cli.flush();
  Reply rep = cli.recv_reply();
  EXPECT_EQ(rep.kind, Reply::Kind::kError);
  EXPECT_TRUE(cli.ping());

  // Pipelined batch across shards comes back in request order.
  for (int i = 0; i < 16; i++) {
    cli.queue_set("p:" + std::to_string(i), std::to_string(i));
  }
  for (int i = 0; i < 16; i++) cli.queue_get("p:" + std::to_string(i));
  cli.flush();
  for (int i = 0; i < 16; i++) {
    rep = cli.recv_reply();
    EXPECT_EQ(rep.kind, Reply::Kind::kSimple);
  }
  for (int i = 0; i < 16; i++) {
    rep = cli.recv_reply();
    ASSERT_EQ(rep.kind, Reply::Kind::kBulk);
    EXPECT_EQ(rep.text, std::to_string(i));
  }

  // One flush that mixes every path a read can take: point ops batched per
  // shard, RANGEs probing every shard and merged by the writer, and a STATS
  // that must count the SETs queued ahead of it in the same read.  Every
  // reply must match applying the ops one at a time, in order.
  std::string stats_req;
  mp::kv::encode_stats(&stats_req);
  cli.queue_set("q:1", "one");
  cli.queue_set("q:2", "two");
  cli.queue_range("q:0", "q:9");
  cli.queue_raw(stats_req);
  cli.queue_del("q:1");
  cli.queue_range("q:0", "q:9");
  cli.queue_get("q:2");
  cli.flush();
  rep = cli.recv_reply();  // SET q:1
  EXPECT_EQ(rep.kind, Reply::Kind::kSimple);
  EXPECT_EQ(rep.text, "OK");
  rep = cli.recv_reply();  // SET q:2
  EXPECT_EQ(rep.kind, Reply::Kind::kSimple);
  EXPECT_EQ(rep.text, "OK");
  rep = cli.recv_reply();  // RANGE sees both
  ASSERT_EQ(rep.kind, Reply::Kind::kArray);
  ASSERT_EQ(rep.items.size(), 4u);
  EXPECT_EQ(rep.items[0], "q:1");
  EXPECT_EQ(rep.items[1], "one");
  EXPECT_EQ(rep.items[2], "q:2");
  EXPECT_EQ(rep.items[3], "two");
  rep = cli.recv_reply();  // STATS: a:1 a:2 b:1, p:0..p:15, q:1 q:2
  ASSERT_EQ(rep.kind, Reply::Kind::kBulk);
  EXPECT_NE(rep.text.find("keys=21 "), std::string::npos) << rep.text;
  rep = cli.recv_reply();  // DEL q:1
  EXPECT_EQ(rep.kind, Reply::Kind::kInt);
  EXPECT_EQ(rep.ival, 1);
  rep = cli.recv_reply();  // RANGE no longer sees q:1
  ASSERT_EQ(rep.kind, Reply::Kind::kArray);
  ASSERT_EQ(rep.items.size(), 2u);
  EXPECT_EQ(rep.items[0], "q:2");
  EXPECT_EQ(rep.items[1], "two");
  rep = cli.recv_reply();  // GET q:2
  ASSERT_EQ(rep.kind, Reply::Kind::kBulk);
  EXPECT_EQ(rep.text, "two");

  cli.quit();
  served.await();
  svc.stop();
}

TEST(KvServe, SimPipeEndToEnd) {
  auto p = sim_platform(4);
  run_threads(*p, [](Scheduler& sched) {
    serve_one_connection_checks(sched, 4);
  });
}

TEST(KvServe, SingleShardStillServes) {
  auto p = sim_platform(2);
  run_threads(*p, [](Scheduler& sched) {
    serve_one_connection_checks(sched, 1);
  });
}

TEST(KvServe, NativePipeEndToEnd) {
  auto p = native_platform(4);
  run_threads(*p, [](Scheduler& sched) {
    serve_one_connection_checks(sched, 4);
  });
}

TEST(KvServe, SplitFramesOverTheWire) {
  // Push a pipelined batch through the stream a few bytes at a time: the
  // server's incremental parser must reassemble frames regardless of how
  // reads line up, and replies must come back in request order.
  auto p = sim_platform(2);
  run_threads(*p, [](Scheduler& sched) {
    KvService svc(sched);
    svc.start();
    auto [client_end, server_end] = mp::io::duplex_pipe(sched, 4096);
    CountdownLatch served(sched, 1);
    sched.fork([&svc, &served, server_end]() mutable {
      mp::kv::serve(svc, server_end);
      served.count_down();
    });

    std::string wire;
    for (int i = 0; i < 8; i++) {
      mp::kv::encode_set(&wire, "s:" + std::to_string(i), "val\n" +
                                     std::to_string(i));
    }
    for (int i = 0; i < 8; i++) {
      mp::kv::encode_get(&wire, "s:" + std::to_string(i));
    }
    Stream out = client_end.out;
    for (std::size_t off = 0; off < wire.size(); off += 3) {
      const std::size_t n = std::min<std::size_t>(3, wire.size() - off);
      out.write_all(wire.data() + off, n);
    }

    ReplyParser rp;
    Stream in = client_end.in;
    std::vector<Reply> got;
    char chunk[64];
    Reply rep;
    while (got.size() < 16) {
      const std::size_t n = in.read_some(chunk, sizeof(chunk));
      ASSERT_GT(n, 0u);
      rp.feed(chunk, n);
      while (rp.next(&rep)) got.push_back(rep);
    }
    for (int i = 0; i < 8; i++) {
      EXPECT_EQ(got[static_cast<std::size_t>(i)].kind, Reply::Kind::kSimple);
    }
    for (int i = 0; i < 8; i++) {
      const Reply& r = got[static_cast<std::size_t>(8 + i)];
      ASSERT_EQ(r.kind, Reply::Kind::kBulk);
      EXPECT_EQ(r.text, "val\n" + std::to_string(i));
    }
    client_end.close();
    served.await();
    svc.stop();
  });
}

TEST(KvServe, NativeTcpEndToEnd) {
  auto p = native_platform(2);
  run_threads(*p, [](Scheduler& sched) {
    KvService svc(sched);
    svc.start();
    mp::io::Reactor reactor(sched);
    auto listener = mp::io::Listener::tcp(reactor, 0, 16);
    CountdownLatch served(sched, 1);
    sched.fork([&] {
      Stream s = listener.accept();
      mp::kv::serve(svc, Duplex{s, s});
      served.count_down();
    });
    Stream c = Stream::connect_tcp(reactor, listener.port());
    KvClient cli(c, c);
    EXPECT_TRUE(cli.set("tcp:k", "v"));
    std::string v;
    EXPECT_TRUE(cli.get("tcp:k", &v));
    EXPECT_EQ(v, "v");
    cli.quit();
    served.await();
    svc.stop();
    listener.close();
  });
}

TEST(KvServe, AbruptDisconnectWithRequestsInFlightDrainsCleanly) {
  auto p = sim_platform(2);
  run_threads(*p, [](Scheduler& sched) {
    KvService svc(sched);
    svc.start();
    auto [client_end, server_end] = mp::io::duplex_pipe(sched, 4096);
    CountdownLatch served(sched, 1);
    sched.fork([&svc, &served, server_end]() mutable {
      mp::kv::serve(svc, server_end);
      served.count_down();
    });
    std::string wire;
    for (int i = 0; i < 8; i++) {
      mp::kv::encode_set(&wire, "d:" + std::to_string(i), "x");
    }
    Stream out = client_end.out;
    out.write_all(wire.data(), wire.size());
    client_end.close();  // hang up without reading a single reply
    served.await();      // serve() must still terminate
    svc.stop();
  });
}

TEST(KvServe, NativeTcpRstWithUnreadRepliesStillServes) {
  // A peer that pipelines requests, never reads a reply, and closes with
  // SO_LINGER zero hits the server with a TCP RST instead of a clean EOF:
  // the server's next read raises ECONNRESET.  serve() must treat that as
  // a disconnect — run its shutdown handshake and return — and the service
  // must keep serving fresh connections afterwards.
  auto p = native_platform(2);
  run_threads(*p, [](Scheduler& sched) {
    KvService svc(sched);
    svc.start();
    mp::io::Reactor reactor(sched);
    auto listener = mp::io::Listener::tcp(reactor, 0, 16);
    CountdownLatch served(sched, 1);
    sched.fork([&] {
      Stream s = listener.accept();
      mp::kv::serve(svc, Duplex{s, s});
      served.count_down();
    });

    // Raw loopback socket so we control the close semantics exactly.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(listener.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    std::string wire;
    for (int i = 0; i < 64; i++) {
      mp::kv::encode_set(&wire, "rst:" + std::to_string(i), "x");
      mp::kv::encode_get(&wire, "rst:" + std::to_string(i));
    }
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    const struct linger lg = {1, 0};  // close() discards and sends RST
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg)), 0);
    ::close(fd);
    served.await();  // must not hang and must not kill the forked thread

    // The reset connection must not have poisoned the service.
    CountdownLatch served2(sched, 1);
    sched.fork([&] {
      Stream s = listener.accept();
      mp::kv::serve(svc, Duplex{s, s});
      served2.count_down();
    });
    Stream c = Stream::connect_tcp(reactor, listener.port());
    KvClient cli(c, c);
    EXPECT_TRUE(cli.set("post-rst", "ok"));
    std::string v;
    EXPECT_TRUE(cli.get("post-rst", &v));
    EXPECT_EQ(v, "ok");
    cli.quit();
    served2.await();
    svc.stop();
    listener.close();
  });
}

TEST(KvService, StalledReplyConsumerDoesNotBlockTheShard) {
  // Reply delivery is a mailbox post, not a rendezvous: a connection whose
  // writer has stopped draining (peer reads nothing, write_all parked) must
  // not park the shard owner, or it would head-of-line block every other
  // connection that shard owes a reply to.  With rendezvous replies this
  // test deadlocks on the first undrained batch.
  auto p = sim_platform(2);
  run_threads(*p, [](Scheduler& sched) {
    KvConfig cfg;
    cfg.shards = 1;  // one shard owns every key: maximum interference
    KvService svc(sched, cfg);
    svc.start();
    mp::cml::Mailbox<std::uint64_t> stalled(sched);
    std::vector<KvBatch> parked(8);
    for (int i = 0; i < 8; i++) {
      KvBatch& b = parked[static_cast<std::size_t>(i)];
      b.reqs.resize(1);
      b.reqs[0].req.op = Op::kSet;
      b.reqs[0].req.key = "s:" + std::to_string(i);
      b.reqs[0].req.value = "v";
      b.reply = &stalled;
      svc.submit(0, &b);
    }
    // Nobody has drained `stalled`, yet the same shard keeps serving.
    mp::cml::Mailbox<std::uint64_t> live(sched);
    KvBatch q;
    q.reqs.resize(1);
    q.reqs[0].req.op = Op::kGet;
    q.reqs[0].req.key = "s:3";
    q.reply = &live;
    svc.submit(0, &q);
    auto* done = reinterpret_cast<KvBatch*>(live.recv());
    EXPECT_EQ(done, &q);
    EXPECT_FALSE(q.reqs[0].out.empty());  // the shard applied and encoded it
    // Drain the stalled replies before their stack frames go away.
    for (int i = 0; i < 8; i++) (void)stalled.recv();
    svc.stop();
  });
}

#if MPNJ_METRICS
// A batch submitted while the registry is off carries no clock stamp, and
// the shard's queue-wait histogram skips it even when the registry has been
// switched on by the time the shard dequeues it; a batch submitted with the
// registry on is recorded.  On one simulated proc the shard runs only once
// the submitter parks, after the switch.
TEST(KvService, QueueWaitSkipsABatchSubmittedWhileTheRegistryWasOff) {
  auto& reg = mp::metrics::registry();
  const bool was_enabled = reg.enabled();
  auto p = sim_platform(1);
  std::uint64_t skipped = 0;
  std::uint64_t recorded = 0;
  run_threads(*p, [&](Scheduler& sched) {
    KvConfig cfg;
    cfg.shards = 1;
    KvService svc(sched, cfg);
    svc.start();
    mp::cml::Mailbox<std::uint64_t> back(sched);
    auto set_once = [&](const char* key, bool on_at_submit) {
      KvBatch b;
      b.reqs.resize(1);
      b.reqs[0].req.op = Op::kSet;
      b.reqs[0].req.key = key;
      b.reqs[0].req.value = "v";
      b.reply = &back;
      const auto before =
          reg.snapshot().histo(mp::metrics::Histo::kKvQueueUsSet).count;
      reg.set_enabled(on_at_submit);
      svc.submit(0, &b);
      reg.set_enabled(true);
      EXPECT_EQ(reinterpret_cast<KvBatch*>(back.recv()), &b);
      return reg.snapshot().histo(mp::metrics::Histo::kKvQueueUsSet).count -
             before;
    };
    skipped = set_once("off", false);
    recorded = set_once("on", true);
    svc.stop();
  });
  reg.set_enabled(was_enabled);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(recorded, 1u);
}

TEST(KvServe, OneReadOfPointOpsIsOneShardRendezvous) {
  // The reader hands everything one read delivered to a shard as a single
  // batch: 32 pipelined point ops that arrive together cross the shard
  // channel once, not 32 times.  Every rendezvous commits exactly one of
  // cml_sends (the sender found a parked receiver) or cml_recvs.
  auto& reg = mp::metrics::registry();
  if (!reg.enabled()) GTEST_SKIP() << "metrics disabled via MPNJ_METRICS=0";
  auto p = sim_platform(1);
  run_threads(*p, [&reg](Scheduler& sched) {
    KvConfig cfg;
    cfg.shards = 1;
    KvService svc(sched, cfg);
    svc.start();
    auto [client_end, server_end] = mp::io::duplex_pipe(sched, 4096);
    CountdownLatch served(sched, 1);
    sched.fork([&svc, &served, server_end]() mutable {
      mp::kv::serve(svc, server_end);
      served.count_down();
    });
    KvClient cli(client_end);
    EXPECT_TRUE(cli.ping());  // the connection is up and its reader idle

    using mp::metrics::Counter;
    const auto rendezvous = [&reg] {
      const auto snap = reg.snapshot();
      return snap.counter(Counter::kCmlSends) +
             snap.counter(Counter::kCmlRecvs);
    };
    const auto before = rendezvous();
    std::map<std::string, std::string> model;
    std::vector<Reply> expect;
    for (int i = 0; i < 32; i++) {
      const std::string key = "f:" + std::to_string(i % 8);
      Reply want;
      switch (i % 3) {
        case 0:
          cli.queue_set(key, std::to_string(i));
          model[key] = std::to_string(i);
          want.kind = Reply::Kind::kSimple;
          want.text = "OK";
          break;
        case 1:
          cli.queue_get(key);
          if (auto it = model.find(key); it != model.end()) {
            want.kind = Reply::Kind::kBulk;
            want.text = it->second;
          } else {
            want.kind = Reply::Kind::kNil;
          }
          break;
        default:
          cli.queue_del(key);
          want.kind = Reply::Kind::kInt;
          want.ival = static_cast<long>(model.erase(key));
          break;
      }
      expect.push_back(want);
    }
    cli.flush();
    for (const Reply& want : expect) {
      const Reply got = cli.recv_reply();
      ASSERT_EQ(got.kind, want.kind);
      EXPECT_EQ(got.text, want.text);
      EXPECT_EQ(got.ival, want.ival);
    }
    EXPECT_LE(rendezvous() - before, 2u);

    cli.quit();
    served.await();
    svc.stop();
  });
}
#endif

// ---------- the kv workload: exact verification + determinism ----------

TEST(KvWorkload, VerifiesOnTheSimulator) {
  mp::workloads::SimRunSpec spec;
  spec.workload = "kv";
  spec.machine = mp::sim::sequent_s81(4);
  const auto r = mp::workloads::run_sim(spec);
  EXPECT_TRUE(r.verified);
  EXPECT_NE(r.checksum, 0u);
}

TEST(KvWorkload, SimRunsAreDeterministic) {
  mp::workloads::SimRunSpec spec;
  spec.workload = "kv";
  spec.machine = mp::sim::sequent_s81(3);
  const auto a = mp::workloads::run_sim(spec);
  const auto b = mp::workloads::run_sim(spec);
  EXPECT_TRUE(a.verified);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.report.total_us, b.report.total_us);
}

TEST(KvWorkload, ChecksumIsIndependentOfShardAndProcCount) {
  mp::workloads::SimRunSpec spec;
  spec.workload = "kv";
  spec.machine = mp::sim::sequent_s81(1);
  const auto one = mp::workloads::run_sim(spec);
  spec.machine = mp::sim::sequent_s81(4);
  const auto four = mp::workloads::run_sim(spec);
  EXPECT_TRUE(one.verified);
  EXPECT_TRUE(four.verified);
  EXPECT_EQ(one.checksum, four.checksum);
}

TEST(KvWorkload, VerifiesOnNativeWithPipesAndTcp) {
  for (const bool tcp : {false, true}) {
    mp::workloads::KvWorkloadOptions opts;
    opts.connections = 4;
    opts.ops = 32;
    opts.tcp = tcp;
    auto w = mp::workloads::make_kv(opts);
    auto p = native_platform(4);
    run_threads(*p, [&](Scheduler& sched) { w->run(sched, 4); });
    EXPECT_TRUE(w->verify()) << (tcp ? "tcp" : "pipe");
  }
}

#if MPNJ_METRICS
TEST(KvWorkload, OpCountersAdvance) {
  auto& reg = mp::metrics::registry();
  if (!reg.enabled()) GTEST_SKIP() << "metrics disabled via MPNJ_METRICS=0";
  const auto before = reg.snapshot();
  mp::workloads::SimRunSpec spec;
  spec.workload = "kv";
  spec.machine = mp::sim::sequent_s81(2);
  const auto r = mp::workloads::run_sim(spec);
  EXPECT_TRUE(r.verified);
  const auto after = reg.snapshot();
  using mp::metrics::Counter;
  EXPECT_GT(after.counter(Counter::kKvSets), before.counter(Counter::kKvSets));
  EXPECT_GT(after.counter(Counter::kKvGets), before.counter(Counter::kKvGets));
  EXPECT_GT(after.counter(Counter::kKvConns),
            before.counter(Counter::kKvConns));
  EXPECT_GT(after.histo(mp::metrics::Histo::kKvReqUsGet).count,
            before.histo(mp::metrics::Histo::kKvReqUsGet).count);
  // RANGE replies are merged and timed by the connection's writer.
  EXPECT_GT(after.counter(Counter::kKvRanges),
            before.counter(Counter::kKvRanges));
  EXPECT_GT(after.histo(mp::metrics::Histo::kKvReqUsRange).count,
            before.histo(mp::metrics::Histo::kKvReqUsRange).count);
}
#endif

}  // namespace
