// Heap traffic on the KV serving path (src/kv).  A connection's reader
// parses each request in place and refills recycled batches, and its writer
// appends replies to a reused buffer, so once a connection has warmed up,
// serving a read costs the same number of heap allocations however many
// requests it carried.  Buffers a large request grew are given back once it
// has been served.
//
// This binary replaces the global operator new and delete with counting
// versions, so it is kept apart from the other kv tests.  The client side
// writes pre-encoded flushes and reads the replies raw into a fixed buffer,
// so every allocation counted is the server's (or the runtime's under it),
// except in the one case that reads them through a KvClient into one
// reused Reply, which counts the client's too.

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "io/stream.h"
#include "kv/client.h"
#include "kv/proto.h"
#include "kv/server.h"
#include "kv/service.h"
#include "mp/sim_platform.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else if (posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  return p;
}

// Out of line, so that the compiler does not see a free() of what an
// inlined operator new returned and warn about the pairing.
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n, 0)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_alloc(n, static_cast<std::size_t>(a))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return operator new(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace {

using mp::threads::CountdownLatch;
using mp::threads::Scheduler;

// Big enough that neither a flush nor its replies (the largest is a RANGE
// reply of about 620 KB) ever parks a writer mid-write.
constexpr std::size_t kPipeBytes = 4u << 20;
// kv-pipe's value size, past std::string's inline buffer.
constexpr int kValueBytes = 32;

std::string key_of(int i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "k%05d", i);
  return buf;
}

// One pre-encoded flush, the exact bytes of its replies and their number.
struct Flush {
  std::string wire;
  std::string expect;
  int replies = 0;
};

// The client's model of the store, used to predict every reply.
class Model {
 public:
  void set(Flush* f, const std::string& key, const std::string& value) {
    mp::kv::encode_set(&f->wire, key, value);
    mp::kv::encode_ok(&f->expect);
    f->replies++;
    map_[key] = value;
  }
  void get(Flush* f, const std::string& key) {
    mp::kv::encode_get(&f->wire, key);
    f->replies++;
    const auto it = map_.find(key);
    if (it == map_.end()) {
      mp::kv::encode_nil(&f->expect);
    } else {
      mp::kv::encode_bulk(&f->expect, it->second);
    }
  }
  void del(Flush* f, const std::string& key) {
    mp::kv::encode_del(&f->wire, key);
    mp::kv::encode_int(&f->expect, static_cast<long>(map_.erase(key)));
    f->replies++;
  }
  void range(Flush* f, const std::string& lo, const std::string& hi) {
    mp::kv::encode_range(&f->wire, lo, hi);
    f->replies++;
    std::string body;
    std::size_t pairs = 0;
    for (auto it = map_.lower_bound(lo); it != map_.end() && it->first <= hi;
         ++it) {
      mp::kv::encode_bulk(&body, it->first);
      mp::kv::encode_bulk(&body, it->second);
      pairs++;
    }
    mp::kv::encode_array_header(&f->expect, pairs * 2);
    f->expect += body;
  }

 private:
  std::map<std::string, std::string> map_;
};

// `n` requests over keys [0, keys): a SET (same-size value, so the store
// overwrites in place), a GET, a RANGE of four keys and another GET, in
// turn, starting at key `first`.
Flush mixed_flush(Model& m, int n, int first, int keys, int salt) {
  Flush f;
  for (int i = 0; i < n; i++) {
    const int k = (first + i) % keys;
    switch (i % 4) {
      case 0: {
        std::string v(kValueBytes, 'a');
        for (int j = 0; j < kValueBytes; j++) {
          v[static_cast<std::size_t>(j)] =
              static_cast<char>('a' + (salt * 7 + i + j) % 26);
        }
        m.set(&f, key_of(k), v);
        break;
      }
      case 2:
        m.range(&f, key_of(std::min(k, keys - 4)),
                key_of(std::min(k, keys - 4) + 3));
        break;
      default:
        m.get(&f, key_of(k));
        break;
    }
  }
  return f;
}

Flush preload(Model& m, int from, int to) {
  Flush f;
  for (int k = from; k < to; k++) {
    m.set(&f, key_of(k), std::string(kValueBytes, 'p'));
  }
  return f;
}

// Appends the wire form of `rep` to *out, as the server encodes it.
void append_reply(const mp::kv::Reply& rep, std::string* out) {
  using Kind = mp::kv::Reply::Kind;
  switch (rep.kind) {
    case Kind::kSimple:
      out->append("+").append(rep.text).append("\r\n");
      break;
    case Kind::kError:
      out->append("-ERR ").append(rep.text).append("\r\n");
      break;
    case Kind::kInt:
      mp::kv::encode_int(out, rep.ival);
      break;
    case Kind::kBulk:
      mp::kv::encode_bulk(out, rep.text);
      break;
    case Kind::kNil:
      mp::kv::encode_nil(out);
      break;
    case Kind::kArray:
      mp::kv::encode_array_header(out, rep.items.size());
      for (const std::string& item : rep.items) mp::kv::encode_bulk(out, item);
      break;
  }
}

// Runs `body` as a client of one connection served by a service of
// `shards` shards on one simulated proc.  `send` writes a flush and reads
// its replies, returning whether they matched byte for byte: raw into a
// fixed buffer, or with `through_client`, through a KvClient into one
// reused Reply, each re-encoded into one reused buffer.
using Send = std::function<bool(const Flush&)>;

void with_server(int shards, const std::function<void(const Send&)>& body,
                 bool through_client = false) {
  mp::SimPlatformConfig cfg;
  cfg.machine = mp::sim::sequent_s81(1);
  mp::SimPlatform plat(cfg);
  Scheduler::run(plat, {}, [&](Scheduler& sched) {
    mp::kv::KvConfig kcfg;
    kcfg.shards = shards;
    mp::kv::KvService svc(sched, kcfg);
    svc.start();
    auto [client_end, server_end] = mp::io::duplex_pipe(sched, kPipeBytes);
    CountdownLatch served(sched, 1);
    sched.fork([&svc, &served, server_end]() mutable {
      mp::kv::serve(svc, server_end);
      served.count_down();
    });
    std::vector<char> buf(64u << 10);
    const Send raw = [&](const Flush& f) {
      client_end.out.write_all(f.wire.data(), f.wire.size());
      std::size_t got = 0;
      bool same = true;
      while (got < f.expect.size()) {
        const std::size_t n = client_end.in.read_some(
            buf.data(), std::min(buf.size(), f.expect.size() - got));
        if (n == 0) return false;
        same = same && std::memcmp(buf.data(), f.expect.data() + got, n) == 0;
        got += n;
      }
      return same;
    };
    mp::kv::KvClient cli(client_end);
    mp::kv::Reply rep;
    std::string got;
    const Send via_client = [&](const Flush& f) {
      cli.queue_raw(f.wire);
      cli.flush();
      got.clear();
      for (int i = 0; i < f.replies; i++) {
        cli.recv_reply(&rep);
        append_reply(rep, &got);
      }
      return got == f.expect;
    };
    body(through_client ? via_client : raw);
    client_end.out.close();  // EOF: the connection drains and returns
    served.await();
    client_end.in.close();
    svc.stop();
  });
}

// After a warm-up, 8 flushes of 16 and 8 of 64 requests must cost the same
// allocations, read raw or through a KvClient (`through_client`).
void allocations_per_read_do_not_grow(bool through_client) {
  constexpr int kKeys = 64;
  constexpr int kRounds = 8;
  Model m;
  std::vector<Flush> warm;
  warm.push_back(preload(m, 0, kKeys));
  for (int r = 0; r < kRounds; r++) {
    warm.push_back(mixed_flush(m, 64, r * 5, kKeys, r));
    warm.push_back(mixed_flush(m, 16, r * 3, kKeys, r + 100));
  }
  std::vector<Flush> small;
  std::vector<Flush> large;
  for (int r = 0; r < kRounds; r++) {
    small.push_back(mixed_flush(m, 16, r * 11, kKeys, r + 200));
    large.push_back(mixed_flush(m, 64, r * 13, kKeys, r + 300));
  }
  std::uint64_t small_news = 0;
  std::uint64_t large_news = 0;
  with_server(1, [&](const Send& send) {
    for (const Flush& f : warm) ASSERT_TRUE(send(f));
    for (int r = 0; r < kRounds; r++) {
      std::uint64_t before = g_news.load(std::memory_order_relaxed);
      ASSERT_TRUE(send(small[static_cast<std::size_t>(r)]));
      small_news += g_news.load(std::memory_order_relaxed) - before;
      before = g_news.load(std::memory_order_relaxed);
      ASSERT_TRUE(send(large[static_cast<std::size_t>(r)]));
      large_news += g_news.load(std::memory_order_relaxed) - before;
    }
  }, through_client);
  std::printf("allocations per flush: 16 requests %.2f, 64 requests %.2f\n",
              static_cast<double>(small_news) / kRounds,
              static_cast<double>(large_news) / kRounds);
  // The same per read: no allocation follows a request.
  EXPECT_EQ(large_news, small_news);
}

TEST(KvAlloc, AllocationsPerReadDoNotGrowWithRequestsPerRead) {
  allocations_per_read_do_not_grow(false);
}

// The client's side too: KvClient::recv_reply into one Reply refills its
// text and its array items in place.
TEST(KvAlloc, RepliesReadIntoOneReplyDoNotAllocatePerRequest) {
  allocations_per_read_do_not_grow(true);
}

// One 1 MiB SET (then a DEL of its key) and one RANGE of 12,000 pairs grow
// the parser's buffer, a request's value, the shard's slice and the
// writer's outgoing bytes far past kKeepBytes.  Each is given back once
// used, so a few small flushes later the heap is back near where it was.
// The store itself ends where it began: the big key is inserted and
// removed, and its bucket array does not grow (12,001 keys fit 16,384).
TEST(KvAlloc, LargeRequestsDoNotPinMemory) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer's allocator does not report mallinfo2()";
#endif
  constexpr int kKeys = 12000;
  // Well under the 1 MiB SET alone, and over what small flushes move.
  constexpr long kMarginBytes = 128 << 10;
  Model m;
  std::vector<Flush> load;
  for (int k = 0; k < kKeys; k += 1000) load.push_back(preload(m, k, k + 1000));
  std::vector<Flush> warm;
  std::vector<Flush> after;
  for (int r = 0; r < 8; r++) {
    warm.push_back(mixed_flush(m, 16, r * 7, 64, r));
  }
  Flush big_set;
  m.set(&big_set, "big", std::string(mp::kv::kMaxValueBytes, 'b'));
  Flush big_del;
  m.del(&big_del, "big");
  Flush big_range;
  m.range(&big_range, key_of(0), key_of(kKeys));
  for (int r = 0; r < 4; r++) {
    after.push_back(mixed_flush(m, 16, r * 9, 64, r + 50));
  }
  long before = 0;
  long grown = 0;
  long end = 0;
  with_server(1, [&](const Send& send) {
    for (const Flush& f : load) ASSERT_TRUE(send(f));
    for (const Flush& f : warm) ASSERT_TRUE(send(f));
    before = static_cast<long>(mallinfo2().uordblks);
    ASSERT_TRUE(send(big_set));
    grown = static_cast<long>(mallinfo2().uordblks);
    ASSERT_TRUE(send(big_del));
    ASSERT_TRUE(send(big_range));
    for (const Flush& f : after) ASSERT_TRUE(send(f));
    end = static_cast<long>(mallinfo2().uordblks);
  });
  std::printf("heap in use: %ld before, %ld after the 1 MiB SET, %ld at the "
              "end (%+ld)\n",
              before, grown, end, end - before);
  EXPECT_GT(grown - before, 512 << 10);  // the SET did reach the heap
  EXPECT_LT(end - before, kMarginBytes);
}

// Replies that come back behind a gap wait in the writer's window, and a
// read's requests wait in its batches until the writer retires them.  With
// two shards, one read of 128 GETs of 60 KB values leaves the replies of
// whichever shard answers second waiting behind the other's, and one read
// of 800 PINGs fills one batch with 800 requests.  The window and every
// batch keep at most kKeepBytes, the arrays that hold their slots and
// requests included, so a few small flushes later the heap is back near
// where it was.
TEST(KvAlloc, RepliesBehindAGapDoNotPinMemory) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer's allocator does not report mallinfo2()";
#endif
  constexpr int kMidKeys = 16;
  constexpr std::size_t kMidValueBytes = 60u << 10;
  constexpr long kMarginBytes = 128 << 10;
  const auto mid_key = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "m%02d", i);
    return std::string(buf);
  };
  Model m;
  Flush load = preload(m, 0, 64);
  for (int k = 0; k < kMidKeys; k++) {
    m.set(&load, mid_key(k),
          std::string(kMidValueBytes, static_cast<char>('A' + k)));
  }
  std::vector<Flush> warm;
  for (int r = 0; r < 8; r++) {
    warm.push_back(mixed_flush(m, 16, r * 7, 64, r));
  }
  Flush gets;
  for (int i = 0; i < 128; i++) m.get(&gets, mid_key(i % kMidKeys));
  Flush pings;
  for (int i = 0; i < 800; i++) {
    mp::kv::encode_ping(&pings.wire);
    mp::kv::encode_pong(&pings.expect);
  }
  std::vector<Flush> after;
  for (int r = 0; r < 4; r++) {
    after.push_back(mixed_flush(m, 16, r * 9, 64, r + 50));
  }
  long before = 0;
  long end = 0;
  with_server(2, [&](const Send& send) {
    ASSERT_TRUE(send(load));
    for (const Flush& f : warm) ASSERT_TRUE(send(f));
    before = static_cast<long>(mallinfo2().uordblks);
    ASSERT_TRUE(send(gets));
    ASSERT_TRUE(send(pings));
    for (const Flush& f : after) ASSERT_TRUE(send(f));
    end = static_cast<long>(mallinfo2().uordblks);
  });
  std::printf("heap in use: %ld before, %ld at the end (%+ld)\n", before, end,
              end - before);
  EXPECT_LT(end - before, kMarginBytes);
}

}  // namespace
