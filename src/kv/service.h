#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cml/cml.h"
#include "cml/mailbox.h"
#include "kv/proto.h"
#include "kv/store.h"
#include "threads/scheduler.h"
#include "threads/sync.h"

// The sharded KV service core (docs/KV.md): N ShardStores, each owned by
// exactly one MLthread, with ALL access routed through a per-shard CML
// request channel.  The shard data structures take no locks on the request
// path — ownership replaces mutual exclusion, and contention between
// connections becomes scheduling (rendezvous on the shard channel), which
// the work-stealing cores and parking locks underneath already make fast.
//
// The unit of work on a shard channel is a batch: the requests one
// connection read delivered for that shard, in arrival order.  One
// rendezvous hands a whole batch over, the owner applies it in order, and
// one mailbox post hands it back, so a pipelined connection pays one
// channel trip and one reply post per read, not per request.
//
// Keys map to shards by rendezvous (highest-random-weight) hashing over
// per-shard salts: every key has one owner, ownership is stable under a
// fixed shard count, and the mapping needs no shared routing table.

namespace mp::kv {

struct KvConfig {
  // Shard count; 0 = one shard per proc (the platform's max_procs).
  int shards = 0;
  // Seed for per-shard skiplist height streams and routing salts.
  std::uint64_t seed = 0x5eed;
};

// Key/value pairs in key order, stored back to back in one byte buffer, so
// refilling a recycled one allocates nothing.
class RangeSlice {
 public:
  std::size_t size() const { return ends_.size() / 2; }
  std::string_view key(std::size_t i) const {
    const std::size_t from = i == 0 ? 0 : ends_[2 * i - 1];
    return std::string_view(bytes_).substr(from, ends_[2 * i] - from);
  }
  std::string_view value(std::size_t i) const {
    return std::string_view(bytes_).substr(ends_[2 * i],
                                           ends_[2 * i + 1] - ends_[2 * i]);
  }
  void push(std::string_view key, std::string_view value) {
    bytes_.append(key);
    ends_.push_back(bytes_.size());
    bytes_.append(value);
    ends_.push_back(bytes_.size());
  }
  // Empties the slice, keeping its buffers within *budget (clear_kept).
  void clear(std::size_t* budget) {
    clear_kept(&bytes_, budget);
    clear_kept(&ends_, budget);
  }
  void clear() {
    std::size_t budget = kKeepBytes;
    clear(&budget);
  }

 private:
  std::string bytes_;               // key 0, value 0, key 1, ...
  std::vector<std::size_t> ends_;   // where each key and value ends
};

// One request inside a batch: filled in by a connection's reader, applied
// and reply-encoded by the owning shard thread, retired (in submission
// order) by the connection's writer thread.
struct KvReq {
  Request req;
  std::string out;   // encoded reply bytes (filled by the shard)
  // RANGE probe results: this shard's sorted slice of [key, hi], capped at
  // req.limit.  The connection's writer merges the slices across shards and
  // encodes the reply (see server.cpp).
  RangeSlice range;
  std::uint64_t seq = 0;  // per-connection submission order
  // STATS probe results (filled by the shard).
  std::size_t stat_keys = 0;
  std::size_t stat_bytes = 0;
  std::uint64_t stat_ops = 0;

  // Makes this a blank request again, keeping its buffers within *budget
  // (clear_kept).
  void recycle(std::size_t* budget);
};

// A batch's requests, in order: a vector of KvReq whose clear() blanks the
// requests but keeps them for emplace_back() to refill, as long as the
// vector and their buffers together fit in kKeepBytes.
class ReqList {
 public:
  KvReq& emplace_back() {
    if (n_ == all_.size()) all_.emplace_back();
    return all_[n_++];
  }
  // Appends blank requests until there are n; never shrinks.
  void resize(std::size_t n) {
    while (n_ < n) emplace_back();
  }
  void clear();
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  KvReq& operator[](std::size_t i) { return all_[i]; }
  const KvReq& operator[](std::size_t i) const { return all_[i]; }
  KvReq* begin() { return all_.data(); }
  KvReq* end() { return all_.data() + n_; }
  const KvReq* begin() const { return all_.data(); }
  const KvReq* end() const { return all_.data() + n_; }

 private:
  std::vector<KvReq> all_;  // [0, n_) live, the rest retired
  std::size_t n_ = 0;
};

// The requests one connection hands one shard at once.  Crosses CML
// channels as a pointer, like every payload in this runtime.
struct KvBatch {
  ReqList reqs;  // applied in this order
  // Where the shard posts the applied batch.  A mailbox, not a rendezvous
  // channel, on purpose: delivery is asynchronous, so a shard owner is never
  // parked by one connection whose writer has stalled — replies to other
  // connections keep flowing.
  cml::Mailbox<std::uint64_t>* reply = nullptr;
  // Platform clock at submission, for the latency metrics; negative when
  // the registry was off then, and the metrics skip the batch.
  double submit_us = -1;
  // A retired batch on its connection's free list (server.cpp).
  KvBatch* next_free = nullptr;
};

struct ShardStats {
  std::size_t keys = 0;
  std::size_t bytes = 0;
  std::uint64_t ops = 0;
  int shards = 0;
};

class KvService {
 public:
  KvService(threads::Scheduler& sched, KvConfig cfg = {});
  ~KvService();
  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  // Fork the shard owner threads.  Must be called before submit().
  void start();
  // Drain-stop every shard thread and join them.  Outstanding submitters
  // must have completed; the service is unusable afterwards.
  void stop();

  int shards() const { return static_cast<int>(shards_.size()); }
  int shard_of(std::string_view key) const;

  // Hand batch `b` to shard `shard`: a rendezvous send that parks the caller
  // until the shard accepts the whole batch, the service's only
  // backpressure.  The shard applies b->reqs in order — point ops (GET/SET/
  // DEL) to their key, which the caller has routed here with shard_of, and
  // RANGE and STATS probes to its own slice of the store — encodes each
  // reply, and posts b to b->reply; whoever receives it there owns it.
  void submit(int shard, KvBatch* b);

  // Aggregate store sizes via a STATS probe round-trip to every shard.
  // Callable from any MLthread while the service is running.
  ShardStats stats();

  threads::Scheduler& scheduler() { return sched_; }

 private:
  struct Shard {
    std::unique_ptr<cml::Channel<std::uint64_t>> ch;
    std::unique_ptr<ShardStore> store;
    std::uint64_t salt = 0;   // rendezvous-hashing weight seed
    int owner_tid = -1;       // the one thread allowed to touch `store`
    std::uint64_t ops = 0;    // operations applied (owner-only, no atomics)
  };

  void shard_loop(int idx);
  void apply(Shard& sh, KvReq& r);

  threads::Scheduler& sched_;
  KvConfig cfg_;
  std::vector<Shard> shards_;
  std::unique_ptr<threads::CountdownLatch> joined_;
  bool started_ = false;
};

}  // namespace mp::kv
