#include "kv/service.h"

#include "arch/panic.h"
#include "metrics/metrics.h"

namespace mp::kv {

namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

// splitmix64: turns sequential seeds into well-mixed salts.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

#if MPNJ_METRICS
metrics::Histo queue_histo(Op op) {
  switch (op) {
    case Op::kGet:   return metrics::Histo::kKvQueueUsGet;
    case Op::kSet:   return metrics::Histo::kKvQueueUsSet;
    case Op::kDel:   return metrics::Histo::kKvQueueUsDel;
    default:         return metrics::Histo::kKvQueueUsRange;
  }
}
#endif

}  // namespace

void KvReq::recycle(std::size_t* budget) {
  req.reset(Op::kPing, budget);
  clear_kept(&out, budget);
  range.clear(budget);
  seq = 0;
  stat_keys = 0;
  stat_bytes = 0;
  stat_ops = 0;
}

void ReqList::clear() {
  // One budget over the list's own array and every request it holds,
  // retired ones included, so a batch keeps at most kKeepBytes however many
  // requests it once carried.  An array over budget goes whole.
  const std::size_t array = all_.capacity() * sizeof(KvReq);
  if (array > kKeepBytes) {
    std::vector<KvReq>().swap(all_);
  } else {
    std::size_t budget = kKeepBytes - array;
    for (KvReq& r : all_) r.recycle(&budget);
  }
  n_ = 0;
}

KvService::KvService(threads::Scheduler& sched, KvConfig cfg)
    : sched_(sched), cfg_(cfg) {
  int n = cfg_.shards;
  if (n <= 0) n = sched_.platform().max_procs();
  MPNJ_CHECK(n > 0, "kv service needs at least one shard");
  shards_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; i++) {
    Shard& sh = shards_[static_cast<std::size_t>(i)];
    sh.ch = std::make_unique<cml::Channel<std::uint64_t>>(sched_);
    sh.store = std::make_unique<ShardStore>(
        mix64(cfg_.seed ^ (0xa076'1d64'78bd'642full +
                           static_cast<std::uint64_t>(i))));
    sh.salt = mix64(cfg_.seed + 0x517cc1b727220a95ull +
                    static_cast<std::uint64_t>(i));
  }
}

KvService::~KvService() {
  MPNJ_CHECK(!started_, "kv service destroyed while running (call stop())");
}

void KvService::start() {
  MPNJ_CHECK(!started_, "kv service already started");
  started_ = true;
  joined_ = std::make_unique<threads::CountdownLatch>(
      sched_, static_cast<int>(shards_.size()));
  for (int i = 0; i < static_cast<int>(shards_.size()); i++) {
    sched_.fork(
        [this, i] {
          shard_loop(i);
          joined_->count_down();
        },
        threads::Scheduler::SpawnOpts{}.with_name("kv-shard"));
  }
}

void KvService::stop() {
  MPNJ_CHECK(started_, "kv service not running");
  // A batch with no reply mailbox is the shard loop's stop token.
  for (Shard& sh : shards_) {
    sh.ch->send(reinterpret_cast<std::uint64_t>(new KvBatch));
  }
  joined_->await();
  joined_.reset();
  started_ = false;
}

int KvService::shard_of(std::string_view key) const {
  // Rendezvous hashing: every shard scores the key with its salt; the
  // highest score owns it.  O(shards) per key, but shards ~ procs.
  const std::uint64_t h = fnv1a(key);
  std::uint64_t best = 0;
  int owner = 0;
  for (int i = 0; i < static_cast<int>(shards_.size()); i++) {
    const std::uint64_t score =
        mix64(h ^ shards_[static_cast<std::size_t>(i)].salt);
    if (i == 0 || score > best) {
      best = score;
      owner = i;
    }
  }
  return owner;
}

void KvService::submit(int shard, KvBatch* b) {
  MPNJ_CHECK(started_, "submit to a stopped kv service");
  MPNJ_CHECK(shard >= 0 && shard < shards(), "kv shard index out of range");
  MPNJ_CHECK(b->reply != nullptr, "kv batch has no reply mailbox");
#if MPNJ_METRICS
  b->submit_us =
      metrics::registry().enabled() ? sched_.platform().now_us() : -1;
#endif
  shards_[static_cast<std::size_t>(shard)].ch->send(
      reinterpret_cast<std::uint64_t>(b));
}

ShardStats KvService::stats() {
  MPNJ_CHECK(started_, "stats on a stopped kv service");
  ShardStats total;
  total.shards = shards();
  // One probe per shard through the same channel as every other request, so
  // the counts are exact as of each shard's dequeue (no cross-thread reads
  // of owner-only state).
  cml::Mailbox<std::uint64_t> back(sched_);
  for (int s = 0; s < shards(); s++) {
    KvBatch probe;
    probe.reqs.resize(1);
    probe.reqs[0].req.op = Op::kStats;
    probe.reply = &back;
    submit(s, &probe);
    auto* done = reinterpret_cast<KvBatch*>(back.recv());
    MPNJ_CHECK(done == &probe, "stats probe came back out of order");
    total.keys += probe.reqs[0].stat_keys;
    total.bytes += probe.reqs[0].stat_bytes;
    total.ops += probe.reqs[0].stat_ops;
  }
  return total;
}

void KvService::shard_loop(int idx) {
  Shard& sh = shards_[static_cast<std::size_t>(idx)];
  sh.owner_tid = sched_.id();
  for (;;) {
    auto* b = reinterpret_cast<KvBatch*>(sh.ch->recv());
    if (b->reply == nullptr) {
      delete b;
      return;
    }
#if MPNJ_METRICS
    if (metrics::registry().enabled() && b->submit_us >= 0) {
      // Every request in the batch waited from the batch's submission.
      const double waited = sched_.platform().now_us() - b->submit_us;
      const auto us = waited > 0 ? static_cast<std::uint64_t>(waited) : 0;
      for (const KvReq& r : b->reqs) {
        metrics::record_value(queue_histo(r.req.op), us);
      }
    }
#endif
    for (KvReq& r : b->reqs) apply(sh, r);
    // Asynchronous delivery: the mailbox enqueue never parks, so a stalled
    // connection writer (peer stopped reading, write_all parked on a full
    // socket buffer) cannot head-of-line block this shard for every other
    // connection it owes a reply to.
    b->reply->send(reinterpret_cast<std::uint64_t>(b));
  }
}

void KvService::apply(Shard& sh, KvReq& r) {
  // The single-owner discipline that makes the store lock-free: only the
  // shard's owner thread ever reaches this point.
  MPNJ_CHECK(sched_.id() == sh.owner_tid,
             "kv shard touched off its owner thread");
  sh.ops++;
  ShardStore& store = *sh.store;
  switch (r.req.op) {
    case Op::kGet: {
      MPNJ_METRIC_COUNT(kKvGets, 1);
      if (const std::string* v = store.get(r.req.key)) {
        MPNJ_METRIC_COUNT(kKvHits, 1);
        encode_bulk(&r.out, *v);
      } else {
        MPNJ_METRIC_COUNT(kKvMisses, 1);
        encode_nil(&r.out);
      }
      break;
    }
    case Op::kSet: {
      MPNJ_METRIC_COUNT(kKvSets, 1);
      store.set(r.req.key, r.req.value);
      encode_ok(&r.out);
      break;
    }
    case Op::kDel: {
      MPNJ_METRIC_COUNT(kKvDels, 1);
      encode_int(&r.out, store.del(r.req.key) ? 1 : 0);
      break;
    }
    case Op::kRange: {
      // One probe of a multi-shard scatter: return this shard's slice of
      // [lo, hi] (sorted, capped at the global limit — enough for the merge)
      // as key/value pairs; the connection layer merges and encodes.
      r.range.clear();
      store.range(r.req.key, r.req.hi, r.req.limit,
                  [&](std::string_view k, std::string_view v) {
                    r.range.push(k, v);
                    return true;
                  });
      break;
    }
    case Op::kStats: {
      MPNJ_METRIC_COUNT(kKvStats, 1);
      r.stat_keys = store.size();
      r.stat_bytes = store.bytes();
      r.stat_ops = sh.ops;
      break;
    }
    case Op::kPing:
    case Op::kQuit:
      // Served at the connection layer; a shard never sees them.
      encode_error(&r.out, "internal: misrouted request");
      break;
  }
}

}  // namespace mp::kv
