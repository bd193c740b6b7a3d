#include "kv/server.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/panic.h"
#include "arch/sysio.h"
#include "cml/mailbox.h"
#include "metrics/metrics.h"

namespace mp::kv {

namespace {

// kv_req_us_*: a reply's time from its batch's submission to being encoded;
// a batch submitted while the registry was off has no stamp and is skipped.
void record_req_us([[maybe_unused]] Platform& plat, [[maybe_unused]] Op op,
                   [[maybe_unused]] double submit_us) {
#if MPNJ_METRICS
  if (!metrics::registry().enabled() || submit_us < 0) return;
  metrics::Histo h;
  switch (op) {
    case Op::kGet:   h = metrics::Histo::kKvReqUsGet; break;
    case Op::kSet:   h = metrics::Histo::kKvReqUsSet; break;
    case Op::kDel:   h = metrics::Histo::kKvReqUsDel; break;
    case Op::kRange: h = metrics::Histo::kKvReqUsRange; break;
    default:         return;  // answered by the reader, not by a shard
  }
  const double us = plat.now_us() - submit_us;
  metrics::record_value(h, us > 0 ? static_cast<std::uint64_t>(us) : 0);
#endif
}

void encode_pairs(std::string* out, const RangeSlice& pairs) {
  encode_array_header(out, pairs.size() * 2);
  for (std::size_t i = 0; i < pairs.size(); i++) {
    encode_bulk(out, pairs.key(i));
    encode_bulk(out, pairs.value(i));
  }
}

// The sorted merge of two slices (keys are unique across shards), cut at
// `limit` pairs.
void merge(const RangeSlice& a, const RangeSlice& b, std::size_t limit,
           RangeSlice* out) {
  out->clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (out->size() < limit && (i < a.size() || j < b.size())) {
    if (j == b.size() || (i < a.size() && a.key(i) <= b.key(j))) {
      out->push(a.key(i), a.value(i));
      i++;
    } else {
      out->push(b.key(j), b.value(j));
      j++;
    }
  }
}

// A reply the writer owes, at its place in submission order.
struct Slot {
  bool ready = false;
  std::string out;
  // RANGE: per-shard slices still to come, the sorted merge of those that
  // arrived, and the earliest submission among their batches (negative when
  // one of them has no stamp).
  int slices_left = 0;
  RangeSlice merged;
  double submit_us = std::numeric_limits<double>::infinity();
  // Buffer bytes this slot kept when it was last emptied (Window).
  std::size_t kept = 0;
};

// The writer's reorder window: at(i) is the reply with sequence number
// next_seq + i.  A ring of slots that are emptied, not freed, when their
// reply goes out, so their buffers serve later replies.  One budget covers
// the ring and every buffer its free slots keep: a slot emptied once the
// budget is spent gives its buffers back, and an oversized ring goes
// whole once no slot is in use.
class Window {
 public:
  std::size_t used() const { return used_; }
  Slot& front() { return ring_[head_]; }
  Slot& at(std::size_t i) {
    if (i >= ring_.size()) grow(i + 1);
    for (; used_ <= i; used_++) {
      kept_ -= std::exchange(slot(used_).kept, 0);  // in use: not kept
    }
    return slot(i);
  }
  void pop_front() {
    Slot& s = ring_[head_];
    const std::size_t ring_bytes = ring_.capacity() * sizeof(Slot);
    const std::size_t room =
        kKeepBytes - std::min(kKeepBytes, ring_bytes + kept_);
    std::size_t budget = room;
    clear_kept(&s.out, &budget);
    s.merged.clear(&budget);
    s.kept = room - budget;
    kept_ += s.kept;
    s.ready = false;
    s.slices_left = 0;
    s.submit_us = std::numeric_limits<double>::infinity();
    head_ = (head_ + 1) & (ring_.size() - 1);
    if (--used_ == 0 && ring_bytes > kKeepBytes) {
      std::vector<Slot>().swap(ring_);
      head_ = 0;
      kept_ = 0;
    }
  }

 private:
  Slot& slot(std::size_t i) { return ring_[(head_ + i) & (ring_.size() - 1)]; }
  void grow(std::size_t n) {
    std::size_t cap = std::max<std::size_t>(ring_.size(), 16);
    while (cap < n) cap *= 2;
    std::vector<Slot> bigger(cap);
    for (std::size_t k = 0; k < ring_.size(); k++) {
      bigger[k] = std::move(slot(k));
    }
    ring_.swap(bigger);
    head_ = 0;
  }

  std::vector<Slot> ring_;  // size zero or a power of two
  std::size_t head_ = 0;
  std::size_t used_ = 0;
  std::size_t kept_ = 0;  // buffer bytes the free slots keep
};

// The writer half: receive batches (applied ones from the shards, the
// reader's own answers straight from the reader), append each reply that is
// next in sequence to the outgoing bytes and park the others in the window
// until the gap ahead of them fills (one read's requests fan out over shard
// batches that come back in any order), merge each RANGE's slices when the
// last one arrives, write what one batch completed with one coalesced
// write_all, and hand the batch back to the reader on `retired`.  Returns
// once the reader's fin has arrived and every batch it handed on has come
// back.
void writer_loop(KvService& svc, cml::Mailbox<std::uint64_t>& replies,
                 const std::uint64_t& handed, io::Stream& out,
                 std::atomic<KvBatch*>& retired) {
  Platform& plat = svc.scheduler().platform();
  const int n_shards = svc.shards();
  Window window;
  std::uint64_t next_seq = 0;
  std::uint64_t received = 0;
  // Batches to retire before returning: unknown until the reader's fin.
  std::uint64_t expected = std::numeric_limits<std::uint64_t>::max();
  bool peer_gone = false;
  std::string wire;
  RangeSlice merge_buf;
  // A finished reply: onto the wire when it is next in sequence, followed
  // by the replies that waited behind it; else into its window slot.
  const auto deliver = [&](std::uint64_t seq, const auto& append_to) {
    if (seq != next_seq) {
      Slot& s = window.at(seq - next_seq);
      append_to(&s.out);
      s.ready = true;
      return;
    }
    append_to(&wire);
    if (window.used() > 0) window.pop_front();
    next_seq++;
    while (window.used() > 0 && window.front().ready) {
      wire += window.front().out;
      window.pop_front();
      next_seq++;
    }
  };
  while (received < expected) {
    const std::uint64_t raw = replies.recv();
    if (raw == 0) {
      expected = handed;  // fin: the reader has handed on its last batch
      continue;
    }
    auto* b = reinterpret_cast<KvBatch*>(raw);
    received++;
    for (KvReq& r : b->reqs) {
      MPNJ_CHECK(r.seq >= next_seq, "kv reply sequenced twice");
      if (r.req.op != Op::kRange) {
        deliver(r.seq, [&](std::string* to) { *to += r.out; });
        record_req_us(plat, r.req.op, b->submit_us);
        continue;
      }
      // One shard's slice of a RANGE.  The first is taken as it came (the
      // slot and the batch trade buffers); each later one is merged into
      // the sorted run so far.
      Slot& s = window.at(r.seq - next_seq);
      s.submit_us = std::min(s.submit_us, b->submit_us);
      if (s.slices_left == 0) {
        s.slices_left = n_shards;
        std::swap(s.merged, r.range);
      } else {
        // Every probe carries the clamped limit and each shard honoured it
        // alone, so cutting after every merge keeps at most limit pairs.
        merge(s.merged, r.range, static_cast<std::size_t>(r.req.limit),
              &merge_buf);
        std::swap(s.merged, merge_buf);
      }
      if (--s.slices_left > 0) continue;
      const double submit_us = s.submit_us;  // the slot may be emptied
      deliver(r.seq, [&](std::string* to) { encode_pairs(to, s.merged); });
      record_req_us(plat, Op::kRange, submit_us);
    }
    // Every reply has been copied out: blank the batch and hand it back
    // for the reader to refill.
    b->reqs.clear();
    b->submit_us = -1;
    b->next_free = retired.load(std::memory_order_relaxed);
    while (!retired.compare_exchange_weak(b->next_free, b,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
    }
    merge_buf.clear();
    // Replies that piled up behind a gap go out with the reply that filled
    // it, in this batch's one write_all.
    if (!wire.empty() && !peer_gone) {
      try {
        out.write_all(wire.data(), wire.size());
      } catch (...) {
        // The peer hung up with replies in flight; keep draining the
        // mailbox (shards may still post into it, and every batch must be
        // counted toward the fin) but stop writing.
        peer_gone = true;
      }
    }
    clear_kept(&wire);
  }
}

}  // namespace

void serve(KvService& svc, io::Stream in, io::Stream out, ServeOptions opts) {
  MPNJ_METRIC_COUNT(kKvConns, 1);
  threads::Scheduler& sched = svc.scheduler();
  cml::Mailbox<std::uint64_t> replies(sched);
  std::uint64_t handed = 0;  // batches on their way to the writer
  // Batches the writer has retired, for the reader to refill: the writer
  // pushes one at a time, the reader takes the whole list at once.
  std::atomic<KvBatch*> retired{nullptr};
  threads::CountdownLatch writer_done(sched, 1);
  sched.fork(
      [&] {
        writer_loop(svc, replies, handed, out, retired);
        writer_done.count_down();
      },
      threads::Scheduler::SpawnOpts{}
          .with_stack(cont::StackClass::kSmall)
          .with_name("kv-writer"));

  // The batches the current read is filling: one per shard, and last the
  // replies the reader answers itself.  The reader owns each one until it
  // has been handed on.  Each comes from the reader's spares, refilled from
  // the writer's list, and a batch is new only when both are empty; at most
  // `keep_spares` spares stay with the connection.
  const int n_shards = svc.shards();
  std::vector<std::unique_ptr<KvBatch>> open(
      static_cast<std::size_t>(n_shards) + 1);
  KvBatch* spares = nullptr;
  const int keep_spares = 2 * (n_shards + 1);
  const auto delete_all = [](KvBatch* b) {
    while (b != nullptr) delete std::exchange(b, b->next_free);
  };
  const auto batch_for = [&](int slot) -> KvBatch& {
    std::unique_ptr<KvBatch>& b = open[static_cast<std::size_t>(slot)];
    if (b) return *b;
    if (spares == nullptr) {
      spares = retired.exchange(nullptr, std::memory_order_acquire);
      KvBatch* last = spares;
      for (int n = 1; last != nullptr && n < keep_spares; n++) {
        last = last->next_free;
      }
      if (last != nullptr) delete_all(std::exchange(last->next_free, nullptr));
    }
    if (spares == nullptr) {
      b = std::make_unique<KvBatch>();
      b->reply = &replies;
    } else {
      b.reset(std::exchange(spares, spares->next_free));
    }
    return *b;
  };
  std::uint64_t next_seq = 0;

  // Reader-side direct answer: skip the shards but keep the sequence slot,
  // so pipelined replies stay in request order.  Returns the reply buffer.
  const auto answer = [&]() -> std::string& {
    KvReq& r = batch_for(n_shards).reqs.emplace_back();
    r.seq = next_seq++;
    return r.out;
  };

  // Hand every open batch on: one rendezvous per shard batch, which parks
  // until that shard accepts it (the service's backpressure), then one post
  // of the reader's own answers straight to the writer.
  const auto hand_on = [&] {
    for (int s = 0; s <= n_shards; s++) {
      std::unique_ptr<KvBatch>& b = open[static_cast<std::size_t>(s)];
      if (!b) continue;
      if (s < n_shards) {
        svc.submit(s, b.get());
      } else {
        replies.send(reinterpret_cast<std::uint64_t>(b.get()));
      }
      (void)b.release();  // a shard or the writer owns it now
      handed++;
    }
  };

  // The shutdown handshake, which must run on EVERY exit path.  A batch the
  // reader still owns (its submit threw) dies here without being handed on;
  // its replies leave a gap that ends the reply stream at its place.  The
  // fin tells the writer how many batches are on their way, and the await
  // guarantees the writer has retired every one of them before the
  // stack-allocated mailbox and latch above are destroyed.  Skipping it
  // (e.g. by unwinding on a socket error) would free the mailbox that the
  // writer thread and in-flight shard replies still reference.
  const auto finish = [&] {
    open.clear();
    replies.send(0);
    writer_done.await();
    delete_all(spares);
    delete_all(retired.exchange(nullptr, std::memory_order_acquire));
    in.close();
    out.close();
  };

  FrameParser parser;
  std::vector<char> chunk(opts.read_chunk > 0 ? opts.read_chunk : 4096);
  // The request being parsed.  A point op trades buffers with the batch
  // slot it lands in, so neither side allocates once both have grown.
  Request req;
  bool quitting = false;
  std::exception_ptr failure;
  try {
  while (!quitting) {
    std::size_t n = 0;
    try {
      n = in.read_some(chunk.data(), chunk.size());
    } catch (const arch::SysError&) {
      // Socket-level failure — e.g. ECONNRESET when the peer closed with
      // unread pipelined replies (a TCP RST, not the clean EOF a pipe
      // gives).  Treat it exactly like a disconnect.
      break;
    }
    if (n == 0) break;  // peer disconnected
    parser.feed(chunk.data(), n);
    // Sort everything this read delivered into the open batches, keeping
    // arrival order within each, then hand them on together.
    while (!quitting && parser.next(&req)) {
      if (!req.ok()) {
        MPNJ_METRIC_COUNT(kKvProtoErrors, 1);
        encode_error(&answer(), req.error);
        continue;
      }
      switch (req.op) {
        case Op::kPing:
          encode_pong(&answer());
          break;
        case Op::kQuit:
          encode_ok(&answer());
          quitting = true;
          break;
        case Op::kRange: {
          MPNJ_METRIC_COUNT(kKvRanges, 1);
          // Scatter: rendezvous hashing spreads adjacent keys across
          // shards, so every shard owns a slice of [lo, hi].  One probe
          // rides in each shard's batch under the RANGE's sequence number,
          // and the writer merges the slices and applies the limit.  The
          // no-limit default (-1) is clamped to the same ceiling the parser
          // enforces on explicit limits, so one RANGE over a large store
          // cannot materialize unbounded payload copies (per-shard slices,
          // the merged run, and the encoded reply).
          req.limit = req.limit < 0 ? kMaxRangeResults
                                    : std::min(req.limit, kMaxRangeResults);
          const std::uint64_t seq = next_seq++;
          for (int s = 0; s < n_shards; s++) {
            KvReq& probe = batch_for(s).reqs.emplace_back();
            probe.req = req;
            probe.seq = seq;
          }
          break;
        }
        case Op::kStats: {
          // Hand this connection's earlier requests on first: each shard
          // applies them before it takes its probe, so the counts include
          // them.
          hand_on();
          const ShardStats st = svc.stats();
          const std::string body = "keys=" + std::to_string(st.keys) +
                                   " bytes=" + std::to_string(st.bytes) +
                                   " ops=" + std::to_string(st.ops) +
                                   " shards=" + std::to_string(st.shards);
          encode_bulk(&answer(), body);
          break;
        }
        default: {
          KvReq& r = batch_for(svc.shard_of(req.key)).reqs.emplace_back();
          std::swap(r.req, req);
          r.seq = next_seq++;
          break;
        }
      }
    }
    hand_on();
  }
  } catch (...) {
    // Unexpected failure mid-connection: run the shutdown handshake before
    // unwinding (see `finish`), then let the error propagate.  The
    // handshake parks, so it runs after the handler has ended: a thread
    // must never block inside a catch handler (docs/SCHEDULER.md).
    failure = std::current_exception();
  }

  finish();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace mp::kv
