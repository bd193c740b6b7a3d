#include "kv/server.h"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <exception>
#include <iterator>
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

// One reply the writer owes, at its place in submission order.
struct Slot {
  bool ready = false;
  std::string out;
  // RANGE: per-shard slices still to come, the sorted merge of those that
  // arrived, and the earliest submission among their batches (negative when
  // one of them has no stamp).
  int slices_left = 0;
  std::vector<std::pair<std::string, std::string>> merged;
  double submit_us = std::numeric_limits<double>::infinity();
};

// The writer half: receive batches (applied ones from the shards, the
// reader's own answers straight from the reader), put every reply at its
// sequence number (one read's requests fan out over shard batches that come
// back in any order), merge each RANGE's slices when the last one arrives,
// and flush each contiguous run of finished replies as one coalesced write.
// Returns once the reader's fin has arrived and every batch it handed on has
// come back.
void writer_loop(KvService& svc, cml::Mailbox<std::uint64_t>& replies,
                 const std::uint64_t& handed, io::Stream& out) {
  Platform& plat = svc.scheduler().platform();
  const int n_shards = svc.shards();
  std::deque<Slot> window;  // window[i] is the reply with seq next_seq + i
  std::uint64_t next_seq = 0;
  std::uint64_t received = 0;
  // Batches to retire before returning: unknown until the reader's fin.
  std::uint64_t expected = std::numeric_limits<std::uint64_t>::max();
  bool peer_gone = false;
  std::string wire;
  while (received < expected) {
    const std::uint64_t raw = replies.recv();
    if (raw == 0) {
      expected = handed;  // fin: the reader has handed on its last batch
      continue;
    }
    const std::unique_ptr<KvBatch> b(reinterpret_cast<KvBatch*>(raw));
    received++;
    for (KvReq& r : b->reqs) {
      MPNJ_CHECK(r.seq >= next_seq, "kv reply sequenced twice");
      if (r.seq - next_seq >= window.size()) {
        window.resize(r.seq - next_seq + 1);
      }
      Slot& s = window[r.seq - next_seq];
      if (r.req.op != Op::kRange) {
        s.out = std::move(r.out);
        s.ready = true;
        record_req_us(plat, r.req.op, b->submit_us);
        continue;
      }
      // One shard's slice of a RANGE: merge it into the sorted run so far.
      if (s.slices_left == 0) s.slices_left = n_shards;  // its first slice
      s.submit_us = std::min(s.submit_us, b->submit_us);
      const auto mid = static_cast<std::ptrdiff_t>(s.merged.size());
      s.merged.insert(s.merged.end(),
                      std::make_move_iterator(r.range_out.begin()),
                      std::make_move_iterator(r.range_out.end()));
      std::inplace_merge(s.merged.begin(), s.merged.begin() + mid,
                         s.merged.end());
      // Every probe carries the clamped limit and each shard honoured it
      // alone, so cutting after every merge keeps at most 2 x limit pairs.
      const auto limit = static_cast<std::size_t>(r.req.limit);
      if (s.merged.size() > limit) s.merged.resize(limit);
      if (--s.slices_left > 0) continue;
      encode_array_header(&s.out, s.merged.size() * 2);
      for (const auto& [k, v] : s.merged) {
        encode_bulk(&s.out, k);
        encode_bulk(&s.out, v);
      }
      s.merged = {};
      s.ready = true;
      record_req_us(plat, Op::kRange, s.submit_us);
    }
    // Flush the contiguous run starting at next_seq: replies that piled up
    // behind a gap go out in one write_all once the gap fills.
    wire.clear();
    while (!window.empty() && window.front().ready) {
      wire += window.front().out;
      window.pop_front();
      next_seq++;
    }
    if (!wire.empty() && !peer_gone) {
      try {
        out.write_all(wire.data(), wire.size());
      } catch (...) {
        // The peer hung up with replies in flight; keep draining the
        // mailbox (shards may still post into it, and every batch must be
        // freed and counted toward the fin) but stop writing.
        peer_gone = true;
      }
    }
  }
}

}  // namespace

void serve(KvService& svc, io::Stream in, io::Stream out, ServeOptions opts) {
  MPNJ_METRIC_COUNT(kKvConns, 1);
  threads::Scheduler& sched = svc.scheduler();
  cml::Mailbox<std::uint64_t> replies(sched);
  std::uint64_t handed = 0;  // batches on their way to the writer
  threads::CountdownLatch writer_done(sched, 1);
  sched.fork(
      [&] {
        writer_loop(svc, replies, handed, out);
        writer_done.count_down();
      },
      threads::Scheduler::SpawnOpts{}
          .with_stack(cont::StackClass::kSmall)
          .with_name("kv-writer"));

  // The batches the current read is filling: one per shard, and last the
  // replies the reader answers itself.  The reader owns each one until it
  // has been handed on.
  const int n_shards = svc.shards();
  std::vector<std::unique_ptr<KvBatch>> open(
      static_cast<std::size_t>(n_shards) + 1);
  const auto batch_for = [&](int slot) -> KvBatch& {
    std::unique_ptr<KvBatch>& b = open[static_cast<std::size_t>(slot)];
    if (!b) {
      b = std::make_unique<KvBatch>();
      b->reply = &replies;
    }
    return *b;
  };
  std::uint64_t next_seq = 0;

  // Reader-side direct answer: skip the shards but keep the sequence slot,
  // so pipelined replies stay in request order.
  const auto answer = [&](std::string reply_bytes) {
    KvReq& r = batch_for(n_shards).reqs.emplace_back();
    r.out = std::move(reply_bytes);
    r.seq = next_seq++;
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
    in.close();
    out.close();
  };

  FrameParser parser;
  std::vector<char> chunk(opts.read_chunk > 0 ? opts.read_chunk : 4096);
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
        std::string e;
        encode_error(&e, req.error);
        answer(std::move(e));
        continue;
      }
      switch (req.op) {
        case Op::kPing: {
          std::string e;
          encode_pong(&e);
          answer(std::move(e));
          break;
        }
        case Op::kQuit: {
          std::string e;
          encode_ok(&e);
          answer(std::move(e));
          quitting = true;
          break;
        }
        case Op::kRange: {
          MPNJ_METRIC_COUNT(kKvRanges, 1);
          // Scatter: rendezvous hashing spreads adjacent keys across
          // shards, so every shard owns a slice of [lo, hi].  One probe
          // rides in each shard's batch under the RANGE's sequence number,
          // and the writer merges the slices and applies the limit.  The
          // no-limit default (-1) is clamped to the same ceiling the parser
          // enforces on explicit limits, so one RANGE over a large store
          // cannot materialize unbounded payload copies (per-shard slices,
          // the merged vector, and the encoded reply).
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
          std::string body = "keys=" + std::to_string(st.keys) +
                             " bytes=" + std::to_string(st.bytes) +
                             " ops=" + std::to_string(st.ops) +
                             " shards=" + std::to_string(st.shards);
          std::string e;
          encode_bulk(&e, body);
          answer(std::move(e));
          break;
        }
        default: {
          KvReq& r = batch_for(svc.shard_of(req.key)).reqs.emplace_back();
          r.req = std::move(req);
          r.seq = next_seq++;
          req = Request{};
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
