#include "kv/server.h"

#include <algorithm>
#include <exception>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arch/panic.h"
#include "arch/sysio.h"
#include "cml/mailbox.h"
#include "metrics/metrics.h"

namespace mp::kv {

namespace {

#if MPNJ_METRICS
bool req_histo(Op op, metrics::Histo* out) {
  switch (op) {
    case Op::kGet:   *out = metrics::Histo::kKvReqUsGet; return true;
    case Op::kSet:   *out = metrics::Histo::kKvReqUsSet; return true;
    case Op::kDel:   *out = metrics::Histo::kKvReqUsDel; return true;
    case Op::kRange: *out = metrics::Histo::kKvReqUsRange; return true;
    default:         return false;
  }
}
#endif

// The writer half: receive finished requests, restore submission order, and
// flush each contiguous run as one coalesced write.  Returns once the fin
// sentinel's sequence number has been reached and everything before it is on
// the wire.
void writer_loop(KvService& svc, cml::Mailbox<std::uint64_t>& replies,
                 io::Stream& out) {
  (void)svc;  // only read for the latency metric below
  std::map<std::uint64_t, KvReq*> pending;  // completed, awaiting their turn
  std::uint64_t next_seq = 0;
  std::uint64_t fin_seq = 0;
  bool fin_seen = false;
  bool peer_gone = false;
  std::string batch;
  for (;;) {
    if (fin_seen && next_seq >= fin_seq) break;
    auto* r = reinterpret_cast<KvReq*>(replies.recv());
    if (r->fin) {
      // fin carries the total number of sequenced requests; nothing with
      // seq >= fin_seq will ever arrive.
      fin_seq = r->seq;
      fin_seen = true;
      delete r;
      continue;
    }
    pending.emplace(r->seq, r);
    // Flush the contiguous run starting at next_seq (reorder buffer drain):
    // out-of-order completions that piled up behind a gap go out in one
    // write_all once the gap fills.
    batch.clear();
    while (true) {
      auto it = pending.find(next_seq);
      if (it == pending.end()) break;
      KvReq* done = it->second;
      pending.erase(it);
#if MPNJ_METRICS
      metrics::Histo h;
      if (done->submit_us > 0 && metrics::registry().enabled() &&
          req_histo(done->req.op, &h)) {
        const double us =
            svc.scheduler().platform().now_us() - done->submit_us;
        metrics::record_value(h, us > 0 ? static_cast<std::uint64_t>(us) : 0);
      }
#endif
      batch += done->out;
      delete done;
      next_seq++;
    }
    if (!batch.empty() && !peer_gone) {
      try {
        out.write_all(batch.data(), batch.size());
      } catch (...) {
        // The peer hung up with replies in flight; keep draining the
        // mailbox (shards may still post into it, and every KvReq must be
        // freed and counted toward fin_seq) but stop writing.
        peer_gone = true;
      }
    }
  }
  for (auto& [seq, r] : pending) delete r;  // unreachable unless fin lied
}

}  // namespace

void serve(KvService& svc, io::Stream in, io::Stream out, ServeOptions opts) {
  MPNJ_METRIC_COUNT(kKvConns, 1);
  threads::Scheduler& sched = svc.scheduler();
  cml::Mailbox<std::uint64_t> replies(sched);
  threads::CountdownLatch writer_done(sched, 1);
  sched.fork(
      [&] {
        writer_loop(svc, replies, out);
        writer_done.count_down();
      },
      threads::Scheduler::SpawnOpts{}
          .with_stack(cont::StackClass::kSmall)
          .with_name("kv-writer"));

  // Private mailbox for multi-shard fan-outs (RANGE probes): replies to
  // scatter probes come back here, never through the writer.
  cml::Mailbox<std::uint64_t> gather(sched);

  // Reader-side direct answer: skip the shards but keep the sequence slot,
  // so pipelined replies stay in request order.
  std::uint64_t next_seq = 0;
  auto answer = [&](const Request& req, std::string reply_bytes) {
    auto* r = new KvReq;
    r->req = req;
    r->out = std::move(reply_bytes);
    r->seq = next_seq;
    r->reply = &replies;
    try {
      replies.send(reinterpret_cast<std::uint64_t>(r));
    } catch (...) {
      delete r;
      throw;
    }
    // Only after the enqueue: a seq allocated but never delivered would be
    // a permanent gap in the writer's reorder window, and the fin handshake
    // would never complete.
    next_seq++;
  };

  // The shutdown handshake, which must run on EVERY exit path: the fin
  // sentinel tells the writer no request will ever carry seq >= next_seq,
  // and the await guarantees the writer has retired every outstanding KvReq
  // before the stack-allocated mailboxes and latch above are destroyed.
  // Skipping it (e.g. by unwinding on a socket error) would free channels
  // that the writer thread and in-flight shard replies still reference.
  auto finish = [&] {
    auto* fin = new KvReq;
    fin->fin = true;
    fin->seq = next_seq;
    replies.send(reinterpret_cast<std::uint64_t>(fin));
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
    while (parser.next(&req)) {
      if (!req.ok()) {
        MPNJ_METRIC_COUNT(kKvProtoErrors, 1);
        std::string e;
        encode_error(&e, req.error);
        answer(req, std::move(e));
        continue;
      }
      switch (req.op) {
        case Op::kPing: {
          std::string e;
          encode_pong(&e);
          answer(req, std::move(e));
          break;
        }
        case Op::kQuit: {
          std::string e;
          encode_ok(&e);
          answer(req, std::move(e));
          quitting = true;
          break;
        }
        case Op::kRange: {
          MPNJ_METRIC_COUNT(kKvRanges, 1);
#if MPNJ_METRICS
          const double start_us = sched.platform().now_us();
#endif
          // Scatter: rendezvous hashing spreads adjacent keys across
          // shards, so every shard owns a slice of [lo, hi].  Probe them
          // all, then merge the sorted slices and apply the limit.  The
          // no-limit default (-1) is clamped to the same ceiling the parser
          // enforces on explicit limits, so one RANGE over a large store
          // cannot materialize unbounded payload copies (per-shard slices,
          // the merged vector, and the encoded reply).
          const long limit =
              req.limit < 0 ? kMaxRangeResults
                            : std::min(req.limit, kMaxRangeResults);
          const int n_shards = svc.shards();
          std::vector<KvReq> probes(static_cast<std::size_t>(n_shards));
          for (int s = 0; s < n_shards; s++) {
            probes[static_cast<std::size_t>(s)].req = req;
            probes[static_cast<std::size_t>(s)].req.limit = limit;
            probes[static_cast<std::size_t>(s)].reply = &gather;
            svc.submit_to(s, &probes[static_cast<std::size_t>(s)]);
          }
          std::vector<std::pair<std::string, std::string>> merged;
          // Gather ALL probes before anything can unwind: shards hold
          // pointers into the stack-allocated `probes` until each posts
          // back, so a merge failure must not abandon outstanding probes.
          std::exception_ptr merge_err;
          for (int s = 0; s < n_shards; s++) {
            auto* p = reinterpret_cast<KvReq*>(gather.recv());
            if (merge_err) continue;
            try {
              merged.insert(merged.end(),
                            std::make_move_iterator(p->range_out.begin()),
                            std::make_move_iterator(p->range_out.end()));
            } catch (...) {
              merge_err = std::current_exception();
            }
          }
          if (merge_err) std::rethrow_exception(merge_err);
          std::sort(merged.begin(), merged.end());
          if (merged.size() > static_cast<std::size_t>(limit)) {
            merged.resize(static_cast<std::size_t>(limit));
          }
          std::string e;
          encode_array_header(&e, merged.size() * 2);
          for (const auto& [k, v] : merged) {
            encode_bulk(&e, k);
            encode_bulk(&e, v);
          }
#if MPNJ_METRICS
          if (metrics::registry().enabled()) {
            const double us = sched.platform().now_us() - start_us;
            metrics::record_value(metrics::Histo::kKvReqUsRange,
                                  us > 0 ? static_cast<std::uint64_t>(us) : 0);
          }
#endif
          answer(req, std::move(e));
          break;
        }
        case Op::kStats: {
          // Fan the probe out from the reader; shards only ever see
          // single-shard requests.
          const ShardStats st = svc.stats();
          std::string body = "keys=" + std::to_string(st.keys) +
                             " bytes=" + std::to_string(st.bytes) +
                             " ops=" + std::to_string(st.ops) +
                             " shards=" + std::to_string(st.shards);
          std::string e;
          encode_bulk(&e, body);
          answer(req, std::move(e));
          break;
        }
        default: {
          auto* r = new KvReq;
          r->req = std::move(req);
          r->seq = next_seq;
          r->reply = &replies;
          svc.submit(r);  // rendezvous: parks until the shard accepts
          next_seq++;     // seq advances only once the shard owns the req
          req = Request{};
          break;
        }
      }
      if (quitting) break;
    }
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
