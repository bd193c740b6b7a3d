#pragma once

#include <cstddef>

#include "io/stream.h"
#include "kv/service.h"

// The per-connection serving layer: glue between an mp::io byte stream and
// the sharded KvService.  Each connection gets two MLthreads —
//
//  - the reader (the thread that calls serve) pulls bytes, runs the
//    incremental FrameParser, stamps each request with a per-connection
//    sequence number, and sorts what one read delivered into one batch per
//    owning shard, in arrival order.  A RANGE puts one probe into every
//    shard's batch.  Then it hands each batch to its shard with
//    KvService::submit (a rendezvous send, one per batch — the only
//    backpressure in the system);
//  - the writer receives applied batches on the connection's reply mailbox
//    (an asynchronous buffered channel: shards post them without ever
//    parking on a slow connection), puts every reply back at its sequence
//    number (one read's requests fan out across shards and complete in any
//    order), merges each RANGE's per-shard slices once the last one is in,
//    and flushes each contiguous run of replies with one coalesced
//    write_all per batch.
//
// Batches are recycled, not freed: the writer blanks each batch it has
// retired and hands it back to the reader on a per-connection free list,
// and the reader refills it in place, so a warmed-up connection serves a
// read without heap allocation (docs/KV.md, "Memory on the request path").
//
// Protocol errors, PING, and STATS never reach a shard: the reader answers
// them itself, in a batch of its own posted straight to the reply mailbox
// under the same sequence numbering, so pipelined replies stay in request
// order no matter what produced them.  STATS hands the connection's open
// batches on before it probes the shards, so it counts their writes.
//
// A stream error on the read side (ECONNRESET from a peer that closed with
// unread pipelined replies, say) is treated exactly like a disconnect: the
// connection drains its in-flight batches and serve() returns normally
// rather than letting the exception unwind past live channels.

namespace mp::kv {

struct ServeOptions {
  std::size_t read_chunk = 4096;  // reader's read_some granularity
};

// Serve one connection until the peer disconnects or sends QUIT.  Blocks the
// calling MLthread (it becomes the reader); the writer thread is forked and
// joined internally.  Streams are closed on return.
void serve(KvService& svc, io::Stream in, io::Stream out,
           ServeOptions opts = {});

inline void serve(KvService& svc, io::Duplex conn, ServeOptions opts = {}) {
  serve(svc, conn.in, conn.out, opts);
}

}  // namespace mp::kv
