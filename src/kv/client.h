#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "io/stream.h"
#include "kv/proto.h"

// Client-side convenience wrapper: one KvClient per connection, owned by one
// MLthread.  Two usage styles over the same ReplyParser:
//
//  - synchronous: set()/get()/del()/range()/stats()/ping() encode, flush,
//    and block (the thread, never the proc) for the reply;
//  - pipelined: queue_*() appends encoded requests to an outgoing buffer,
//    flush() pushes the whole batch in one write, recv_reply() drains the
//    replies in request order.  This is how the load generators keep a
//    window of requests in flight per connection; one that reads every
//    reply into the same Reply allocates nothing per reply once warm.

namespace mp::kv {

class KvClient {
 public:
  KvClient(io::Stream in, io::Stream out)
      : in_(std::move(in)), out_(std::move(out)) {}
  explicit KvClient(io::Duplex conn)
      : KvClient(std::move(conn.in), std::move(conn.out)) {}

  // ---- synchronous ops ----
  bool set(std::string_view key, std::string_view value);  // true on +OK
  bool get(std::string_view key, std::string* value);      // true on hit
  long del(std::string_view key);                          // keys removed
  std::vector<std::pair<std::string, std::string>> range(
      std::string_view lo, std::string_view hi, long limit = -1);
  std::string stats();  // raw STATS body ("keys=... bytes=... ...")
  bool ping();
  void quit();  // QUIT, await +OK, close both streams

  // ---- pipelining ----
  void queue_get(std::string_view key) { encode_get(&outbuf_, key); }
  void queue_set(std::string_view key, std::string_view value) {
    encode_set(&outbuf_, key, value);
  }
  void queue_del(std::string_view key) { encode_del(&outbuf_, key); }
  void queue_range(std::string_view lo, std::string_view hi, long limit = -1) {
    encode_range(&outbuf_, lo, hi, limit);
  }
  void queue_raw(std::string_view bytes) { outbuf_ += bytes; }
  void flush();
  // Next reply in request order, written over *out (ReplyParser::next);
  // blocks until one arrives.
  void recv_reply(Reply* out);
  Reply recv_reply() {
    Reply rep;
    recv_reply(&rep);
    return rep;
  }

  void close() {
    in_.close();
    out_.close();
  }

 private:
  io::Stream in_;
  io::Stream out_;
  std::string outbuf_;
  ReplyParser parser_;
};

}  // namespace mp::kv
