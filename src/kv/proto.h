#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

// The mp::kv wire protocol (docs/KV.md): a pipelined, line-oriented text
// protocol in the RESP style, built for incremental parsing — both parsers
// below accept input one byte at a time and never assume a read boundary
// lines up with a frame boundary.
//
// Requests (`\n`-terminated; a `\r` before the `\n` is accepted):
//   GET <key>
//   SET <key> <vlen>       followed by exactly <vlen> raw value bytes + newline
//   DEL <key>
//   RANGE <lo> <hi> [<limit>]
//   STATS | PING | QUIT
//
// Replies (always `\r\n`-terminated):
//   +OK / +PONG            simple strings
//   -ERR <message>         protocol errors (the connection stays open)
//   :<n>                   integers (DEL count)
//   $<len>\r\n<bytes>\r\n  bulk strings (GET hit, STATS body)
//   $-1                    nil (GET miss)
//   *<n>                   array header; RANGE yields 2k bulk items (k,v,...)
//
// A malformed request line produces an error *request* from FrameParser
// (the server answers -ERR and keeps the connection) and the parser
// resynchronizes at the next newline; an oversized SET value is skipped
// byte-accurately so the stream stays framed.

namespace mp::kv {

inline constexpr std::size_t kMaxKeyBytes = 512;
inline constexpr std::size_t kMaxValueBytes = 1u << 20;
// A request line holds at most a verb + two keys + a limit.
inline constexpr std::size_t kMaxLineBytes = 2 * kMaxKeyBytes + 64;
// Ceiling on RANGE result pairs.  The parser rejects explicit limits above
// it, and the server clamps the no-limit default (-1) to it, so one RANGE
// can never materialize an unbounded slice of the store.
inline constexpr long kMaxRangeResults = 1 << 20;
// The most buffer bytes a parser, a batch of recycled requests or a
// connection's outgoing bytes keep for reuse.  A bigger buffer (a 1 MiB SET,
// a long RANGE reply) is released once it has been used, so one large
// request cannot pin memory on its connection.
inline constexpr std::size_t kKeepBytes = 64u << 10;

namespace detail {
// clear_kept's rare branch, out of line so that the common one inlines
// (the parser clears four strings per request).
template <class Buf>
[[gnu::noinline]] void release_buffer(Buf* b) {
  Buf().swap(*b);
}
}  // namespace detail

// Empties a string or vector for reuse.  Its buffer stays only while it fits
// in what is left of *budget, and uses that up; a bigger one is released.
template <class Buf>
void clear_kept(Buf* b, std::size_t* budget) {
  const std::size_t bytes = b->capacity() * sizeof(*b->data());
  if (bytes <= *budget) {
    *budget -= bytes;
    b->clear();
  } else {
    detail::release_buffer(b);
  }
}

// The same for a buffer kept on its own: it may keep up to kKeepBytes.
template <class Buf>
void clear_kept(Buf* b) {
  std::size_t budget = kKeepBytes;
  clear_kept(b, &budget);
}

enum class Op : std::uint8_t { kGet, kSet, kDel, kRange, kStats, kPing, kQuit };
const char* op_name(Op op);

struct Request {
  Op op = Op::kPing;
  std::string key;    // GET/SET/DEL key; RANGE lower bound
  std::string value;  // SET payload
  std::string hi;     // RANGE upper bound
  long limit = -1;    // RANGE limit (-1 = unbounded)
  // Non-empty: a protocol error to report in place of an operation.
  std::string error;
  bool ok() const { return error.empty(); }

  // Makes this a blank request of kind `kind`, keeping its strings' buffers
  // within *budget (clear_kept).  Every field is listed here and only here.
  void reset(Op kind, std::size_t* budget) {
    op = kind;
    clear_kept(&key, budget);
    clear_kept(&value, budget);
    clear_kept(&hi, budget);
    limit = -1;
    clear_kept(&error, budget);
  }
};

// Incremental request parser: feed() whatever arrived, then drain complete
// requests with next().  Protocol errors come out of next() as Requests
// with `error` set, in stream order, after the parser has discarded the
// malformed frame.  next() fills *out in place, keeping up to kKeepBytes of
// its strings' buffers, so a caller that reuses one Request parses without
// allocating.
class FrameParser {
 public:
  void feed(const void* data, std::size_t n);
  // True when a complete request (or error) was extracted into *out.  Every
  // field of *out is rewritten; a SET's payload is swapped in, so *out's
  // old value buffer becomes the parser's for the next SET.
  bool next(Request* out);
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  enum class Mode : std::uint8_t {
    kLine,          // scanning for a newline-terminated command line
    kValue,         // collecting a SET payload of value_need_ bytes
    kValueNl,       // expecting the newline after a SET payload
    kDiscardValue,  // skipping an oversized SET payload
    kDiscardLine,   // skipping to the next newline after a malformed line
  };

  bool parse_line(std::string_view line, Request* out);

  std::string buf_;
  std::size_t pos_ = 0;  // first unconsumed byte
  Mode mode_ = Mode::kLine;
  Request pending_;            // SET awaiting its payload
  std::size_t value_need_ = 0;  // bytes still to collect/discard
  const char* deferred_error_ = nullptr;  // reported once the discard completes
};

// ---- reply encoding (appends to *out; one call per frame) ----

void encode_ok(std::string* out);
void encode_pong(std::string* out);
void encode_error(std::string* out, std::string_view msg);
void encode_int(std::string* out, long v);
void encode_bulk(std::string* out, std::string_view v);
void encode_nil(std::string* out);
void encode_array_header(std::string* out, std::size_t items);

// ---- request encoding (the client half: load generators, tests) ----

void encode_get(std::string* out, std::string_view key);
void encode_set(std::string* out, std::string_view key, std::string_view value);
void encode_del(std::string* out, std::string_view key);
void encode_range(std::string* out, std::string_view lo, std::string_view hi,
                  long limit = -1);
void encode_stats(std::string* out);
void encode_ping(std::string* out);
void encode_quit(std::string* out);

// One decoded reply frame.
struct Reply {
  enum class Kind : std::uint8_t {
    kSimple,  // +...; text holds the body ("OK", "PONG")
    kError,   // -...; text holds the message
    kInt,     // :n
    kBulk,    // $n body; text holds the bytes
    kNil,     // $-1
    kArray,   // *n of bulk items; items holds them flat
  };
  Kind kind = Kind::kSimple;
  long ival = 0;
  std::string text;
  std::vector<std::string> items;
};

// Incremental reply parser (client side), same contract as FrameParser:
// next() rewrites every field of *out in place.
class ReplyParser {
 public:
  void feed(const void* data, std::size_t n);
  bool next(Reply* out);
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  enum class Mode : std::uint8_t { kLine, kBulkBody };

  bool take_line(std::string_view* line);

  std::string buf_;
  std::size_t pos_ = 0;
  Mode mode_ = Mode::kLine;
  std::size_t bulk_need_ = 0;
  std::vector<std::string> items_;  // the array being collected
  long array_left_ = 0;  // bulk items still owed to items_ (array mode)
  bool in_array_ = false;
};

}  // namespace mp::kv
