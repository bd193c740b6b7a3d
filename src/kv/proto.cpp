#include "kv/proto.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>

namespace mp::kv {

namespace {

// The most array items ReplyParser reserves for on a header's word.
constexpr std::uint64_t kReserveItems = 1024;

// Strict unsigned-decimal parse (no sign, no blanks); false on overflow or
// a non-digit.
bool parse_u64(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    if (v > (UINT64_MAX - 9) / 10) return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

// Rewrites every field of *r for a request or reply of kind `op`, keeping
// its buffers (a request's up to kKeepBytes of them).
void reset(Request* r, Op op) {
  std::size_t budget = kKeepBytes;
  r->reset(op, &budget);
}

void reset(Reply* r, Reply::Kind kind) {
  r->kind = kind;
  r->ival = 0;
  r->text.clear();
  r->items.clear();
}

// Drops a parser buffer's consumed prefix.  A fully consumed buffer starts
// over without moving a byte (and gives back a buffer a large frame grew
// past kKeepBytes); otherwise the prefix goes once it dominates, so
// long-lived connections do not accumulate dead bytes.
void compact(std::string* buf, std::size_t* pos) {
  if (*pos == buf->size()) {
    clear_kept(buf);
    *pos = 0;
  } else if (*pos > 4096 && *pos * 2 > buf->size()) {
    buf->erase(0, *pos);
    *pos = 0;
  }
}

void append_decimal(std::string* out, long v) {
  char digits[24];
  const auto res = std::to_chars(digits, digits + sizeof digits, v);
  out->append(digits, res.ptr);
}

// A reply header line, "<tag><n>\r\n", appended in one piece.
void append_header(std::string* out, char tag, long n) {
  char line[24];
  line[0] = tag;
  char* end = std::to_chars(line + 1, line + sizeof line - 2, n).ptr;
  *end++ = '\r';
  *end++ = '\n';
  out->append(line, end);
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kGet:   return "GET";
    case Op::kSet:   return "SET";
    case Op::kDel:   return "DEL";
    case Op::kRange: return "RANGE";
    case Op::kStats: return "STATS";
    case Op::kPing:  return "PING";
    case Op::kQuit:  return "QUIT";
  }
  return "?";
}

// ---- FrameParser ----

void FrameParser::feed(const void* data, std::size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

bool FrameParser::parse_line(std::string_view line, Request* out) {
  // Tokenize on runs of spaces (keys cannot contain spaces or newlines).
  std::string_view tok[4];
  std::size_t ntok = 0;
  bool overflow = false;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') i++;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ') j++;
    if (j > i) {
      if (ntok < 4) {
        tok[ntok++] = line.substr(i, j - i);
      } else {
        overflow = true;
      }
    }
    i = j;
  }
  if (ntok == 0) return false;  // all-blank line: ignored, stay in kLine

  const auto err = [out](const char* msg) {
    reset(out, Op::kPing);
    out->error = msg;
    return true;
  };
  if (overflow) return err("too many arguments");

  const std::string_view verb = tok[0];
  if (verb == "GET" || verb == "DEL") {
    if (ntok != 2) return err("expected: GET|DEL <key>");
    if (tok[1].size() > kMaxKeyBytes) return err("key too long");
    reset(out, verb == "GET" ? Op::kGet : Op::kDel);
    out->key.assign(tok[1].data(), tok[1].size());
    return true;
  }
  if (verb == "SET") {
    if (ntok != 3) return err("expected: SET <key> <vlen>");
    std::uint64_t vlen = 0;
    if (!parse_u64(tok[2], &vlen)) return err("bad value length");
    if (tok[1].size() > kMaxKeyBytes) {
      // The payload is on the wire regardless; skip it byte-accurately so
      // the stream stays framed, then report.
      mode_ = Mode::kDiscardValue;
      value_need_ = static_cast<std::size_t>(vlen);
      deferred_error_ = "key too long";
      return false;
    }
    if (vlen > kMaxValueBytes) {
      mode_ = Mode::kDiscardValue;
      value_need_ = static_cast<std::size_t>(vlen);
      deferred_error_ = "value too long";
      return false;
    }
    pending_.key.assign(tok[1].data(), tok[1].size());
    mode_ = Mode::kValue;
    value_need_ = static_cast<std::size_t>(vlen);
    return false;
  }
  if (verb == "RANGE") {
    if (ntok != 3 && ntok != 4) {
      return err("expected: RANGE <lo> <hi> [<limit>]");
    }
    if (tok[1].size() > kMaxKeyBytes || tok[2].size() > kMaxKeyBytes) {
      return err("key too long");
    }
    long limit = -1;
    if (ntok == 4) {
      std::uint64_t l = 0;
      if (!parse_u64(tok[3], &l) ||
          l > static_cast<std::uint64_t>(kMaxRangeResults)) {
        return err("bad limit");
      }
      limit = static_cast<long>(l);
    }
    reset(out, Op::kRange);
    out->key.assign(tok[1].data(), tok[1].size());
    out->hi.assign(tok[2].data(), tok[2].size());
    out->limit = limit;
    return true;
  }
  if (verb == "STATS" || verb == "PING" || verb == "QUIT") {
    if (ntok != 1) return err("unexpected arguments");
    reset(out, verb == "STATS" ? Op::kStats
               : verb == "PING" ? Op::kPing
                                : Op::kQuit);
    return true;
  }
  return err("unknown command");
}

bool FrameParser::next(Request* out) {
  for (;;) {
    switch (mode_) {
      case Mode::kLine: {
        const std::size_t nl = buf_.find('\n', pos_);
        if (nl == std::string::npos) {
          if (buf_.size() - pos_ > kMaxLineBytes) {
            // No newline in a whole line's worth of bytes: discard until
            // one shows up, then report once.
            mode_ = Mode::kDiscardLine;
            deferred_error_ = "line too long";
            continue;
          }
          compact(&buf_, &pos_);
          return false;
        }
        std::string_view line(buf_.data() + pos_, nl - pos_);
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        pos_ = nl + 1;
        if (line.size() > kMaxLineBytes) {
          reset(out, Op::kPing);
          out->error = "line too long";
          return true;
        }
        if (parse_line(line, out)) return true;
        continue;  // blank line, or a SET/discard that changed mode
      }
      case Mode::kValue: {
        if (buf_.size() - pos_ < value_need_) {
          compact(&buf_, &pos_);
          return false;
        }
        pending_.value.assign(buf_, pos_, value_need_);
        pos_ += value_need_;
        value_need_ = 0;
        mode_ = Mode::kValueNl;
        continue;
      }
      case Mode::kValueNl: {
        if (pos_ >= buf_.size()) {
          compact(&buf_, &pos_);
          return false;
        }
        const char c = buf_[pos_];
        if (c == '\r' && buf_.size() - pos_ < 2) {
          compact(&buf_, &pos_);
          return false;
        }
        const std::size_t nl = c == '\n' ? 1 : c == '\r' ? 2 : 0;
        if (nl == 0 || buf_[pos_ + nl - 1] != '\n') {
          mode_ = Mode::kDiscardLine;
          deferred_error_ = "value not newline-terminated";
          clear_kept(&pending_.value);
          continue;
        }
        pos_ += nl;
        mode_ = Mode::kLine;
        reset(out, Op::kSet);
        out->key.swap(pending_.key);
        out->value.swap(pending_.value);
        return true;
      }
      case Mode::kDiscardValue: {
        const std::size_t drop = std::min(buf_.size() - pos_, value_need_);
        pos_ += drop;
        value_need_ -= drop;
        if (value_need_ > 0) {
          compact(&buf_, &pos_);
          return false;
        }
        mode_ = Mode::kDiscardLine;  // eat the payload's trailing newline
        continue;
      }
      case Mode::kDiscardLine: {
        const std::size_t nl = buf_.find('\n', pos_);
        if (nl == std::string::npos) {
          pos_ = buf_.size();
          compact(&buf_, &pos_);
          return false;
        }
        pos_ = nl + 1;
        mode_ = Mode::kLine;
        reset(out, Op::kPing);
        out->error = deferred_error_;
        return true;
      }
    }
  }
}

// ---- reply encoding ----

void encode_ok(std::string* out) { out->append("+OK\r\n"); }
void encode_pong(std::string* out) { out->append("+PONG\r\n"); }

void encode_error(std::string* out, std::string_view msg) {
  out->append("-ERR ");
  out->append(msg.data(), msg.size());
  out->append("\r\n");
}

void encode_int(std::string* out, long v) { append_header(out, ':', v); }

void encode_bulk(std::string* out, std::string_view v) {
  append_header(out, '$', static_cast<long>(v.size()));
  out->append(v.data(), v.size());
  out->append("\r\n", 2);
}

void encode_nil(std::string* out) { out->append("$-1\r\n"); }

void encode_array_header(std::string* out, std::size_t items) {
  append_header(out, '*', static_cast<long>(items));
}

// ---- request encoding ----

void encode_get(std::string* out, std::string_view key) {
  out->append("GET ");
  out->append(key.data(), key.size());
  out->push_back('\n');
}

void encode_set(std::string* out, std::string_view key, std::string_view value) {
  out->append("SET ");
  out->append(key.data(), key.size());
  out->push_back(' ');
  append_decimal(out, static_cast<long>(value.size()));
  out->push_back('\n');
  out->append(value.data(), value.size());
  out->push_back('\n');
}

void encode_del(std::string* out, std::string_view key) {
  out->append("DEL ");
  out->append(key.data(), key.size());
  out->push_back('\n');
}

void encode_range(std::string* out, std::string_view lo, std::string_view hi,
                  long limit) {
  out->append("RANGE ");
  out->append(lo.data(), lo.size());
  out->push_back(' ');
  out->append(hi.data(), hi.size());
  if (limit >= 0) {
    out->push_back(' ');
    append_decimal(out, limit);
  }
  out->push_back('\n');
}

void encode_stats(std::string* out) { out->append("STATS\n"); }
void encode_ping(std::string* out) { out->append("PING\n"); }
void encode_quit(std::string* out) { out->append("QUIT\n"); }

// ---- ReplyParser ----

void ReplyParser::feed(const void* data, std::size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

bool ReplyParser::take_line(std::string_view* line) {
  const std::size_t nl = buf_.find('\n', pos_);
  if (nl == std::string::npos) {
    compact(&buf_, &pos_);
    return false;
  }
  *line = std::string_view(buf_.data() + pos_, nl - pos_);
  if (!line->empty() && line->back() == '\r') line->remove_suffix(1);
  pos_ = nl + 1;
  return true;
}

bool ReplyParser::next(Reply* out) {
  for (;;) {
    switch (mode_) {
      case Mode::kLine: {
        std::string_view line;
        if (!take_line(&line)) return false;
        if (line.empty()) continue;
        const char tag = line.front();
        const std::string_view body = line.substr(1);
        if (tag == '$') {
          if (body == "-1") {
            if (in_array_) continue;  // nil never appears inside RANGE arrays
            reset(out, Reply::Kind::kNil);
            return true;
          }
          std::uint64_t n = 0;
          if (!parse_u64(body, &n)) continue;  // malformed header: skip
          bulk_need_ = static_cast<std::size_t>(n);
          mode_ = Mode::kBulkBody;
          continue;
        }
        if (tag == '*') {
          std::uint64_t n = 0;
          if (!parse_u64(body, &n)) continue;
          if (n == 0) {
            reset(out, Reply::Kind::kArray);
            return true;
          }
          // n comes off the wire: reserve up front, but no more than a
          // modest array's worth on its word.
          items_.clear();
          items_.reserve(static_cast<std::size_t>(
              std::min<std::uint64_t>(n, kReserveItems)));
          in_array_ = true;
          array_left_ = static_cast<long>(n);
          continue;
        }
        if (tag == '+') {
          reset(out, Reply::Kind::kSimple);
          out->text.assign(body.data(), body.size());
        } else if (tag == '-') {
          reset(out, Reply::Kind::kError);
          // Strip the conventional "ERR " prefix for callers.
          std::string_view msg = body;
          if (msg.substr(0, 4) == "ERR ") msg.remove_prefix(4);
          out->text.assign(msg.data(), msg.size());
        } else if (tag == ':') {
          reset(out, Reply::Kind::kInt);
          out->ival = std::strtol(std::string(body).c_str(), nullptr, 10);
        } else {
          continue;  // unknown frame tag: skip the line
        }
        return true;
      }
      case Mode::kBulkBody: {
        const std::size_t have = buf_.size() - pos_;
        if (have < bulk_need_ + 1) {
          compact(&buf_, &pos_);
          return false;
        }
        std::size_t term = 1;
        if (buf_[pos_ + bulk_need_] == '\r') {
          if (have < bulk_need_ + 2) {
            compact(&buf_, &pos_);
            return false;
          }
          term = 2;
        }
        const std::size_t at = pos_;
        pos_ += bulk_need_ + term;
        mode_ = Mode::kLine;
        if (in_array_) {
          items_.emplace_back(buf_, at, bulk_need_);
          if (--array_left_ == 0) {
            in_array_ = false;
            reset(out, Reply::Kind::kArray);
            out->items.swap(items_);
            return true;
          }
          continue;
        }
        reset(out, Reply::Kind::kBulk);
        out->text.assign(buf_, at, bulk_need_);
        return true;
      }
    }
  }
}

}  // namespace mp::kv
