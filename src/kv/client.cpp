#include "kv/client.h"

#include "arch/panic.h"

namespace mp::kv {

void KvClient::flush() {
  if (outbuf_.empty()) return;
  out_.write_all(outbuf_.data(), outbuf_.size());
  outbuf_.clear();
}

void KvClient::recv_reply(Reply* out) {
  char chunk[4096];
  while (!parser_.next(out)) {
    const std::size_t n = in_.read_some(chunk, sizeof(chunk));
    MPNJ_CHECK(n > 0, "kv server closed mid-reply");
    parser_.feed(chunk, n);
  }
}

bool KvClient::set(std::string_view key, std::string_view value) {
  queue_set(key, value);
  flush();
  const Reply rep = recv_reply();
  return rep.kind == Reply::Kind::kSimple && rep.text == "OK";
}

bool KvClient::get(std::string_view key, std::string* value) {
  queue_get(key);
  flush();
  Reply rep = recv_reply();
  if (rep.kind != Reply::Kind::kBulk) return false;
  if (value != nullptr) *value = std::move(rep.text);
  return true;
}

long KvClient::del(std::string_view key) {
  queue_del(key);
  flush();
  const Reply rep = recv_reply();
  return rep.kind == Reply::Kind::kInt ? rep.ival : 0;
}

std::vector<std::pair<std::string, std::string>> KvClient::range(
    std::string_view lo, std::string_view hi, long limit) {
  queue_range(lo, hi, limit);
  flush();
  Reply rep = recv_reply();
  std::vector<std::pair<std::string, std::string>> out;
  if (rep.kind != Reply::Kind::kArray) return out;
  // RANGE arrays are flat k,v pairs; an odd tail would be a server bug.
  MPNJ_CHECK((rep.items.size() & 1) == 0, "odd RANGE array from server");
  out.reserve(rep.items.size() / 2);
  for (std::size_t i = 0; i + 1 < rep.items.size(); i += 2) {
    out.emplace_back(std::move(rep.items[i]), std::move(rep.items[i + 1]));
  }
  return out;
}

std::string KvClient::stats() {
  encode_stats(&outbuf_);
  flush();
  Reply rep = recv_reply();
  return rep.kind == Reply::Kind::kBulk ? std::move(rep.text) : std::string();
}

bool KvClient::ping() {
  encode_ping(&outbuf_);
  flush();
  const Reply rep = recv_reply();
  return rep.kind == Reply::Kind::kSimple && rep.text == "PONG";
}

void KvClient::quit() {
  encode_quit(&outbuf_);
  flush();
  recv_reply();  // +OK
  close();
}

}  // namespace mp::kv
