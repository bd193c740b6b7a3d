#pragma once

// Reply checking shared by both KV workloads: a reply is reduced to the
// FNV-1a digest of its canonical encoding (the kv/proto.h encoders), and a
// per-connection model predicts the digest of every expected reply.

#include <cstdint>
#include <string>
#include <string_view>

#include "kv/proto.h"

namespace perfbench {

inline std::uint64_t fnv(std::string_view s) {
  std::uint64_t acc = 1469598103934665603ull;
  for (const char c : s) acc = (acc ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return acc;
}

inline std::uint64_t reply_digest(const mp::kv::Reply& rep) {
  using Kind = mp::kv::Reply::Kind;
  std::string out;
  switch (rep.kind) {
    case Kind::kSimple:
      out = "+" + rep.text + "\r\n";
      break;
    case Kind::kError:
      out = "-ERR " + rep.text + "\r\n";
      break;
    case Kind::kInt:
      mp::kv::encode_int(&out, rep.ival);
      break;
    case Kind::kBulk:
      mp::kv::encode_bulk(&out, rep.text);
      break;
    case Kind::kNil:
      mp::kv::encode_nil(&out);
      break;
    case Kind::kArray:
      mp::kv::encode_array_header(&out, rep.items.size());
      for (const std::string& item : rep.items) mp::kv::encode_bulk(&out, item);
      break;
  }
  return fnv(out);
}

// xorshift64: the workloads' input generator (seeded, reproducible).
inline std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

}  // namespace perfbench
