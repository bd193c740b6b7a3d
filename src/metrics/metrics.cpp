#include "metrics/metrics.h"

#include <cctype>
#include <cstdlib>

namespace mp::metrics {

namespace {

constexpr const char* kCounterNames[kNumCounters] = {
    "lock_acquires",         "lock_contended",        "lock_spin_iters",
    "lock_backoff_rounds",   "lock_park_waits",       "lock_handoffs",
    "gc_minor",              "gc_major",
    "gc_pause_us_total",
    "gc_rendezvous_ns",      "gc_remset_ns",          "gc_roots_ns",
    "gc_copy_ns",            "gc_reset_ns",
    "gc_words_copied",       "gc_words_copied_minor",
    "gc_words_copied_major", "gc_alloc_words",        "gc_allocs",
    "gc_stores_recorded",    "gc_chunk_grabs",        "gc_chunk_steals",
    "gc_large_allocs",
    "gc_cards_dirtied",      "gc_cards_scanned",      "gc_card_scan_words",
    "gc_card_flushes",       "gc_los_bytes_allocated", "gc_los_bytes_swept",
    "gc_los_sweeps",         "gc_los_marked",         "gc_los_scanned",
    "gc_par_collections",    "gc_par_workers",
    "gc_par_steals",         "gc_par_overflow_pushes", "gc_par_pad_words",
    "gc_par_term_rounds",    "sched_dispatches",      "sched_preempts",
    "sched_forks",           "sched_yields",          "sched_idle_polls",
    "sched_timer_fires",     "sched_idle_backoff",    "sched_steal_attempts",
    "sched_steal_commits",   "sched_park_waits",      "sched_park_wakeups",
    "cml_sends",             "cml_recvs",             "cml_select_retries",
    "cml_offers_parked",
    "io_wakeups",            "io_dispatch_batches",   "io_parked",
    "io_notifies",           "io_eintr_retries",      "io_bytes_read",
    "io_bytes_written",
    "kv_gets",               "kv_sets",               "kv_dels",
    "kv_ranges",             "kv_stats",              "kv_hits",
    "kv_misses",             "kv_proto_errors",       "kv_conns",
    "stack_commit_bytes",    "stack_decommit_bytes",  "cont_pool_hits",
    "cont_pool_misses",      "cont_pool_recycles",    "cont_pool_decommits",
    "cont_unwinds",
    "trace_dropped",
};

constexpr const char* kHistoNames[kNumHistos] = {
    "gc_pause_us",
    "gc_minor_pause_us",
    "gc_major_pause_us",
    "gc_par_worker_words",
    "gc_par_steals_per_gc",
    "gc_par_term_rounds_per_gc",
    "lock_spin_iters",
    "lock_hold_us",
    "lock_wait_us",
    "run_queue_depth",
    "sched_park_us",
    "sched_wake_to_dispatch_us",
    "io_wait_us",
    "io_batch_wakeups",
    "kv_queue_us_get",
    "kv_queue_us_set",
    "kv_queue_us_del",
    "kv_queue_us_range",
    "kv_req_us_get",
    "kv_req_us_set",
    "kv_req_us_del",
    "kv_req_us_range",
};

// Slot index for the calling thread; < 0 until bound or lazily assigned.
thread_local int tl_slot = -1;

}  // namespace

const char* counter_name(Counter c) {
  return kCounterNames[static_cast<std::size_t>(c)];
}

const char* histo_name(Histo h) {
  return kHistoNames[static_cast<std::size_t>(h)];
}

Registry::Registry() {
  // MPNJ_METRICS=0 in the environment disables collection at startup even in
  // instrumented builds, for apples-to-apples perf comparisons.
  if (const char* env = std::getenv("MPNJ_METRICS")) {
    if (env[0] == '0' && env[1] == '\0') enabled_.store(false);
  }
}

void Registry::bind_slot(int slot) {
  tl_slot = slot >= 0 ? slot % static_cast<int>(kMaxSlots) : -1;
}

void Registry::unbind_slot() { tl_slot = -1; }

Registry::Slot& Registry::slot() {
  int s = tl_slot;
  if (s < 0) {
    s = static_cast<int>(next_slot_.fetch_add(1, std::memory_order_relaxed) %
                         kMaxSlots);
    tl_slot = s;
  }
  return slots_[static_cast<std::size_t>(s)];
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  for (const Slot& s : slots_) {
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      out.counters[c] += s.counters[c].load(std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < kNumHistos; ++h) {
      out.histos[h].sum += s.histo_sum[h].load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kNumBuckets; ++b) {
        const std::uint64_t n =
            s.histo_buckets[h][b].load(std::memory_order_relaxed);
        out.histos[h].buckets[b] += n;
        out.histos[h].count += n;
      }
    }
  }
  return out;
}

std::uint64_t Registry::counter(Counter c) const {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) {
    total += s.counters[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }
  return total;
}

void Registry::reset() {
  for (Slot& s : slots_) {
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      s.counters[c].store(0, std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < kNumHistos; ++h) {
      s.histo_sum[h].store(0, std::memory_order_relaxed);
      for (std::size_t b = 0; b < kNumBuckets; ++b) {
        s.histo_buckets[h][b].store(0, std::memory_order_relaxed);
      }
    }
  }
}

Registry& registry() {
  static Registry instance;
  return instance;
}

std::string Snapshot::to_json() const {
  std::string out;
  out.reserve(2048);
  out += "{\"counters\":{";
  for (std::size_t c = 0; c < kNumCounters; ++c) {
    if (c != 0) out += ',';
    out += '"';
    out += kCounterNames[c];
    out += "\":";
    out += std::to_string(counters[c]);
  }
  out += "},\"histograms\":{";
  for (std::size_t h = 0; h < kNumHistos; ++h) {
    if (h != 0) out += ',';
    out += '"';
    out += kHistoNames[h];
    out += "\":{\"count\":";
    out += std::to_string(histos[h].count);
    out += ",\"sum\":";
    out += std::to_string(histos[h].sum);
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      if (b != 0) out += ',';
      out += std::to_string(histos[h].buckets[b]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

namespace {

// Hand-rolled cursor parser for exactly the JSON subset to_json emits
// (objects, arrays, string keys, unsigned integers — no escapes, no floats).
// Kept local: the platform has no JSON dependency and does not want one.
class Cursor {
 public:
  explicit Cursor(const std::string& s) : s_(s) {}

  bool literal(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool peek(char c) {
    skip_ws();
    return pos_ < s_.size() && s_[pos_] == c;
  }

  bool string(std::string* out) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    const std::size_t start = ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') return false;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    out->assign(s_, start, pos_ - start);
    ++pos_;
    return true;
  }

  bool number(std::uint64_t* out) {
    skip_ws();
    if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_])))
      return false;
    std::uint64_t v = 0;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      v = v * 10 + static_cast<std::uint64_t>(s_[pos_] - '0');
      ++pos_;
    }
    *out = v;
    return true;
  }

  bool done() {
    skip_ws();
    return pos_ >= s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

int counter_index(const std::string& name) {
  for (std::size_t c = 0; c < kNumCounters; ++c) {
    if (name == kCounterNames[c]) return static_cast<int>(c);
  }
  return -1;
}

int histo_index(const std::string& name) {
  for (std::size_t h = 0; h < kNumHistos; ++h) {
    if (name == kHistoNames[h]) return static_cast<int>(h);
  }
  return -1;
}

bool parse_histo(Cursor& cur, HistoSnapshot* out) {
  if (!cur.literal('{')) return false;
  if (cur.literal('}')) return true;
  do {
    std::string key;
    if (!cur.string(&key) || !cur.literal(':')) return false;
    if (key == "buckets") {
      if (!cur.literal('[')) return false;
      std::size_t b = 0;
      if (!cur.peek(']')) {
        do {
          std::uint64_t v = 0;
          if (!cur.number(&v)) return false;
          if (out != nullptr && b < kNumBuckets) out->buckets[b] = v;
          ++b;
        } while (cur.literal(','));
      }
      if (!cur.literal(']')) return false;
    } else {
      std::uint64_t v = 0;
      if (!cur.number(&v)) return false;
      if (out != nullptr) {
        if (key == "count") out->count = v;
        if (key == "sum") out->sum = v;
      }
    }
  } while (cur.literal(','));
  return cur.literal('}');
}

}  // namespace

bool Snapshot::from_json(const std::string& text, Snapshot* out) {
  Snapshot parsed;
  Cursor cur(text);
  if (!cur.literal('{')) return false;
  if (!cur.peek('}')) {
    do {
      std::string section;
      if (!cur.string(&section) || !cur.literal(':')) return false;
      if (!cur.literal('{')) return false;
      if (cur.literal('}')) continue;
      do {
        std::string key;
        if (!cur.string(&key) || !cur.literal(':')) return false;
        if (section == "counters") {
          std::uint64_t v = 0;
          if (!cur.number(&v)) return false;
          const int c = counter_index(key);
          if (c >= 0) parsed.counters[static_cast<std::size_t>(c)] = v;
        } else if (section == "histograms") {
          const int h = histo_index(key);
          HistoSnapshot* dest =
              h >= 0 ? &parsed.histos[static_cast<std::size_t>(h)] : nullptr;
          if (!parse_histo(cur, dest)) return false;
        } else {
          return false;
        }
      } while (cur.literal(','));
      if (!cur.literal('}')) return false;
    } while (cur.literal(','));
  }
  if (!cur.literal('}') || !cur.done()) return false;
  *out = parsed;
  return true;
}

}  // namespace mp::metrics
