#include "gc/heap.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "arch/tas.h"
#include "cont/cont.h"
#include "fuzz/hooks.h"
#include "gc/object_layout.h"
#include "metrics/metrics.h"

namespace mp::gc {

namespace {

constexpr std::size_t kWord = kWordBytes;
constexpr std::size_t kMaxInlineFields = 64;
// Newly dirtied cards queue per proc and flush to the global list in batches;
// the buffer is tiny because a card can only be queued once per collection
// cycle (the dirty byte filters duplicates).
constexpr std::size_t kCardBufCap = 64;

bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

// RAII temp root frame used inside allocation: roots the allocation's own
// argument values so a collection triggered by the slow path (or by another
// proc at the charge point) updates them.
class TempRoots {
 public:
  TempRoots(Value* slots, std::size_t n) {
    cont::ExecContext* ex = cont::current_exec();
    MPNJ_CHECK(ex != nullptr && ex->seg != nullptr,
               "heap allocation outside a proc's client context");
    hdr_.prev = static_cast<RootFrameHdr*>(ex->root_head);
    hdr_.slots = slots;
    hdr_.count = n;
    ex->root_head = &hdr_;
  }
  ~TempRoots() {
    // Pop from the current proc: a preemption delivered at the allocation's
    // charge point may have migrated the thread.
    cont::ExecContext* ex = cont::current_exec();
    MPNJ_CHECK(ex != nullptr && ex->root_head == &hdr_,
               "allocation root frame popped out of order");
    ex->root_head = hdr_.prev;
  }

 private:
  RootFrameHdr hdr_;
};

}  // namespace

// ----- configuration -----

bool HeapConfig::default_verify_after_phase() {
#ifndef NDEBUG
  return true;
#else
  return false;
#endif
}

void HeapConfig::validate() const {
  if (chunks_per_proc == 0) {
    arch::panic(
        "HeapConfig: chunks_per_proc is 0; a zero-chunk nursery can never "
        "satisfy an allocation (use with_chunks_per_proc(n >= 1))");
  }
  if (!is_pow2(nursery_bytes)) {
    arch::panic(
        "HeapConfig: nursery_bytes (%zu) must be a non-zero power of two",
        nursery_bytes);
  }
  if (!is_pow2(old_bytes)) {
    arch::panic(
        "HeapConfig: old_bytes (%zu) must be a non-zero power of two",
        old_bytes);
  }
  if (!(major_fraction > 0.0) || major_fraction > 1.0) {
    arch::panic(
        "HeapConfig: major_fraction (%f) must be in (0, 1]", major_fraction);
  }
  if (!is_pow2(par_block_words) || par_block_words < 64) {
    arch::panic(
        "HeapConfig: par_block_words (%zu) must be a power of two >= 64",
        par_block_words);
  }
  if (!is_pow2(card_bytes) || card_bytes < 64) {
    arch::panic(
        "HeapConfig: card_bytes (%zu) must be a power of two >= 64",
        card_bytes);
  }
  if (card_bytes > old_bytes) {
    arch::panic(
        "HeapConfig: card_bytes (%zu) exceeds old_bytes (%zu)", card_bytes,
        old_bytes);
  }
  if (card_bytes > par_block_words * kWordBytes) {
    arch::panic(
        "HeapConfig: card_bytes (%zu) exceeds par_block_words * 8 (%zu); "
        "parallel promotion blocks must cover whole cards",
        card_bytes, par_block_words * kWordBytes);
  }
  if (los_threshold_bytes < card_bytes) {
    arch::panic(
        "HeapConfig: los_threshold_bytes (%zu) below card_bytes (%zu); "
        "large objects must not be cheaper to remember than a card",
        los_threshold_bytes, card_bytes);
  }
  if (los_bytes == 0 || los_bytes % LargeObjectSpace::kPageBytes != 0) {
    arch::panic(
        "HeapConfig: los_bytes (%zu) must be a non-zero multiple of the "
        "%zu-byte page",
        los_bytes, LargeObjectSpace::kPageBytes);
  }
  if (!(los_pressure_fraction > 0.0) || los_pressure_fraction > 1.0) {
    arch::panic(
        "HeapConfig: los_pressure_fraction (%f) must be in (0, 1]",
        los_pressure_fraction);
  }
}

Heap::Heap(const HeapConfig& config, Rendezvous& rendezvous,
           Accounting& accounting)
    : cfg_(config),
      rendezvous_(rendezvous),
      accounting_(accounting),
      copier_(config.par_block_words) {
  cfg_.validate();
  nursery_words_ = cfg_.nursery_bytes / kWord;
  const std::size_t nproc = static_cast<std::size_t>(rendezvous_.nproc());
  num_chunks_ = std::max<std::size_t>(1, nproc * cfg_.chunks_per_proc);
  chunk_words_ = nursery_words_ / num_chunks_;
  MPNJ_CHECK(chunk_words_ >= 64, "nursery chunks too small; grow the nursery");
  nursery_ = new std::uint64_t[nursery_words_];
  old_words_ = cfg_.old_bytes / kWord;
  old_a_ = new std::uint64_t[old_words_];
  old_b_ = new std::uint64_t[old_words_];
  old_cur_ = old_a_;
  old_alloc_ = old_a_;
  if (cfg_.remset == RemsetMode::kCard) {
    cards_.init(old_words_, cfg_.card_bytes / kWord);
  }
  los_.init(cfg_.los_bytes);
  proc_heaps_.resize(nproc);
  for (auto& ph : proc_heaps_) ph.card_buf.reserve(kCardBufCap);
  free_chunks_.reserve(num_chunks_);
  for (std::size_t i = num_chunks_; i > 0; i--) {
    free_chunks_.push_back(static_cast<std::uint32_t>(i - 1));
  }
  baseline_ = metrics::registry().snapshot();
}

Heap::~Heap() {
  MPNJ_CHECK(global_roots_ == nullptr,
             "heap destroyed while GlobalRoots are still registered");
  delete[] nursery_;
  delete[] old_a_;
  delete[] old_b_;
}

bool Heap::in_nursery(Value v) const {
  if (!v.is_ptr()) return false;
  auto* p = reinterpret_cast<std::uint64_t*>(v.raw_bits());
  return p >= nursery_ && p < nursery_ + nursery_words_;
}

bool Heap::in_old_space(Value v) const {
  if (!v.is_ptr()) return false;
  auto* p = reinterpret_cast<std::uint64_t*>(v.raw_bits());
  return p >= old_cur_ && p < old_alloc_;
}

bool Heap::in_los(Value v) const {
  if (!v.is_ptr()) return false;
  auto* p = reinterpret_cast<std::uint64_t*>(v.raw_bits());
  return los_.contains(p);
}

std::size_t Heap::old_space_used_words() const {
  return static_cast<std::size_t>(old_alloc_ - old_cur_);
}

std::size_t Heap::nursery_free_chunks() const { return free_chunks_.size(); }

HeapStats Heap::stats() const {
  const metrics::Snapshot now = metrics::registry().snapshot();
  // Saturating delta: registry().reset() between construction and here would
  // otherwise wrap.
  auto delta = [&](metrics::Counter c) -> std::uint64_t {
    const std::uint64_t cur = now.counter(c);
    const std::uint64_t base = baseline_.counter(c);
    return cur >= base ? cur - base : 0;
  };
  using metrics::Counter;
  HeapStats s;
  s.words_allocated = delta(Counter::kGcAllocWords);
  s.allocations = delta(Counter::kGcAllocs);
  s.minor_gcs = delta(Counter::kGcMinor);
  s.major_gcs = delta(Counter::kGcMajor);
  s.words_copied_minor = delta(Counter::kGcWordsCopiedMinor);
  s.words_copied_major = delta(Counter::kGcWordsCopiedMajor);
  s.chunk_grabs = delta(Counter::kGcChunkGrabs);
  s.chunk_steals = delta(Counter::kGcChunkSteals);
  s.stores_recorded = delta(Counter::kGcStores);
  s.large_allocs = delta(Counter::kGcLargeAllocs);
  s.cards_dirtied = delta(Counter::kGcCardsDirtied);
  s.cards_scanned = delta(Counter::kGcCardsScanned);
  s.los_bytes = los_.used_bytes();
  return s;
}

std::vector<Heap::PauseSample> Heap::pause_log() const {
  arch::TasGuard guard(pause_lock_);
  return pause_log_;
}

// ----- allocation -----

bool Heap::grab_chunk(ProcHeap& ph) {
  arch::TasGuard guard(chunk_lock_);
  if (free_chunks_.empty()) return false;
  const std::uint32_t idx = free_chunks_.back();
  free_chunks_.pop_back();
  ph.alloc = nursery_ + static_cast<std::size_t>(idx) * chunk_words_;
  ph.limit = ph.alloc + chunk_words_;
  ph.chunks_since_gc++;
  MPNJ_METRIC_COUNT_ALWAYS(kGcChunkGrabs, 1);
  const std::uint64_t fair =
      num_chunks_ / static_cast<std::size_t>(rendezvous_.nproc());
  if (ph.chunks_since_gc > fair) {
    MPNJ_METRIC_COUNT_ALWAYS(kGcChunkSteals, 1);
  }
  return true;
}

std::uint64_t* Heap::alloc_raw(ObjKind kind, std::size_t field_words,
                               std::size_t length_for_header,
                               std::span<Value> rooted_args) {
  const int pid = rendezvous_.cur_proc();
  MPNJ_CHECK(pid >= 0, "allocation outside a proc");
  ProcHeap* ph = &proc_heaps_[static_cast<std::size_t>(pid)];
  const std::size_t words = 1 + field_words;

  // Charge point (a clean point: another proc's collection may run here; the
  // argument values are protected by the caller's TempRoots frame).
  accounting_.charge_alloc(words);

  std::uint64_t* obj;
  if (words > chunk_words_ || words * kWord >= cfg_.los_threshold_bytes) {
    obj = alloc_los(words, kind, rooted_args);
  } else {
    while (ph->limit == nullptr ||
           static_cast<std::size_t>(ph->limit - ph->alloc) < words) {
      // Fuzz choice point: 1 forces a collection on this refill even though
      // free chunks remain, sliding GC cycles across the other procs'
      // allocation and synchronization histories.
      if (fuzz::pick(fuzz::Kind::kGcTrigger, 2, 0) == 1 ||
          !grab_chunk(*ph)) {
        run_gc_cycle(false, rooted_args);
        // Joining another proc's collection is a safe point, where a
        // preempt can resume this thread on a different proc: refill the
        // nursery chunk of the proc it runs on now, never the old owner's.
        ph = &proc_heaps_[static_cast<std::size_t>(rendezvous_.cur_proc())];
      }
    }
    obj = ph->alloc;
    ph->alloc += words;
  }
  obj[0] = make_header(kind, length_for_header);
  MPNJ_METRIC_COUNT_ALWAYS(kGcAllocWords, words);
  MPNJ_METRIC_COUNT_ALWAYS(kGcAllocs, 1);
  return obj;
}

std::uint64_t* Heap::alloc_los(std::size_t words, ObjKind kind,
                               std::span<Value> rooted_args) {
  for (int attempt = 0; attempt < 3; attempt++) {
    std::size_t pages = 0;
    std::uint64_t* obj = los_.alloc(words, &pages);
    if (obj != nullptr) {
      accounting_.charge_los_alloc(pages);
      MPNJ_METRIC_COUNT_ALWAYS(kGcLargeAllocs, 1);
      MPNJ_METRIC_COUNT_ALWAYS(kGcLosBytesAllocated, words * kWord);
      // Born dirty: a traced large object's initial fields may point into
      // the nursery, and no store barrier will ever see those writes.  The
      // next minor collection scans it like any recorded store.  (The old
      // bump-into-old-generation path silently missed exactly this case.)
      if (kind == ObjKind::kRecord || kind == ObjKind::kArray ||
          kind == ObjKind::kRef) {
        LargeObjectSpace::set_dirty(obj);
      }
      return obj;
    }
    // No extent fits: a major collection sweeps the LOS; retry after.
    run_gc_cycle(/*force_major=*/true, rooted_args);
  }
  arch::panic(
      "large-object space exhausted by an allocation of %zu words; grow "
      "los_bytes",
      words);
}

Value Heap::alloc_record(std::span<const Value> fields) {
  MPNJ_CHECK(fields.size() <= kMaxInlineFields,
             "records are limited to %d fields; use an array",
             static_cast<int>(kMaxInlineFields));
  Value buf[kMaxInlineFields];
  std::copy(fields.begin(), fields.end(), buf);
  TempRoots roots(buf, fields.size());
  std::uint64_t* obj =
      alloc_raw(ObjKind::kRecord, fields.size(), fields.size(),
                std::span<Value>(buf, fields.size()));
  for (std::size_t i = 0; i < fields.size(); i++) obj[1 + i] = buf[i].raw_bits();
  return Value::from_raw_bits(reinterpret_cast<std::uint64_t>(obj));
}

Value Heap::alloc_array(std::size_t n, Value init) {
  Value buf[1] = {init};
  TempRoots roots(buf, 1);
  std::uint64_t* obj =
      alloc_raw(ObjKind::kArray, n, n, std::span<Value>(buf, 1));
  for (std::size_t i = 0; i < n; i++) obj[1 + i] = buf[0].raw_bits();
  return Value::from_raw_bits(reinterpret_cast<std::uint64_t>(obj));
}

Value Heap::alloc_ref(Value init) {
  Value buf[1] = {init};
  TempRoots roots(buf, 1);
  std::uint64_t* obj = alloc_raw(ObjKind::kRef, 1, 1, std::span<Value>(buf, 1));
  obj[1] = buf[0].raw_bits();
  return Value::from_raw_bits(reinterpret_cast<std::uint64_t>(obj));
}

Value Heap::alloc_bytes(std::string_view data) {
  const std::size_t payload_words = (data.size() + kWord - 1) / kWord;
  std::uint64_t* obj =
      alloc_raw(ObjKind::kBytes, payload_words, data.size(), {});
  if (payload_words > 0) obj[payload_words] = 0;  // zero the tail word
  std::memcpy(obj + 1, data.data(), data.size());
  return Value::from_raw_bits(reinterpret_cast<std::uint64_t>(obj));
}

Value Heap::alloc_real(double d) {
  std::uint64_t* obj = alloc_raw(ObjKind::kReal, 1, sizeof(double), {});
  std::memcpy(obj + 1, &d, sizeof(double));
  return Value::from_raw_bits(reinterpret_cast<std::uint64_t>(obj));
}

// ----- mutation (barrier slow path) -----

void Heap::flush_card_buffer(ProcHeap& ph) {
  if (ph.card_buf.empty()) return;
  {
    arch::TasGuard guard(card_lock_);
    global_dirty_cards_.insert(global_dirty_cards_.end(), ph.card_buf.begin(),
                               ph.card_buf.end());
  }
  ph.card_buf.clear();
  MPNJ_METRIC_COUNT_ALWAYS(kGcCardFlushes, 1);
}

void Heap::record_store(std::uint64_t* obj, std::uint64_t* slot) {
  // The inline barrier already excluded the nursery; the written object is
  // in the old generation or the LOS.
  MPNJ_METRIC_COUNT_ALWAYS(kGcStores, 1);
  if (los_.contains(obj)) {
    LargeObjectSpace::set_dirty(obj);
    return;
  }
  if (!(obj >= old_cur_ && obj < old_alloc_)) return;
  if (cfg_.remset == RemsetMode::kList) {
    // Paper-faithful store list: one entry per assignment, duplicates and
    // all; the minor collection sorts and deduplicates the lot.
    const int pid = rendezvous_.cur_proc();
    proc_heaps_[static_cast<std::size_t>(pid)].store_list.push_back(slot);
    return;
  }
  // Card remset: dirty the byte for the *slot's* card.  Only the clean ->
  // dirty transition queues the card (so per-cycle queue traffic is bounded
  // by distinct cards, not stores); a racing pair of procs may both queue,
  // which the collector's sort+unique absorbs.
  const auto word_off = static_cast<std::size_t>(slot - old_cur_);
  if (cards_.mark(word_off)) {
    MPNJ_METRIC_COUNT_ALWAYS(kGcCardsDirtied, 1);
    const int pid = rendezvous_.cur_proc();
    ProcHeap& ph = proc_heaps_[static_cast<std::size_t>(pid)];
    ph.card_buf.push_back(static_cast<std::uint32_t>(cards_.card_of(word_off)));
    // Fuzz choice point: 1 flushes the proc's buffer early, sliding the
    // flush lock acquisition across other procs' histories.
    if (ph.card_buf.size() >= kCardBufCap ||
        fuzz::pick(fuzz::Kind::kCardFlush, 2, 0) == 1) {
      flush_card_buffer(ph);
    }
  }
}

// ----- collection -----

void Heap::stop_and_collect(bool force_major) {
  // Register the worker entry with the rendezvous *before* stopping the
  // world: a proc that parks while we are still enumerating roots spins
  // inside worker_cycle until the first phase opens.
  WorkerFn fn;
  if (cfg_.parallel_gc) {
    copier_.begin_cycle();
    fn = [this] { copier_.worker_cycle(); };
  }
  rendezvous_.stop_world(std::move(fn));
  do_collect(force_major, {});
  // Release the workers before the world resumes; the backend guarantees
  // every co-opted proc has left the worker fn before running client code.
  if (cfg_.parallel_gc) copier_.end_cycle();
  gc_in_progress_.store(false);
  rendezvous_.resume_world();
}

void Heap::join_in_flight_collection() {
  // Another proc is collecting: reach a clean point and contribute to the
  // copy where the backend supports it, instead of spinning.
  if (cfg_.parallel_gc) {
    rendezvous_.rendezvous_and_work([this] { copier_.worker_cycle(); });
  } else {
    rendezvous_.rendezvous_and_work(WorkerFn{});
  }
}

void Heap::run_gc_cycle(bool force_major, std::span<Value> rooted_args) {
  (void)rooted_args;  // already linked into the root chain by the caller
  bool expected = false;
  if (gc_in_progress_.compare_exchange_strong(expected, true)) {
    stop_and_collect(force_major);
  } else {
    // The caller retries its chunk grab against the refilled nursery.
    join_in_flight_collection();
  }
}

void Heap::collect_now(bool force_major) {
  for (;;) {
    bool expected = false;
    if (gc_in_progress_.compare_exchange_strong(expected, true)) {
      stop_and_collect(force_major);
      return;
    }
    join_in_flight_collection();
  }
}

void Heap::forward_slot(std::uint64_t* slot) {
  const std::uint64_t bits = *slot;
  if (bits == 0 || (bits & 1u) != 0) return;  // nil or immediate int
  auto* obj = reinterpret_cast<std::uint64_t*>(bits);
  if (obj < from_lo_ || obj >= from_hi_) {
    // Not in the evacuated space.  A major phase marks the LOS in passing;
    // the first visit owes the object's fields a scan (via the mark stack).
    if (los_mark_phase_ && los_.contains(obj) &&
        LargeObjectSpace::try_mark(obj)) {
      MPNJ_METRIC_COUNT_ALWAYS(kGcLosMarked, 1);
      if (header_is_traced(obj[0])) los_mark_stack_.push_back(obj);
    }
    return;
  }
  const std::uint64_t hdr = obj[0];
  if ((hdr & 1u) != 0) {  // already copied: header holds forwarding pointer
    *slot = hdr & ~std::uint64_t{1};
    return;
  }
  const std::size_t words = 1 + header_field_words(hdr);
  MPNJ_CHECK(old_alloc_ + words <= old_cur_ + old_words_,
             "old generation exhausted during collection; grow old_bytes");
  std::uint64_t* dst = old_alloc_;
  old_alloc_ += words;
  std::memcpy(dst, obj, words * kWord);
  if (cfg_.remset == RemsetMode::kCard) {
    // Sequential promotion fills the semispace contiguously from its (card
    // aligned) base, which is exactly the discipline the crossing map needs.
    cards_.record_object(static_cast<std::size_t>(dst - old_cur_), words);
  }
  const auto fwd = reinterpret_cast<std::uint64_t>(dst);
  obj[0] = fwd | 1u;
  *slot = fwd;
}

std::uint64_t* Heap::scan_object(std::uint64_t* obj) {
  const std::uint64_t hdr = obj[0];
  const std::size_t words = header_field_words(hdr);
  if (header_is_traced(hdr)) {
    for (std::size_t i = 0; i < words; i++) forward_slot(obj + 1 + i);
  }
  return obj + 1 + words;
}

void Heap::scan_range_seq(const ScanRange& r) {
  // Same contract as the parallel copier's range scan: parse objects from
  // r.parse, forward only the slots inside [lo, hi).
  std::uint64_t* p = r.parse;
  while (p < r.hi) {
    const std::uint64_t hdr = p[0];
    const std::size_t fields = header_field_words(hdr);
    std::uint64_t* obj_end = p + 1 + fields;
    if (header_is_traced(hdr)) {
      std::uint64_t* s = std::max(p + 1, r.lo);
      std::uint64_t* e = std::min(obj_end, r.hi);
      for (; s < e; s++) forward_slot(s);
    }
    p = obj_end;
  }
}

void Heap::drain_los_marks() {
  while (!los_mark_stack_.empty()) {
    std::uint64_t* obj = los_mark_stack_.back();
    los_mark_stack_.pop_back();
    const std::size_t n = header_field_words(obj[0]);
    for (std::size_t i = 0; i < n; i++) forward_slot(obj + 1 + i);
  }
}

std::vector<std::uint64_t*> Heap::gather_root_slots(
    std::span<Value> extra_roots, bool minor) {
  std::vector<std::uint64_t*> slots;
  slots.reserve(256);
  auto add_value = [&](Value* v) {
    slots.push_back(reinterpret_cast<std::uint64_t*>(v));
  };
  auto walk_chain = [&](void* head) {
    for (auto* f = static_cast<RootFrameHdr*>(head); f != nullptr;
         f = f->prev) {
      for (std::size_t i = 0; i < f->count; i++) add_value(&f->slots[i]);
    }
  };

  for (Value& v : extra_roots) add_value(&v);

  // Running procs' current root chains.
  for (int id = 0; id < rendezvous_.nproc(); id++) {
    if (cont::ExecContext* ex = rendezvous_.proc_exec(id)) {
      walk_chain(ex->root_head);
    }
  }

  // Suspended threads: every live un-fired continuation's chain, plus any
  // Value payload already delivered to a queued continuation.
  cont::for_each_core([&](cont::ContCore& core) {
    const auto st = core.state();
    if (st == cont::ContCore::State::kFired) return;
    walk_chain(core.root_head());
    if (core.slot_is_gc_ref()) slots.push_back(core.slot_ptr());
  });

  // Individually registered roots (values inside C++ containers).
  {
    arch::TasGuard guard(roots_lock_);
    for (GlobalRoot* r = global_roots_; r != nullptr; r = r->next_) {
      add_value(&r->value_);
    }
  }

  // List-mode minors additionally treat recorded old-to-young stores as
  // roots.  Only assignments into live old objects still matter; slots
  // inside the nursery belong to young objects the trace reaches anyway.
  // (Card-mode minors get the same information as parse ranges instead —
  // see gather_remset_ranges.)
  if (minor && cfg_.remset == RemsetMode::kList) {
    for (auto& ph : proc_heaps_) {
      for (std::uint64_t* slot : ph.store_list) {
        if (slot >= old_cur_ && slot < old_alloc_) slots.push_back(slot);
      }
    }
  }

  // One slot, one writer: the parallel copier claims each root exactly once,
  // so duplicates (repeated store-list entries above all) must go.
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  return slots;
}

std::vector<ScanRange> Heap::gather_remset_ranges() {
  std::vector<ScanRange> ranges;
  pending_cards_.clear();
  if (cfg_.remset == RemsetMode::kCard) {
    {
      arch::TasGuard guard(card_lock_);
      pending_cards_.swap(global_dirty_cards_);
    }
    for (auto& ph : proc_heaps_) {
      pending_cards_.insert(pending_cards_.end(), ph.card_buf.begin(),
                            ph.card_buf.end());
      ph.card_buf.clear();
    }
    // Duplicates exist only via the mark() race; one scan per card.
    std::sort(pending_cards_.begin(), pending_cards_.end());
    pending_cards_.erase(
        std::unique(pending_cards_.begin(), pending_cards_.end()),
        pending_cards_.end());
    for (const std::uint32_t c : pending_cards_) {
      std::uint64_t* lo = old_cur_ + cards_.card_base_word(c);
      if (lo >= old_alloc_) continue;  // beyond the frontier: nothing to scan
      std::uint64_t* hi = std::min(lo + cards_.card_words(), old_alloc_);
      std::uint64_t* parse = old_cur_ + cards_.object_start(c);
      ranges.push_back(ScanRange{parse, lo, hi});
    }
  }
  // Dirty large objects are remembered ranges in both remset modes: the
  // store list never records LOS slots (an LOS store flips the object's
  // dirty flag instead).
  pending_los_.clear();
  los_.for_each_object([&](std::uint64_t* obj) {
    const LargeObjectSpace::Meta* m = LargeObjectSpace::meta_of(obj);
    if (m->dirty.load(std::memory_order_relaxed) == 0) return;
    pending_los_.push_back(obj);
    const std::uint64_t hdr = obj[0];
    if (!header_is_traced(hdr)) return;
    std::uint64_t* hi = obj + 1 + header_field_words(hdr);
    ranges.push_back(ScanRange{obj, obj + 1, hi});
  });
  return ranges;
}

std::uint64_t Heap::sequential_phase(std::span<const ScanRange> ranges,
                                     std::span<std::uint64_t* const> roots) {
  std::uint64_t* const start = old_alloc_;
  std::uint64_t* scan = old_alloc_;
  for (const ScanRange& r : ranges) scan_range_seq(r);
  for (std::uint64_t* slot : roots) forward_slot(slot);
  // Cheney scan; a major additionally drains the LOS mark stack against it
  // to a joint fixpoint (a promoted object can point at a large object and
  // vice versa).
  for (;;) {
    while (scan < old_alloc_) scan = scan_object(scan);
    if (los_mark_stack_.empty()) break;
    drain_los_marks();
  }
  return static_cast<std::uint64_t>(old_alloc_ - start);
}

std::uint64_t Heap::parallel_phase(std::span<const ScanRange> ranges,
                                   std::span<std::uint64_t* const> roots) {
  std::uint64_t* frontier = old_alloc_;
  ParallelCopier::PhaseSpaces in;
  in.from_lo = from_lo_;
  in.from_hi = from_hi_;
  in.frontier = &frontier;
  in.to_limit = old_cur_ + old_words_;
  in.roots = roots;
  in.ranges = ranges;
  if (cfg_.remset == RemsetMode::kCard) {
    in.cards = &cards_;
    in.card_base = old_cur_;
  }
  if (los_mark_phase_) in.los = &los_;
  const ParallelCopier::PhaseResult res = copier_.run_phase(in);
  old_alloc_ = frontier;
  MPNJ_METRIC_COUNT_ALWAYS(kGcParCollections, 1);
  MPNJ_METRIC_COUNT_ALWAYS(kGcLosMarked, res.los_marked);
  MPNJ_METRIC_COUNT(kGcParWorkers, static_cast<std::uint64_t>(res.workers));
  MPNJ_METRIC_COUNT(kGcParSteals, res.steals);
  MPNJ_METRIC_COUNT(kGcParOverflowPushes, res.overflow_pushes);
  MPNJ_METRIC_COUNT(kGcParPadWords, res.pad_words);
  MPNJ_METRIC_COUNT(kGcParTermRounds, res.term_rounds);
  MPNJ_METRIC_RECORD(kGcParSteals, res.steals);
  MPNJ_METRIC_RECORD(kGcParTermRounds, res.term_rounds);
  for (const std::uint64_t ww : res.worker_words) {
    (void)ww;  // compiled away with -DMPNJ_METRICS=OFF
    MPNJ_METRIC_RECORD(kGcParWorkerWords, ww);
  }
  return res.live_words;
}

void Heap::maybe_verify(const char* phase) {
  if (!cfg_.verify_after_phase) return;
  std::string err;
  if (!verify(&err)) {
    arch::panic("heap verify failed after %s phase: %s", phase, err.c_str());
  }
}

void Heap::do_collect(bool force_major, std::span<Value> extra_roots) {
  using clock = std::chrono::steady_clock;
  auto us_between = [](clock::time_point a, clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
  };
  const auto pause_start = clock::now();

  // --- minor: evacuate the nursery into the old generation ---
  from_lo_ = nursery_;
  from_hi_ = nursery_ + nursery_words_;
  const std::vector<ScanRange> ranges = gather_remset_ranges();
  const std::vector<std::uint64_t*> minor_roots =
      gather_root_slots(extra_roots, /*minor=*/true);
  std::uint64_t cards_scanned = 0;
  std::uint64_t card_scan_words = 0;
  for (const ScanRange& r : ranges) {
    if (r.lo >= old_cur_ && r.lo < old_cur_ + old_words_) {
      cards_scanned++;
      card_scan_words += static_cast<std::uint64_t>(r.hi - r.lo);
    }
  }
  const std::uint64_t minor_copied =
      cfg_.parallel_gc ? parallel_phase(ranges, minor_roots)
                       : sequential_phase(ranges, minor_roots);
  MPNJ_METRIC_COUNT_ALWAYS(kGcWordsCopiedMinor, minor_copied);
  MPNJ_METRIC_COUNT_ALWAYS(kGcCardsScanned, cards_scanned);
  MPNJ_METRIC_COUNT_ALWAYS(kGcCardScanWords, card_scan_words);
  if (cards_scanned != 0 || card_scan_words != 0) {
    accounting_.charge_card_scan(cards_scanned, card_scan_words);
  }
  std::uint64_t copied = minor_copied;

  // Reset the nursery: every chunk becomes free and every proc grabs anew.
  {
    arch::TasGuard guard(chunk_lock_);
    free_chunks_.clear();
    for (std::size_t i = num_chunks_; i > 0; i--) {
      free_chunks_.push_back(static_cast<std::uint32_t>(i - 1));
    }
  }
  for (auto& ph : proc_heaps_) {
    ph.alloc = nullptr;
    ph.limit = nullptr;
    ph.store_list.clear();
    ph.chunks_since_gc = 0;
  }
  // The nursery is empty: no old-to-young pointer survives, so the entire
  // remembered set resets.  pending_cards_ is the complete dirty set (every
  // clean->dirty transition queued its card), so clearing it clears all.
  if (cfg_.remset == RemsetMode::kCard) {
    for (const std::uint32_t c : pending_cards_) cards_.clear(c);
    pending_cards_.clear();
  }
  los_.clear_all_dirty();
  MPNJ_METRIC_COUNT_ALWAYS(kGcMinor, 1);
  maybe_verify("minor");
  const auto minor_end = clock::now();

  // --- major: copy the old generation into the other semispace ---
  // LOS pressure escalates to a major too: only a major's sweep frees runs.
  const bool los_pressure =
      static_cast<double>(los_.used_bytes()) >
      cfg_.los_pressure_fraction * static_cast<double>(cfg_.los_bytes);
  // Fuzz choice point: 1 forces a major (and therefore an LOS sweep) under
  // mutated schedules regardless of actual pressure.
  const bool need_major =
      force_major ||
      static_cast<double>(old_space_used_words()) >
          cfg_.major_fraction * static_cast<double>(old_words_) ||
      fuzz::pick(fuzz::Kind::kLosSweep, 2, los_pressure ? 1 : 0) == 1;
  if (need_major) {
    from_lo_ = old_cur_;
    from_hi_ = old_cur_ + old_words_;
    std::uint64_t* to = (old_cur_ == old_a_) ? old_b_ : old_a_;
    old_cur_ = to;
    old_alloc_ = to;
    los_mark_phase_ = true;
    const std::vector<std::uint64_t*> major_roots =
        gather_root_slots(extra_roots, /*minor=*/false);
    const std::uint64_t major_copied =
        cfg_.parallel_gc ? parallel_phase({}, major_roots)
                         : sequential_phase({}, major_roots);
    los_mark_phase_ = false;
    const std::size_t los_pages_before =
        los_.used_bytes() / LargeObjectSpace::kPageBytes;
    const LargeObjectSpace::SweepResult sw = los_.sweep();
    if (los_pages_before != 0) {
      accounting_.charge_los_sweep(los_pages_before);
    }
    MPNJ_METRIC_COUNT_ALWAYS(kGcLosSweeps, 1);
    MPNJ_METRIC_COUNT_ALWAYS(kGcLosBytesSwept, sw.bytes_freed);
    MPNJ_METRIC_COUNT_ALWAYS(kGcMajor, 1);
    MPNJ_METRIC_COUNT_ALWAYS(kGcWordsCopiedMajor, major_copied);
    copied += major_copied;
    maybe_verify("major");
  }

  accounting_.charge_gc(copied);
  from_lo_ = nullptr;
  from_hi_ = nullptr;
  MPNJ_METRIC_COUNT_ALWAYS(kGcWordsCopied, copied);

  // Wall-clock pause, not virtual time: the simulator charges its own model
  // of GC cost via charge_gc; this measures what the host actually paid.
  const auto pause_end = clock::now();
  const std::uint64_t minor_us = us_between(pause_start, minor_end);
  const std::uint64_t major_us =
      need_major ? us_between(minor_end, pause_end) : 0;
  const std::uint64_t pause_us = us_between(pause_start, pause_end);
  MPNJ_METRIC_COUNT_ALWAYS(kGcPauseUsTotal, pause_us);
  // Pause histograms are always-on (a latency SLO must survive
  // MPNJ_METRICS=0); the exact per-pause log is opt-in.
  MPNJ_METRIC_RECORD_ALWAYS(kGcPauseUs, pause_us);
  MPNJ_METRIC_RECORD_ALWAYS(kGcMinorPauseUs, minor_us);
  if (need_major) {
    MPNJ_METRIC_RECORD_ALWAYS(kGcMajorPauseUs, major_us);
  }
  if (cfg_.record_pauses) {
    arch::TasGuard guard(pause_lock_);
    if (pause_log_.size() < kMaxPauseSamples) {
      pause_log_.push_back(PauseSample{minor_us, major_us});
    }
  }
}

// ----- verification -----

namespace {

std::string describe_ptr(const void* p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%p", p);
  return buf;
}

}  // namespace

bool Heap::verify(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  auto valid_value = [&](std::uint64_t bits) {
    if (bits == 0 || (bits & 1u) != 0) return true;  // nil or immediate
    if ((bits & 7u) != 0) return false;              // misaligned pointer
    auto* p = reinterpret_cast<std::uint64_t*>(bits);
    const bool young = p >= nursery_ && p < nursery_ + nursery_words_;
    const bool old = p >= old_cur_ && p < old_alloc_;
    return young || old || los_.is_object_start(p);
  };
  auto is_young = [&](std::uint64_t bits) {
    if (bits == 0 || (bits & 1u) != 0) return false;
    auto* p = reinterpret_cast<std::uint64_t*>(bits);
    return p >= nursery_ && p < nursery_ + nursery_words_;
  };
  const bool card_mode = cfg_.remset == RemsetMode::kCard;

  // Every object in the old generation must parse (parallel collections pad
  // unused block tails with untraced kBytes objects precisely so this walk
  // stays valid).
  const std::uint64_t* obj = old_cur_;
  while (obj < old_alloc_) {
    const std::uint64_t hdr = *obj;
    if ((hdr & 1u) != 0) {
      return fail("forwarding pointer outside a collection at " +
                  describe_ptr(obj));
    }
    const auto kind = static_cast<ObjKind>((hdr >> 1) & 0x7u);
    if (kind != ObjKind::kRecord && kind != ObjKind::kArray &&
        kind != ObjKind::kRef && kind != ObjKind::kBytes &&
        kind != ObjKind::kReal) {
      return fail("bad object kind at " + describe_ptr(obj));
    }
    const std::size_t words = header_field_words(hdr);
    if (obj + 1 + words > old_cur_ + old_words_) {
      return fail("object overruns the old generation at " +
                  describe_ptr(obj));
    }
    if (header_is_traced(hdr)) {
      for (std::size_t i = 0; i < words; i++) {
        if (!valid_value(obj[1 + i])) {
          return fail("bad field pointer in object at " + describe_ptr(obj));
        }
        // The card invariant: an old-to-young pointer whose card is clean
        // would be invisible to the next minor collection.
        if (card_mode && is_young(obj[1 + i])) {
          const std::size_t slot_off =
              static_cast<std::size_t>((obj + 1 + i) - old_cur_);
          if (!cards_.is_dirty(cards_.card_of(slot_off))) {
            return fail("old-to-young pointer on a clean card at slot " +
                        describe_ptr(obj + 1 + i));
          }
        }
      }
    }
    obj += 1 + words;
  }
  if (obj != old_alloc_) {
    return fail("old generation does not parse to its allocation frontier");
  }

  // Every live LOS object: well-formed meta, parseable header, valid fields,
  // and the dirty invariant (a young field requires the dirty flag — it is
  // the LOS equivalent of the card invariant above).
  bool los_ok = true;
  std::string los_err;
  los_.for_each_object([&](std::uint64_t* lobj) {
    if (!los_ok) return;
    const LargeObjectSpace::Meta* m = LargeObjectSpace::meta_of(lobj);
    if (!los_.is_object_start(lobj)) {
      los_ok = false;
      los_err = "LOS run with corrupt meta at " + describe_ptr(lobj);
      return;
    }
    const std::uint64_t hdr = lobj[0];
    if ((hdr & 1u) != 0) {
      los_ok = false;
      los_err = "forwarding pointer in an LOS header at " + describe_ptr(lobj);
      return;
    }
    const auto kind = static_cast<ObjKind>((hdr >> 1) & 0x7u);
    if (kind != ObjKind::kRecord && kind != ObjKind::kArray &&
        kind != ObjKind::kRef && kind != ObjKind::kBytes &&
        kind != ObjKind::kReal) {
      los_ok = false;
      los_err = "bad LOS object kind at " + describe_ptr(lobj);
      return;
    }
    const std::size_t words = header_field_words(hdr);
    if (1 + words != m->obj_words) {
      los_ok = false;
      los_err = "LOS header disagrees with run meta at " + describe_ptr(lobj);
      return;
    }
    if ((LargeObjectSpace::kMetaWords + 1 + words) * kWord >
        std::size_t{m->pages} * LargeObjectSpace::kPageBytes) {
      los_ok = false;
      los_err = "LOS object overruns its page run at " + describe_ptr(lobj);
      return;
    }
    if (header_is_traced(hdr)) {
      const bool dirty = m->dirty.load(std::memory_order_relaxed) != 0;
      for (std::size_t i = 0; i < words; i++) {
        if (!valid_value(lobj[1 + i])) {
          los_ok = false;
          los_err = "bad field pointer in LOS object at " + describe_ptr(lobj);
          return;
        }
        if (is_young(lobj[1 + i]) && !dirty) {
          los_ok = false;
          los_err = "young pointer in a clean LOS object at " +
                    describe_ptr(lobj);
          return;
        }
      }
    }
  });
  if (!los_ok) return fail(los_err);

  // Registered roots must hold valid values.
  for (GlobalRoot* r = global_roots_; r != nullptr; r = r->next_) {
    if (!valid_value(r->value_.raw_bits())) {
      return fail("GlobalRoot holds an invalid value");
    }
  }
  return true;
}

// ----- global roots -----

void Heap::register_global_root(GlobalRoot* root) {
  arch::TasGuard guard(roots_lock_);
  root->prev_ = nullptr;
  root->next_ = global_roots_;
  if (global_roots_ != nullptr) global_roots_->prev_ = root;
  global_roots_ = root;
}

void Heap::unregister_global_root(GlobalRoot* root) {
  arch::TasGuard guard(roots_lock_);
  if (root->prev_ != nullptr) {
    root->prev_->next_ = root->next_;
  } else {
    global_roots_ = root->next_;
  }
  if (root->next_ != nullptr) root->next_->prev_ = root->prev_;
  root->prev_ = nullptr;
  root->next_ = nullptr;
}

// ----- GlobalRoot -----

GlobalRoot::GlobalRoot(Heap& heap, Value v) : heap_(&heap), value_(v) {
  heap_->register_global_root(this);
}

GlobalRoot::~GlobalRoot() {
  if (heap_ != nullptr) heap_->unregister_global_root(this);
}

GlobalRoot::GlobalRoot(GlobalRoot&& other) noexcept {
  steal_links(std::move(other));
}

GlobalRoot& GlobalRoot::operator=(GlobalRoot&& other) noexcept {
  if (this == &other) return *this;
  if (heap_ != nullptr) heap_->unregister_global_root(this);
  steal_links(std::move(other));
  return *this;
}

void GlobalRoot::steal_links(GlobalRoot&& other) noexcept {
  heap_ = other.heap_;
  value_ = other.value_;
  if (heap_ != nullptr) {
    // Replace `other` with `this` in the registry under the lock.
    heap_->unregister_global_root(&other);
    heap_->register_global_root(this);
    other.heap_ = nullptr;
  }
}

}  // namespace mp::gc
