#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

#include "arch/cacheline.h"
#include "arch/tas.h"
#include "gc/card_table.h"
#include "gc/hooks.h"
#include "gc/los.h"
#include "gc/parallel_copy.h"
#include "gc/roots.h"
#include "gc/value.h"
#include "metrics/metrics.h"

namespace mp::gc {

// How the heap remembers old-to-young pointers for minor collections.
//
//   kCard  card-marking remembered set (gc/card_table.h): stores dirty a
//          per-card byte, minor collections re-scan dirty cards.  Pause work
//          is bounded by distinct written locations, not write count.
//   kList  the paper-faithful SML/NJ store list: every store into the old
//          generation appends the slot address; minor collections sort,
//          deduplicate and forward the whole list.  Kept as the ablation
//          baseline (HeapConfig::with_remset(RemsetMode::kList)).
enum class RemsetMode : std::uint8_t { kCard = 0, kList = 1 };

// Sizing of the two-generation heap.  The nursery is the shared "allocation
// region" of the paper, divided into chunks that procs claim privately so
// the allocation fast path needs no synchronization; a proc whose share is
// exhausted "steals" spare chunks other procs have not claimed.  Survivors
// are copied into the old generation; the old generation itself is collected
// (copied between two semispaces) when it passes `major_fraction`.  Objects
// at or above `los_threshold_bytes` (and anything too big for a nursery
// chunk) go to the page-granular large-object space instead and are
// mark-swept, never copied.
//
// Construction is named-setter style and validated: Heap panics with a
// precise message on a degenerate configuration (zero-chunk nursery,
// non-power-of-two region sizes) instead of silently misbehaving:
//
//   gc::HeapConfig cfg;
//   cfg.with_nursery_bytes(1u << 20).with_chunks_per_proc(4);
struct HeapConfig {
  std::size_t nursery_bytes = 1u << 20;  // power of two
  // The nursery is split into nproc * chunks_per_proc chunks; one chunk is a
  // proc's initial "share" granularity.
  std::size_t chunks_per_proc = 4;
  std::size_t old_bytes = 32u << 20;  // per semispace; power of two
  double major_fraction = 0.75;
  // Run collections with every rendezvoused proc as a copy worker (see
  // gc/parallel_copy.h); false restores the paper's sequential collection.
  bool parallel_gc = true;
  // To-space granule each parallel worker carves per frontier fetch_add;
  // power of two, at least 64 words.  In card remset mode blocks are rounded
  // up to whole cards so each card's crossing-map entry has one writer, so
  // card_bytes must not exceed par_block_words * 8.
  std::size_t par_block_words = 1024;

  // Remembered-set mode; kList restores the paper's store list.
  RemsetMode remset = RemsetMode::kCard;
  // Card granularity (bytes of old generation per dirty byte); power of two,
  // >= 64, <= par_block_words * 8 and <= old_bytes.
  std::size_t card_bytes = 512;
  // Allocations of at least this many bytes (header included) go to the
  // large-object space; must be >= card_bytes so LOS-bound objects could
  // never straddle cheaper card handling.
  std::size_t los_threshold_bytes = 4096;
  // Large-object arena reservation (MAP_NORESERVE: only touched pages cost
  // memory); multiple of the 4 KiB page.
  std::size_t los_bytes = 64u << 20;
  // Fraction of the LOS arena in use that escalates the next collection to a
  // major (which sweeps the LOS), in (0, 1].
  double los_pressure_fraction = 0.75;

  // Record an exact {minor_us, major_us} sample per collection (bounded
  // ring; see Heap::pause_log).  The log2 pause histograms are always on but
  // too coarse for a p99.9 SLO claim; benches opt into the exact log.
  bool record_pauses = false;
  // Re-verify heap consistency after every collection phase.  Defaults on in
  // debug builds (catching card-table / LOS / parse corruption at the phase
  // that caused it), off under NDEBUG.
  bool verify_after_phase = default_verify_after_phase();

  HeapConfig& with_nursery_bytes(std::size_t v) {
    nursery_bytes = v;
    return *this;
  }
  HeapConfig& with_chunks_per_proc(std::size_t v) {
    chunks_per_proc = v;
    return *this;
  }
  HeapConfig& with_old_bytes(std::size_t v) {
    old_bytes = v;
    return *this;
  }
  HeapConfig& with_major_fraction(double v) {
    major_fraction = v;
    return *this;
  }
  HeapConfig& with_parallel_gc(bool v) {
    parallel_gc = v;
    return *this;
  }
  HeapConfig& with_par_block_words(std::size_t v) {
    par_block_words = v;
    return *this;
  }
  HeapConfig& with_remset(RemsetMode v) {
    remset = v;
    return *this;
  }
  HeapConfig& with_card_bytes(std::size_t v) {
    card_bytes = v;
    return *this;
  }
  HeapConfig& with_los_threshold_bytes(std::size_t v) {
    los_threshold_bytes = v;
    return *this;
  }
  HeapConfig& with_los_bytes(std::size_t v) {
    los_bytes = v;
    return *this;
  }
  HeapConfig& with_los_pressure_fraction(double v) {
    los_pressure_fraction = v;
    return *this;
  }
  HeapConfig& with_record_pauses(bool v) {
    record_pauses = v;
    return *this;
  }
  HeapConfig& with_verify_after_phase(bool v) {
    verify_after_phase = v;
    return *this;
  }

  // Panics with a clear message on any degenerate setting; called by Heap's
  // constructor, callable directly by tests.
  void validate() const;

  static bool default_verify_after_phase();
};

// Aggregated heap statistics.  A thin shim over mp::metrics: the counters
// live in the process-wide metrics registry (always-on tier, so they survive
// MPNJ_METRICS=0 builds and env settings) and stats() returns the delta
// since this Heap was constructed.  los_bytes is the exception: it is the
// heap's *current* live large-object footprint, not a delta.
struct HeapStats {
  std::uint64_t words_allocated = 0;
  std::uint64_t allocations = 0;
  std::uint64_t minor_gcs = 0;
  std::uint64_t major_gcs = 0;
  std::uint64_t words_copied_minor = 0;
  std::uint64_t words_copied_major = 0;
  std::uint64_t chunk_grabs = 0;
  std::uint64_t chunk_steals = 0;  // grabs beyond a proc's fair share
  std::uint64_t stores_recorded = 0;
  std::uint64_t large_allocs = 0;
  std::uint64_t cards_dirtied = 0;
  std::uint64_t cards_scanned = 0;
  std::uint64_t los_bytes = 0;  // live large-object bytes right now
};

// The multiprocessor-adapted SML/NJ heap (paper section 5), grown into a
// three-layer latency-oriented design:
//
//   barrier      Heap::store's out-of-nursery slow path records the write in
//                the remembered set — a dirty card (kCard), a store-list
//                entry (kList), or the object's LOS dirty flag.
//   generations  per-proc bump allocation into a shared chunked nursery;
//                minor collections promote survivors into the old
//                generation's active semispace (parallel workers promote
//                through private card-aligned blocks, one fetch_add each);
//                majors copy the old generation between semispaces.
//   LOS          big objects live in a page-granular mark-sweep space and
//                are never copied by either generation.
//
// Client discipline: every Value live across a runtime call (allocation,
// lock, thread operation, explicit safe point) must be held in a Roots frame
// or GlobalRoot; collections move objects and update only registered roots.
// LOS objects never move, but the discipline is the same.
class Heap {
 public:
  Heap(const HeapConfig& config, Rendezvous& rendezvous,
       Accounting& accounting);
  ~Heap();
  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  // --- allocation (must be called on a proc) ---
  Value alloc_record(std::span<const Value> fields);
  Value alloc_record(std::initializer_list<Value> fields) {
    return alloc_record(std::span<const Value>(fields.begin(), fields.size()));
  }
  Value alloc_array(std::size_t n, Value init);
  Value alloc_ref(Value init);
  Value alloc_bytes(std::string_view data);
  Value alloc_real(double d);

  // Convenience: cons cell (record of two) and list helpers used by the
  // workloads.
  Value cons(Value head, Value tail) { return alloc_record({head, tail}); }

  // --- mutation (write barrier) ---
  // The fast path is fully inline: a store into the nursery (the common case
  // for freshly allocated mutable state) is one range check past the write
  // itself.  Everything else — old generation, LOS — takes the out-of-line
  // remembered-set record.
  void store(Value obj, std::size_t index, Value v) {
    MPNJ_CHECK(obj.is_ptr(), "store to a non-pointer Value");
    const ObjKind k = obj.kind();
    MPNJ_CHECK(k == ObjKind::kArray || k == ObjKind::kRef,
               "store to an immutable object");
    MPNJ_CHECK(index < obj.length(), "store index out of range");
    std::uint64_t* base = obj.obj();
    base[1 + index] = v.raw_bits();
    if (base >= nursery_ && base < nursery_ + nursery_words_) return;
    record_store(base, base + 1 + index);
  }
  void store_ref(Value ref, Value v) { store(ref, 0, v); }
  static Value load_ref(Value ref) { return ref.field(0); }

  // --- collection ---
  // Force a collection now (tests / benchmarks); world-stops like any GC.
  void collect_now(bool force_major = false);

  // Statistics since this Heap's construction (metrics registry delta).
  HeapStats stats() const;
  std::size_t old_space_used_words() const;
  std::size_t nursery_free_chunks() const;
  std::size_t los_used_bytes() const { return los_.used_bytes(); }

  const HeapConfig& config() const { return cfg_; }

  // Exact per-collection pause samples (cfg.record_pauses only; bounded to
  // kMaxPauseSamples, then new samples are dropped).  minor_us covers root
  // gather + nursery evacuation; major_us the semispace copy + LOS sweep, 0
  // for minor-only collections.
  struct PauseSample {
    std::uint64_t minor_us = 0;
    std::uint64_t major_us = 0;
  };
  static constexpr std::size_t kMaxPauseSamples = 1u << 20;
  std::vector<PauseSample> pause_log() const;

  // --- introspection for tests ---
  bool in_nursery(Value v) const;
  bool in_old_space(Value v) const;
  bool in_los(Value v) const;

  // Heap consistency check (debugging aid): walks every object in the old
  // generation and the LOS and every registered root, validating headers,
  // lengths and pointer targets; in card remset mode additionally checks
  // that every old-to-young pointer's card is dirty, and that LOS metadata
  // is well-formed (magic, run geometry, dirty flags covering young
  // fields).  Returns false and fills `error` on the first inconsistency.
  // Call with the world quiescent (tests, or right after a collection);
  // cfg.verify_after_phase makes the collector itself call this after every
  // phase.
  bool verify(std::string* error) const;

 private:
  friend class GlobalRoot;

  struct alignas(arch::kCacheLine) ProcHeap {
    std::uint64_t* alloc = nullptr;
    std::uint64_t* limit = nullptr;
    std::vector<std::uint64_t*> store_list;   // kList mode
    std::vector<std::uint32_t> card_buf;      // kCard mode: unflushed cards
    std::uint64_t chunks_since_gc = 0;
  };

  std::uint64_t* alloc_raw(ObjKind kind, std::size_t field_words,
                           std::size_t length_for_header,
                           std::span<Value> rooted_args);
  bool grab_chunk(ProcHeap& ph);
  std::uint64_t* alloc_los(std::size_t words, ObjKind kind,
                           std::span<Value> rooted_args);
  void record_store(std::uint64_t* obj, std::uint64_t* slot);
  void flush_card_buffer(ProcHeap& ph);
  void run_gc_cycle(bool force_major, std::span<Value> rooted_args);
  void stop_and_collect(bool force_major);
  void join_in_flight_collection();
  void do_collect(bool force_major, std::span<Value> extra_roots);
  // One copy phase (minor or major) over [from_lo_, from_hi_); returns the
  // live words copied.  The sequential variant is the paper's collector; the
  // parallel variant drives gc::ParallelCopier.  `ranges` are the remembered
  // regions (dirty cards, dirty LOS objects) a minor phase re-scans.
  std::uint64_t sequential_phase(std::span<const ScanRange> ranges,
                                 std::span<std::uint64_t* const> roots);
  std::uint64_t parallel_phase(std::span<const ScanRange> ranges,
                               std::span<std::uint64_t* const> roots);
  std::vector<std::uint64_t*> gather_root_slots(std::span<Value> extra_roots,
                                                bool minor);
  // Consume the dirty-card buffers / LOS dirty flags into parse ranges for a
  // minor phase; fills pending_cards_ for the post-phase clear.
  std::vector<ScanRange> gather_remset_ranges();
  void scan_range_seq(const ScanRange& r);
  void forward_slot(std::uint64_t* slot);
  std::uint64_t* scan_object(std::uint64_t* obj);
  void drain_los_marks();
  void maybe_verify(const char* phase);
  void register_global_root(GlobalRoot* root);
  void unregister_global_root(GlobalRoot* root);

  HeapConfig cfg_;
  Rendezvous& rendezvous_;
  Accounting& accounting_;
  ParallelCopier copier_;
  // Metrics registry totals at construction; stats() subtracts these so each
  // Heap reports only its own activity.
  metrics::Snapshot baseline_;

  // Nursery.
  std::uint64_t* nursery_ = nullptr;
  std::size_t nursery_words_ = 0;
  std::size_t chunk_words_ = 0;
  std::size_t num_chunks_ = 0;
  std::vector<std::uint32_t> free_chunks_;  // stack of free chunk indices
  arch::TasWord chunk_lock_;

  // Old generation semispaces.
  std::uint64_t* old_a_ = nullptr;
  std::uint64_t* old_b_ = nullptr;
  std::size_t old_words_ = 0;
  std::uint64_t* old_cur_ = nullptr;    // active semispace base
  std::uint64_t* old_alloc_ = nullptr;  // bump pointer in active semispace

  // Card-marking remembered set (kCard mode).  Cards newly dirtied by a proc
  // queue in its ProcHeap::card_buf and flush to global_dirty_cards_ under
  // card_lock_ when the buffer fills (a store is already a runtime call, so
  // every flush happens at a safe point).
  CardTable cards_;
  std::vector<std::uint32_t> global_dirty_cards_;
  arch::TasWord card_lock_;
  // Cards consumed by the in-progress minor collection; cleared after the
  // phase so re-scanned cards go clean again.
  std::vector<std::uint32_t> pending_cards_;

  // Large-object space.
  LargeObjectSpace los_;
  std::vector<std::uint64_t*> pending_los_;  // dirty LOS objects this minor
  // Sequential major phases push newly marked LOS objects here and drain
  // them against the Cheney scan until a fixpoint.
  std::vector<std::uint64_t*> los_mark_stack_;
  bool los_mark_phase_ = false;  // sequential collector: majors mark the LOS

  std::vector<ProcHeap> proc_heaps_;

  // Collection coordination.
  std::atomic<bool> gc_in_progress_{false};

  // During a collection: the range being evacuated.
  std::uint64_t* from_lo_ = nullptr;
  std::uint64_t* from_hi_ = nullptr;

  // Exact pause log (cfg.record_pauses).
  std::vector<PauseSample> pause_log_;
  mutable arch::TasWord pause_lock_;

  // Global root list.
  GlobalRoot* global_roots_ = nullptr;
  arch::TasWord roots_lock_;
};

}  // namespace mp::gc
