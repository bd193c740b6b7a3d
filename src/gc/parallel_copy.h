#pragma once

// Parallel stop-the-world copying (the heap's answer to the paper's main
// scalability limit: §5 performs the whole collection on one proc while the
// others idle at the rendezvous).  Once the world is stopped, every proc the
// platform routes into worker_cycle() becomes a collection worker:
//
//   - Root slots are enumerated sequentially by the collector, then claimed
//     by workers in batches through an atomic cursor.  Remembered parse
//     ranges (dirty cards, dirty large objects) are claimed the same way
//     through a second cursor: a worker parses the range and forwards only
//     the slots inside it, so the one-writer-per-slot invariant holds even
//     when one object spans several cards.
//   - Each worker copies survivors into a private alloc block carved from
//     the shared to-space frontier (one fetch_add per block, no per-object
//     synchronization) and Cheney-scans its own block in place.  In card
//     remset mode blocks are rounded to whole cards so each worker maintains
//     the crossing map for its own cards without racing.
//   - Forwarding races on a shared object are settled by a single CAS on the
//     from-space header (reserve locally, CAS the forwarding word, un-bump
//     on loss), so every object is copied exactly once and to-space has no
//     holes beyond explicit pads.
//   - A major phase marks the large-object space in passing: the first
//     worker to reach an LOS object wins its mark CAS (in the LOS meta, not
//     the object header — LOS objects are never forwarded) and scans its
//     fields from a private pending stack.  A minor phase marks only the
//     young LOS objects it reaches, and scans none (gc/los.h).
//   - When a block fills, its unscanned tail is published to a shared
//     overflow stack that idle workers steal from; the retired block's
//     unused words are padded so the old generation still parses.
//   - Termination is a two-phase detector: a worker that finds all entered
//     workers idle, the overflow stack empty, and the publish sequence
//     unchanged re-verifies the whole condition once more (a "round") before
//     declaring the phase done.
//
// The copier is observably equivalent to the sequential collector: the set
// of copied objects is the reachable set either way, only the to-space order
// differs.  One collection cycle may run several phases (minor, then major);
// co-opted procs stay inside worker_cycle() across phases until end_cycle().

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/cacheline.h"
#include "arch/tas.h"
#include "gc/card_table.h"
#include "gc/los.h"

namespace mp::gc {

// A remembered region to re-parse during a minor phase: objects are walked
// from `parse` (the crossing-map start for a card, the object header for a
// dirty LOS object) and only slots with addresses in [lo, hi) are forwarded.
struct ScanRange {
  std::uint64_t* parse;
  std::uint64_t* lo;
  std::uint64_t* hi;
};

class ParallelCopier {
 public:
  static constexpr int kMaxWorkers = 64;

  explicit ParallelCopier(std::size_t block_words);
  ParallelCopier(const ParallelCopier&) = delete;
  ParallelCopier& operator=(const ParallelCopier&) = delete;

  struct PhaseResult {
    std::uint64_t live_words = 0;  // copied survivor words (pads excluded)
    std::uint64_t pad_words = 0;   // to-space words lost to block-tail pads
    std::uint64_t steals = 0;      // overflow regions stolen
    std::uint64_t overflow_pushes = 0;
    std::uint64_t term_rounds = 0;  // termination-detector confirm rounds
    std::uint64_t range_words = 0;  // words covered by claimed scan ranges
    std::uint64_t los_marked = 0;   // LOS objects marked live (major phase)
    int workers = 0;                // procs that participated in the phase
    std::vector<std::uint64_t> worker_words;  // per-worker copy balance
  };

  // Everything one phase evacuates and maintains.  `roots` must be unique
  // (each slot is claimed and rewritten by exactly one worker); `ranges`
  // may overlap objects but never slots (the [lo, hi) clamp).  With `cards`
  // set the copier maintains the crossing map for every object and pad it
  // writes, with offsets relative to `card_base`.  Pointers into `los` mark
  // the young objects they reach; with `major` set they mark every object
  // and its fields are scanned.
  struct PhaseSpaces {
    std::uint64_t* from_lo = nullptr;
    std::uint64_t* from_hi = nullptr;
    std::uint64_t** frontier = nullptr;
    std::uint64_t* to_limit = nullptr;
    std::span<std::uint64_t* const> roots;
    std::span<const ScanRange> ranges;
    CardTable* cards = nullptr;
    std::uint64_t* card_base = nullptr;
    LargeObjectSpace* los = nullptr;
    bool major = false;
  };

  // Collector side.  begin_cycle() must be called before the worker fn is
  // registered with the platform (co-opted procs may enter worker_cycle()
  // immediately); end_cycle() releases them and must precede resume_world().
  void begin_cycle();
  void end_cycle();

  // Evacuate every object in [from_lo, from_hi) reachable from the roots and
  // ranges into to-space starting at **frontier (bounded by to_limit).  The
  // calling proc acts as a worker itself; procs already inside
  // worker_cycle() join.  On return **frontier is the new allocation
  // frontier and the to-space region below it parses (gaps are pad objects).
  PhaseResult run_phase(const PhaseSpaces& in);

  // Body of the WorkerFn the heap hands to Rendezvous::stop_world: loops
  // over the cycle's phases, working each one, until end_cycle().
  void worker_cycle();

 private:
  struct Region {
    std::uint64_t* lo;
    std::uint64_t* hi;
  };

  // Per-worker copy state; lives on the worker's stack during a phase.
  struct Worker {
    std::uint64_t* block = nullptr;  // current alloc block base (null: none)
    std::uint64_t* scan = nullptr;   // Cheney scan pointer within the block
    std::uint64_t* alloc = nullptr;  // bump pointer within the block
    std::uint64_t* limit = nullptr;  // end of the carved block
    std::uint64_t copied = 0;        // live words copied (pads excluded)
    std::uint64_t flushed = 0;       // portion of `copied` already published
    std::uint64_t steals = 0;
    std::uint64_t pushes = 0;
    std::uint64_t pads = 0;
    std::uint64_t range_words = 0;   // scan-range words parsed
    std::uint64_t los_marked = 0;    // LOS mark CASes won
    // Newly marked traced LOS objects whose fields this worker owes a scan.
    std::vector<std::uint64_t*> los_pending;
  };

  void run_worker(std::uint64_t myseq);
  void claim_roots(Worker& w);
  void claim_ranges(Worker& w);
  // `from_root`: the slot is a root, not a field of a heap object.
  void forward_slot(Worker& w, std::uint64_t* slot, bool from_root = false);
  void drain_own(Worker& w);
  // drain_own plus the worker's pending LOS scans, to a joint fixpoint.
  void drain_all(Worker& w);
  void scan_fields(Worker& w, std::uint64_t* obj);
  void scan_region(Worker& w, Region r);
  void scan_range(Worker& w, const ScanRange& r);
  std::uint64_t* reserve(Worker& w, std::size_t words);
  void retire_block(Worker& w);
  bool try_steal(Region* out);
  void publish(Worker& w, Region r);
  bool overflow_empty();
  // Spin until work appears (true; idle_ already left) or the phase
  // terminates (false; this worker may be the one that declares it).
  bool wait_for_work(Worker& w, int wid);
  void flush_stats(Worker& w, int wid);

  const std::size_t block_words_;

  // Cycle gate: worker_cycle() spins on these between phases.
  std::atomic<bool> cycle_open_{false};
  // Odd while a phase is accepting workers, even between phases; workers
  // remember the last phase they worked so one proc enters each phase once.
  std::atomic<std::uint64_t> phase_seq_{0};

  // Phase state (reset by run_phase before the phase opens).
  std::uint64_t* from_lo_ = nullptr;
  std::uint64_t* from_hi_ = nullptr;
  std::uint64_t* to_base_ = nullptr;
  std::size_t to_words_ = 0;
  std::atomic<std::size_t> frontier_off_{0};
  std::span<std::uint64_t* const> root_slots_;
  std::atomic<std::size_t> root_cursor_{0};
  std::span<const ScanRange> ranges_;
  std::atomic<std::size_t> range_cursor_{0};
  CardTable* cards_ = nullptr;
  std::uint64_t* card_base_ = nullptr;
  std::size_t card_words_ = 0;  // 0: no card alignment / crossing map
  LargeObjectSpace* los_ = nullptr;
  bool major_ = false;

  std::atomic<int> entered_{0};
  std::atomic<int> idle_{0};
  std::atomic<bool> done_{false};
  // Workers currently inside run_worker; the collector waits for zero after
  // closing a phase so per-phase state is never reset under a straggler.
  std::atomic<int> active_{0};

  arch::TasWord overflow_lock_;
  std::vector<Region> overflow_;
  // Mirror of overflow_.size(), so idle workers can poll for work without
  // taking the lock.
  std::atomic<std::size_t> overflow_size_{0};
  std::atomic<std::uint64_t> publish_seq_{0};

  // Phase totals (flushed by workers before going idle, so they are complete
  // the moment the termination detector fires).
  std::atomic<std::uint64_t> live_words_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> pushes_{0};
  std::atomic<std::uint64_t> term_rounds_{0};
  std::atomic<std::uint64_t> range_words_{0};
  std::atomic<std::uint64_t> los_marked_{0};
  struct alignas(arch::kCacheLine) PaddedWord {
    std::atomic<std::uint64_t> v{0};
  };
  PaddedWord worker_words_[kMaxWorkers];
};

}  // namespace mp::gc
