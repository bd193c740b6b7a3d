#include "gc/parallel_copy.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "arch/panic.h"
#include "gc/object_layout.h"
#include "metrics/metrics.h"

namespace mp::gc {

namespace {

// Spin politely: the rendezvoused procs may outnumber the host's cores, so
// a pure pause loop could starve the worker that holds the work.
inline void relax(std::uint32_t n) {
  arch::cpu_relax();
  if ((n & 0x3Fu) == 0x3Fu) std::this_thread::yield();
}

}  // namespace

ParallelCopier::ParallelCopier(std::size_t block_words)
    : block_words_(block_words) {}

void ParallelCopier::begin_cycle() {
  cycle_open_.store(true, std::memory_order_release);
}

void ParallelCopier::end_cycle() {
  cycle_open_.store(false, std::memory_order_release);
}

ParallelCopier::PhaseResult ParallelCopier::run_phase(const PhaseSpaces& in) {
  // Reset per-phase state.  No worker can be inside run_worker here: the
  // previous phase waited for active_ == 0 and phase_seq_ is even.
  from_lo_ = in.from_lo;
  from_hi_ = in.from_hi;
  to_base_ = *in.frontier;
  to_words_ = static_cast<std::size_t>(in.to_limit - to_base_);
  frontier_off_.store(0, std::memory_order_relaxed);
  root_slots_ = in.roots;
  root_cursor_.store(0, std::memory_order_relaxed);
  ranges_ = in.ranges;
  range_cursor_.store(0, std::memory_order_relaxed);
  cards_ = in.cards;
  card_base_ = in.card_base;
  card_words_ = (in.cards != nullptr) ? in.cards->card_words() : 0;
  los_ = in.los;
  major_ = in.major;
  entered_.store(0, std::memory_order_relaxed);
  idle_.store(0, std::memory_order_relaxed);
  done_.store(false, std::memory_order_relaxed);
  {
    arch::TasGuard guard(overflow_lock_);
    overflow_.clear();
    overflow_size_.store(0, std::memory_order_relaxed);
  }
  publish_seq_.store(0, std::memory_order_relaxed);
  live_words_.store(0, std::memory_order_relaxed);
  steals_.store(0, std::memory_order_relaxed);
  pushes_.store(0, std::memory_order_relaxed);
  term_rounds_.store(0, std::memory_order_relaxed);
  range_words_.store(0, std::memory_order_relaxed);
  los_marked_.store(0, std::memory_order_relaxed);
  for (auto& ww : worker_words_) ww.v.store(0, std::memory_order_relaxed);

  // The crossing map is rebuilt from the to-space base in card mode, and
  // blocks are carved card-aligned, so the frontier must start on a card.
  if (card_words_ != 0) {
    MPNJ_CHECK((static_cast<std::size_t>(to_base_ - card_base_) &
                (card_words_ - 1)) == 0,
               "to-space frontier not card aligned");
  }

  // Open the phase (odd sequence) and work it ourselves: the collector is
  // just another worker until the termination detector fires.
  const std::uint64_t myseq =
      phase_seq_.fetch_add(1, std::memory_order_acq_rel) + 1;
  run_worker(myseq);

  // Close the phase, then wait for stragglers so the totals (and the pads
  // they write into their block tails) are complete before we read them.
  phase_seq_.fetch_add(1, std::memory_order_acq_rel);
  std::uint32_t spins = 0;
  while (active_.load(std::memory_order_acquire) != 0) relax(spins++);

  PhaseResult res;
  res.live_words = live_words_.load(std::memory_order_relaxed);
  const std::size_t carved = frontier_off_.load(std::memory_order_relaxed);
  // Every carved word is either a copied survivor or block-tail padding.
  res.pad_words = static_cast<std::uint64_t>(carved) - res.live_words;
  res.steals = steals_.load(std::memory_order_relaxed);
  res.overflow_pushes = pushes_.load(std::memory_order_relaxed);
  res.term_rounds = term_rounds_.load(std::memory_order_relaxed);
  res.range_words = range_words_.load(std::memory_order_relaxed);
  res.los_marked = los_marked_.load(std::memory_order_relaxed);
  res.workers = entered_.load(std::memory_order_relaxed);
  const int nw = std::min(res.workers, kMaxWorkers);
  for (int i = 0; i < nw; i++) {
    res.worker_words.push_back(
        worker_words_[i].v.load(std::memory_order_relaxed));
  }
  *in.frontier = to_base_ + carved;
  return res;
}

void ParallelCopier::worker_cycle() {
  std::uint64_t last_worked = 0;
  std::uint32_t spins = 0;
  while (cycle_open_.load(std::memory_order_acquire)) {
    const std::uint64_t seq = phase_seq_.load(std::memory_order_acquire);
    if ((seq & 1u) != 0 && seq != last_worked) {
      run_worker(seq);
      last_worked = seq;
      spins = 0;
      continue;
    }
    relax(spins++);
  }
}

void ParallelCopier::run_worker(std::uint64_t myseq) {
  active_.fetch_add(1, std::memory_order_acq_rel);
  // Re-check under the active_ guard: if the phase already closed, the
  // collector is (or will be) waiting for active_ == 0 and the per-phase
  // state must not be touched.
  if (phase_seq_.load(std::memory_order_acquire) != myseq ||
      done_.load(std::memory_order_acquire)) {
    active_.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }
  const int wid = entered_.fetch_add(1, std::memory_order_acq_rel);
  if (wid >= kMaxWorkers) {
    entered_.fetch_sub(1, std::memory_order_acq_rel);
    active_.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }

  Worker w;
  claim_roots(w);
  claim_ranges(w);
  drain_all(w);
  for (;;) {
    Region r;
    if (try_steal(&r)) {
      w.steals++;
      steals_.fetch_add(1, std::memory_order_relaxed);
      scan_region(w, r);
      drain_all(w);
      continue;
    }
    // Out of local work and the overflow stack looked empty.  Publish our
    // totals *before* going idle: termination requires every entered worker
    // idle, so at that instant all totals are complete.
    flush_stats(w, wid);
    idle_.fetch_add(1, std::memory_order_acq_rel);
    if (!wait_for_work(w, wid)) break;
  }
  // Termination: pad the final block's unused tail so to-space parses.
  retire_block(w);
  flush_stats(w, wid);
  active_.fetch_sub(1, std::memory_order_acq_rel);
}

void ParallelCopier::claim_roots(Worker& w) {
  constexpr std::size_t kBatch = 16;
  const std::size_t n = root_slots_.size();
  for (;;) {
    const std::size_t i = root_cursor_.fetch_add(kBatch,
                                                 std::memory_order_acq_rel);
    if (i >= n) return;
    const std::size_t end = std::min(i + kBatch, n);
    for (std::size_t j = i; j < end; j++) {
      forward_slot(w, root_slots_[j], /*from_root=*/true);
    }
  }
}

void ParallelCopier::claim_ranges(Worker& w) {
  const std::size_t n = ranges_.size();
  if (n == 0) return;
  for (;;) {
    const std::size_t i = range_cursor_.fetch_add(1, std::memory_order_acq_rel);
    if (i >= n) return;
    scan_range(w, ranges_[i]);
  }
}

void ParallelCopier::scan_range(Worker& w, const ScanRange& r) {
  // Parse objects from r.parse but forward only slots inside [lo, hi): a
  // range's slots belong to exactly one range (dirty cards are deduplicated,
  // LOS ranges cover whole distinct objects), so the one-writer-per-slot
  // invariant survives objects straddling range boundaries.
  std::uint64_t* p = r.parse;
  while (p < r.hi) {
    const std::uint64_t hdr = p[0];
    const std::size_t fields = header_field_words(hdr);
    std::uint64_t* obj_end = p + 1 + fields;
    if (header_is_traced(hdr)) {
      std::uint64_t* s = std::max(p + 1, r.lo);
      std::uint64_t* e = std::min(obj_end, r.hi);
      for (; s < e; s++) forward_slot(w, s);
    }
    p = obj_end;
  }
  w.range_words += static_cast<std::uint64_t>(r.hi - r.lo);
}

void ParallelCopier::forward_slot(Worker& w, std::uint64_t* slot,
                                  bool from_root) {
  // Each slot is claimed by exactly one worker (root slots are deduplicated,
  // object slots belong to the worker scanning the object), so the slot
  // itself needs no synchronization — only the from-space header does.
  const std::uint64_t bits = *slot;
  if (bits == 0 || (bits & 1u) != 0) return;  // nil or immediate int
  auto* obj = reinterpret_cast<std::uint64_t*>(bits);
  if (obj < from_lo_ || obj >= from_hi_) {
    // Not in the evacuated space.  The pointer may lead into the
    // large-object space: a minor marks a young object live, with no scan;
    // a major marks any object, and whoever wins the mark CAS owes its
    // fields a scan (exactly one scanner per object).
    if (los_ != nullptr && los_->contains(obj)) {
      if (!major_) {
        LargeObjectSpace::mark_young(obj, from_root);
      } else if (LargeObjectSpace::try_mark(obj)) {
        w.los_marked++;
        if (header_is_traced(obj[0])) w.los_pending.push_back(obj);
      }
    }
    return;
  }
  std::atomic_ref<std::uint64_t> hdr_ref(obj[0]);
  std::uint64_t hdr = hdr_ref.load(std::memory_order_acquire);
  if ((hdr & 1u) != 0) {  // already forwarded
    *slot = hdr & ~std::uint64_t{1};
    return;
  }
  const std::size_t words = 1 + header_field_words(hdr);
  // Reserve destination space from our own block first, then race for the
  // object with a single CAS on its header.  Winning installs dst|1 as the
  // forwarding word; losing un-bumps the (still unwritten) reservation.
  std::uint64_t* dst = reserve(w, words);
  if (hdr_ref.compare_exchange_strong(
          hdr, reinterpret_cast<std::uint64_t>(dst) | 1u,
          std::memory_order_acq_rel, std::memory_order_acquire)) {
    dst[0] = hdr;
    if (words > 1) std::memcpy(dst + 1, obj + 1, (words - 1) * kWordBytes);
    w.copied += words;
    if (card_words_ != 0) {
      cards_->record_object(static_cast<std::size_t>(dst - card_base_), words);
    }
    *slot = reinterpret_cast<std::uint64_t>(dst);
  } else {
    w.alloc -= words;
    MPNJ_CHECK((hdr & 1u) != 0,
               "from-space header changed without being forwarded");
    *slot = hdr & ~std::uint64_t{1};
  }
}

std::uint64_t* ParallelCopier::reserve(Worker& w, std::size_t words) {
  if (w.block == nullptr ||
      static_cast<std::size_t>(w.limit - w.alloc) < words) {
    retire_block(w);
    std::size_t take = std::max(block_words_, words);
    // Card mode: whole-card blocks make this worker the only crossing-map
    // writer for every card its block covers, and keep the shared frontier
    // card-aligned for the next carve.
    if (card_words_ != 0) {
      take = (take + card_words_ - 1) & ~(card_words_ - 1);
    }
    const std::size_t off =
        frontier_off_.fetch_add(take, std::memory_order_acq_rel);
    if (off + take > to_words_) {
      arch::panic(
          "old generation exhausted during parallel collection; grow "
          "old_bytes");
    }
    w.block = to_base_ + off;
    w.scan = w.block;
    w.alloc = w.block;
    w.limit = w.block + take;
  }
  std::uint64_t* p = w.alloc;
  w.alloc += words;
  return p;
}

void ParallelCopier::retire_block(Worker& w) {
  if (w.block == nullptr) return;
  // Hand the unscanned remainder to idle workers; every object in it was
  // fully written by this worker before the publish (the overflow lock's
  // release edge orders the writes for the stealer).
  if (w.scan < w.alloc) publish(w, Region{w.scan, w.alloc});
  if (w.alloc < w.limit) {
    const auto gap = static_cast<std::size_t>(w.limit - w.alloc);
    w.alloc[0] = make_pad_header(gap);  // payload stays garbage; never read
    if (card_words_ != 0) {
      cards_->record_object(static_cast<std::size_t>(w.alloc - card_base_),
                            gap);
    }
  }
  w.block = w.scan = w.alloc = w.limit = nullptr;
}

void ParallelCopier::drain_own(Worker& w) {
  // Cheney scan of our own block.  The scan pointer is advanced past the
  // object *before* its fields are forwarded, so a block retirement in the
  // middle of scan_fields never publishes the object we are working on.
  while (w.scan < w.alloc) {
    std::uint64_t* obj = w.scan;
    const std::uint64_t hdr = obj[0];
    w.scan = obj + 1 + header_field_words(hdr);
    if (header_is_traced(hdr)) scan_fields(w, obj);
  }
}

void ParallelCopier::drain_all(Worker& w) {
  // The block scan and the pending LOS scans feed each other (a promoted
  // object can point at a large object and vice versa); alternate to a joint
  // fixpoint.
  for (;;) {
    drain_own(w);
    if (w.los_pending.empty()) return;
    std::uint64_t* obj = w.los_pending.back();
    w.los_pending.pop_back();
    scan_fields(w, obj);
  }
}

void ParallelCopier::scan_fields(Worker& w, std::uint64_t* obj) {
  const std::uint64_t hdr = obj[0];
  const std::size_t n = header_field_words(hdr);
  for (std::size_t i = 0; i < n; i++) forward_slot(w, obj + 1 + i);
}

void ParallelCopier::scan_region(Worker& w, Region r) {
  std::uint64_t* p = r.lo;
  while (p < r.hi) {
    std::uint64_t* obj = p;
    const std::uint64_t hdr = obj[0];
    p += 1 + header_field_words(hdr);
    if (header_is_traced(hdr)) scan_fields(w, obj);
  }
}

bool ParallelCopier::try_steal(Region* out) {
  if (overflow_size_.load(std::memory_order_acquire) == 0) return false;
  arch::TasGuard guard(overflow_lock_);
  if (overflow_.empty()) return false;
  *out = overflow_.back();
  overflow_.pop_back();
  overflow_size_.store(overflow_.size(), std::memory_order_relaxed);
  return true;
}

void ParallelCopier::publish(Worker& w, Region r) {
  w.pushes++;
  pushes_.fetch_add(1, std::memory_order_relaxed);
  arch::TasGuard guard(overflow_lock_);
  overflow_.push_back(r);
  overflow_size_.store(overflow_.size(), std::memory_order_relaxed);
  publish_seq_.fetch_add(1, std::memory_order_release);
}

bool ParallelCopier::overflow_empty() {
  return overflow_size_.load(std::memory_order_acquire) == 0;
}

bool ParallelCopier::wait_for_work(Worker& w, int wid) {
  (void)w;
  (void)wid;
  std::uint32_t spins = 0;
  for (;;) {
    if (done_.load(std::memory_order_acquire)) return false;
    if (!overflow_empty()) {
      // Leave idle *before* attempting the steal so idle_ == entered_ can
      // only hold when no worker is between popping a region and working it.
      idle_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
    // Phase one: everyone idle, nothing published, cursor exhausted (a
    // worker only goes idle after draining the root cursor).
    if (idle_.load(std::memory_order_acquire) ==
        entered_.load(std::memory_order_acquire)) {
      const std::uint64_t seq = publish_seq_.load(std::memory_order_acquire);
      if (overflow_empty() &&
          idle_.load(std::memory_order_acquire) ==
              entered_.load(std::memory_order_acquire)) {
        // Phase two: a full confirming round.  Work can only appear through
        // a publish, and a publisher must leave idle first, so if the
        // sequence and the counts still agree the state is stable.
        term_rounds_.fetch_add(1, std::memory_order_relaxed);
        if (publish_seq_.load(std::memory_order_acquire) == seq &&
            overflow_empty() &&
            idle_.load(std::memory_order_acquire) ==
                entered_.load(std::memory_order_acquire)) {
          done_.store(true, std::memory_order_release);
          return false;
        }
      }
    }
    relax(spins++);
  }
}

void ParallelCopier::flush_stats(Worker& w, int wid) {
  std::uint64_t delta = w.copied - w.flushed;
  if (delta != 0) {
    live_words_.fetch_add(delta, std::memory_order_relaxed);
    worker_words_[wid].v.fetch_add(delta, std::memory_order_relaxed);
    w.flushed = w.copied;
  }
  if (w.range_words != 0) {
    range_words_.fetch_add(w.range_words, std::memory_order_relaxed);
    w.range_words = 0;
  }
  if (w.los_marked != 0) {
    los_marked_.fetch_add(w.los_marked, std::memory_order_relaxed);
    w.los_marked = 0;
  }
}

}  // namespace mp::gc
