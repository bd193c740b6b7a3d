#pragma once

// Large-object space: page-granular allocation for objects too big to earn
// their copying cost (KV values, io frames, big arrays).  Before this space
// existed, oversized allocations were bump-allocated straight into the old
// generation, where every major collection memcpy'd them between semispaces
// and — worse — an old-gen array born with nursery-pointing fields had no
// store-list entry, so its young targets could be missed by the next minor
// collection.  LOS objects are never copied: they are mark-swept, the young
// ones by minor collections (below) and the rest by majors.  A traced object is born *dirty* when one of its initial
// values is young (in the nursery, or a young large object), so the first
// minor collection after the allocation scans its fields like any recorded
// store; an object of immediates or old pointers is born clean and costs a
// minor nothing.
//
// Layout.  One contiguous anonymous mapping (MAP_NORESERVE: pages cost
// nothing until touched) carved into page runs by a first-fit free list of
// [page, count] extents under a test-and-set lock (allocation is already the
// heap's slow path).  Each run holds exactly one object:
//
//   [LosMeta .. padded to 64 bytes][object header][fields ...]
//
// so a Value points at a perfectly ordinary object header and the collector
// finds the run's metadata at a fixed negative offset.  The mark, dirty and
// young flags live in the meta, never in the object header — a major
// collection CAS-forwards old-generation headers, and keeping LOS state out
// of the header means LOS objects need no forwarding protocol at all.
//
// Young runs.  A run is born young: its flag is set and it sits on the young
// list, beside the list of old runs.  A minor collection marks the young
// objects it reaches from roots, remembered ranges and promoted objects,
// without scanning their fields: a young object that may hold a young
// pointer is dirty (born so, or written through the barrier), so its
// fields are a remembered range of that same minor.  After the copy,
// sweep_young frees every unmarked young run.  A survivor that a heap slot
// reached turns old, since that slot leaves the remembered set with the
// minor.  One that only roots reached stays young: no heap slot points at
// it, and every later pointer to it from the heap is written through the
// barrier, promoted from the nursery or an initial value of a born-dirty
// object, so the next minor sees it again (roots are scanned anew every
// minor).  A major's sweep turns every survivor old.  A large buffer that
// only a thread's frames hold is thus freed by the first minor after it
// dies, not by the next major.
//
// The dirty list.  The clean -> dirty transition of an object's flag is an
// exchange, and its one winner appends the object to a list under the same
// lock.  A minor collection's remembered-set gather, its post-copy reset and
// the sweep visit only that list, so their cost follows the objects written
// since the last collection, not every live large object.
//
// Sweeping frees every unmarked run into the free list (re-coalesced, so
// fragmentation cannot accrete across sweeps); so does a minor's
// sweep_young for its young runs.  Freed runs stay committed:
// the next cycle's allocations reuse them first-fit, and handing them to the
// kernel would only fault them straight back in.  The sweep returns to the
// kernel (MADV_DONTNEED, one call) only the free pages above the highest
// page in use since the previous sweep, so a workload whose large-object
// demand falls gives that memory back, and the resident set never exceeds
// the largest footprint a cycle between two majors reached.

#include <atomic>
#include <cstdint>
#include <vector>

#include "arch/tas.h"

namespace mp::gc {

class LargeObjectSpace {
 public:
  static constexpr std::size_t kPageBytes = 4096;
  // Meta prefix before the object header; one cache line keeps the header
  // 8-byte aligned and the mutator's dirty flag off the collector's fields.
  static constexpr std::size_t kMetaWords = 8;

  struct Meta {
    std::uint32_t magic;           // kMagic for a live run
    std::uint32_t pages;           // run length, pages
    std::uint64_t obj_words;       // header + fields
    std::atomic<std::uint8_t> mark;   // reached by the collection under way
    std::atomic<std::uint8_t> dirty;  // may hold young pointers (minor root)
    std::atomic<std::uint8_t> young;  // allocated since the last collection
  };
  static constexpr std::uint32_t kMagic = 0x105B10C5;

  struct SweepResult {
    std::uint64_t objects_freed = 0;
    std::uint64_t bytes_freed = 0;
    std::uint64_t pages_freed = 0;
    std::uint64_t objects_live = 0;
    std::uint64_t pages_released = 0;  // handed back to the kernel
  };

  LargeObjectSpace() = default;
  ~LargeObjectSpace();
  LargeObjectSpace(const LargeObjectSpace&) = delete;
  LargeObjectSpace& operator=(const LargeObjectSpace&) = delete;

  // Reserve an arena of `arena_bytes` (multiple of the page size).
  void init(std::size_t arena_bytes);

  // Length in pages of the run that holds an object of `obj_words`.
  static std::size_t run_pages(std::size_t obj_words) {
    const std::size_t bytes = (kMetaWords + obj_words) * sizeof(std::uint64_t);
    return (bytes + kPageBytes - 1) / kPageBytes;
  }

  // Allocate a young run for an object of `obj_words` (header included);
  // returns the object header address, or nullptr when no extent fits (the
  // caller collects — a major sweeps this space — and retries).
  std::uint64_t* alloc(std::size_t obj_words);

  bool contains(const void* p) const {
    return p >= base_ && p < base_ + arena_bytes_;
  }

  // True iff `p`, a pointer into the heap, is a young large object.
  bool is_young(const std::uint64_t* p) const {
    return contains(p) &&
           meta_of(p)->young.load(std::memory_order_relaxed) != 0;
  }

  // Meta of an object returned by alloc() (fixed negative offset).
  static Meta* meta_of(std::uint64_t* obj) {
    return reinterpret_cast<Meta*>(obj - kMetaWords);
  }
  static const Meta* meta_of(const std::uint64_t* obj) {
    return reinterpret_cast<const Meta*>(obj - kMetaWords);
  }

  // Mutator barrier / allocation: flag the object as possibly holding young
  // pointers.  Only the caller whose exchange moves the flag from clean to
  // dirty appends the object to the dirty list, so it is listed once.
  void set_dirty(std::uint64_t* obj) {
    std::atomic<std::uint8_t>& d = meta_of(obj)->dirty;
    if (d.load(std::memory_order_relaxed) != 0) return;
    if (d.exchange(1, std::memory_order_relaxed) != 0) return;
    arch::TasGuard guard(lock_);
    dirty_.push_back(obj);
  }

  // Collector marking (major phase): returns true for the worker that
  // transitions the object unmarked -> marked and must scan its fields.
  static bool try_mark(std::uint64_t* obj) {
    return meta_of(obj)->mark.exchange(1, std::memory_order_acq_rel) == 0;
  }

  // Collector marking (minor phase): a young object reached through a root
  // slot (`from_root`) or a heap slot survives the minor.  Its fields are
  // not scanned (see "Young runs" above), so racing workers need not agree
  // on a winner; each sets its bit at most once.
  static constexpr std::uint8_t kReachedFromRoot = 1;
  static constexpr std::uint8_t kReachedFromHeap = 2;
  static void mark_young(std::uint64_t* obj, bool from_root) {
    Meta* m = meta_of(obj);
    const std::uint8_t bit = from_root ? kReachedFromRoot : kReachedFromHeap;
    if (m->young.load(std::memory_order_relaxed) != 0 &&
        (m->mark.load(std::memory_order_relaxed) & bit) == 0) {
      m->mark.fetch_or(bit, std::memory_order_relaxed);
    }
  }

  // Post-minor: the nursery is empty, no object can hold young pointers, so
  // the dirty list empties; then every unmarked young run is freed, and a
  // young object a heap slot reached turns old.  Frees pages only into the
  // free list.
  SweepResult sweep_young();

  // Post-major: free every unmarked run, release the free pages above this
  // cycle's high-water mark, clear all marks on survivors (which are all
  // old from here on), and empty the dirty list.
  SweepResult sweep();

  // Enumerate live objects (object header addresses).  Collector-side only.
  template <typename Fn>
  void for_each_object(Fn&& fn) const {
    for (const std::uint32_t page : old_) fn(object_at(page));
    for_each_young(fn);
  }

  // Enumerate the dirty list: every object whose flag is set, once each.
  // Collector-side only.
  template <typename Fn>
  void for_each_dirty(Fn&& fn) const {
    for (std::uint64_t* obj : dirty_) fn(obj);
  }

  // Enumerate the young list.  Collector-side only.
  template <typename Fn>
  void for_each_young(Fn&& fn) const {
    for (const std::uint32_t page : young_) fn(object_at(page));
  }

  std::size_t used_bytes() const {
    return used_pages_.load(std::memory_order_relaxed) * kPageBytes;
  }
  std::size_t arena_bytes() const { return arena_bytes_; }

  // Verification support: true iff `p` is the header address of a live LOS
  // object (meta magic and geometry check out).
  bool is_object_start(const std::uint64_t* p) const;

 private:
  std::uint64_t* object_at(std::uint32_t page) const {
    return reinterpret_cast<std::uint64_t*>(base_ + std::size_t{page} *
                                                        kPageBytes) +
           kMetaWords;
  }

  struct Extent {
    std::uint32_t page;
    std::uint32_t pages;
  };
  // Sort by page and merge adjacent extents.
  static void coalesce(std::vector<Extent>& extents);
  // Clear the flag of every listed object and empty the list; lock_ held.
  void clear_dirty_locked();
  // Free the run at `page` into the free list (not yet coalesced) and count
  // it in *res; lock_ held.
  void free_run_locked(std::uint32_t page, Meta* meta, SweepResult* res);

  char* base_ = nullptr;
  std::size_t arena_bytes_ = 0;
  std::size_t arena_pages_ = 0;
  mutable arch::TasWord lock_;
  std::vector<Extent> free_;          // sorted by page; adjacent runs merged
  std::vector<std::uint32_t> old_;    // first page of every old run
  std::vector<std::uint32_t> young_;  // first page of every young run
  std::vector<std::uint64_t*> dirty_;   // objects whose dirty flag is set
  std::atomic<std::size_t> used_pages_{0};
  // High-water mark: end of the highest run in use since the previous sweep
  // (survivors of that sweep included).
  std::uint32_t cycle_top_ = 0;
  // Every page at or above this end is released or was never touched.
  std::uint32_t resident_top_ = 0;
};

}  // namespace mp::gc
