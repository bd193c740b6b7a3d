#pragma once

// Large-object space: page-granular allocation for objects too big to earn
// their copying cost (KV values, io frames, big arrays).  Before this space
// existed, oversized allocations were bump-allocated straight into the old
// generation, where every major collection memcpy'd them between semispaces
// and — worse — an old-gen array born with nursery-pointing fields had no
// store-list entry, so its young targets could be missed by the next minor
// collection.  LOS objects are never copied: they are mark-swept by major
// collections.  A traced object is born *dirty* when one of its initial
// values points into the nursery, so the first minor collection after the
// allocation scans its fields like any recorded store; an object of
// immediates or old pointers is born clean and costs a minor nothing.
//
// Layout.  One contiguous anonymous mapping (MAP_NORESERVE: pages cost
// nothing until touched) carved into page runs by a first-fit free list of
// [page, count] extents under a test-and-set lock (allocation is already the
// heap's slow path).  Each run holds exactly one object:
//
//   [LosMeta .. padded to 64 bytes][object header][fields ...]
//
// so a Value points at a perfectly ordinary object header and the collector
// finds the run's metadata at a fixed negative offset.  The mark and dirty
// flags live in the meta, never in the object header — a major collection
// CAS-forwards old-generation headers, and keeping LOS state out of the
// header means LOS objects need no forwarding protocol at all.
//
// The dirty list.  The clean -> dirty transition of an object's flag is an
// exchange, and its one winner appends the object to a list under the same
// lock.  A minor collection's remembered-set gather, its post-copy reset and
// the sweep visit only that list, so their cost follows the objects written
// since the last collection, not every live large object.
//
// Sweeping frees every unmarked run into the free list (re-coalesced, so
// fragmentation cannot accrete across sweeps).  Freed runs stay committed:
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
    std::atomic<std::uint8_t> mark;   // major-collection liveness
    std::atomic<std::uint8_t> dirty;  // may hold young pointers (minor root)
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

  // Allocate a run for an object of `obj_words` (header included); returns
  // the object header address, or nullptr when no extent fits (the caller
  // collects — a major sweeps this space — and retries).
  std::uint64_t* alloc(std::size_t obj_words);

  bool contains(const void* p) const {
    return p >= base_ && p < base_ + arena_bytes_;
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

  // Post-minor: the nursery is empty, no object can hold young pointers;
  // clears the flag of every listed object and empties the list.
  void clear_all_dirty();

  // Post-major: free every unmarked run, release the free pages above this
  // cycle's high-water mark, clear all marks on survivors, and empty the
  // dirty list.
  SweepResult sweep();

  // Enumerate live objects (object header addresses).  Collector-side only.
  template <typename Fn>
  void for_each_object(Fn&& fn) const {
    for (const std::uint32_t page : objects_) {
      fn(object_at(page));
    }
  }

  // Enumerate the dirty list: every object whose flag is set, once each.
  // Collector-side only.
  template <typename Fn>
  void for_each_dirty(Fn&& fn) const {
    for (std::uint64_t* obj : dirty_) fn(obj);
  }

  std::size_t object_count() const { return objects_.size(); }
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

  char* base_ = nullptr;
  std::size_t arena_bytes_ = 0;
  std::size_t arena_pages_ = 0;
  mutable arch::TasWord lock_;
  std::vector<Extent> free_;          // sorted by page; adjacent runs merged
  std::vector<std::uint32_t> objects_;  // first page of every live run
  std::vector<std::uint64_t*> dirty_;   // objects whose dirty flag is set
  std::atomic<std::size_t> used_pages_{0};
  // High-water mark: end of the highest run in use since the previous sweep
  // (survivors of that sweep included).
  std::uint32_t cycle_top_ = 0;
  // Every page at or above this end is released or was never touched.
  std::uint32_t resident_top_ = 0;
};

}  // namespace mp::gc
