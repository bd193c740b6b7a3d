#pragma once

#include <cstddef>
#include <cstdint>

namespace mp::cont {

// Stack slot classes.  Every continuation stack is carved from one of two
// slot sizes: kLarge for ordinary thread bodies (the default, matching the
// seed's 64 KiB segments) and kSmall for fleets of mostly-parked threads —
// per-connection readers/writers, timers — where slot footprint is what
// bounds how many threads fit in memory.  A thread's replacement segments
// (every callcc seals the current segment and continues on a fresh one)
// inherit the class of the segment being sealed, so the choice made at fork
// follows the thread for its whole life.
enum class StackClass : std::uint8_t {
  kSmall = 0,
  kLarge = 1,
};
inline constexpr std::size_t kNumStackClasses = 2;

// Validated stack-slot geometry for the segment pool (cont/segment.h),
// threaded through platform boot on every backend — the replacement for the
// old mutable-global SegmentPool::set_segment_size.  Mirrors gc::HeapConfig:
// plain fields with chainable named setters, and validate() panics on any
// degenerate setting (called by SegmentPool::configure, callable by tests).
struct StackConfig {
  // Usable stack bytes per slot, per class; rounded up to the page size.
  std::size_t small_stack_bytes = 16 * 1024;
  std::size_t large_stack_bytes = 64 * 1024;

  // Inaccessible pages below each slot's usable range (stacks grow down):
  // an overflow faults deterministically in the guard and is reported as a
  // panic naming the owning thread (arch/stackfault.h).  0 selects guardless
  // arenas whose slots merge into one VMA — the only way to hold ~1M live
  // slots under the kernel's default vm.max_map_count, at the price of
  // overflow attribution being best-effort instead of exact.
  std::size_t guard_pages = 1;

  // Slots per reserved arena.  An arena is one PROT_NONE mmap of
  // slots_per_arena * (guard + usable) bytes; slots are committed out of it
  // on demand, so the figure costs address space, not memory.
  std::size_t slots_per_arena = 1024;

  // Recycled slots each proc keeps on a private, lock-free free list (the
  // PR-5 recycled-cell cache shape) before overflowing to the global pool.
  // 0 disables the per-proc caches.
  std::size_t cache_slots_per_proc = 32;

  // Committed free slots the global pool keeps warm per class; beyond this
  // target, released slots are decommitted (madvise MADV_DONTNEED) so RSS
  // tracks the live-thread population instead of its high-water mark.
  std::size_t global_free_target = 256;

  StackConfig& with_small_stack_bytes(std::size_t v) {
    small_stack_bytes = v;
    return *this;
  }
  StackConfig& with_large_stack_bytes(std::size_t v) {
    large_stack_bytes = v;
    return *this;
  }
  StackConfig& with_guard_pages(std::size_t v) {
    guard_pages = v;
    return *this;
  }
  StackConfig& with_slots_per_arena(std::size_t v) {
    slots_per_arena = v;
    return *this;
  }
  StackConfig& with_cache_slots_per_proc(std::size_t v) {
    cache_slots_per_proc = v;
    return *this;
  }
  StackConfig& with_global_free_target(std::size_t v) {
    global_free_target = v;
    return *this;
  }

  std::size_t class_bytes(StackClass c) const noexcept {
    return c == StackClass::kSmall ? small_stack_bytes : large_stack_bytes;
  }

  // Panics with a clear message on any degenerate setting.
  void validate() const;

  friend bool operator==(const StackConfig& a, const StackConfig& b) noexcept {
    return a.small_stack_bytes == b.small_stack_bytes &&
           a.large_stack_bytes == b.large_stack_bytes &&
           a.guard_pages == b.guard_pages &&
           a.slots_per_arena == b.slots_per_arena &&
           a.cache_slots_per_proc == b.cache_slots_per_proc &&
           a.global_free_target == b.global_free_target;
  }
  friend bool operator!=(const StackConfig& a, const StackConfig& b) noexcept {
    return !(a == b);
  }
};

}  // namespace mp::cont
