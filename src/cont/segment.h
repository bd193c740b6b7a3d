#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/ctx.h"
#include "arch/stackfault.h"
#include "arch/tas.h"
#include "cont/stack_config.h"

namespace mp::cont {

class ContCore;
struct SlotArena;
void cont_unref(ContCore* core) noexcept;  // defined in cont.cpp

// A pooled stack slot.  Continuation capture seals the current segment into
// the continuation and moves execution to a fresh segment, so capture is
// O(1) — the property that makes SML/NJ-style threads cheap (paper section
// 2: "callcc simply allocates and initializes a new closure without having
// to copy anything").
//
// Segments are slots carved out of large PROT_NONE arena reservations
// (docs/STACKS.md): committing a slot is one mprotect, releasing a surplus
// slot is one madvise, and a guard region below the usable range turns an
// overflow into a deterministic fault attributed to the owning thread
// (arch/stackfault.h).  The top kBootReserve bytes of each slot hold the
// pending callcc's boot record, so booting a segment allocates nothing.
//
// Lifetime is reference counted.  References are held by:
//   * the proc currently executing on the segment (the "running" reference),
//   * every continuation whose saved frame lives in the segment,
//   * nothing else — queues and clients reference ContCores, not segments.
// In addition a segment holds one reference to its *parent continuation*:
// the continuation that a normal return off the segment's bottom frame
// implicitly fires.  Dropping the last reference to a segment therefore
// releases the parent continuation too, which reclaims abandoned
// continuation chains without unwinding them.
class StackSegment {
 public:
  // Space reserved at the top of every slot for the in-place boot record.
  static constexpr std::size_t kBootReserve = 512;
  static constexpr std::size_t kBootAlign = 64;

  std::byte* stack_base() const noexcept { return usable_base_; }
  std::size_t stack_size() const noexcept { return usable_size_; }
  // The boot-record area above the usable stack range.
  void* boot_area() const noexcept { return usable_base_ + usable_size_; }
  StackClass klass() const noexcept { return klass_; }

  void add_ref() noexcept { refs_.fetch_add(1, std::memory_order_relaxed); }
  // Drops one reference; frees the segment (returning it to the pool) and
  // releases the parent continuation when the count reaches zero.  Must not
  // be called on the segment the caller is currently executing on — defer
  // through ExecContext::pending_release instead.
  void drop_ref() noexcept;

  // Stamp the logical thread executing on this segment; shown by the
  // stack-overflow fault report.  `name` (may be null) is copied.
  void stamp_owner(int tid, const char* name) noexcept;
  // Capture hands the executing thread's identity to its fresh segment.
  void copy_owner_from(const StackSegment& other) noexcept {
    stamp_owner(other.owner_tid_, other.owner_name_);
  }

  // Destroys the pending boot record, in place or on the heap (see
  // boot_inplace).  Safe to call with no record pending.
  void destroy_boot_record() noexcept;

  // Parent continuation fired on normal return off this segment's bottom
  // frame; owned (one ContCore reference).  Managed by callcc/trampoline.
  ContCore* parent_cont = nullptr;

  // Boot context fabricated by ctx_make for this segment's trampoline.
  arch::Context boot_ctx;

  // Type-erased boot record for the pending callcc body (see cont.cpp) and
  // whether it was placement-constructed in boot_area().
  void* boot_record = nullptr;
  bool boot_inplace = false;

  // TSan fiber identity for executions on this stack (arch/fiber_san.h);
  // created when the segment is booted, destroyed when it is recycled.
  void* san_fiber = nullptr;

  // Debug invariant: number of live *unfired* continuations sealed into this
  // segment.  More than one would mean a resumed execution could overwrite
  // another live continuation's frames.
  std::atomic<int> live_seals{0};

 private:
  friend class SegmentPool;
  friend struct SlotArena;
  StackSegment() = default;
  ~StackSegment() = default;

  std::atomic<int> refs_{0};
  std::byte* usable_base_ = nullptr;
  std::size_t usable_size_ = 0;  // excludes kBootReserve
  StackClass klass_ = StackClass::kLarge;
  arch::stackfault::SlotInfo* slot_info_ = nullptr;
  std::uint64_t gen_ = 0;  // pool generation the slot was carved under
  int owner_tid_ = -1;     // shadow of slot_info_ for hand-off
  char owner_name_[24] = {};
  StackSegment* free_next_ = nullptr;
};

// Per-proc cache of recycled slots, embedded in ExecContext.  Owner-only:
// only the proc the cache belongs to pushes or pops, so no lock is needed
// (the ProcCore recycled-cell discipline).
struct StackCache {
  StackSegment* head[kNumStackClasses] = {};
  int count[kNumStackClasses] = {};
};

// Process-wide pool of stack slots in two size classes, carved on demand out
// of large PROT_NONE arena reservations.  Acquisition order: the current
// proc's StackCache, then the global hot list (committed slots), then the
// cold list (decommitted slots), then a fresh slot from the newest arena.
class SegmentPool {
 public:
  static SegmentPool& instance();

  // Applies a validated stack geometry.  A no-op when `cfg` equals the
  // current configuration; otherwise panics if any segment is outstanding.
  // Old-generation arenas stay reserved (cached slots pointing into them
  // are retired lazily), so reconfiguring costs address space, not safety.
  void configure(const StackConfig& cfg);
  const StackConfig& config() const noexcept { return config_; }

  // Returns a segment with one reference (the caller's running reference).
  StackSegment* acquire(StackClass cls = StackClass::kLarge);
  // Internal: called by StackSegment::drop_ref when the count reaches zero.
  void recycle(StackSegment* seg) noexcept;
  // Returns a proc's cached slots to the global pool (ExecContext teardown).
  void flush_cache(StackCache* cache) noexcept;

  // Statistics for tests and leak checks.
  std::int64_t outstanding() const noexcept {
    return outstanding_.load(std::memory_order_relaxed);
  }
  std::int64_t total_created() const noexcept {
    return created_.load(std::memory_order_relaxed);
  }
  // Bytes of stack currently committed (acquired slots + hot free slots);
  // maintained unconditionally, independent of MPNJ_METRICS.
  std::int64_t committed_bytes() const noexcept {
    return committed_.load(std::memory_order_relaxed);
  }
  // Decommits every hot free slot (tests use this between configurations;
  // arenas stay reserved).
  void trim();

  // Deterministic commit/decommit accounting hook (the sim backend charges
  // modeled page costs through it).  Called outside the pool lock.
  using AccountFn = void (*)(void* arg, std::int64_t commit_bytes,
                             std::int64_t decommit_bytes);
  void set_accounting(AccountFn fn, void* arg) noexcept;

 private:
  SegmentPool();

  struct ClassState {
    std::vector<std::unique_ptr<SlotArena>> arenas;
    StackSegment* hot = nullptr;  // committed free slots
    int hot_count = 0;
    StackSegment* cold = nullptr;  // decommitted free slots
    int cold_count = 0;
  };

  StackSegment* carve_locked(int c, std::int64_t* commit);
  void retire_slot(StackSegment* seg) noexcept;
  void release_to_global(StackSegment* seg) noexcept;
  void account(std::int64_t commit, std::int64_t decommit) noexcept;

  arch::TasWord lock_;
  StackConfig config_;
  std::atomic<std::uint64_t> gen_{0};  // bumped by every geometry change
  ClassState classes_[kNumStackClasses];
  std::vector<std::unique_ptr<SlotArena>> retired_arenas_;
  std::atomic<std::int64_t> outstanding_{0};
  std::atomic<std::int64_t> created_{0};
  std::atomic<std::int64_t> committed_{0};
  std::atomic<AccountFn> acct_fn_{nullptr};
  std::atomic<void*> acct_arg_{nullptr};
};

}  // namespace mp::cont
