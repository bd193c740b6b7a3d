#include "cont/segment.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>

#include "arch/fiber_san.h"
#include "arch/panic.h"
#include "arch/tas.h"
#include "cont/cont.h"
#include "cont/exec.h"
#include "metrics/metrics.h"

namespace mp::cont {

namespace {

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

// Full committed span of a slot: the usable stack plus the boot reserve.
std::size_t usable_total(const StackSegment* seg) {
  return seg->stack_size() + StackSegment::kBootReserve;
}

}  // namespace

// One PROT_NONE reservation holding slots_per_arena equally sized slots of a
// single class.  Arenas are never unmapped while the pool lives: retired
// generations keep their reservation so stale cached slots stay mappable
// (they are merely decommitted and parked forever).
struct SlotArena {
  std::byte* base = nullptr;
  std::size_t bytes = 0;
  std::size_t stride = 0;  // guard + usable
  std::size_t guard = 0;
  std::size_t usable = 0;  // includes StackSegment::kBootReserve
  std::size_t num_slots = 0;
  std::size_t next_fresh = 0;  // next never-carved slot index
  StackClass cls = StackClass::kLarge;
  StackSegment* segs = nullptr;
  std::vector<arch::stackfault::SlotInfo> slots;

  ~SlotArena() {
    delete[] segs;
    if (base != nullptr) munmap(base, bytes);
  }

  void init(std::size_t n) {
    num_slots = n;
    segs = new StackSegment[n];
    slots = std::vector<arch::stackfault::SlotInfo>(n);
  }
};

void StackSegment::drop_ref() noexcept {
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    MPNJ_CHECK(live_seals.load(std::memory_order_relaxed) == 0,
               "segment freed with live sealed continuations");
    SegmentPool::instance().recycle(this);
  }
}

void StackSegment::stamp_owner(int tid, const char* name) noexcept {
  owner_tid_ = tid;
  if (name != nullptr && name != owner_name_) {
    std::size_t i = 0;
    for (; name[i] != '\0' && i + 1 < sizeof(owner_name_); i++) {
      owner_name_[i] = name[i];
    }
    owner_name_[i] = '\0';
  } else if (name == nullptr) {
    owner_name_[0] = '\0';
  }
  std::memcpy(slot_info_->name, owner_name_, sizeof(owner_name_));
  slot_info_->tid.store(tid, std::memory_order_relaxed);
}

void StackSegment::destroy_boot_record() noexcept {
  if (boot_record == nullptr) return;
  auto* rec = static_cast<detail::BootRecord*>(boot_record);
  boot_record = nullptr;
  if (boot_inplace) {
    rec->~BootRecord();
  } else {
    delete rec;
  }
  boot_inplace = false;
}

SegmentPool::SegmentPool() = default;

SegmentPool& SegmentPool::instance() {
  // Deliberately leaked: proc threads may still be recycling segments while
  // static destructors run, so the pool (and its arenas) must outlive exit.
  static SegmentPool* pool = new SegmentPool();
  return *pool;
}

void SegmentPool::configure(const StackConfig& cfg) {
  cfg.validate();
  std::int64_t dec = 0;
  {
    arch::TasGuard guard(lock_);
    if (cfg == config_) return;
    MPNJ_CHECK(outstanding_.load(std::memory_order_relaxed) == 0,
               "cannot reconfigure stack slots while segments are outstanding");
    for (auto& st : classes_) {
      // The free lists die with the old geometry; their slots stay parked in
      // the now-retired arenas.
      while (st.hot != nullptr) {
        StackSegment* seg = st.hot;
        st.hot = seg->free_next_;
        seg->free_next_ = nullptr;
        madvise(seg->stack_base(), usable_total(seg), MADV_DONTNEED);
        seg->slot_info_->committed.store(0, std::memory_order_relaxed);
        dec += static_cast<std::int64_t>(usable_total(seg));
      }
      st.hot_count = 0;
      st.cold = nullptr;
      st.cold_count = 0;
      for (auto& arena : st.arenas) {
        retired_arenas_.push_back(std::move(arena));
      }
      st.arenas.clear();
    }
    gen_.fetch_add(1, std::memory_order_relaxed);
    config_ = cfg;
  }
  account(0, dec);
}

StackSegment* SegmentPool::carve_locked(int c, std::int64_t* commit) {
  const StackClass cls = static_cast<StackClass>(c);
  ClassState& st = classes_[c];
  SlotArena* a = st.arenas.empty() ? nullptr : st.arenas.back().get();
  if (a == nullptr || a->next_fresh == a->num_slots) {
    auto arena = std::make_unique<SlotArena>();
    arena->guard = config_.guard_pages * page_size();
    arena->usable = round_up(config_.class_bytes(cls), page_size());
    arena->stride = arena->guard + arena->usable;
    arena->bytes = arena->stride * config_.slots_per_arena;
    arena->cls = cls;
    void* mem = mmap(nullptr, arena->bytes, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mem == MAP_FAILED) arch::panic("stack arena reservation failed");
    arena->base = static_cast<std::byte*>(mem);
    arena->init(config_.slots_per_arena);
    arch::stackfault::ArenaInfo reg;
    reg.base = arena->base;
    reg.bytes = arena->bytes;
    reg.stride = arena->stride;
    reg.guard_bytes = arena->guard;
    reg.usable_bytes = arena->usable;
    reg.slots = arena->slots.data();
    reg.num_slots = arena->num_slots;
    arch::stackfault::register_arena(reg);  // serialized: we hold the lock
    a = arena.get();
    st.arenas.push_back(std::move(arena));
  }
  const std::size_t idx = a->next_fresh++;
  std::byte* slot_base = a->base + idx * a->stride;
  std::byte* ub = slot_base + a->guard;
  if (mprotect(ub, a->usable, PROT_READ | PROT_WRITE) != 0) {
    arch::panic("stack slot commit (mprotect) failed");
  }
  StackSegment* seg = &a->segs[idx];
  seg->usable_base_ = ub;
  seg->usable_size_ = a->usable - StackSegment::kBootReserve;
  seg->klass_ = cls;
  seg->slot_info_ = &a->slots[idx];
  seg->gen_ = gen_.load(std::memory_order_relaxed);
  *commit += static_cast<std::int64_t>(a->usable);
  created_.fetch_add(1, std::memory_order_relaxed);
  return seg;
}

StackSegment* SegmentPool::acquire(StackClass cls) {
  // The thread is about to run client code on a pooled stack; make sure a
  // guard fault can be classified (the handler needs somewhere to run once
  // the faulting stack is exhausted).
  arch::stackfault::ensure_thread();
  const int c = static_cast<int>(cls);
  StackSegment* seg = nullptr;
  std::int64_t commit = 0;
  ExecContext* ex = current_exec();
  StackCache* cache = (ex != nullptr && config_.cache_slots_per_proc > 0)
                          ? &ex->stack_cache
                          : nullptr;
  while (cache != nullptr && cache->head[c] != nullptr) {
    StackSegment* s = cache->head[c];
    cache->head[c] = s->free_next_;
    cache->count[c]--;
    s->free_next_ = nullptr;
    if (s->gen_ != gen_.load(std::memory_order_relaxed)) {
      retire_slot(s);  // parked under an old geometry; never reused
      continue;
    }
    seg = s;
    break;
  }
  if (seg == nullptr) {
    arch::TasGuard guard(lock_);
    ClassState& st = classes_[c];
    if (st.hot != nullptr) {
      seg = st.hot;
      st.hot = seg->free_next_;
      st.hot_count--;
      seg->free_next_ = nullptr;
    } else if (st.cold != nullptr) {
      seg = st.cold;
      st.cold = seg->free_next_;
      st.cold_count--;
      seg->free_next_ = nullptr;
      // Decommitted pages repopulate (zero-filled) on first touch; the
      // protection never changed, so no syscall is needed here.
      commit = static_cast<std::int64_t>(usable_total(seg));
    } else {
      seg = carve_locked(c, &commit);
    }
  }
  if (commit > 0) {
    MPNJ_METRIC_COUNT(kContPoolMisses, 1);
  } else {
    MPNJ_METRIC_COUNT(kContPoolHits, 1);
  }
  seg->refs_.store(1, std::memory_order_relaxed);
  seg->parent_cont = nullptr;
  seg->boot_record = nullptr;
  seg->boot_inplace = false;
  seg->stamp_owner(-1, nullptr);
  seg->slot_info_->committed.store(1, std::memory_order_relaxed);
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  account(commit, 0);
  return seg;
}

void SegmentPool::recycle(StackSegment* seg) noexcept {
  if (seg->san_fiber != nullptr) {
    // The caller is never executing on the segment being recycled (drops on
    // the running segment are deferred through ExecContext::pending_release),
    // so the fiber identity can be retired here.
    arch::san::fiber_destroy(seg->san_fiber);
    seg->san_fiber = nullptr;
  }
  // An unfired continuation chain being dropped may leave its pending boot
  // record behind; it is ours to destroy.
  seg->destroy_boot_record();
  if (seg->parent_cont != nullptr) {
    // Releasing an abandoned segment releases its parent continuation; this
    // may cascade and free an entire suspended chain.
    cont_unref(seg->parent_cont);
    seg->parent_cont = nullptr;
  }
  outstanding_.fetch_sub(1, std::memory_order_relaxed);
  seg->stamp_owner(-1, nullptr);
  if (seg->gen_ != gen_.load(std::memory_order_relaxed)) {
    retire_slot(seg);
    return;
  }
  ExecContext* ex = current_exec();
  const int c = static_cast<int>(seg->klass_);
  if (ex != nullptr &&
      ex->stack_cache.count[c] <
          static_cast<int>(config_.cache_slots_per_proc)) {
    seg->free_next_ = ex->stack_cache.head[c];
    ex->stack_cache.head[c] = seg;
    ex->stack_cache.count[c]++;
    MPNJ_METRIC_COUNT(kContPoolRecycles, 1);
    return;
  }
  MPNJ_METRIC_COUNT(kContPoolRecycles, 1);
  release_to_global(seg);
}

void SegmentPool::release_to_global(StackSegment* seg) noexcept {
  std::int64_t dec = 0;
  const int c = static_cast<int>(seg->klass_);
  {
    arch::TasGuard guard(lock_);
    ClassState& st = classes_[c];
    if (st.hot_count < static_cast<int>(config_.global_free_target)) {
      seg->free_next_ = st.hot;
      st.hot = seg;
      st.hot_count++;
    } else {
      madvise(seg->stack_base(), usable_total(seg), MADV_DONTNEED);
      seg->slot_info_->committed.store(0, std::memory_order_relaxed);
      seg->free_next_ = st.cold;
      st.cold = seg;
      st.cold_count++;
      dec = static_cast<std::int64_t>(usable_total(seg));
      MPNJ_METRIC_COUNT(kContPoolDecommits, 1);
    }
  }
  account(0, dec);
}

void SegmentPool::retire_slot(StackSegment* seg) noexcept {
  madvise(seg->stack_base(), usable_total(seg), MADV_DONTNEED);
  seg->slot_info_->committed.store(0, std::memory_order_relaxed);
  account(0, static_cast<std::int64_t>(usable_total(seg)));
}

void SegmentPool::flush_cache(StackCache* cache) noexcept {
  for (std::size_t c = 0; c < kNumStackClasses; c++) {
    StackSegment* seg = cache->head[c];
    cache->head[c] = nullptr;
    cache->count[c] = 0;
    while (seg != nullptr) {
      StackSegment* next = seg->free_next_;
      seg->free_next_ = nullptr;
      if (seg->gen_ != gen_.load(std::memory_order_relaxed)) {
        retire_slot(seg);
      } else {
        release_to_global(seg);
      }
      seg = next;
    }
  }
}

void SegmentPool::trim() {
  std::int64_t dec = 0;
  {
    arch::TasGuard guard(lock_);
    for (auto& st : classes_) {
      while (st.hot != nullptr) {
        StackSegment* seg = st.hot;
        st.hot = seg->free_next_;
        st.hot_count--;
        madvise(seg->stack_base(), usable_total(seg), MADV_DONTNEED);
        seg->slot_info_->committed.store(0, std::memory_order_relaxed);
        seg->free_next_ = st.cold;
        st.cold = seg;
        st.cold_count++;
        dec += static_cast<std::int64_t>(usable_total(seg));
      }
    }
  }
  account(0, dec);
}

void SegmentPool::account(std::int64_t commit, std::int64_t decommit) noexcept {
  if (commit == 0 && decommit == 0) return;
  committed_.fetch_add(commit - decommit, std::memory_order_relaxed);
  if (commit > 0) {
    MPNJ_METRIC_COUNT_ALWAYS(kContStackCommitBytes,
                             static_cast<std::uint64_t>(commit));
  }
  if (decommit > 0) {
    MPNJ_METRIC_COUNT_ALWAYS(kContStackDecommitBytes,
                             static_cast<std::uint64_t>(decommit));
  }
  AccountFn fn = acct_fn_.load(std::memory_order_acquire);
  if (fn != nullptr) {
    fn(acct_arg_.load(std::memory_order_relaxed), commit, decommit);
  }
}

void SegmentPool::set_accounting(AccountFn fn, void* arg) noexcept {
  acct_arg_.store(arg, std::memory_order_relaxed);
  acct_fn_.store(fn, std::memory_order_release);
}

}  // namespace mp::cont
