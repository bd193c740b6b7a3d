#include "cont/cont.h"

#include <atomic>

#include "arch/fiber_san.h"
#include "arch/tas.h"
#include "metrics/metrics.h"

namespace mp::cont {

namespace {

// ----- Registry of live cores (for the collector's root scan). -----
//
// Sharded by core address: at production fork rates every capture and
// release takes a registry lock, and a single global word is the first thing
// every proc fights over.  The collector iterates shard by shard with the
// world stopped, so it still sees every live core.

constexpr std::size_t kRegShards = 64;

struct alignas(64) RegShard {
  std::atomic<std::uint32_t> lock{0};
  ContCore* head = nullptr;
};

RegShard g_reg_shards[kRegShards];
std::atomic<std::size_t> g_live_cores{0};

std::size_t shard_of(const ContCore* core) noexcept {
  // Cores are cacheline-ish sized; dropping the low bits spreads pooled
  // (address-reused) cores evenly.
  return (reinterpret_cast<std::uintptr_t>(core) >> 6) % kRegShards;
}

class RegistryGuard {
 public:
  explicit RegistryGuard(RegShard& shard) : shard_(shard) {
    while (shard_.lock.exchange(1, std::memory_order_acquire) != 0) {
      while (shard_.lock.load(std::memory_order_relaxed) != 0) {
        arch::cpu_relax();
      }
    }
  }
  ~RegistryGuard() { shard_.lock.store(0, std::memory_order_release); }

 private:
  RegShard& shard_;
};

// Cached continuation cores a proc may keep for reuse.
constexpr int kCoreCacheCap = 64;

// The internal unwind raised by throw_to / fire_preloaded / exit_to_idle,
// which client code may call with live RAII frames.  Deliberately not
// derived from std::exception: catching it with `catch (...)` and not
// rethrowing is a client bug (it would bypass the segment trampoline), which
// the trampoline's escape check turns into a panic.
struct AbandonUnwind {
  ContRef target;  // PRELOADED continuation to resume; null: the idle loop
};

// Completes the sanitizer side of a fiber switch on arrival.  When this
// arrival is the client side of an enter_from_idle, the bounds the sanitizer
// reports for the stack just left are the idle loop's — record them so
// return_to_idle can annotate the switch back.
void san_arrive(void* fake_restore) {
  if constexpr (arch::san::kActive) {
    const void* prev_bottom = nullptr;
    std::size_t prev_size = 0;
    arch::san::switch_finish(fake_restore, &prev_bottom, &prev_size);
    ExecContext* ex = current_exec();
    if (ex != nullptr && ex->san_from_idle) {
      ex->san_idle_bottom = prev_bottom;
      ex->san_idle_size = prev_size;
      ex->san_from_idle = false;
    }
  }
}

// fire / switch_to preconditions: a live PRELOADED continuation.
void check_fireable(const ContRef& k) {
  MPNJ_CHECK(k.get() != nullptr, "fire of a null continuation");
  MPNJ_CHECK(k.get()->state() == ContCore::State::kPreloaded,
             "continuation fired twice or fired without a value");
}

}  // namespace

void ContCore::preload(std::uint64_t raw, bool gc_traced) noexcept {
  slot_ = raw;
  slot_armed_ = gc_traced;
  State expected = State::kCaptured;
  MPNJ_CHECK(state_.compare_exchange_strong(expected, State::kPreloaded,
                                            std::memory_order_acq_rel),
             "value delivered to a continuation twice (one-shot violation)");
}

void cont_unref(ContCore* core) noexcept {
  if (core->refs_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  {
    RegShard& shard = g_reg_shards[shard_of(core)];
    RegistryGuard guard(shard);
    if (core->reg_prev_ != nullptr) {
      core->reg_prev_->reg_next_ = core->reg_next_;
    } else {
      shard.head = core->reg_next_;
    }
    if (core->reg_next_ != nullptr) {
      core->reg_next_->reg_prev_ = core->reg_prev_;
    }
  }
  g_live_cores.fetch_sub(1, std::memory_order_relaxed);
  StackSegment* seg = core->home_seg_;
  if (core->state_.load(std::memory_order_relaxed) != ContCore::State::kFired) {
    // An abandoned, never-resumed continuation: un-count its seal so the
    // segment can be reclaimed.
    seg->live_seals.fetch_sub(1, std::memory_order_relaxed);
  }
  detail::ContOps::free_core(core);
  if (seg != nullptr) seg->drop_ref();
}

namespace detail {

ContCore* ContOps::alloc_core() {
  ExecContext* ex = current_exec();
  if (ex != nullptr && ex->core_cache != nullptr) {
    ContCore* core = ex->core_cache;
    ex->core_cache = core->reg_next_;
    ex->core_cache_count--;
    core->refs_.store(0, std::memory_order_relaxed);
    core->state_.store(ContCore::State::kCaptured, std::memory_order_relaxed);
    core->slot_ = 0;
    core->slot_armed_ = false;
    core->cancel_ = false;
    core->home_seg_ = nullptr;
    core->ctx_ = arch::Context{};
    core->root_head_ = nullptr;
    core->reg_prev_ = nullptr;
    core->reg_next_ = nullptr;
    return core;
  }
  return new ContCore();
}

void ContOps::free_core(ContCore* core) noexcept {
  ExecContext* ex = current_exec();
  if (ex != nullptr && ex->core_cache_count < kCoreCacheCap) {
    core->reg_next_ = ex->core_cache;
    ex->core_cache = core;
    ex->core_cache_count++;
    return;
  }
  delete core;
}

ContRef ContOps::make_sealed_core() {
  ExecContext* ex = current_exec();
  MPNJ_CHECK(ex != nullptr && ex->seg != nullptr,
             "callcc outside a proc's client context");
  const int prev_seals =
      ex->seg->live_seals.fetch_add(1, std::memory_order_relaxed);
  MPNJ_CHECK(prev_seals == 0,
             "two live continuations sealed into one segment");
  ContCore* core = alloc_core();
  core->refs_.store(1, std::memory_order_relaxed);
  core->home_seg_ = ex->seg;
  ex->seg->add_ref();
  core->root_head_ = ex->root_head;
  {
    RegShard& shard = g_reg_shards[shard_of(core)];
    RegistryGuard guard(shard);
    core->reg_next_ = shard.head;
    if (shard.head != nullptr) shard.head->reg_prev_ = core;
    shard.head = core;
  }
  g_live_cores.fetch_add(1, std::memory_order_relaxed);
  return ContRef::adopt(core);
}

std::uint64_t ContOps::seal_and_switch(ContRef sealed, StackSegment* fresh) {
  ExecContext* ex = current_exec();
  // The suspended frame keeps only a raw pointer: the continuation is owned
  // by the boot record / clients while suspended and by the firing side's
  // pending_unref hand-off while being resumed.
  ContCore* core = sealed.get();
  sealed.reset();  // boot record + parent linkage keep the core alive
  MPNJ_CHECK(ex->pending_release == nullptr, "nested pending segment release");
  ex->pending_release = ex->seg;  // running reference; the core holds its own
  fresh->copy_owner_from(*ex->seg);  // the thread's identity moves with it
  ex->seg = fresh;                // fresh arrives with its pool reference
  ex->root_head = nullptr;        // the body starts a fresh root chain
  void* san_fake = nullptr;
  arch::san::switch_begin(&san_fake, fresh->san_fiber, fresh->stack_base(),
                          fresh->stack_size());
  arch::ctx_swap(core->ctx_, fresh->boot_ctx);
  san_arrive(san_fake);
  // Fired: possibly executing on a different proc (or kernel thread) now.
  // Read the delivered value (and the cancel mark) before process_pending
  // drops the firing side's reference to the core.
  core->slot_armed_ = false;
  const std::uint64_t raw = core->slot_;
  const bool cancelled = core->cancel_;
  current_exec()->process_pending();
  if (cancelled) throw ThreadCancelled();
  return raw;
}

[[noreturn]] void ContOps::fire(ContRef k) {
  check_fireable(k);
  MPNJ_METRIC_COUNT(kContUnwinds, 1);
  throw AbandonUnwind{std::move(k)};
}

[[noreturn]] void ContOps::to_idle() {
  MPNJ_METRIC_COUNT(kContUnwinds, 1);
  throw AbandonUnwind{};
}

[[noreturn]] void ContOps::switch_to(ContRef k) {
  check_fireable(k);
  // The record is the only owner among the frames this switch abandons;
  // the trampoline below them never runs again.
  current_exec()->seg->destroy_boot_record();
  resume_target(std::move(k));
}

[[noreturn]] void ContOps::resume_target(ContRef k) {
  ContCore* core = k.get();
  auto prev = core->state_.exchange(ContCore::State::kFired,
                                    std::memory_order_acq_rel);
  MPNJ_CHECK(prev == ContCore::State::kPreloaded,
             "continuation fired twice (lost the one-shot race)");
  core->home_seg_->live_seals.fetch_sub(1, std::memory_order_relaxed);
  ExecContext* ex = current_exec();
  MPNJ_CHECK(ex->pending_release == nullptr, "nested pending segment release");
  MPNJ_CHECK(ex->pending_unref == nullptr, "nested pending core unref");
  ex->pending_release = ex->seg;
  ex->seg = core->home_seg_;
  ex->seg->add_ref();
  ex->root_head = core->root_head_;
  arch::Context target = std::move(core->ctx_);
  // Hand our reference across the switch; the resumed side drops it after
  // reading the value slot.
  ex->pending_unref = k.release();
  // Null fake-save: this stack is abandoned, never resumed.
  arch::san::switch_begin(nullptr, ex->seg->san_fiber, ex->seg->stack_base(),
                          ex->seg->stack_size());
  arch::Context dead;
  arch::ctx_swap(dead, target);
  arch::panic("abandoned context was resumed");
}

[[noreturn]] void ContOps::return_to_idle() {
  ExecContext* ex = current_exec();
  MPNJ_CHECK(ex->idle_ctx != nullptr, "no idle loop to release this proc to");
  MPNJ_CHECK(ex->pending_release == nullptr, "nested pending segment release");
  ex->pending_release = ex->seg;
  ex->seg = nullptr;
  ex->root_head = nullptr;
  arch::san::switch_begin(nullptr, ex->san_idle_fiber, ex->san_idle_bottom,
                          ex->san_idle_size);
  arch::Context dead;
  arch::ctx_swap(dead, *ex->idle_ctx);
  arch::panic("abandoned context was resumed");
}

[[noreturn]] void trampoline(void* seg_arg) {
  san_arrive(nullptr);
  auto* seg = static_cast<StackSegment*>(seg_arg);
  ExecContext* ex = current_exec();
  ex->process_pending();
  // Ownership of the boot record stays with the segment while run() is live:
  // a frame-local owner would leak when a suspended chain is abandoned,
  // because abandoned frames are reclaimed without unwinding.  The segment's
  // recycle path destroys the record in that case.
  auto* rec = static_cast<BootRecord*>(seg->boot_record);
  ContRef next;
  try {
    next = rec->run();
  } catch (AbandonUnwind& u) {
    next = std::move(u.target);
  } catch (...) {
    arch::panic("uncaught C++ exception crossed a continuation boundary");
  }
  // Retire the record.  An in-place record lives in the slot's boot area
  // above the range execution uses, so destroying it from this stack is
  // safe.
  seg->destroy_boot_record();
  if (!next) ContOps::return_to_idle();
  ContOps::resume_target(std::move(next));
}

StackSegment* acquire_boot_segment(StackClass cls, ContCore* parent) {
  StackSegment* seg = SegmentPool::instance().acquire(cls);
  if (parent != nullptr) {
    ContRef keep{parent};  // +1 for the segment's parent linkage
    seg->parent_cont = keep.release();
  }
  // Clear stale sanitizer shadow over the whole slot (usable range plus the
  // boot area the record is about to be constructed in).
  arch::san::stack_reuse(seg->stack_base(),
                         seg->stack_size() + StackSegment::kBootReserve);
  return seg;
}

void finish_boot_segment(StackSegment* seg, BootRecord* rec, bool inplace) {
  seg->boot_record = rec;
  seg->boot_inplace = inplace;
  if (seg->san_fiber == nullptr) seg->san_fiber = arch::san::fiber_create();
  arch::ctx_make(seg->boot_ctx, seg->stack_base(), seg->stack_size(),
                 &trampoline, seg);
}

StackClass current_stack_class() noexcept {
  ExecContext* ex = current_exec();
  if (ex == nullptr || ex->seg == nullptr) return StackClass::kLarge;
  return ex->seg->klass();
}

ContRef ContOps::adopt_entry_segment(StackSegment* seg) {
  ContCore* core = alloc_core();
  core->refs_.store(1, std::memory_order_relaxed);
  core->home_seg_ = seg;  // adopts the pool reference
  core->root_head_ = nullptr;
  core->ctx_ = std::move(seg->boot_ctx);
  seg->live_seals.store(1, std::memory_order_relaxed);
  core->state_.store(ContCore::State::kPreloaded, std::memory_order_relaxed);
  core->slot_ = 0;
  {
    RegShard& shard = g_reg_shards[shard_of(core)];
    RegistryGuard guard(shard);
    core->reg_next_ = shard.head;
    if (shard.head != nullptr) shard.head->reg_prev_ = core;
    shard.head = core;
  }
  g_live_cores.fetch_add(1, std::memory_order_relaxed);
  return ContRef::adopt(core);
}

void ContOps::enter_from_idle(ContRef k, ExecContext& ex) {
  MPNJ_CHECK(ex.seg == nullptr, "proc entering the client world twice");
  MPNJ_CHECK(ex.idle_ctx != nullptr, "proc has no idle context");
  ContCore* core = k.get();
  MPNJ_CHECK(core != nullptr, "entering from idle with a null continuation");
  auto prev = core->state_.exchange(ContCore::State::kFired,
                                    std::memory_order_acq_rel);
  MPNJ_CHECK(prev == ContCore::State::kPreloaded,
             "continuation fired twice (proc entry)");
  core->home_seg_->live_seals.fetch_sub(1, std::memory_order_relaxed);
  MPNJ_CHECK(ex.pending_unref == nullptr, "nested pending core unref");
  ex.seg = core->home_seg_;
  ex.seg->add_ref();
  ex.root_head = core->root_head_;
  arch::Context target = std::move(core->ctx_);
  ex.pending_unref = k.release();  // dropped by the resumed side
  if constexpr (arch::san::kActive) {
    ex.san_idle_fiber = arch::san::current_fiber();
    ex.san_from_idle = true;
  }
  void* san_fake = nullptr;
  arch::san::switch_begin(&san_fake, ex.seg->san_fiber, ex.seg->stack_base(),
                          ex.seg->stack_size());
  arch::ctx_swap(*ex.idle_ctx, target);
  arch::san::switch_finish(san_fake, nullptr, nullptr);
  // The client released this proc.
  ex.process_pending();
  MPNJ_CHECK(ex.seg == nullptr, "client returned to idle without releasing");
}

void ContOps::for_each(const std::function<void(ContCore&)>& fn) {
  for (RegShard& shard : g_reg_shards) {
    RegistryGuard guard(shard);
    for (ContCore* c = shard.head; c != nullptr; c = c->reg_next_) {
      fn(*c);
    }
  }
}

}  // namespace detail

void detail::drain_exec_caches(ExecContext& ex) noexcept {
  while (ex.core_cache != nullptr) {
    ContCore* core = ex.core_cache;
    ex.core_cache = core->reg_next_;
    delete core;
  }
  ex.core_cache_count = 0;
  SegmentPool::instance().flush_cache(&ex.stack_cache);
}

ContRef make_entry(std::function<void()> f, StackClass cls) {
  struct EntryRecord final : detail::BootRecord {
    std::function<void()> f;
    explicit EntryRecord(std::function<void()> fn) : f(std::move(fn)) {}
    ContRef run() override {
      f();
      return {};  // thread body completed: back to the idle loop
    }
  };
  StackSegment* seg = detail::boot_segment_make<EntryRecord>(
      cls, /*parent=*/nullptr, std::move(f));
  return detail::ContOps::adopt_entry_segment(seg);
}

void set_stack_owner(int tid, const char* name) noexcept {
  ExecContext* ex = current_exec();
  if (ex == nullptr || ex->seg == nullptr) return;
  ex->seg->stamp_owner(tid, name);
}

void run_from_idle(ContRef k, ExecContext& exec) {
  detail::ContOps::enter_from_idle(std::move(k), exec);
}

void mark_cancel(const ContRef& k) {
  ContCore* core = k.get();
  MPNJ_CHECK(core != nullptr, "mark_cancel on a null continuation");
  core->cancel_ = true;
  if (core->state() == ContCore::State::kCaptured) {
    core->preload(0, false);
  }
}

void for_each_core(const std::function<void(ContCore&)>& fn) {
  detail::ContOps::for_each(fn);
}

std::size_t live_core_count() {
  return g_live_cores.load(std::memory_order_relaxed);
}

}  // namespace mp::cont
