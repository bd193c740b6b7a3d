#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "arch/ctx.h"
#include "arch/panic.h"
#include "cont/exec.h"
#include "cont/segment.h"

// First-class one-shot continuations for C++ — the analogue of SML/NJ's
// typed `callcc` / `throw` (paper section 2).
//
// SML/NJ continuations are heap-allocated closure chains and may be invoked
// any number of times.  Every use the paper makes of them — saving a thread
// in `fork`/`yield`, parking a sender or receiver on a channel, saving proc
// state before `release_proc` — fires each continuation exactly once, so we
// implement the one-shot subset (à la Bruggeman, Waddell & Dybvig): capture
// seals the current heap-allocated stack *segment* into the continuation and
// continues the body on a fresh segment.  Both capture and throw are O(1)
// and allocation-only, preserving the paper's "callcc is as cheap as a
// procedure call" property, and continuations remain first-class values that
// can migrate freely between procs.
//
// Discipline imposed on clients (checked at runtime where possible):
//   * A continuation may receive a value (preload/throw) exactly once and be
//     resumed exactly once; violations panic.
//   * The callcc body starts on a fresh stack segment with an empty GC root
//     chain; GC references handed to a body or a forked thread must travel
//     through registered roots (see gc/roots.h), not through captured stack
//     frames of the suspended parent.
//   * C++ exceptions must not propagate out of a callcc body; doing so
//     panics.  `throw_to` itself unwinds the abandoned frames (running
//     destructors) before switching, so RAII in client frames is safe.
//   * The runtime's own transfers do not unwind: a body's normal return
//     goes back to the segment's trampoline by a plain return, and a
//     scheduler dispatch resumes through `switch_to`, which abandons the
//     frames above the boot record as they stand.  Those frames must own
//     nothing (docs/STACKS.md, "Transfers").

namespace mp::cont {

// The ML `unit` type.
struct Unit {
  friend bool operator==(Unit, Unit) noexcept { return true; }
};

// Trait marking slot types the garbage collector must trace (specialized by
// gc/value.h for gc::Value).
template <typename T>
struct is_gc_traced : std::false_type {};

// Raised at a continuation's capture point when the continuation was
// resumed through mark_cancel: the suspended computation unwinds (running
// its destructors) instead of continuing.  Schedulers catch it at the
// thread's bottom frame to retire the thread (threads/scheduler.h).
class ThreadCancelled : public std::exception {
 public:
  const char* what() const noexcept override {
    return "thread cancelled at a suspension point";
  }
};

namespace detail {

struct ContOps;

template <typename T>
std::uint64_t encode_slot(const T& v) noexcept {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "continuation payloads must fit in one machine word");
  std::uint64_t raw = 0;
  std::memcpy(&raw, &v, sizeof(T));
  return raw;
}

template <typename T>
T decode_slot(std::uint64_t raw) noexcept {
  T v{};
  std::memcpy(static_cast<void*>(&v), &raw, sizeof(T));
  return v;
}

}  // namespace detail

class ContRef;

// Reference-counted core of a continuation.  Type erased; `Cont<T>` is the
// typed client handle.  All live cores are kept on a global registry so the
// collector can find every suspended thread's roots.
class ContCore {
 public:
  enum class State : std::uint8_t {
    kCaptured,   // live, no value delivered yet
    kPreloaded,  // value delivered, not yet resumed
    kFired,      // resumed; the seal is spent
  };

  State state() const noexcept { return state_.load(std::memory_order_acquire); }

  // Deliver the value the continuation will return.  Exactly once.
  void preload(std::uint64_t raw, bool gc_traced) noexcept;

  // --- GC interface (world must be stopped) ---
  void* root_head() const noexcept { return root_head_; }
  bool slot_is_gc_ref() const noexcept { return slot_armed_; }
  std::uint64_t* slot_ptr() noexcept { return &slot_; }

 private:
  friend class ContRef;
  friend void cont_unref(ContCore* core) noexcept;
  friend void mark_cancel(const ContRef& k);
  friend void detail::drain_exec_caches(ExecContext& ex) noexcept;
  friend struct detail::ContOps;

  ContCore() = default;
  ~ContCore() = default;

  void add_ref() noexcept { refs_.fetch_add(1, std::memory_order_relaxed); }

  std::atomic<int> refs_{0};
  std::atomic<State> state_{State::kCaptured};
  std::uint64_t slot_ = 0;
  bool slot_armed_ = false;   // slot holds a GC reference (trace + update)
  bool cancel_ = false;       // resume raises ThreadCancelled
  StackSegment* home_seg_ = nullptr;  // owns one reference
  arch::Context ctx_;
  void* root_head_ = nullptr;
  ContCore* reg_prev_ = nullptr;  // registry links
  ContCore* reg_next_ = nullptr;
};

// Drops one core reference; destroys the core (releasing its segment and
// registry entry) when the count reaches zero.
void cont_unref(ContCore* core) noexcept;

// Intrusive smart pointer to a ContCore.
class ContRef {
 public:
  ContRef() noexcept = default;
  explicit ContRef(ContCore* core) noexcept : core_(core) {
    if (core_ != nullptr) core_->add_ref();
  }
  static ContRef adopt(ContCore* core) noexcept {  // takes an existing count
    ContRef r;
    r.core_ = core;
    return r;
  }
  ContRef(const ContRef& other) noexcept : ContRef(other.core_) {}
  ContRef(ContRef&& other) noexcept : core_(other.core_) { other.core_ = nullptr; }
  ContRef& operator=(ContRef other) noexcept {
    std::swap(core_, other.core_);
    return *this;
  }
  ~ContRef() { reset(); }

  void reset() noexcept {
    if (core_ != nullptr) {
      cont_unref(core_);
      core_ = nullptr;
    }
  }
  ContCore* get() const noexcept { return core_; }
  ContCore* release() noexcept {  // gives up the count without dropping it
    ContCore* c = core_;
    core_ = nullptr;
    return c;
  }
  explicit operator bool() const noexcept { return core_ != nullptr; }
  friend bool operator==(const ContRef& a, const ContRef& b) noexcept {
    return a.core_ == b.core_;
  }

 private:
  ContCore* core_ = nullptr;
};

namespace detail {

// Type-erased boot record executed by the trampoline at the bottom of a
// fresh segment.  The SML/NJ analogue is the closure callcc allocates.
// Everything the frames above it need to outlive a transfer lives here, so
// a runtime switch (ContOps::switch_to) can retire the record and abandon
// those frames without unwinding them.
struct BootRecord {
  virtual ~BootRecord() = default;
  // Runs the body and returns the PRELOADED continuation to resume next —
  // a callcc body's implicit throw — or null to return the proc to its
  // idle loop (an entry body that ended).  Transfers made from inside the
  // body (throw_to, a scheduler dispatch, release_proc) leave it without
  // returning.
  virtual ContRef run() = 0;
};

[[noreturn]] void trampoline(void* seg_arg);

// Acquires a fresh segment of `cls` and links `parent` (may be null: it is
// fired on normal return off the segment; the segment takes one reference).
// The sanitizer shadow of the slot is cleared, ready for the boot record.
StackSegment* acquire_boot_segment(StackClass cls, ContCore* parent);

// Installs `rec` as the segment's pending boot record and fabricates the
// trampoline context.  `inplace` says whether `rec` was placement-
// constructed in the segment's boot area (destroyed in place) or heap
// allocated (deleted).
void finish_boot_segment(StackSegment* seg, BootRecord* rec, bool inplace);

// Stack class of the segment the caller is executing on (kLarge outside a
// proc's client context) — what a replacement segment inherits.
StackClass current_stack_class() noexcept;

// Boots a fresh segment of `cls` whose trampoline runs a newly constructed
// `R(args...)`.  Records that fit the slot's boot reserve are constructed in
// place — the steady-state fork/callcc path allocates nothing.
template <typename R, typename... Args>
StackSegment* boot_segment_make(StackClass cls, ContCore* parent,
                                Args&&... args) {
  StackSegment* seg = acquire_boot_segment(cls, parent);
  BootRecord* rec = nullptr;
  bool inplace = false;
  try {
    if constexpr (sizeof(R) <= StackSegment::kBootReserve &&
                  alignof(R) <= StackSegment::kBootAlign) {
      rec = new (seg->boot_area()) R(std::forward<Args>(args)...);
      inplace = true;
    } else {
      rec = new R(std::forward<Args>(args)...);
    }
  } catch (...) {
    seg->drop_ref();  // releases the parent linkage too
    throw;
  }
  finish_boot_segment(seg, rec, inplace);
  return seg;
}

// Core continuation operations; the single friend of ContCore through which
// all private state is manipulated.
struct ContOps {
  // Seals the current segment into a fresh CAPTURED core (returned with one
  // reference) recording the current root chain.
  static ContRef make_sealed_core();
  // Switches to `fresh` (boot context), saving the current execution into
  // `sealed`.  Consumes the caller's reference (the suspended frame must not
  // hold one: a frame owning its own continuation would be a leak cycle).
  // Returns the slot value when `sealed` is eventually fired.
  static std::uint64_t seal_and_switch(ContRef sealed, StackSegment* fresh);
  // Raises the abandon-unwind that resumes `k` (which must be PRELOADED).
  [[noreturn]] static void fire(ContRef k);
  // Raises the abandon-unwind that returns the proc to its idle loop.
  [[noreturn]] static void to_idle();
  // Resumes `k` (which must be PRELOADED) without unwinding (see
  // cont::switch_to).
  [[noreturn]] static void switch_to(ContRef k);
  // Wraps a freshly booted segment into a PRELOADED entry core.
  static ContRef adopt_entry_segment(StackSegment* seg);
  // Fires `k` from a proc's idle loop; returns when the proc is released.
  static void enter_from_idle(ContRef k, ExecContext& ex);
  // Final stages of an abandon-unwind (called by the trampoline only).
  [[noreturn]] static void resume_target(ContRef k);
  [[noreturn]] static void return_to_idle();
  // Registry iteration for the collector.
  static void for_each(const std::function<void(ContCore&)>& fn);
  // Core allocation through the per-proc recycled-core cache.
  static ContCore* alloc_core();
  static void free_core(ContCore* core) noexcept;
};

}  // namespace detail

// Typed first-class one-shot continuation, mirroring SML `'a cont`.
template <typename T>
class Cont {
 public:
  Cont() noexcept = default;
  explicit Cont(ContRef ref) noexcept : ref_(std::move(ref)) {}

  bool valid() const noexcept { return static_cast<bool>(ref_); }
  const ContRef& ref() const noexcept { return ref_; }
  ContRef take_ref() && noexcept { return std::move(ref_); }

  // Deliver `v` without resuming; pair with a later `fire_preloaded` (used
  // by ready queues: the paper's reschedule_thread does exactly this shape).
  void preload(const T& v) const {
    MPNJ_CHECK(ref_.get() != nullptr, "preload of null continuation");
    ref_.get()->preload(detail::encode_slot(v), is_gc_traced<T>::value);
  }

  friend bool operator==(const Cont& a, const Cont& b) noexcept {
    return a.ref_ == b.ref_;
  }

 private:
  ContRef ref_;
};

// callcc_on(cls, body): captures the current continuation k, then runs
// body(k) on a fresh segment of stack class `cls`.  Returns when k is thrown
// a value — or, if the body returns normally, with the body's own result
// (delivered by an implicit throw, matching SML semantics for one-shot use;
// the trampoline resumes k directly, with no C++ unwind).
template <typename T, typename F>
T callcc_on(StackClass cls, F&& body) {
  static_assert(std::is_invocable_r_v<T, F, Cont<T>>,
                "callcc<T> body must accept Cont<T> and return T");

  struct Record final : detail::BootRecord {
    std::decay_t<F> body;
    ContRef k;
    ContRef again;  // the handle for the implicit throw
    Record(F&& b, ContRef kk)
        : body(std::forward<F>(b)), k(kk), again(std::move(kk)) {}
    ContRef run() override {
      T result = std::move(body)(Cont<T>(std::move(k)));
      // Implicit throw of the body's normal result to the captured
      // continuation; panics if the body already fired it.
      again.get()->preload(detail::encode_slot(result), is_gc_traced<T>::value);
      return std::move(again);
    }
  };

  ContRef sealed = detail::ContOps::make_sealed_core();
  StackSegment* fresh = detail::boot_segment_make<Record>(
      cls, sealed.get(), std::forward<F>(body), sealed);
  std::uint64_t raw = detail::ContOps::seal_and_switch(std::move(sealed), fresh);
  return detail::decode_slot<T>(raw);
}

// callcc(body): callcc_on with the class of the segment being sealed, so a
// thread's replacement segments keep the footprint its fork requested.
template <typename T, typename F>
T callcc(F&& body) {
  return callcc_on<T>(detail::current_stack_class(), std::forward<F>(body));
}

// throw v to k: unwinds the current frames (running destructors), abandons
// the current segment chain, and resumes k with v.  Never returns.
template <typename T>
[[noreturn]] void throw_to(Cont<T> k, const T& v) {
  k.preload(v);
  detail::ContOps::fire(std::move(k).take_ref());
}

// Resume a continuation that already had its value delivered via preload(),
// unwinding the current frames first like throw_to.
[[noreturn]] inline void fire_preloaded(ContRef k) {
  detail::ContOps::fire(std::move(k));
}

// The scheduler's resume: like fire_preloaded, but without the unwind.  The
// current segment's boot record is retired and the frames above it are
// abandoned as they stand, so the caller must hold nothing that needs a
// destructor in any of them — no owning locals, no ContRef, no catch
// handler.  For runtime dispatch loops only (threads/scheduler.cpp,
// threads/unithread.h); client code uses throw_to.
[[noreturn]] inline void switch_to(ContRef k) {
  detail::ContOps::switch_to(std::move(k));
}

// Unwind the current thread of control and return this proc to its idle
// loop.  The platform's release_proc is built on this.
[[noreturn]] inline void exit_to_idle() { detail::ContOps::to_idle(); }

// Arrange for `k`'s resume to raise ThreadCancelled at its capture point
// instead of delivering a value (delivering one first is fine; it is
// discarded).  The caller still fires or reschedules `k` as usual.  Only
// meaningful for callcc-captured continuations; an entry continuation has
// no capture point to raise at and simply runs.
void mark_cancel(const ContRef& k);

// Create a PRELOADED entry continuation that, when fired, runs `f` on a
// fresh segment of `cls`.  If `f` returns normally the proc returns to its
// idle loop.  Used by the platform to start the root computation and by
// clients that need a thread body without a parent capture point.
ContRef make_entry(std::function<void()> f,
                   StackClass cls = StackClass::kLarge);

// Stamp the identity of the logical thread executing on the current segment
// (reported by the stack-overflow panic, arch/stackfault.h).  The stamp
// follows the thread: capture copies it onto each replacement segment.
// `name` (may be null) is copied and truncated to the slot's name buffer.
void set_stack_owner(int tid, const char* name) noexcept;

// Platform-side: enter the client world from a proc's idle loop by firing
// `k` (which must be PRELOADED); returns when the client releases the proc.
// `exec` must be the calling proc's ExecContext with exec.seg == nullptr and
// exec.idle_ctx pointing at the Context to save the idle loop into.
void run_from_idle(ContRef k, ExecContext& exec);

// --- GC support: iterate all live continuation cores (world stopped). ---
void for_each_core(const std::function<void(ContCore&)>& fn);

// Number of live cores (tests / leak checks).
std::size_t live_core_count();

}  // namespace mp::cont
