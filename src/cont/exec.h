#pragma once

#include "arch/ctx.h"
#include "cont/segment.h"

namespace mp::cont {

struct ExecContext;

namespace detail {
// Returns the ExecContext's cached stack slots and continuation cores to the
// global pools (cont.cpp); called by the ExecContext destructor.
void drain_exec_caches(ExecContext& ex) noexcept;
}  // namespace detail

// Per-proc execution state visible to the continuation layer.  The platform
// backends own one ExecContext per proc; a thread-local pointer names the one
// belonging to the proc currently executing on this kernel thread (in the
// simulator everything runs on one kernel thread and the engine retargets the
// pointer on every virtual-proc switch).
struct ExecContext {
  // Segment the proc is executing on; the proc holds one ("running")
  // reference to it.  Null while the proc sits in its idle loop.
  StackSegment* seg = nullptr;

  // The owning proc's id (what gc::Rendezvous::cur_proc() answers while this
  // context is current), set by the platform backend that owns the context;
  // -1 for a context no proc owns.  The heap's allocation fast path finds
  // its per-proc state through it.
  int proc_id = -1;

  // Head of the GC root chain of the logical thread currently executing.
  // Opaque to this layer; saved into and restored from continuations.
  void* root_head = nullptr;

  // Segment whose running reference must be dropped by the next resume
  // point.  A proc abandoning its segment cannot free it while still
  // executing on it, so the drop is deferred across the context switch.
  StackSegment* pending_release = nullptr;

  // Continuation core whose reference must be dropped by the next resume
  // point.  The side firing a continuation hands its reference across the
  // context switch this way, so the core stays alive until the resumed side
  // has read the delivered value.
  ContCore* pending_unref = nullptr;

  // Where release_proc()/exit_to_idle() returns control: the proc's idle
  // loop, owned by the platform backend.
  arch::Context* idle_ctx = nullptr;

  // Sanitizer identity of the idle loop's stack (arch/fiber_san.h): the
  // TSan fiber is captured by enter_from_idle before it suspends; the ASan
  // bounds are captured on the client side of that switch, where the
  // sanitizer reports the bounds of the stack just left (san_from_idle
  // marks the one arrival that should record them).  All dead weight in
  // unsanitized builds.
  void* san_idle_fiber = nullptr;
  const void* san_idle_bottom = nullptr;
  std::size_t san_idle_size = 0;
  bool san_from_idle = false;

  // This proc's recycled stack slots (cont/segment.h) and continuation
  // cores: owner-only free lists in the ProcCore recycled-cell shape, so
  // fork/capture/resume at steady state touch neither the pool lock nor
  // malloc.  Cores chain through their registry link.
  StackCache stack_cache;
  ContCore* core_cache = nullptr;
  int core_cache_count = 0;

  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;
  ~ExecContext() { detail::drain_exec_caches(*this); }

  // Drop any deferred references.  Called at every resume point (after the
  // resumed code has read the fired continuation's value slot).
  void process_pending() noexcept {
    if (pending_release != nullptr) {
      StackSegment* seg_to_drop = pending_release;
      pending_release = nullptr;
      seg_to_drop->drop_ref();
    }
    if (pending_unref != nullptr) {
      ContCore* core_to_drop = pending_unref;
      pending_unref = nullptr;
      cont_unref(core_to_drop);
    }
  }
};

namespace detail {
// The initial-exec model makes every read of this variable a load relative
// to the thread pointer.  A continuation may resume on another kernel thread
// after any call, so the variable's address must never be computed once and
// reused across a call, which is what the general-dynamic model that -fPIC
// selects does with __tls_get_addr's result.
[[gnu::tls_model("initial-exec")]] inline constinit thread_local ExecContext*
    tl_exec = nullptr;
}  // namespace detail

// The executing proc's context; set by the platform backends.
inline ExecContext* current_exec() noexcept { return detail::tl_exec; }
inline void set_current_exec(ExecContext* exec) noexcept {
  detail::tl_exec = exec;
}

}  // namespace mp::cont
