#include "mp/platform.h"

#include "arch/tas.h"

namespace mp {

bool Platform::try_acquire_proc(cont::Cont<cont::Unit> k, Datum datum) {
  MPNJ_CHECK(k.valid(), "acquire_proc with an invalid continuation");
  // Deliver the unit value now: on success the new proc fires the
  // continuation directly; on failure the caller typically reschedules it
  // onto a ready queue (paper Figure 3), which holds preloaded
  // continuations.
  k.preload(cont::Unit{});
  return backend_acquire(std::move(k).take_ref(), datum);
}

void Platform::acquire_proc(cont::Cont<cont::Unit> k, Datum datum) {
  if (!try_acquire_proc(std::move(k), datum)) throw NoMoreProcs();
}

void Platform::release_proc() {
  backend_release();
  __builtin_unreachable();
}

void Platform::set_signal_handler(Sig s, std::function<void()> handler) {
  arch::TasGuard guard(handler_lock_);
  handlers_[static_cast<int>(s)] = std::move(handler);
}

void Platform::post_signal_to(ProcRec& p, Sig s) {
  p.sig_pending.fetch_or(sig_bit(s), std::memory_order_release);
}

void Platform::post_signal(Sig s) {
  // All procs share the handler table and all procs receive each delivered
  // signal (paper section 3.4); each consumes it at its next safe point.
  for_each_proc([&](ProcRec& p) { post_signal_to(p, s); });
  // A proc blocked in the I/O reactor's OS wait has no safe points until it
  // returns; kick it so the signal is consumed promptly.
  run_wake_hook();
}

void Platform::set_wake_hook(std::function<void()> hook) {
  wake_hook_.store(
      hook ? std::make_shared<const std::function<void()>>(std::move(hook))
           : nullptr,
      std::memory_order_release);
}

void Platform::run_wake_hook() {
  if (auto hook = wake_hook_.load(std::memory_order_acquire)) (*hook)();
}

void Platform::deliver_pending_signals(ProcRec& first) {
  ProcRec* p = &first;
  for (;;) {
    const std::uint32_t deliverable =
        p->sig_pending.load(std::memory_order_acquire) & ~p->sig_mask;
    if (deliverable == 0) return;
    const int s = __builtin_ctz(deliverable);
    p->sig_pending.fetch_and(~(1u << s), std::memory_order_acq_rel);
    std::function<void()> handler;
    {
      arch::TasGuard guard(handler_lock_);
      handler = handlers_[s];
    }
    // The handler runs on the interrupted thread's stack, exactly like a
    // Unix signal delivered at a clean point; it may suspend the thread
    // (e.g. a preemption handler calling yield), in which case delivery of
    // further pending signals resumes with the thread — possibly on a
    // *different* proc, so re-bind to the current proc's record rather
    // than keep touching the one the thread was interrupted on.
    if (handler) {
      handler();
      p = &self();
    }
  }
}

void Platform::run(std::function<void()> root, Datum root_datum) {
  MPNJ_CHECK(!done_.load(), "Platform::run may only be called once");
  cont::ContRef entry = cont::make_entry(
      [this, body = std::move(root)] {
        body();
        done_.store(true, std::memory_order_release);
        on_done();
      });
  backend_run(std::move(entry), root_datum);
}

}  // namespace mp
