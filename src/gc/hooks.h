#pragma once

#include <cstdint>
#include <functional>

#include "cont/exec.h"

namespace mp::gc {

// Entry point of the heap's parallel-collection worker loop.  The heap hands
// one of these to the platform when it stops the world; every proc the
// backend co-opts at the rendezvous calls it exactly once per collection and
// returns only when the collection's parallel phase has terminated (the
// heap's own termination detector decides).  An empty function means the
// collection is sequential and rendezvoused procs simply wait.
using WorkerFn = std::function<void()>;

// What the heap needs from the platform to coordinate a collection: the
// stop-the-world rendezvous of paper section 5 ("the procs are synchronized
// at clean points"), extended so rendezvoused procs become collection
// workers instead of idling.  This is one half of the old monolithic
// CollectorHooks; the cost-accounting half is Accounting below.
class Rendezvous {
 public:
  virtual ~Rendezvous() = default;

  // Park every other active proc at a clean point and register `work` as the
  // collection's worker entry.  Returns when the world is stopped; the
  // caller becomes the collector (and worker 0).  Backends that can run code
  // on rendezvoused procs route each of them into `work` once; backends that
  // cannot (the uniprocessor, the single-kernel-thread simulator) leave the
  // caller as the only worker.
  virtual void stop_world(WorkerFn work) = 0;
  // Release the world.  The backend guarantees every proc it routed into
  // `work` has returned from it before any proc resumes client code.
  virtual void resume_world() = 0;

  // Called by a proc that needs a collection some other proc is already
  // performing: reach a clean point (parking there while the world is
  // stopping), join the in-flight collection as a worker where the backend
  // supports it, and return once it is safe to retry allocation.  Replaces
  // the old gc_yield(), whose contract let backends silently spin without
  // ever contributing to the collection.
  virtual void rendezvous_and_work(const WorkerFn& work) = 0;

  // Identity of the executing proc, and the proc table for root scanning.
  virtual int cur_proc() = 0;
  virtual int nproc() = 0;
  // Execution context of proc `id` (for its current root chain); the world
  // is stopped when the collector calls this.
  virtual cont::ExecContext* proc_exec(int id) = 0;
};

// Cost accounting for the platform underneath the heap.  The native backend
// ignores the charges (the computation itself is the cost); the simulator
// converts them into virtual time and bus traffic.
class Accounting {
 public:
  virtual ~Accounting() = default;

  // Account a completed collection that copied `words_copied` live words.
  virtual void charge_gc(std::uint64_t words_copied) = 0;
  // Account an allocation of `words` heap words (inline bump + write miss
  // traffic, the dominant bus load in SML/NJ programs).
  virtual void charge_alloc(std::uint64_t words) = 0;
  // Whether charge_alloc does anything.  A platform answering false promises
  // that charge_alloc is a no-op and never a clean point, so the heap may
  // bump-allocate inline without calling it (Heap's allocation fast path).
  // Asked once, when the Heap is built.
  virtual bool charges_alloc() const { return true; }
  // Account a minor collection's remembered-set scan: `cards` dirty cards
  // re-parsed covering `words` old-generation words (card remset mode only;
  // the store-list baseline's root slots are charged through charge_gc).
  virtual void charge_card_scan(std::uint64_t cards, std::uint64_t words) = 0;
  // Account a large-object allocation of `pages` fresh pages (soft faults on
  // first touch) and a post-major sweep that released `pages` back.
  virtual void charge_los_alloc(std::uint64_t pages) = 0;
  virtual void charge_los_sweep(std::uint64_t pages) = 0;
};

}  // namespace mp::gc
