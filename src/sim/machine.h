#pragma once

#include <cstdint>
#include <string>

namespace mp::sim {

// Cost model of a simulated shared-memory multiprocessor.
//
// Virtual time is measured in microseconds (double).  Compute work is
// expressed in "instructions" and converted via `mips` (instructions per
// microsecond); memory traffic in bytes is serialized through a single
// shared bus of `bus_bytes_per_us` bandwidth.  The preset models are
// calibrated from the numbers the paper reports for its three ports
// (section 5 and 6): the Sequent Symmetry S81 used for Figure 6, the SGI
// 4D/380S whose faster processors saturate a barely-larger bus, and the
// Omron Luna88k.
struct MachineModel {
  std::string name;
  int num_procs = 1;

  // --- processor ---
  double mips = 4.0;  // effective instructions per microsecond per proc

  // --- shared memory bus ---
  double bus_bytes_per_us = 25.0;  // achievable bandwidth (25 MB/s == 25 B/us)

  // --- mutex locks (paper section 5: assembly subroutines around a
  //     test-and-set; SGI uses a separate hardware lock bus) ---
  double lock_op_instr = 85.0;   // per try_lock / unlock call
  double tas_bus_bytes = 4.0;    // bus transaction per test-and-set
  bool hardware_lock_bus = false;  // SGI: lock traffic bypasses main bus
  double spin_retry_instr = 12.0;  // cost of one failed spin iteration

  // --- per-proc scheduling core (work stealing + targeted wakeups) ---
  double cas_instr = 30.0;       // one compare-and-swap (steal, park claim)
  // Queue-lock direct handoff (threads/qlock.h): the grant exchange plus the
  // line transfer carrying the released state to the next holder's cache.
  double lock_handoff_instr = 40.0;
  double park_us = 8.0;          // entering the kernel park (port wait setup)
  double unpark_instr = 150.0;   // targeted wakeup delivery (eventfd write)
  // Granularity at which a parked proc notices a posted unpark; also the
  // wakeup latency the model charges (a real port wakes at interrupt
  // speed; the slice keeps the simulation deterministic and cheap).
  double park_slice_us = 20.0;

  // --- procs and stacks (callcc/throw are priced by the thread package's
  // threads::SchedCosts, not here) ---
  double proc_acquire_us = 400.0;  // OS call: obtain a kernel thread
  double proc_release_us = 150.0;  // OS call: release the processor
  // Stack-slot pool traffic (cont/segment.h): committing a fresh slot page
  // (soft fault + zero fill) and decommitting one back to the OS
  // (madvise).  Cache-hot recycles charge nothing — that is the point of
  // the pool — so these price only the cold paths.
  double stack_commit_us_per_page = 2.0;
  double stack_decommit_us_per_page = 1.0;

  // --- allocation & GC (two-generation copying collector, section 5) ---
  double alloc_instr_per_word = 2.0;    // inline bump allocation
  double alloc_bus_bytes_per_word = 4.0;  // write miss on nearly every word
  // Per-processor cache.  SML/NJ's large allocation regions guarantee "a
  // cache-miss on almost every allocation" (section 7); when the nursery
  // fits in the cache, allocation writes mostly hit and only the dirty
  // write-back fraction reaches the bus — the "very small young
  // generations that can fit in the cache" future-work strategy.
  double cache_bytes = 64.0 * 1024;
  double cached_alloc_bus_factor = 0.2;
  double gc_instr_per_word = 20.0;      // sequential copy cost per live word
  double gc_bus_bytes_per_word = 8.0;   // read from-space + write to-space
  double gc_sync_us = 120.0;            // clean-point rendezvous overhead
  // Extra rendezvous/termination overhead per additional parallel-GC worker
  // (block hand-out, steal traffic, the two-phase termination barrier).
  double gc_par_sync_us_per_worker = 40.0;
  // Card-marking remembered set (gc/card_table.h): re-parsing one dirty card
  // costs a fixed crossing-map lookup plus a per-word header walk; the
  // parsed words are read traffic on the shared bus.
  double gc_card_scan_instr_per_card = 15.0;
  double gc_card_scan_instr_per_word = 2.0;
  double gc_card_scan_bus_bytes_per_word = 8.0;
  // Large-object space (gc/los.h): page-granular allocation soft-faults
  // fresh pages; the post-major sweep walks metas and madvises dead runs.
  double los_alloc_us_per_page = 0.5;
  double los_sweep_instr_per_page = 50.0;

  // --- scheduling of the simulation itself ---
  double granularity_us = 0.0;  // extra slack before forcing a proc switch
  std::uint64_t seed = 0x5eed;

  double instr_to_us(double instructions) const { return instructions / mips; }
};

// 16-processor Sequent Symmetry S81: 16 MHz Intel 80386 (a few effective
// MIPS), ~25 MB/s achievable bus bandwidth, lock+unlock pair ~46 us.
MachineModel sequent_s81(int procs = 16);

// SGI 4D/380S: much faster MIPS R3000 processors, only ~30 MB/s of bus, a
// separate hardware lock bus, lock+unlock pair ~6 us.
MachineModel sgi_4d380(int procs = 8);

// Omron Luna88k (Mach kernel threads, atomic exchange on any word).
MachineModel luna88k(int procs = 4);

// Trivial uniprocessor implementation (paper: "works on all processors that
// run SML/NJ").
MachineModel uniprocessor();

}  // namespace mp::sim
