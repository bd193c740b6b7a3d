#pragma once

// Runtime-wide observability (the metrics registry).
//
// The paper's platform keeps every interesting piece of state — thread
// queues, locks, allocation regions — observable from the client level; this
// module gives the reproduction the measuring instrument to match: one
// process-wide registry of per-proc, cache-line-padded event counters and
// log2-bucketed latency histograms, fed by the arch / gc / threads / cml
// layers and merged on demand into an immutable Snapshot with JSON
// serialization (what the bench binaries dump next to their timings).
//
// Cost model.  Each instrumentation site is a relaxed load of the global
// enable flag plus, when enabled, relaxed fetch_adds on a slot owned by the
// current proc (no shared cache lines on the hot path).  Building with
// -DMPNJ_METRICS=0 (CMake option MPNJ_METRICS=OFF) compiles every site away
// entirely, so the uninstrumented fast path is bit-identical to the seed.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "arch/cacheline.h"

#ifndef MPNJ_METRICS
#define MPNJ_METRICS 1
#endif

namespace mp::metrics {

// Monotonic event counters.  One enumerator per instrumented event; names
// (counter_name) are the keys used in the JSON snapshot.
enum class Counter : std::uint32_t {
  // Lock layer (arch test-and-set words and platform MutexLocks).
  kLockAcquires,       // successful lock acquisitions
  kLockContended,      // acquisitions that had to spin at least once
  kLockSpinIters,      // total failed test-and-set retries while spinning
  kLockBackoffRounds,  // exponential-backoff delays taken while spinning
  // Thread-level queue locks (threads/qlock.h, threads/sync.h).
  kLockParkWaits,      // claims that parked the thread after the bounded spin
  kLockHandoffs,       // direct grants that rescheduled a parked waiter
  // Heap (gc/heap.cpp).  The structural counters double as the storage
  // behind Heap::stats() and are counted through the always-on tier (see
  // count_always below), so heap statistics survive MPNJ_METRICS=0.
  kGcMinor,          // minor (nursery) collections
  kGcMajor,          // major (semispace) collections
  kGcPauseUsTotal,   // total stop-the-world pause, integer microseconds
  // Where a collection's time goes, in nanoseconds summed over collections:
  // the collector's wait for the world to stop (outside the pause above),
  // then the minor phases inside it.
  kGcRendezvousNs,   // stop_world: from the request until every proc parked
  kGcRemsetNs,       // minor: dirty cards and dirty large objects gathered
  kGcRootsNs,        // minor: root slots gathered (proc chains, cores, globals)
  kGcCopyNs,         // minor: evacuation, remembered ranges included
  kGcResetNs,        // minor: nursery, card and LOS dirty state reset
  kGcWordsCopied,    // live words copied by collections
  kGcWordsCopiedMinor,  // live words promoted by minor collections
  kGcWordsCopiedMajor,  // live words moved between semispaces by majors
  kGcAllocWords,     // heap words allocated (header + fields)
  kGcAllocs,         // allocation operations
  kGcStores,         // old-generation stores recorded on the store list
  kGcChunkGrabs,     // nursery chunks claimed by procs
  kGcChunkSteals,    // chunk grabs beyond a proc's fair share (paper "steal")
  kGcLargeAllocs,    // allocations routed to the large-object space
  // Card-marking remembered set (gc/heap.cpp, RemsetMode::kCard).  The
  // dirtied/scanned counts back HeapStats and run always-on.
  kGcCardsDirtied,    // clean->dirty card transitions observed by the barrier
  kGcCardsScanned,    // dirty cards re-parsed by minor collections
  kGcCardScanWords,   // old-generation words covered by scanned cards
  kGcCardFlushes,     // per-proc dirty-card buffer flushes to the global list
  // Large-object space (gc/los.cpp).
  kGcLosBytesAllocated,  // object bytes placed in the LOS
  kGcLosBytesSwept,      // object bytes released by post-major sweeps
  kGcLosSweeps,          // post-major sweep passes
  kGcLosMarked,          // LOS objects marked live by major collections
  kGcLosScanned,         // dirty LOS objects re-scanned by minor collections
  kGcLosYoungFreed,      // young LOS objects freed by minor collections
  kGcLosYoungBytesFreed,  // object bytes of those
  // Parallel collection (gc/parallel_copy.cpp).
  kGcParCollections,    // collections that ran the parallel copier
  kGcParWorkers,        // workers that participated, summed over collections
  kGcParSteals,         // scan blocks stolen from the shared overflow stack
  kGcParOverflowPushes, // surplus grey blocks published to the overflow stack
  kGcParPadWords,       // to-space words lost to block-tail padding
  kGcParTermRounds,     // termination-detector rounds (steal-fail passes)
  // Thread package (threads/scheduler.cpp).
  kSchedDispatches,  // threads resumed by a dispatch loop
  kSchedPreempts,    // preemption signals acted upon
  kSchedForks,       // threads forked
  kSchedYields,      // voluntary yields
  kSchedIdlePolls,   // empty-queue polling iterations of held procs
  kSchedTimerFires,  // timer callbacks run
  kSchedIdleBackoff,  // bounded-backoff waits taken by idle dispatch loops
  kSchedStealAttempts,  // work-stealing CASes tried against non-empty victims
  kSchedStealCommits,   // steals whose CAS won (threads migrated between procs)
  kSchedParkWaits,      // bounded parks taken by idle procs (port or reactor)
  kSchedParkWakeups,    // parks ended by a targeted wake_one claim
  // CML channels (cml/cml.h).
  kCmlSends,          // send offers committed
  kCmlRecvs,          // receive offers committed
  kCmlSelectRetries,  // candidates that died while claimed (retracted)
  kCmlOffersParked,   // offers parked on a channel queue
  // I/O reactor (io/reactor.h, io/stream.h, arch/sysio.h).
  kIoWakeups,          // waiters (threads / event offers) woken by readiness
  kIoDispatchBatches,  // reactor dispatch passes that woke at least one waiter
  kIoParked,           // waiters parked against fd / pipe readiness
  kIoNotifies,         // cross-thread reactor wakeup kicks delivered
  kIoEintrRetries,     // raw syscalls transparently restarted after EINTR
  kIoBytesRead,        // payload bytes moved by stream reads
  kIoBytesWritten,     // payload bytes moved by stream writes
  // KV service (kv/service.h, kv/server.h).
  kKvGets,         // GET operations applied by shard owners
  kKvSets,         // SET operations applied
  kKvDels,         // DEL operations applied
  kKvRanges,       // RANGE requests served (one per client request)
  kKvStats,        // per-shard STATS probes applied
  kKvHits,         // GETs that found the key
  kKvMisses,       // GETs that missed
  kKvProtoErrors,  // malformed frames answered with -ERR
  kKvConns,        // connections accepted into the serving loop
  // Pooled stack slots (cont/segment.cpp).  The commit/decommit byte totals
  // are counted through the always-on tier so RSS accounting survives
  // MPNJ_METRICS=0 (current committed bytes = commits - decommits, also
  // exposed directly by SegmentPool::committed_bytes()).
  kContStackCommitBytes,    // stack bytes committed (carve, cold-slot reuse)
  kContStackDecommitBytes,  // stack bytes released (madvise MADV_DONTNEED)
  kContPoolHits,       // acquisitions served without committing pages
  kContPoolMisses,     // acquisitions that had to commit (carve or cold pop)
  kContPoolRecycles,   // slots returned to a free pool
  kContPoolDecommits,  // slots madvised past the global free target
  // Continuations (cont/cont.cpp).
  kContUnwinds,  // abandon-unwinds: throw_to, fire_preloaded, exit_to_idle
  // Scheduling-event tracer (threads/trace.h).
  kTraceDropped,  // trace events overwritten in the ring buffer
  kNumCounters,
};
inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kNumCounters);
const char* counter_name(Counter c);

// Log2-bucketed histograms: bucket 0 holds the value 0, bucket i >= 1 holds
// values in [2^(i-1), 2^i).  Cheap to record (a bit-width computation), wide
// enough for anything from spin iterations to pause times in microseconds.
enum class Histo : std::uint32_t {
  // Pause histograms run through the always-on tier (record_always): a pause
  // SLO is a product claim, not optional observability, so the distribution
  // survives MPNJ_METRICS=0 builds and env settings.
  kGcPauseUs,      // stop-the-world pause per collection (wall microseconds)
  kGcMinorPauseUs,  // minor-phase portion of the pause (root gather + copy)
  kGcMajorPauseUs,  // major-phase portion (semispace flip + LOS sweep)
  kGcParWorkerWords,  // words copied per worker per parallel collection
  kGcParSteals,       // overflow-stack steals per parallel collection
  kGcParTermRounds,   // termination-detector rounds per parallel collection
  kLockSpinIters,  // spin iterations per contended acquisition
  kLockHoldUs,     // queue-mutex hold time, acquire to release (microseconds)
  kLockWaitUs,     // queue-mutex wait time per contended acquire (microseconds)
  kRunQueueDepth,  // ready-queue length observed at each dispatch
  kSchedParkUs,    // time spent per bounded park (microseconds)
  kSchedWakeToDispatchUs,  // wake_one claim to next dispatch on the woken proc
  kIoWaitUs,       // parked time per woken I/O waiter (microseconds)
  kIoBatchWakeups,  // waiters woken per non-empty reactor dispatch pass
  // KV service: per-op-kind queueing delay (submit to shard dequeue) and
  // end-to-end service time (submit to in-order reply dequeue at the
  // connection writer), microseconds.
  kKvQueueUsGet,
  kKvQueueUsSet,
  kKvQueueUsDel,
  kKvQueueUsRange,
  kKvReqUsGet,
  kKvReqUsSet,
  kKvReqUsDel,
  kKvReqUsRange,
  kNumHistos,
};
inline constexpr std::size_t kNumHistos =
    static_cast<std::size_t>(Histo::kNumHistos);
const char* histo_name(Histo h);

inline constexpr std::size_t kNumBuckets = 32;

inline std::size_t bucket_of(std::uint64_t value) {
  if (value == 0) return 0;
  std::size_t b = 64 - static_cast<std::size_t>(__builtin_clzll(value));
  return b < kNumBuckets ? b : kNumBuckets - 1;
}

struct HistoSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kNumBuckets> buckets{};

  friend bool operator==(const HistoSnapshot&, const HistoSnapshot&) = default;
};

// A merged, immutable view of the registry: per-proc slots summed at call
// time (exactly how Heap::stats() merges its per-proc counters).
struct Snapshot {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<HistoSnapshot, kNumHistos> histos{};

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  const HistoSnapshot& histo(Histo h) const {
    return histos[static_cast<std::size_t>(h)];
  }

  // {"counters":{...},"histograms":{name:{"count":..,"sum":..,"buckets":[..]}}}
  std::string to_json() const;
  // Parses exactly the shape to_json emits (unknown names are ignored so
  // snapshots survive counter additions).  Returns false on malformed input.
  static bool from_json(const std::string& text, Snapshot* out);

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

// The registry proper.  Increments land in one of kMaxSlots cache-line-
// padded slots; the executing proc's slot is named by a thread-local set
// with bind_slot (platform backends bind proc id; the simulator re-binds on
// every virtual-proc switch).  Threads that never bind — benchmark harness
// threads, tests — lazily take a distinct slot, so concurrent increments
// never contend on one line either way.
class Registry {
 public:
  static constexpr std::size_t kMaxSlots = 64;

  Registry();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Names the slot used by the calling OS thread (wrapped modulo kMaxSlots).
  static void bind_slot(int slot);
  static void unbind_slot();

  void count(Counter c, std::uint64_t n = 1) {
    if (!enabled()) return;
    slot().counters[static_cast<std::size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }

  // Always-on tier: structural runtime statistics (heap collection counts,
  // allocation totals) that Heap::stats() and the benchmark reports are
  // built from.  These bypass the enable flag — they are bookkeeping the
  // runtime itself relies on, not optional observability — and they remain
  // live under -DMPNJ_METRICS=0 builds (the seed kept the same counts as
  // plain per-proc fields, so the cost is unchanged: a relaxed add on a
  // slot owned by the current proc).
  void count_always(Counter c, std::uint64_t n = 1) {
    slot().counters[static_cast<std::size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }

  void record(Histo h, std::uint64_t value) {
    if (!enabled()) return;
    record_always(h, value);
  }

  // Always-on histogram tier (the counterpart of count_always): the GC pause
  // distributions bypass the enable flag because the pause-SLO reports are
  // built from them.
  void record_always(Histo h, std::uint64_t value) {
    Slot& s = slot();
    const auto i = static_cast<std::size_t>(h);
    s.histo_buckets[i][bucket_of(value)].fetch_add(1,
                                                   std::memory_order_relaxed);
    s.histo_sum[i].fetch_add(value, std::memory_order_relaxed);
  }

  Snapshot snapshot() const;
  // One counter summed over every slot: snapshot().counter(c) without
  // reading the rest of the registry.
  std::uint64_t counter(Counter c) const;
  void reset();

 private:
  struct alignas(arch::kCacheLine) Slot {
    std::atomic<std::uint64_t> counters[kNumCounters];
    std::atomic<std::uint64_t> histo_buckets[kNumHistos][kNumBuckets];
    std::atomic<std::uint64_t> histo_sum[kNumHistos];
  };

  Slot& slot();

  std::atomic<bool> enabled_{true};
  std::atomic<std::uint32_t> next_slot_{0};
  std::array<Slot, kMaxSlots> slots_{};
};

// The process-wide registry every instrumentation site feeds.
Registry& registry();

// Inline front doors used by the MPNJ_METRIC_* macros.
inline void count_event(Counter c, std::uint64_t n = 1) {
  registry().count(c, n);
}
inline void count_event_always(Counter c, std::uint64_t n = 1) {
  registry().count_always(c, n);
}
inline void record_value(Histo h, std::uint64_t value) {
  registry().record(h, value);
}
inline void record_value_always(Histo h, std::uint64_t value) {
  registry().record_always(h, value);
}

}  // namespace mp::metrics

// Instrumentation macros: compiled away entirely under -DMPNJ_METRICS=0 so
// the uninstrumented fast path is unchanged.
#if MPNJ_METRICS
#define MPNJ_METRIC_COUNT(c, n) \
  ::mp::metrics::count_event(::mp::metrics::Counter::c, (n))
#define MPNJ_METRIC_RECORD(h, v) \
  ::mp::metrics::record_value(::mp::metrics::Histo::h, (v))
#else
#define MPNJ_METRIC_COUNT(c, n) ((void)0)
#define MPNJ_METRIC_RECORD(h, v) ((void)0)
#endif

// Always-on tier: live in every build configuration (Heap::stats(), the
// pause-SLO reports and the benchmark tables depend on these being real).
#define MPNJ_METRIC_COUNT_ALWAYS(c, n) \
  ::mp::metrics::count_event_always(::mp::metrics::Counter::c, (n))
#define MPNJ_METRIC_RECORD_ALWAYS(h, v) \
  ::mp::metrics::record_value_always(::mp::metrics::Histo::h, (v))
