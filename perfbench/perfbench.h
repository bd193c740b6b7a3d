#pragma once

// Entry points of the benchmark's parts (main.cpp dispatches on --workload).

#include <cstdint>
#include <vector>

#include "common.h"

namespace perfbench {

// Repeated set-ups per untraced run; setup_s is their median.
inline constexpr int kSetups = 7;
// Unmeasured lead-in after set-up, so caches, pools and lazy state settle.
inline constexpr double kWarmupS = 0.5;
// The KV workloads measure in slices of this length and report slice
// medians, so interference that hits part of a run on a shared host does
// not move them (see add_slice_metrics).
inline constexpr double kSliceS = 0.5;

struct Slice {
  double wall_s = 0;
  double cpu_s = 0;  // process CPU, minus any load generator thread
  double ops = 0;    // operations completed in the slice
  LatencyHisto lat;  // latencies of the slice's operations
};

// How a KV run splits into slices: a traced run leaves the first half of
// them untraced, to compare against.
struct SlicePlan {
  int count = 0;
  int first_traced = 0;  // == count when untraced
};
SlicePlan plan_slices(const Options& o);

// Reports a KV run.  Untraced: setup_s and the slice medians of throughput,
// p50, p99 and CPU per request (a slice too small for a p99 under the
// tail-percentile rule fails the run).  Traced: the per-request registry
// deltas of the traced slices (`traced`) and trace.overhead_share.
void report_kv(const std::vector<Slice>& slices, const SlicePlan& plan,
               bool trace, const std::vector<double>& setup_s,
               const Delta& traced, Result& r);

// Isolated per-layer calls (traced runs only).
void run_ladder(std::uint64_t seed, Result& r);

void run_kv_pipe(const Options& o, Result& r);
void run_kv_tcp(const Options& o, Result& r);
void run_abisort(const Options& o, Result& r);

// trace.overhead_share: how much CPU per operation the traced phase cost
// over the untraced phase of the same run.
inline void add_overhead(double untraced_cpu_per_op, double traced_cpu_per_op,
                         Result& r) {
  r.add("trace.overhead_share",
        untraced_cpu_per_op > 0 ? traced_cpu_per_op / untraced_cpu_per_op - 1
                                : 0,
        "share");
}

}  // namespace perfbench
