#pragma once

// Shared plumbing for the benchmark binary: run options, the result record
// it prints, sample statistics (median, the tail-percentile rule),
// in-memory spans, CPU/RSS probes and metrics-registry deltas.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/metrics.h"

namespace perfbench {

namespace metrics = mp::metrics;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Fault injection for the benchmark's self-tests (selftest.py): stall the
  // kv-tcp server for this long mid-run, or corrupt one checked output.
  double stall_ms = 0;
  bool corrupt = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run reports.  `detail` is a JSON object body (without
// braces) of extra facts for the run record: tail percentiles with their
// sample counts, invalidity reasons, per-phase figures.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // why `correct` is false
  std::string detail;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void note(const std::string& key, const std::string& json_value);
};

// Progress shared with the heartbeat thread (main.cpp), so a run that dies
// or hangs still tells the watchdog how far it got.
extern std::atomic<std::uint64_t> g_done;
extern std::atomic<std::uint64_t> g_failed;

// ---- statistics ----

double median(std::vector<double> v);
// Nearest-rank percentile (0 < q <= 100) of an ascending-sorted sample.
double percentile_sorted(const std::vector<double>& sorted, double q);
// Number of samples strictly above the nearest-rank q-th percentile.
std::size_t samples_beyond(std::size_t n, double q);

// The tail-percentile rule: of the candidate percentiles, the highest one
// with at least ten samples beyond it, reported with the sample count.  A
// sample too small for any candidate yields pct = 0 and value = max.
struct Tail {
  double pct = 0;
  double value = 0;
  std::size_t samples = 0;
};
inline const std::vector<double> kTailCandidates = {99.99, 99.9, 99, 90, 50};
Tail tail_percentile(std::vector<double> v,
                     const std::vector<double>& candidates = kTailCandidates);
std::string tail_json(const Tail& t);

// Latencies in microseconds, counted in log-spaced buckets 0.5% wide, so a
// recorder's memory stays fixed however many requests a run completes.
// Percentiles follow the nearest-rank rule, interpolated inside the bucket.
class LatencyHisto {
 public:
  LatencyHisto();
  void add(double us);
  void merge(const LatencyHisto& other);
  std::uint64_t count() const { return n_; }
  double percentile(double q) const;
  Tail tail(const std::vector<double>& candidates = kTailCandidates) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t n_ = 0;
};

// ---- clocks and process probes ----

double now_s();              // steady clock, seconds
double process_cpu_s();      // CPU time of every thread of the process
double thread_cpu_s();       // CPU time of the calling OS thread
double peak_rss_mb();        // high-water resident set since process start

// ---- placement ----

// Steps every thread of the process through windows of `width` of the CPUs
// it may run on, one window per step.  On a virtual machine some vCPUs run
// much slower than others for minutes at a time, and a thread tends to stay
// where it started, so without this one run can spend all of its time on a
// slow vCPU; stepping makes every run visit all of them.  A no-op when the
// process may use no more than `width` CPUs; restores the mask on exit.
class CpuRotation {
 public:
  explicit CpuRotation(int width);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void step(std::size_t k);
  // Pins the calling thread alone to the k-th vCPU and every other thread
  // to the rest, so a busy load generator never shares a vCPU with the
  // server it drives.  Construct with width 1.
  void step_apart(std::size_t k);

 private:
  std::vector<int> cpus_;
  int width_;
};

// ---- metrics registry deltas ----

using metrics::Counter;
using metrics::Histo;

struct Delta {
  metrics::Snapshot before;
  metrics::Snapshot after;

  std::uint64_t count(Counter c) const {
    return after.counter(c) - before.counter(c);
  }
  metrics::HistoSnapshot histo(Histo h) const;
};

// Quantile of a log2-bucketed histogram, interpolated linearly inside the
// bucket holding the rank (bucket i >= 1 covers [2^(i-1), 2^i)).
double histo_quantile(const metrics::HistoSnapshot& h, double q);
metrics::HistoSnapshot histo_sum(const std::vector<metrics::HistoSnapshot>& hs);

// Human-readable number with enough digits for the record.
std::string num(double v);

}  // namespace perfbench
