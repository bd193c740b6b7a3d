#include "common.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <cstdlib>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "perfbench.h"

namespace perfbench {

std::atomic<std::uint64_t> g_done{0};
std::atomic<std::uint64_t> g_failed{0};

void Result::note(const std::string& key, const std::string& json_value) {
  if (!detail.empty()) detail += ",";
  detail += "\"" + key + "\":" + json_value;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
// 1-based rank of the q-th percentile; the epsilon keeps q * n / 100 from
// rounding up past an exact integer (99.9 is not exact in binary).
double nearest_rank(std::size_t n, double q) {
  return std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9);
}
}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = nearest_rank(sorted.size(), q);
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

std::size_t samples_beyond(std::size_t n, double q) {
  const double rank = nearest_rank(n, q);
  const std::size_t r = rank < 1 ? 1 : static_cast<std::size_t>(rank);
  return r >= n ? 0 : n - r;
}

namespace {
// The rule over any sample that can answer "value at percentile q".
template <typename At>
Tail pick_tail(std::size_t n, const std::vector<double>& candidates, At at) {
  Tail t;
  t.samples = n;
  if (n == 0) return t;
  t.value = at(100);
  for (const double q : candidates) {
    if (samples_beyond(n, q) >= 10 && q > t.pct) {
      t.pct = q;
      t.value = at(q);
    }
  }
  return t;
}

constexpr double kHistoMinUs = 0.01;
constexpr double kHistoGrowth = 1.005;
constexpr std::size_t kHistoBuckets = 5200;  // 0.01 us .. ~1.8e9 us
}  // namespace

Tail tail_percentile(std::vector<double> v,
                     const std::vector<double>& candidates) {
  std::sort(v.begin(), v.end());
  return pick_tail(v.size(), candidates,
                   [&](double q) { return percentile_sorted(v, q); });
}

LatencyHisto::LatencyHisto() : buckets_(kHistoBuckets, 0) {}

void LatencyHisto::add(double us) {
  std::size_t b = 0;
  if (us > kHistoMinUs) {
    b = std::min(kHistoBuckets - 1,
                 static_cast<std::size_t>(std::log(us / kHistoMinUs) /
                                          std::log(kHistoGrowth)));
  }
  buckets_[b]++;
  n_++;
}

void LatencyHisto::merge(const LatencyHisto& other) {
  for (std::size_t i = 0; i < kHistoBuckets; i++) buckets_[i] += other.buckets_[i];
  n_ += other.n_;
}

double LatencyHisto::percentile(double q) const {
  if (n_ == 0) return 0;
  const double rank = std::max(1.0, nearest_rank(n_, q));
  double seen = 0;
  for (std::size_t i = 0; i < kHistoBuckets; i++) {
    const double c = static_cast<double>(buckets_[i]);
    if (c > 0 && seen + c >= rank) {
      const double lo = kHistoMinUs * std::pow(kHistoGrowth, static_cast<double>(i));
      return lo + lo * (kHistoGrowth - 1) * ((rank - seen - 0.5) / c);
    }
    seen += c;
  }
  return 0;
}

Tail LatencyHisto::tail(const std::vector<double>& candidates) const {
  return pick_tail(n_, candidates, [&](double q) { return percentile(q); });
}

std::string tail_json(const Tail& t) {
  return "{\"pct\":" + num(t.pct) + ",\"value\":" + num(t.value) +
         ",\"samples\":" + std::to_string(t.samples) + "}";
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
void set_all_threads(const cpu_set_t& mask) {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (const dirent* e = readdir(dir)) {
    const int tid = std::atoi(e->d_name);
    if (tid > 0) sched_setaffinity(tid, sizeof(mask), &mask);
  }
  closedir(dir);
}
}  // namespace

CpuRotation::CpuRotation(int width) : width_(width) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; c++) {
    if (CPU_ISSET(c, &mask)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (static_cast<int>(cpus_.size()) <= width_) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int c : cpus_) CPU_SET(c, &mask);
  set_all_threads(mask);
}

void CpuRotation::step(std::size_t k) {
  const std::size_t n = cpus_.size();
  if (static_cast<int>(n) <= width_) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int i = 0; i < width_; i++) CPU_SET(cpus_[(k + static_cast<std::size_t>(i)) % n], &mask);
  set_all_threads(mask);
}

void CpuRotation::step_apart(std::size_t k) {
  const std::size_t n = cpus_.size();
  if (static_cast<int>(n) <= width_) return;
  cpu_set_t own;
  cpu_set_t rest;
  CPU_ZERO(&own);
  CPU_ZERO(&rest);
  for (std::size_t i = 0; i < n; i++) CPU_SET(cpus_[i], i == k % n ? &own : &rest);
  set_all_threads(rest);
  sched_setaffinity(0, sizeof(own), &own);
}

metrics::HistoSnapshot Delta::histo(Histo h) const {
  const auto& a = after.histo(h);
  const auto& b = before.histo(h);
  metrics::HistoSnapshot d;
  d.count = a.count - b.count;
  d.sum = a.sum - b.sum;
  for (std::size_t i = 0; i < metrics::kNumBuckets; i++) {
    d.buckets[i] = a.buckets[i] - b.buckets[i];
  }
  return d;
}

metrics::HistoSnapshot histo_sum(
    const std::vector<metrics::HistoSnapshot>& hs) {
  metrics::HistoSnapshot out;
  for (const auto& h : hs) {
    out.count += h.count;
    out.sum += h.sum;
    for (std::size_t i = 0; i < metrics::kNumBuckets; i++) {
      out.buckets[i] += h.buckets[i];
    }
  }
  return out;
}

double histo_quantile(const metrics::HistoSnapshot& h, double q) {
  std::uint64_t total = 0;
  for (const auto b : h.buckets) total += b;
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  double seen = 0;
  for (std::size_t i = 0; i < metrics::kNumBuckets; i++) {
    const double c = static_cast<double>(h.buckets[i]);
    if (c > 0 && seen + c >= rank) {
      if (i == 0) return 0;
      const double lo = std::ldexp(1.0, static_cast<int>(i) - 1);
      const double frac = (rank - seen) / c;
      return lo + frac * lo;  // the bucket spans [lo, 2 * lo)
    }
    seen += c;
  }
  return std::ldexp(1.0, static_cast<int>(metrics::kNumBuckets) - 1);
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

SlicePlan plan_slices(const Options& o) {
  SlicePlan p;
  p.count = std::max(2, static_cast<int>(o.seconds / kSliceS + 0.5));
  p.first_traced = o.trace ? p.count / 2 : p.count;
  return p;
}

namespace {

double total_ops(const std::vector<Slice>& slices) {
  double ops = 0;
  for (const Slice& s : slices) ops += s.ops;
  return ops;
}

double cpu_per_op(const std::vector<Slice>& slices) {
  double cpu = 0;
  for (const Slice& s : slices) cpu += s.cpu_s;
  const double ops = total_ops(slices);
  return ops > 0 ? cpu / ops : 0;
}

// The figures are medians over the run's slices.  On the shared host the
// benchmark was tuned on, slice throughput swings by a third between
// neighbouring slices and the host's best speed drifts by a fifth over
// minutes; across runs the slice median held steadier than any "better
// slices" percentile (75th to 100th), whose edge follows that drift.
void add_slice_metrics(const std::vector<Slice>& slices,
                       const std::vector<double>& setup_s, Result& r) {
  std::vector<double> ops, p50, p99, cpu;
  LatencyHisto all;
  for (const Slice& s : slices) {
    if (s.lat.tail({99}).pct != 99) {
      r.fail("a " + num(kSliceS) + " s slice has too few requests for a p99");
    }
    ops.push_back(s.ops / s.wall_s);
    p50.push_back(s.lat.percentile(50));
    p99.push_back(s.lat.percentile(99));
    cpu.push_back(s.ops > 0 ? s.cpu_s / s.ops * 1e6 : 0);
    all.merge(s.lat);
  }
  auto list = [](const std::vector<double>& v) {
    std::string out;
    for (const double x : v) out += (out.empty() ? "" : ",") + num(x);
    return "[" + out + "]";
  };
  r.note("slice_ops_per_s", list(ops));
  r.note("slice_p50_us", list(p50));
  r.note("slice_p99_us", list(p99));
  r.note("latency_tail", tail_json(all.tail()));
  r.add("setup_s", median(setup_s), "s");
  r.add("ops_per_s", median(ops), "1/s");
  r.add("p50_us", median(p50), "us");
  r.add("tail_us", median(p99), "us");
  r.add("cpu_us_per_op", median(cpu), "us");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void add_request_layers(const Delta& d, double requests, Result& r) {
  const double n = requests > 0 ? requests : 1;
  auto per_req = [&](const char* name, Counter c) {
    r.add(name, static_cast<double>(d.count(c)) / n, "count/req");
  };
  per_req("threads.dispatches_per_req", Counter::kSchedDispatches);
  per_req("threads.steals_per_req", Counter::kSchedStealCommits);
  per_req("threads.proc_parks_per_req", Counter::kSchedParkWaits);
  per_req("threads.lock_parks_per_req", Counter::kLockParkWaits);
  per_req("cml.offers_parked_per_req", Counter::kCmlOffersParked);
  per_req("cml.select_retries_per_req", Counter::kCmlSelectRetries);
  per_req("io.parked_per_req", Counter::kIoParked);
  per_req("io.wakeups_per_req", Counter::kIoWakeups);
  per_req("io.notifies_per_req", Counter::kIoNotifies);
  per_req("cont.pool_misses_per_req", Counter::kContPoolMisses);
  r.add("threads.wake_to_dispatch_us_p50",
        histo_quantile(d.histo(Histo::kSchedWakeToDispatchUs), 0.5), "us");
  r.add("io.wait_us_p50", histo_quantile(d.histo(Histo::kIoWaitUs), 0.5), "us");
  r.add("kv.queue_us_p50",
        histo_quantile(histo_sum({d.histo(Histo::kKvQueueUsGet),
                                  d.histo(Histo::kKvQueueUsSet),
                                  d.histo(Histo::kKvQueueUsDel),
                                  d.histo(Histo::kKvQueueUsRange)}),
                       0.5),
        "us");
  r.add("kv.service_us_p50",
        histo_quantile(histo_sum({d.histo(Histo::kKvReqUsGet),
                                  d.histo(Histo::kKvReqUsSet),
                                  d.histo(Histo::kKvReqUsDel),
                                  d.histo(Histo::kKvReqUsRange)}),
                       0.5),
        "us");
}

}  // namespace

void report_kv(const std::vector<Slice>& slices, const SlicePlan& plan,
               bool trace, const std::vector<double>& setup_s,
               const Delta& traced, Result& r) {
  const auto split = slices.begin() + plan.first_traced;
  const std::vector<Slice> untraced_slices(slices.begin(), split);
  if (!trace) {
    add_slice_metrics(untraced_slices, setup_s, r);
    return;
  }
  const std::vector<Slice> traced_slices(split, slices.end());
  add_request_layers(traced, total_ops(traced_slices), r);
  add_overhead(cpu_per_op(untraced_slices), cpu_per_op(traced_slices), r);
}

}  // namespace perfbench
