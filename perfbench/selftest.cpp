// Unit checks of the benchmark's statistics (run by selftest.py): the
// nearest-rank percentile, the tail-percentile rule, and the log2-histogram
// quantile the per-layer waits are read with.  Exits nonzero on a failure.

#include <cmath>
#include <cstdio>
#include <vector>

#include "common.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL %s\n", what);
    failures++;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; i--) v.push_back(i);  // unsorted on purpose
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  check(near(median({3, 1, 2}), 2), "median of odd count");
  check(near(median({4, 1, 3, 2}), 2.5), "median of even count");

  const std::vector<double> hundred = [] {
    std::vector<double> v;
    for (int i = 1; i <= 100; i++) v.push_back(i);
    return v;
  }();
  check(near(percentile_sorted(hundred, 50), 50), "p50 of 1..100");
  check(near(percentile_sorted(hundred, 99), 99), "p99 of 1..100");
  check(samples_beyond(100, 90) == 10, "ten samples beyond p90 of 100");
  check(samples_beyond(100, 99) == 1, "one sample beyond p99 of 100");
  check(samples_beyond(1000, 99) == 10, "ten samples beyond p99 of 1000");

  // The rule: the highest candidate with at least ten samples beyond it.
  Tail t = tail_percentile(one_to(100));
  check(near(t.pct, 90) && near(t.value, 90) && t.samples == 100,
        "100 samples report p90");
  t = tail_percentile(one_to(999));
  check(near(t.pct, 90) && t.samples == 999, "999 samples still report p90");
  t = tail_percentile(one_to(1000));
  check(near(t.pct, 99) && near(t.value, 990), "1000 samples report p99");
  t = tail_percentile(one_to(10000));
  check(near(t.pct, 99.9) && near(t.value, 9990), "10000 samples report p99.9");
  t = tail_percentile(one_to(19));
  check(near(t.pct, 0) && near(t.value, 19), "19 samples support no percentile");
  t = tail_percentile(one_to(20));
  check(near(t.pct, 50) && near(t.value, 10), "20 samples report p50");
  t = tail_percentile(one_to(100000), {99, 90, 50});
  check(near(t.pct, 99), "a candidate list caps the percentile");

  // The latency histogram: within its 0.5% bucket width of the exact
  // nearest-rank answer, and the same rule on its counts.
  LatencyHisto lh;
  for (int i = 1; i <= 1000; i++) lh.add(i);
  check(lh.count() == 1000, "histogram counts every sample");
  check(std::fabs(lh.percentile(50) - 500) <= 500 * 0.006, "histogram p50 of 1..1000");
  check(std::fabs(lh.percentile(99) - 990) <= 990 * 0.006, "histogram p99 of 1..1000");
  const Tail ht = lh.tail();
  check(near(ht.pct, 99) && ht.samples == 1000, "histogram follows the tail rule");
  LatencyHisto other;
  other.add(5000);
  other.merge(lh);
  check(other.count() == 1001 && other.percentile(100) > 4900, "merged histogram keeps the max");

  // Registry histogram quantiles: 100 values of 3 land in bucket [2, 4).
  metrics::HistoSnapshot h;
  h.buckets[2] = 100;
  h.count = 100;
  const double q = histo_quantile(h, 0.5);
  check(q >= 2 && q < 4, "histogram median inside its bucket");
  check(near(histo_quantile(metrics::HistoSnapshot{}, 0.5), 0),
        "empty histogram reads 0");

  std::printf("%s\n", failures == 0 ? "selftest: ok" : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}
