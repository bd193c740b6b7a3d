// Unit tests for the runtime metrics registry (src/metrics): per-proc slot
// merging under concurrent increments, histogram bucket boundaries, and the
// JSON snapshot round-trip.

#include "metrics/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace mp::metrics {
namespace {

TEST(Buckets, ZeroGetsItsOwnBucket) { EXPECT_EQ(bucket_of(0), 0u); }

TEST(Buckets, PowerOfTwoBoundaries) {
  // Bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(bucket_of(1), 1u);
  EXPECT_EQ(bucket_of(2), 2u);
  EXPECT_EQ(bucket_of(3), 2u);
  EXPECT_EQ(bucket_of(4), 3u);
  EXPECT_EQ(bucket_of(7), 3u);
  EXPECT_EQ(bucket_of(8), 4u);
  for (std::size_t i = 1; i < kNumBuckets - 1; i++) {
    const std::uint64_t lo = 1ull << (i - 1);
    const std::uint64_t hi = (1ull << i) - 1;
    EXPECT_EQ(bucket_of(lo), i) << "lower edge of bucket " << i;
    EXPECT_EQ(bucket_of(hi), i) << "upper edge of bucket " << i;
  }
}

TEST(Buckets, HugeValuesClampToLastBucket) {
  EXPECT_EQ(bucket_of(~0ull), kNumBuckets - 1);
  EXPECT_EQ(bucket_of(1ull << 62), kNumBuckets - 1);
}

TEST(Registry, CountsAndRecords) {
  Registry r;
  r.count(Counter::kLockAcquires);
  r.count(Counter::kLockAcquires, 4);
  r.record(Histo::kLockSpinIters, 0);
  r.record(Histo::kLockSpinIters, 5);
  r.record(Histo::kLockSpinIters, 5);

  const Snapshot s = r.snapshot();
  EXPECT_EQ(s.counter(Counter::kLockAcquires), 5u);
  EXPECT_EQ(s.counter(Counter::kGcMinor), 0u);
  const HistoSnapshot& h = s.histo(Histo::kLockSpinIters);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 10u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[bucket_of(5)], 2u);
}

TEST(Registry, DisabledDropsEverything) {
  Registry r;
  r.set_enabled(false);
  r.count(Counter::kLockAcquires, 100);
  r.record(Histo::kGcPauseUs, 42);
  EXPECT_EQ(r.snapshot(), Snapshot{});
  r.set_enabled(true);
  r.count(Counter::kLockAcquires);
  EXPECT_EQ(r.snapshot().counter(Counter::kLockAcquires), 1u);
}

// The always-on tier backs Heap::stats(): structural GC counters must keep
// counting when the observability tier is disabled (MPNJ_METRICS=0), or the
// heap would lose track of its own collections.
TEST(Registry, CountAlwaysBypassesDisable) {
  Registry r;
  r.set_enabled(false);
  r.count(Counter::kGcMinor, 5);         // observability tier: dropped
  r.count_always(Counter::kGcMinor, 2);  // structural tier: kept
  const Snapshot s = r.snapshot();
  EXPECT_EQ(s.counter(Counter::kGcMinor), 2u);
  r.set_enabled(true);
  r.count_always(Counter::kGcMinor);
  EXPECT_EQ(r.snapshot().counter(Counter::kGcMinor), 3u);
}

// The per-counter read Heap::stats() uses sums the same slots a snapshot
// does, for every counter.
TEST(Registry, CounterReadEqualsSnapshot) {
  Registry r;
  std::thread other([&r] {
    Registry::bind_slot(5);
    r.count_always(Counter::kGcMinor, 3);
    r.count_always(Counter::kGcWordsCopiedMinor, 40);
    Registry::unbind_slot();
  });
  other.join();
  Registry::bind_slot(9);
  r.count_always(Counter::kGcMinor, 2);
  r.count_always(Counter::kLockAcquires, 7);
  Registry::unbind_slot();
  const Snapshot s = r.snapshot();
  for (std::size_t c = 0; c < kNumCounters; c++) {
    const auto counter = static_cast<Counter>(c);
    EXPECT_EQ(r.counter(counter), s.counter(counter)) << counter_name(counter);
  }
  EXPECT_EQ(r.counter(Counter::kGcMinor), 5u);
}

TEST(Registry, ResetClears) {
  Registry r;
  r.count(Counter::kSchedForks, 7);
  r.record(Histo::kRunQueueDepth, 3);
  r.reset();
  EXPECT_EQ(r.snapshot(), Snapshot{});
}

// The merge property the per-proc design rests on: increments from many
// threads, each bound to a different slot (plus some unbound), sum exactly.
TEST(Registry, ConcurrentIncrementsMergeExactly) {
  Registry r;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&r, t] {
      if (t % 2 == 0) Registry::bind_slot(t);  // odd threads stay lazy-bound
      for (std::uint64_t i = 0; i < kPerThread; i++) {
        r.count(Counter::kSchedDispatches);
        r.record(Histo::kRunQueueDepth, i % 17);
      }
      Registry::unbind_slot();
    });
  }
  for (auto& th : threads) th.join();

  const Snapshot s = r.snapshot();
  EXPECT_EQ(s.counter(Counter::kSchedDispatches), kThreads * kPerThread);
  const HistoSnapshot& h = s.histo(Histo::kRunQueueDepth);
  EXPECT_EQ(h.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const auto b : h.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, h.count);
}

TEST(Registry, BindSlotWrapsModuloMaxSlots) {
  Registry r;
  Registry::bind_slot(static_cast<int>(Registry::kMaxSlots) + 3);
  r.count(Counter::kCmlSends);
  Registry::unbind_slot();
  EXPECT_EQ(r.snapshot().counter(Counter::kCmlSends), 1u);
}

TEST(Json, RoundTripPreservesEverything) {
  Registry r;
  r.count(Counter::kLockAcquires, 3);
  r.count(Counter::kGcPauseUsTotal, 12345);
  r.count(Counter::kTraceDropped, 1);
  r.record(Histo::kGcPauseUs, 0);
  r.record(Histo::kGcPauseUs, 250);
  r.record(Histo::kLockSpinIters, 9);
  const Snapshot s = r.snapshot();

  const std::string text = s.to_json();
  Snapshot back;
  ASSERT_TRUE(Snapshot::from_json(text, &back)) << text;
  EXPECT_EQ(back, s);
}

TEST(Json, EmptySnapshotRoundTrips) {
  const Snapshot s;
  Snapshot back;
  ASSERT_TRUE(Snapshot::from_json(s.to_json(), &back));
  EXPECT_EQ(back, s);
}

TEST(Json, MalformedInputIsRejected) {
  Snapshot out;
  EXPECT_FALSE(Snapshot::from_json("", &out));
  EXPECT_FALSE(Snapshot::from_json("{", &out));
  EXPECT_FALSE(Snapshot::from_json("[]", &out));
  EXPECT_FALSE(Snapshot::from_json("{\"counters\":}", &out));
  EXPECT_FALSE(Snapshot::from_json("{\"counters\":{\"x\":}}", &out));
  EXPECT_FALSE(Snapshot::from_json("{\"counters\":{}} trailing", &out));
}

TEST(Json, UnknownNamesAreIgnored) {
  Snapshot out;
  ASSERT_TRUE(Snapshot::from_json(
      "{\"counters\":{\"not_a_counter\":7,\"lock_acquires\":2},"
      "\"histograms\":{}}",
      &out));
  EXPECT_EQ(out.counter(Counter::kLockAcquires), 2u);
}

TEST(Json, NamesAreUniqueWithinEachSection) {
  // The JSON keys are the enum names; a duplicate within a section would
  // merge silently on parse.  (Counters and histograms are separate JSON
  // objects, so a name may appear in both — lock_spin_iters does.)
  const auto check = [](const std::vector<std::string>& names) {
    for (std::size_t i = 0; i < names.size(); i++) {
      EXPECT_FALSE(names[i].empty());
      for (std::size_t j = i + 1; j < names.size(); j++) {
        EXPECT_NE(names[i], names[j]) << "duplicate metric name";
      }
    }
  };
  std::vector<std::string> counters;
  for (std::size_t i = 0; i < kNumCounters; i++) {
    counters.emplace_back(counter_name(static_cast<Counter>(i)));
  }
  std::vector<std::string> histos;
  for (std::size_t i = 0; i < kNumHistos; i++) {
    histos.emplace_back(histo_name(static_cast<Histo>(i)));
  }
  check(counters);
  check(histos);
}

}  // namespace
}  // namespace mp::metrics
