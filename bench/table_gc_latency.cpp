// GC latency table: minor-pause percentiles of the card-marking remembered
// set against the paper's store-list barrier, on real kernel threads.
//
// The store list makes every old-generation store grow the next minor's
// root set, so pause time scales with the WRITE COUNT between collections;
// the card table re-scans dirty cards, so pause time scales with the number
// of distinct written LOCATIONS.  Hot-skewed KV-style stores make the two
// regimes maximally different.  Both modes must produce identical final
// heaps — the remembered set is invisible to the program — and the binary
// exits nonzero on a checksum mismatch or a blown --budget-us SLO, so CI
// can use it as a latency regression gate.
//
// Workloads (4 native procs, 256 MB heap: 2 x 128 MB semispaces plus the
// shared nursery):
//   kv    a pre-promoted 8K-slot table takes hot-skewed stores of fresh
//         records (7 of 8 writes land in 64 slots per lane)
//   net   LOS-sized byte-buffer "frames" cycle through a ring while small
//         metadata records are stored into an old-generation header table;
//         frames are swept (never copied) and majors fire on LOS pressure

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cont/cont.h"
#include "gc/heap.h"
#include "gc/roots.h"
#include "gc/value.h"
#include "mp/native_platform.h"

using mp::cont::callcc;
using mp::cont::Cont;
using mp::cont::Unit;
using mp::gc::GlobalRoot;
using mp::gc::Heap;
using mp::gc::HeapConfig;
using mp::gc::RemsetMode;
using mp::gc::Roots;
using mp::gc::Value;

namespace {

constexpr int kProcs = 4;

struct Outcome {
  std::vector<std::uint64_t> minor_us;  // exact per-minor pause samples
  std::uint64_t majors = 0;
  std::uint64_t checksum = 0;
  std::uint64_t stores = 0;
  std::uint64_t cards_scanned = 0;
};

// Run `setup` on the root proc, then `lane_body(heap, lane)` on all four
// procs in parallel (lane 0 stays on the forking flow), then `finish` once
// every lane has drained.  `finish` must also reset any GlobalRoots it was
// handed — the heap dies with the platform before this function returns.
Outcome run_workload(const HeapConfig& heap_cfg,
                     const std::function<void(Heap&)>& setup,
                     const std::function<void(Heap&, int)>& lane_body,
                     const std::function<std::uint64_t(Heap&)>& finish) {
  mp::NativePlatformConfig cfg;
  cfg.max_procs = kProcs;
  cfg.heap = heap_cfg;
  cfg.heap.with_record_pauses(true);
  mp::NativePlatform p(cfg);

  Outcome out;
  std::atomic<int> lanes_done{0};
  p.run([&] {
    Heap& h = p.heap();
    setup(h);
    h.collect_now();  // promote the shared tables before the stores start
    for (int lane = 1; lane < kProcs; lane++) {
      callcc<Unit>([&, lane](Cont<Unit> parent) -> Unit {
        if (!p.try_acquire_proc(std::move(parent), 0)) {
          std::fprintf(stderr, "fatal: no proc for lane %d\n", lane);
          std::exit(2);
        }
        // This body is now the lane worker on the original proc; the
        // forking flow continues on the freshly acquired proc.
        lane_body(h, lane);
        lanes_done.fetch_add(1);
        p.release_proc();
      });
    }
    lane_body(h, 0);
    lanes_done.fetch_add(1);
    while (lanes_done.load() < kProcs) p.work(50);
    h.collect_now();  // drain the nursery so `finish` reads a settled heap
    out.checksum = finish(h);
  });

  for (const auto& s : p.heap().pause_log()) {
    if (s.major_us == 0) out.minor_us.push_back(s.minor_us);
    else out.majors++;
  }
  const auto stats = p.heap().stats();
  out.stores = stats.stores_recorded;
  out.cards_scanned = stats.cards_scanned;
  return out;
}

std::uint64_t checksum_records(Value table, std::size_t slots) {
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < slots; s++) {
    const Value v = table.field(s);
    if (!v.is_ptr()) continue;  // never-written slots still hold int 0
    sum = sum * 1099511628211ull +
          static_cast<std::uint64_t>(v.field(0).as_int() * 131 +
                                     v.field(1).as_int());
  }
  return sum;
}

// ---- kv: hot-skewed record stores into a pre-promoted table ----

// 4K slots, 32 KB: small enough for a nursery chunk (so it is born in the
// nursery, not the LOS) and promoted into the old generation by setup.
constexpr std::size_t kKvSlotsPerLane = 1024;

Outcome run_kv(RemsetMode mode, int ops_per_lane) {
  HeapConfig heap;
  heap.with_nursery_bytes(1u << 20)
      .with_old_bytes(128u << 20)
      // Keep the 32 KB table itself out of the LOS: this workload measures
      // the old-generation barrier.
      .with_los_threshold_bytes(1u << 20)
      .with_remset(mode);

  GlobalRoot table;
  auto setup = [&table](Heap& h) {
    Roots<1> r;
    r[0] = h.alloc_array(kProcs * kKvSlotsPerLane, Value::from_int(0));
    table = GlobalRoot(h, r[0]);
  };
  auto lane_body = [ops_per_lane, &table](Heap& h, int lane) {
    std::uint64_t rng = 0xdecafbad + static_cast<std::uint64_t>(lane);
    for (int i = 0; i < ops_per_lane; i++) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      // 7 of 8 stores land in 64 hot slots of this lane's slice.
      const std::uint64_t roll = rng >> 33;
      const std::size_t slot =
          static_cast<std::size_t>(lane) * kKvSlotsPerLane +
          ((roll & 7u) != 0 ? (roll >> 3) % 64
                            : (roll >> 3) % kKvSlotsPerLane);
      Roots<1> r;
      r[0] = h.alloc_record({Value::from_int(lane), Value::from_int(i)});
      h.store(table.get(), slot, r[0]);
      if ((roll & 0x1Fu) == 1) {
        // Allocation churn: drive minors without adding barrier work.
        for (int n = 0; n < 16; n++) h.alloc_record({Value::from_int(n)});
      }
    }
  };
  auto finish = [&table](Heap&) {
    const std::uint64_t sum =
        checksum_records(table.get(), kProcs * kKvSlotsPerLane);
    table = GlobalRoot();
    return sum;
  };
  return run_workload(heap, setup, lane_body, finish);
}

// ---- net: LOS frame buffers plus ring stores ----

constexpr std::size_t kNetSlotsPerLane = 64;  // 256-slot rings: old gen
constexpr std::size_t kFrameBytes = 32 * 1024;

Outcome run_net(RemsetMode mode, int ops_per_lane) {
  HeapConfig heap;
  heap.with_nursery_bytes(1u << 20)
      .with_old_bytes(128u << 20)
      .with_remset(mode);

  GlobalRoot headers;
  GlobalRoot frames;
  auto setup = [&headers, &frames](Heap& h) {
    Roots<2> r;
    r[0] = h.alloc_array(kProcs * kNetSlotsPerLane, Value::from_int(0));
    r[1] = h.alloc_array(kProcs * kNetSlotsPerLane, Value::from_int(0));
    headers = GlobalRoot(h, r[0]);
    frames = GlobalRoot(h, r[1]);
  };
  auto lane_body = [ops_per_lane, &headers, &frames](Heap& h, int lane) {
    const std::string payload(kFrameBytes, 'x');
    std::uint64_t rng = 0xfeedface + static_cast<std::uint64_t>(lane);
    for (int i = 0; i < ops_per_lane; i++) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      const std::size_t slot =
          static_cast<std::size_t>(lane) * kNetSlotsPerLane +
          (rng >> 33) % kNetSlotsPerLane;
      Roots<1> r;
      r[0] = h.alloc_record({Value::from_int(lane), Value::from_int(i)});
      h.store(headers.get(), slot, r[0]);
      if ((rng & 0x3Fu) == 0) {
        // A fresh LOS-sized frame replaces this connection's buffer; the
        // old one becomes sweepable garbage.
        r[0] = h.alloc_bytes(payload);
        h.store(frames.get(), slot, r[0]);
      } else if ((rng & 0x3Fu) == 1) {
        for (int n = 0; n < 16; n++) h.alloc_record({Value::from_int(n)});
      }
    }
  };
  auto finish = [&headers, &frames](Heap& h) {
    std::uint64_t sum =
        checksum_records(headers.get(), kProcs * kNetSlotsPerLane);
    for (std::size_t s = 0; s < kProcs * kNetSlotsPerLane; s++) {
      const Value f = frames.get().field(s);
      if (f.is_ptr()) sum = sum * 31 + f.length() + (h.in_los(f) ? 1 : 0);
    }
    headers = GlobalRoot();
    frames = GlobalRoot();
    return sum;
  };
  return run_workload(heap, setup, lane_body, finish);
}

struct Workload {
  const char* name;
  Outcome (*run)(RemsetMode, int);
  int ops;
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::flag(argc, argv, "--quick");
  double budget_us = 0;  // 0 = no SLO gate
  for (int i = 1; i < argc - 1; i++) {
    if (std::strcmp(argv[i], "--budget-us") == 0) {
      budget_us = std::atof(argv[i + 1]);
    }
  }

  bench::header("T9", "minor-GC pause percentiles: card table vs store list",
                "beyond the paper: pause work bounded by written locations "
                "(cards), not write count (store list)");
  std::printf("(native, %d procs, 256 MB heap; exact per-pause samples)\n\n",
              kProcs);
  std::printf("%-5s %-6s %8s %8s %9s %9s %9s %9s %10s\n", "wkld", "remset",
              "minors", "majors", "p50(us)", "p99(us)", "p999(us)", "max(us)",
              "stores");
  bench::rule();

  const Workload workloads[] = {
      {"kv", run_kv, quick ? 1000000 : 3000000},
      {"net", run_net, quick ? 300000 : 500000},
  };

  bool fail = false;
  double ratios[2] = {0, 0};
  int row = 0;
  for (const Workload& w : workloads) {
    std::uint64_t sums[2] = {0, 0};
    double p999[2] = {0, 0};
    std::vector<std::uint64_t> card_minors;
    for (const RemsetMode mode : {RemsetMode::kList, RemsetMode::kCard}) {
      const int m = mode == RemsetMode::kCard ? 1 : 0;
      Outcome o = w.run(mode, w.ops);
      std::sort(o.minor_us.begin(), o.minor_us.end());
      sums[m] = o.checksum;
      p999[m] = bench::percentile(o.minor_us, 0.999);
      if (m != 0) card_minors = o.minor_us;
      std::printf("%-5s %-6s %8zu %8llu %9.0f %9.0f %9.0f %9.0f %10llu\n",
                  w.name, m != 0 ? "card" : "list", o.minor_us.size(),
                  static_cast<unsigned long long>(o.majors),
                  bench::percentile(o.minor_us, 0.50),
                  bench::percentile(o.minor_us, 0.99), p999[m],
                  o.minor_us.empty() ? 0.0
                                     : static_cast<double>(o.minor_us.back()),
                  static_cast<unsigned long long>(o.stores));
    }
    if (sums[0] != sums[1]) {
      std::printf("FAIL: %s checksum differs between remset modes "
                  "(list=%llx card=%llx)\n",
                  w.name, static_cast<unsigned long long>(sums[0]),
                  static_cast<unsigned long long>(sums[1]));
      fail = true;
    }
    if (p999[1] > 0) ratios[row] = p999[0] / p999[1];
    if (budget_us > 0) {
      // SLO gate on the card-mode minor p99.9.  The single worst sample is
      // dropped first: these are wall-clock measurements on a shared
      // machine, and one OS preemption blip should not fail CI.  The table
      // above still reports the raw distribution.
      std::vector<std::uint64_t> gated = card_minors;  // sorted
      if (gated.size() > 1) gated.pop_back();
      const double gated_p999 = bench::percentile(gated, 0.999);
      if (gated_p999 > budget_us) {
        std::printf("FAIL: %s card-mode minor p99.9 %.0fus exceeds budget "
                    "%.0fus\n",
                    w.name, gated_p999, budget_us);
        fail = true;
      }
    }
    row++;
  }
  bench::rule();
  for (int i = 0; i < 2; i++) {
    if (ratios[i] > 0) {
      std::printf("%-5s minor p99.9 improvement (list/card): %.2fx\n",
                  workloads[i].name, ratios[i]);
    }
  }
  std::printf("expected: card p99.9 well under the list baseline (>= 3x on "
              "kv);\nidentical checksums prove the barriers are "
              "observationally equal\n");
  bench::dump_metrics_json("table_gc_latency");
  return fail ? 1 : 0;
}
