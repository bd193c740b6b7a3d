// GC ablation (section 6): "Speedup for the other benchmarks is limited
// by ... our sequential garbage collection strategy; if garbage collection
// time were omitted, the maximum speedups for abisort and allpairs would be
// considerably higher, although the rough shape of their curves would be
// the same."

#include "bench_util.h"

using namespace mp::workloads;

int main(int argc, char** argv) {
  const bool quick = bench::flag(argc, argv, "--quick");
  bench::header("T5", "speedup with and without sequential GC time",
                "abisort and allpairs reach considerably higher maximum "
                "speedups with GC omitted; curve shapes stay the same");
  const std::vector<int> grid = quick ? std::vector<int>{1, 8, 16}
                                      : std::vector<int>{1, 4, 8, 12, 16};
  std::printf("%-9s %-8s", "workload", "mode");
  for (const int p : grid) std::printf("%8d", p);
  std::printf("\n");
  bench::rule();
  for (const std::string& w : {std::string("allpairs"), std::string("abisort"),
                               std::string("mm"), std::string("simple")}) {
    for (const bool free_gc : {false, true}) {
      SimRunSpec spec;
      spec.workload = w;
      spec.free_gc = free_gc;
      const auto sweep = sweep_procs(spec, grid);
      std::printf("%-9s %-8s", w.c_str(), free_gc ? "no-gc" : "with-gc");
      for (std::size_t i = 0; i < sweep.size(); i++) {
        std::printf("%8.2f", self_relative_speedup(sweep, i));
      }
      std::printf("\n");
    }
    bench::rule();
  }
  std::printf("expected: allpairs/abisort no-gc curves sit well above with-gc;\n");
  std::printf("simple barely moves (it is idle-limited, not GC-limited)\n");

  // Parallel stop-the-world collection: instead of omitting GC time (the
  // paper's hypothetical), every stopped proc becomes a copy worker
  // (gc::ParallelCopier; the simulator divides the copy's instruction cost
  // across workers while bus traffic stays serialized).  Both modes must
  // produce identical results — the collection strategy is invisible to the
  // program.  Every heap takes the same switch explicitly, as
  // HeapConfig::parallel_gc (false restores sequential collection).
  bench::header("T6", "parallel vs sequential collection pause (4 procs)",
                "avg GC pause drops >= 2x on copy-heavy workloads when the "
                "stopped procs help copy; checksums are identical");
  std::printf("%-9s %-8s %12s %12s %6s %12s %8s\n", "workload", "mode",
              "T(us)", "gc_us", "gcs", "pause(us)", "ratio");
  bench::rule();
  for (const std::string& w : {std::string("abisort"), std::string("allpairs"),
                               std::string("mm")}) {
    double pause[2] = {0, 0};
    std::uint64_t checksum[2] = {0, 0};
    for (const bool parallel : {false, true}) {
      SimRunSpec spec;
      spec.workload = w;
      spec.machine = mp::sim::sequent_s81(4);
      spec.parallel_gc = parallel;
      const auto r = run_sim(spec);
      const std::uint64_t gcs =
          r.report.heap.minor_gcs + r.report.heap.major_gcs;
      pause[parallel ? 1 : 0] = r.report.gc_us / static_cast<double>(
                                    gcs > 0 ? gcs : 1);
      checksum[parallel ? 1 : 0] = r.checksum;
      char ratio[16] = "";
      if (parallel && pause[1] > 0) {
        std::snprintf(ratio, sizeof(ratio), "%.2fx", pause[0] / pause[1]);
      }
      std::printf("%-9s %-8s %12.0f %12.0f %6llu %12.2f %8s\n", w.c_str(),
                  parallel ? "par-gc" : "seq-gc", r.report.total_us,
                  r.report.gc_us, static_cast<unsigned long long>(gcs),
                  pause[parallel ? 1 : 0], ratio);
    }
    if (checksum[0] != checksum[1]) {
      std::printf("FAIL: checksum differs between GC modes for %s\n",
                  w.c_str());
      return 1;
    }
  }
  bench::rule();
  std::printf("expected: pause ratio >= 2 for the copy-heavy workloads;\n");
  std::printf("identical checksums prove the modes are observationally equal\n");
  return 0;
}
