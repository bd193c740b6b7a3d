// Pins the simulator's Figure 6 traces bit for bit.  The simulator is
// deterministic virtual time, so a change to the runtime that is meant to
// leave the paper's numbers alone (a native fast path, a refactor) must
// leave every cell of fig6_speedup's --quick grid exactly as it was: the
// result checksum, the lock count, and the time accounts printed as
// hexadecimal floats.  An intended change to the traces updates
// golden/fig6_quick.txt from the file this test prints on a mismatch, and
// states its reason in the change description.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "workloads/runner.h"

namespace {

std::string cell_line(const mp::workloads::SimRunResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%-8s p=%-2d verified=%d checksum=%016" PRIx64
                " lock_acquires=%" PRIu64
                " total_us=%a busy_us=%a gc_us=%a idle_us=%a\n",
                r.workload.c_str(), r.procs, r.verified ? 1 : 0, r.checksum,
                r.report.lock_acquires, r.report.total_us, r.report.busy_us,
                r.report.gc_us, r.report.idle_us);
  return buf;
}

TEST(SimGolden, Figure6QuickGridIsBitIdentical) {
  std::string now;
  for (const char* w : {"seq", "mm", "abisort", "allpairs", "mst", "simple"}) {
    // fig6_speedup's spec: the harness defaults on sim::sequent_s81.
    mp::workloads::SimRunSpec spec;
    spec.workload = w;
    for (const auto& r : mp::workloads::sweep_procs(spec, {1, 4, 8, 16})) {
      now += cell_line(r);
    }
  }
  const std::string path = std::string(MPNJ_GOLDEN_DIR) + "/fig6_quick.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << "; this build's traces:\n" << now;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), now)
      << "simulator traces differ from " << path
      << "; the whole new file follows:\n" << now;
}

}  // namespace
