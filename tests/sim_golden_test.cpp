// Pins the simulator's traces bit for bit.  The simulator is deterministic
// virtual time, so a change to the runtime that is meant to leave the
// paper's numbers alone (a native fast path, a refactor) must leave every
// cell exactly as it was: the result checksum, the lock count, and the time
// accounts printed as hexadecimal floats.  Two grids are pinned:
// fig6_speedup's --quick grid (golden/fig6_quick.txt) and the sharded KV
// service at 1, 2 and 4 procs (golden/kv_sim.txt).  An intended change to
// the traces updates the golden file from the output this test prints on a
// mismatch, and states its reason in the change description.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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

// The cells of `workloads` swept over `procs` with the harness defaults on
// sim::sequent_s81, one line each.
std::string grid(const std::vector<const char*>& workloads,
                 const std::vector<int>& procs) {
  std::string now;
  for (const char* w : workloads) {
    mp::workloads::SimRunSpec spec;
    spec.workload = w;
    for (const auto& r : mp::workloads::sweep_procs(spec, procs)) {
      now += cell_line(r);
    }
  }
  return now;
}

void expect_golden(const char* file, const std::string& now) {
  const std::string path = std::string(MPNJ_GOLDEN_DIR) + "/" + file;
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << "; this build's traces:\n" << now;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), now)
      << "simulator traces differ from " << path
      << "; the whole new file follows:\n" << now;
}

TEST(SimGolden, Figure6QuickGridIsBitIdentical) {
  expect_golden("fig6_quick.txt",
                grid({"seq", "mm", "abisort", "allpairs", "mst", "simple"},
                     {1, 4, 8, 16}));
}

// The kv workload drives the real KvService and serve() over virtual
// pipes, so every charge the connection layer and the shards take (the
// batch structure, the rendezvous, the write boundaries) shows in its
// virtual times: a change to how src/kv holds its memory must not move it.
TEST(SimGolden, KvWorkloadIsBitIdentical) {
  expect_golden("kv_sim.txt", grid({"kv"}, {1, 2, 4}));
}

}  // namespace
