// Portability table (section 6): the paper counts the lines of
// system-dependent code in each MP port (SGI: 144 C + 15 asm; Sequent:
// 267 C + 10 asm; Luna: 630 C + 34 asm) against ~6750 C + 650 asm for the
// whole runtime.  The analogous split here: the machine-dependent context
// switch + test-and-set layer and the per-backend proc/lock glue, against
// the generic platform, GC, thread, and communication code.

#include <dirent.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

int count_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return -1;
  int n = 0;
  std::string line;
  while (std::getline(in, line)) n++;
  return n;
}

struct Group {
  const char* label;
  std::vector<std::string> files;
  int total = 0;
};

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  bench::header("T1", "system-dependent vs generic lines of code",
                "SGI port: 144 C + 15 asm; Sequent: 267 C + 10 asm; Luna: "
                "630 C + 34 asm; entire runtime ~6750 C + 650 asm — the "
                "system-dependent layer is a small fraction of the whole");
  const std::string src = std::string(MPNJ_SOURCE_DIR) + "/src/";
  Group groups[] = {
      {"machine-dependent: x86-64 context switch (asm)",
       {src + "arch/ctx_x86_64.S"}},
      {"machine-dependent: context-switch glue + test-and-set",
       {src + "arch/ctx.cpp", src + "arch/ctx.h", src + "arch/tas.h"}},
      {"portable fallback port (ucontext)", {src + "arch/ctx_ucontext.cpp"}},
      {"backend: native kernel threads",
       {src + "mp/native_platform.cpp", src + "mp/native_platform.h"}},
      {"backend: simulated multiprocessor",
       {src + "mp/sim_platform.cpp", src + "mp/sim_platform.h",
        src + "sim/engine.cpp", src + "sim/engine.h", src + "sim/machine.cpp",
        src + "sim/machine.h"}},
      {"generic: continuations + segments",
       {src + "cont/cont.cpp", src + "cont/cont.h", src + "cont/segment.cpp",
        src + "cont/segment.h", src + "cont/exec.h"}},
      {"generic: platform interface + signals",
       {src + "mp/platform.cpp", src + "mp/platform.h"}},
      {"generic: heap + collector",
       {src + "gc/heap.cpp", src + "gc/heap.h", src + "gc/value.h",
        src + "gc/roots.h", src + "gc/hooks.h"}},
      {"client: thread package + sync",
       {src + "threads/scheduler.cpp", src + "threads/scheduler.h",
        src + "threads/queue.cpp", src + "threads/queue.h",
        src + "threads/qlock.h", src + "threads/offer.h",
        src + "threads/sync.cpp", src + "threads/sync.h"}},
      {"client: selective communication / CML",
       {src + "cml/cml.h", src + "cml/sync_cells.h", src + "cml/mailbox.h"}},
  };

  std::printf("%-52s %10s\n", "layer", "lines");
  bench::rule();
  int grand = 0;
  int machine_dep = 0;
  for (Group& g : groups) {
    for (const auto& f : g.files) {
      const int n = count_lines(f);
      if (n < 0) {
        std::printf("  (missing: %s)\n", f.c_str());
        continue;
      }
      g.total += n;
    }
    grand += g.total;
    if (std::strncmp(g.label, "machine-dependent", 17) == 0) {
      machine_dep += g.total;
    }
    std::printf("%-52s %10d\n", g.label, g.total);
  }
  bench::rule();
  std::printf("%-52s %10d\n", "total counted", grand);
  std::printf("machine-dependent share: %.1f%% (paper's ports: 2-9%% of the runtime)\n",
              100.0 * machine_dep / grand);
  return 0;
}
