// T6 — native microbenchmarks for the continuation layer, checking the
// paper's section 2 claim: because nothing is copied at capture, "callcc
// simply allocates and initializes a new closure ...; the same work is
// required to call an arbitrary procedure."  Capture+throw should therefore
// be within a small constant factor of an ordinary indirect call plus an
// allocation — not the stack-copy cost of stackful callcc implementations.

#include <benchmark/benchmark.h>

#include <functional>

#include "cont/cont.h"
#include "cont/exec.h"

namespace {

using mp::cont::callcc;
using mp::cont::Cont;
using mp::cont::ContRef;
using mp::cont::make_entry;
using mp::cont::run_from_idle;
using mp::cont::throw_to;

// Minimal proc harness (same shape as the platform backends).
class ManualProc {
 public:
  ManualProc() {
    exec_.idle_ctx = &idle_ctx_;
    mp::cont::set_current_exec(&exec_);
  }
  ~ManualProc() { mp::cont::set_current_exec(nullptr); }
  void run(std::function<void()> f) {
    run_from_idle(make_entry(std::move(f)), exec_);
  }

 private:
  mp::cont::ExecContext exec_;
  mp::arch::Context idle_ctx_;
};

// Unsigned, so the accumulators wrap instead of overflowing (UB).
unsigned sink_value = 0;
__attribute__((noinline)) unsigned plain_callee(unsigned x) {
  benchmark::DoNotOptimize(sink_value += x);
  return x + 1;
}

void BM_IndirectCall(benchmark::State& state) {
  unsigned (*volatile fn)(unsigned) = plain_callee;
  unsigned acc = 0;
  for (auto _ : state) {
    acc += fn(acc);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_IndirectCall);

void BM_HeapClosureCall(benchmark::State& state) {
  // The SML/NJ cost model: a call allocates a closure; std::function is the
  // closest C++ analogue.
  for (auto _ : state) {
    int x = static_cast<int>(state.iterations());
    std::function<int()> f = [x] { return x + 1; };
    benchmark::DoNotOptimize(f());
  }
}
BENCHMARK(BM_HeapClosureCall);

void BM_CallccThrow(benchmark::State& state) {
  ManualProc proc;
  proc.run([&] {
    for (auto _ : state) {
      int v = callcc<int>([](Cont<int> k) -> int { throw_to(std::move(k), 1); });
      benchmark::DoNotOptimize(v);
    }
  });
}
BENCHMARK(BM_CallccThrow);

void BM_CallccImplicitReturn(benchmark::State& state) {
  ManualProc proc;
  proc.run([&] {
    for (auto _ : state) {
      int v = callcc<int>([](Cont<int>) -> int { return 2; });
      benchmark::DoNotOptimize(v);
    }
  });
}
BENCHMARK(BM_CallccImplicitReturn);

void BM_SegmentAcquireRelease(benchmark::State& state) {
  auto& pool = mp::cont::SegmentPool::instance();
  for (auto _ : state) {
    auto* seg = pool.acquire();
    benchmark::DoNotOptimize(seg);
    seg->drop_ref();
  }
}
BENCHMARK(BM_SegmentAcquireRelease);

void BM_ThreadSpawnRunDone(benchmark::State& state) {
  // Entry continuation created, run to completion, reclaimed: the cost of a
  // minimal thread lifetime.
  ManualProc proc;
  for (auto _ : state) {
    bool ran = false;
    proc.run([&] { ran = true; });
    benchmark::DoNotOptimize(ran);
  }
}
BENCHMARK(BM_ThreadSpawnRunDone);

}  // namespace

BENCHMARK_MAIN();
