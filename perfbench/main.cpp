// perfbench: the repository benchmark binary.  Runs one named workload for
// a fixed number of seconds and prints one `result {json}` line with its
// metrics and verification outcome.  run.py builds this binary, runs it
// under a watchdog, and turns that line into the benchmark's report.
//
//   perfbench --workload kv-pipe|kv-tcp|abisort [--seed N] [--seconds S]
//             [--trace 0|1] [--stall-ms MS] [--corrupt]
//
// --trace 0: end-to-end metrics (run with MPNJ_METRICS=0 in the env).
// --trace 1: the layer ladder, then the workload twice in one process, once
//            with the metrics registry off and once on with the benchmark's
//            spans; prints the per-layer metrics and the overhead between.
// While running it prints `progress {"done":N,"failed":F}` lines so a
// watchdog can account for the operations a crashed or hung run owed.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "common.h"
#include "perfbench.h"

namespace {

using perfbench::Options;
using perfbench::Result;

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--corrupt") {
      o->corrupt = true;
    } else if (a == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o->seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--stall-ms" && has_value) {
      o->stall_ms = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s\n", a.c_str());
      return false;
    }
  }
  return o->seconds > 0 &&
         (o->workload == "kv-pipe" || o->workload == "kv-tcp" ||
          o->workload == "abisort");
}

// Prints progress twice a second until stopped; joined before exit.
class Heartbeat {
 public:
  Heartbeat() : thread_([this] { loop(); }) {}
  ~Heartbeat() {
    {
      std::lock_guard<std::mutex> g(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!cv_.wait_for(lk, std::chrono::milliseconds(500), [this] { return stop_; })) {
      std::printf("progress {\"done\":%llu,\"failed\":%llu}\n",
                  static_cast<unsigned long long>(perfbench::g_done.load()),
                  static_cast<unsigned long long>(perfbench::g_failed.load()));
      std::fflush(stdout);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

std::string to_json(const Result& r) {
  std::string out = "{\"correct\":";
  out += r.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); i++) {
    const auto& m = r.metrics[i];
    if (i > 0) out += ",";
    out += "\"" + m.name + "\":{\"value\":" + perfbench::num(m.value) +
           ",\"unit\":\"" + m.unit + "\"}";
  }
  out += "},\"problems\":[";
  for (std::size_t i = 0; i < r.problems.size(); i++) {
    if (i > 0) out += ",";
    out += "\"" + r.problems[i] + "\"";
  }
  out += "],\"detail\":{" + r.detail + "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload kv-pipe|kv-tcp|abisort "
                 "[--seed N] [--seconds S] [--trace 0|1]\n");
    return 2;
  }
  Result r;
  {
    Heartbeat hb;
    try {
      if (o.trace) perfbench::run_ladder(o.seed, r);
      if (o.workload == "kv-pipe") {
        perfbench::run_kv_pipe(o, r);
      } else if (o.workload == "kv-tcp") {
        perfbench::run_kv_tcp(o, r);
      } else {
        perfbench::run_abisort(o, r);
      }
    } catch (const std::exception& e) {
      r.fail(std::string("exception: ") + e.what());
    }
  }
  if (r.attempted == 0) r.fail("no operation completed");
  std::printf("result %s\n", to_json(r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
