#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the runtime it measures).

    python3 perfbench/selftest.py [-v]

Covers: the percentile rule and histogram statistics (perfbench_selftest),
crash and hang accounting, the output contract (every metric BENCHMARK.json
names, with its unit, on every workload), that an injected server stall
shows in due-time latency and generator lateness, and that verification
fails on a corrupted reply or sort.  Takes about a minute.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

BINARY = None


def bench(*args):
    """Runs the benchmark binary directly; returns (exit code, result)."""
    env = dict(os.environ, MPNJ_METRICS="0")
    out = subprocess.run([BINARY] + list(args), capture_output=True,
                         text=True, env=env, timeout=150)
    results = [json.loads(line[len("result "):])
               for line in out.stdout.splitlines()
               if line.startswith("result ")]
    return out.returncode, results[-1] if results else None


class Statistics(unittest.TestCase):
    def test_percentile_rule_and_histograms(self):
        out = subprocess.run([os.path.join(os.path.dirname(BINARY),
                                           "perfbench_selftest")],
                             capture_output=True, text=True, timeout=60)
        self.assertEqual(out.returncode, 0, out.stdout)


class LostRunAccounting(unittest.TestCase):
    def test_a_crash_fails_what_it_still_owed(self):
        # 100 done in 10 s of a 20 s budget: 100 more were owed.
        self.assertEqual(run.account_lost_run({"done": 100, "failed": 2},
                                              10.0, 20.0), (200, 102))

    def test_a_crash_before_any_progress_still_fails(self):
        self.assertEqual(run.account_lost_run({}, 0.5, 20.0), (1, 1))


class OutputContract(unittest.TestCase):
    def check(self, workload, trace):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        lines = out.stdout.strip().splitlines()
        last = json.loads(lines[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(last["correct"])
        self.assertGreaterEqual(last["attempted"], 1)
        self.assertEqual(last["failed"], 0)
        spec = run.spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(last["metrics"]), [m["name"] for m in spec])
        for m in spec:
            got = last["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        meta = json.loads(next(line for line in lines
                               if line.startswith("meta "))[5:])
        for key in ("host", "git_sha", "build_type", "metrics_registry",
                    "seed", "source_lines"):
            self.assertIn(key, meta)
        if not trace:
            summary = next(line for line in lines
                           if line.startswith("summary "))
            names = (["run_ms=", "cpu_ms_per_run="] if workload == "abisort"
                     else ["req_per_s=", "p50_us=", "p99_us=",
                           "cpu_us_per_req="])
            for name in names + ["setup_s=", "peak_rss_mb=",
                                 "error_share=0 failed/attempted"]:
                self.assertIn(name, summary)

    def test_kv_pipe(self):
        self.check("kv-pipe", 0)
        self.check("kv-pipe", 1)

    def test_kv_tcp(self):
        self.check("kv-tcp", 0)
        self.check("kv-tcp", 1)

    def test_abisort(self):
        self.check("abisort", 0)
        self.check("abisort", 1)


class InjectedFaults(unittest.TestCase):
    def test_server_stall_shows_in_due_time_latency_and_lateness(self):
        code, clean = bench("--workload", "kv-tcp", "--seconds", "3")
        self.assertEqual(code, 0, clean and clean["problems"])
        code, stalled = bench("--workload", "kv-tcp", "--seconds", "3",
                               "--stall-ms", "1000")
        self.assertEqual(code, 1)
        self.assertFalse(stalled["correct"])
        self.assertTrue(any(p.startswith("invalid: generator ran")
                            for p in stalled["problems"]), stalled["problems"])
        # Requests due during the stall wait for it: the due-time latency
        # tail and the generator's lateness grow by much of the 1000 ms.
        for key in ("latency_tail", "gen_late_us"):
            self.assertLess(clean["detail"][key]["value"], 100_000, key)
            self.assertGreater(stalled["detail"][key]["value"], 250_000, key)

    def test_corrupted_output_fails_verification(self):
        for workload in run.WORKLOADS:
            code, res = bench("--workload", workload, "--seconds", "1",
                               "--corrupt")
            self.assertEqual(code, 1, workload)
            self.assertFalse(res["correct"], workload)
            self.assertGreaterEqual(res["failed"], 1, workload)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
