#!/usr/bin/env python3
"""The repository benchmark: build the runtime from source, run one workload
under a watchdog, verify it, and print its metrics.

    python3 perfbench/run.py --workload kv-pipe|kv-tcp|abisort \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root.  Output, all on stdout:

    summary ...   the workload's end-to-end metrics under their own names and
                  units (error_share included), for people
    meta {...}    host, source and run facts for the record
    {...}         last line: correct / attempted / failed / metrics, with
                  exactly the metrics BENCHMARK.json lists for the mode

--trace 0 runs with MPNJ_METRICS=0 and reports the end_to_end metrics;
--trace 1 reports the per_layer ones (see README.md).  Exits 0 only when
every output was verified correct.
"""

import argparse
import hashlib
import json
import os
import platform
import queue
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("kv-pipe", "kv-tcp", "abisort")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (first time) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("runtime sources (src/) not found next to perfbench/")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "perfbench_selftest", "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "perfbench")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def watchdog_s(seconds):
    # Set-ups, warm-up, the ladder and teardown fit well inside this; a
    # run still going past it is hung.
    return min(150.0, 3.0 * seconds + 60.0)


def run_binary(binary, args, trace, limit_s):
    """Runs the binary; returns (result or None, last progress, elapsed s,
    how it ended)."""
    env = dict(os.environ)
    if trace:
        env.pop("MPNJ_METRICS", None)
    else:
        env["MPNJ_METRICS"] = "0"
    start = time.monotonic()
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, env=env)
    lines = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    result, progress, ending = None, {"done": 0, "failed": 0}, "exit"
    while True:
        left = limit_s - (time.monotonic() - start)
        try:
            line = lines.get(timeout=max(left, 0.01))
        except queue.Empty:
            proc.kill()
            ending = "hang"
            break
        if line is None:
            break
        if line.startswith("progress "):
            progress = json.loads(line[len("progress "):])
        elif line.startswith("result "):
            result = json.loads(line[len("result "):])
    proc.wait()
    reader.join(timeout=5)
    if ending == "exit" and result is None:
        ending = f"crash (exit status {proc.returncode})"
    return result, progress, time.monotonic() - start, ending


def account_lost_run(progress, elapsed_s, planned_s):
    """A crashed or hung run fails every operation it still owed: the ones
    it would have done at its observed rate in the time it had left (at
    least one), on top of its own failures."""
    done = int(progress.get("done", 0))
    failed = int(progress.get("failed", 0))
    rate = done / elapsed_s if elapsed_s > 0 else 0
    owed = max(1, int(rate * max(planned_s - elapsed_s, 0)))
    return done + owed, failed + owed


def line_counts():
    counts = {}
    src = os.path.join(ROOT, "src")
    for module in sorted(os.listdir(src)):
        mdir = os.path.join(src, module)
        if not os.path.isdir(mdir):
            continue
        total = 0
        for name in os.listdir(mdir):
            if name.endswith((".h", ".cpp", ".S")):
                with open(os.path.join(mdir, name), errors="replace") as f:
                    total += sum(1 for _ in f)
        counts[module] = total
    return counts


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def summary(workload, metrics, attempted, failed):
    """The end-to-end metrics under each workload's own names, with units."""
    v = {k: m["value"] for k, m in metrics.items()}
    share = failed / attempted if attempted else 1.0
    rows = [("setup_s", v.get("setup_s"), "s")]
    if workload == "abisort":
        rows += [("run_ms", v.get("p50_us", 0) / 1e3, "ms"),
                 ("cpu_ms_per_run", v.get("cpu_us_per_op", 0) / 1e3, "ms CPU")]
    else:
        rows += [("req_per_s", v.get("ops_per_s"), "req/s"),
                 ("p50_us", v.get("p50_us"), "us"),
                 ("p99_us", v.get("tail_us"), "us"),
                 ("cpu_us_per_req", v.get("cpu_us_per_op"), "us CPU/req")]
    rows += [("peak_rss_mb", v.get("peak_rss_mb"), "MB"),
             ("error_share", share, "failed/attempted")]
    return "summary " + workload + " " + " ".join(
        f"{name}={value:.6g} {unit}" if isinstance(value, (int, float))
        else f"{name}=? {unit}" for name, value, unit in rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        binary = build()
        bench = spec()
    except (RuntimeError, OSError, ValueError,
            subprocess.CalledProcessError) as e:
        log(f"cannot build or read BENCHMARK.json: {e}")
        return 2

    wanted = bench["per_layer"] if a.trace else bench["end_to_end"]
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    limit = watchdog_s(a.seconds)
    result, progress, elapsed, ending = run_binary(binary, args, a.trace, limit)

    problems = []
    if result is None:
        attempted, failed = account_lost_run(progress, elapsed, limit)
        problems.append(f"benchmark binary {ending} after {elapsed:.1f} s")
        got, correct, detail = {}, False, {}
    else:
        attempted, failed = result["attempted"], result["failed"]
        got, correct = result["metrics"], result["correct"]
        problems += result.get("problems", [])
        detail = result.get("detail", {})

    metrics, not_applicable = {}, []
    for m in wanted:
        name = m["name"]
        if name in got:
            metrics[name] = {"value": got[name]["value"], "unit": m["unit"]}
        elif a.trace and result is not None:
            # A layer this workload does not exercise (README.md).
            metrics[name] = {"value": 0, "unit": m["unit"]}
            not_applicable.append(name)
        else:
            metrics[name] = {"value": 0, "unit": m["unit"]}
            if result is not None:
                correct = False
                problems.append(f"metric {name} missing")
    # Figures of a workload BENCHMARK.json does not gate (kv-tcp's
    # generator lateness) stay in the run record.
    unlisted = {k: m["value"] for k, m in got.items() if k not in metrics}
    if not a.trace and result is not None:
        for name, m in metrics.items():
            if not m["value"] > 0:
                correct = False
                problems.append(f"metric {name} is not positive")
    if not correct and failed == 0:
        failed = max(1, attempted)
    attempted = max(attempted, 1)

    if not a.trace:
        print(summary(a.workload, metrics, attempted, failed))
    meta = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "trace": a.trace, "metrics_registry": "on" if a.trace else "off",
        "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                 "system": platform.platform()},
        "git_sha": git_sha(), "source_digest": source_digest(),
        "build_type": BUILD_TYPE, "source_lines": line_counts(),
        "elapsed_s": round(elapsed, 3), "problems": problems,
        "not_applicable": not_applicable, "unlisted_metrics": unlisted,
        "detail": detail,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for p in problems:
        log(p)
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
