#!/usr/bin/env python3
"""The serving-stack benchmark: one command builds, runs, checks, reports.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--trace 0|1]
                             [--results DIR]
    python3 perfbench/run.py --write-manifest

Builds perfbench_driver from this checkout's sources (CMake, Release, into
.bench_build/perfbench), runs the workload (when --workload is omitted,
every workload BENCHMARK.json lists; net_durable runs only when named),
checks its answers, and prints every metric by name with its unit. The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of spec.END_TO_END, or with --trace 1 the
per-layer metrics of spec.PER_LAYER.

A run lasts spec.RUN_SECONDS. --seconds is accepted with that value only:
the workloads are sized for it.

--trace 1 runs the workload twice with the same seed, untraced then traced;
the difference gives the tracing overhead (trace.overhead_pct).

Every run is recorded as one JSON file under --results (default
.bench_results): environment stamp, seed, offered rates, answer checks and
all raw values. compare.py reads two such directories.

Exits non-zero without a result when the sources, the build or
perfbench_driver fail.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import spec  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
DRIVER_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench_driver; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources under %s/src" % ROOT)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: %s" % " ".join(step))
            return False
    return True


def cmake_cache():
    values = {}
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
            for line in cache:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    values[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return values


def first_line(command):
    try:
        out = subprocess.run(command, capture_output=True, text=True, timeout=30)
        return out.stdout.splitlines()[0] if out.stdout else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """sha256 over the library sources and the benchmark, for checkouts
    that are not git repositories."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def environment():
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    cpu = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((l.split(":", 1)[1].strip() for l in info
                        if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "kernel": platform.release(),
        "compiler": first_line([compiler, "--version"]),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        # perfbench/CMakeLists.txt always compiles metrics in.
        "anc_metrics": "ON",
        "git_sha": first_line(["git", "-C", ROOT, "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
    }


def run_driver(workload, seed, trace):
    command = [DRIVER, "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec.RUN_SECONDS), "--trace", "1" if trace else "0",
               "--work-dir", WORK_DIR]
    try:
        out = subprocess.run(command, capture_output=True, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        log("perfbench: driver failed on %s (exit %d)" % (workload, out.returncode))
        return None
    return json.loads(lines[-1])


def overhead_pct(workload, untraced, traced):
    name = spec.OVERHEAD_METRIC[workload]
    base = untraced["metrics"][name]["value"]
    with_trace = traced["metrics"][name]["value"]
    higher_is_better = next(m["better"] == "higher" for m in spec.END_TO_END
                            if m["name"] == name)
    change = (with_trace - base) / base * 100.0
    return -change if higher_is_better else change


def select(metrics, names):
    return {name: metrics[name] for name in names}


def run_workload(workload, seed, trace, env, results_dir):
    """Runs one workload; returns (record, printed metrics) or None."""
    untraced = run_driver(workload, seed, False)
    if untraced is None:
        return None
    record = {
        "time_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workload": workload,
        "seed": seed,
        "seconds": spec.RUN_SECONDS,
        "trace": trace,
        "env": env,
        "offered_aps": untraced["detail"].get("offered_aps"),
        "untraced": untraced,
    }
    attempted, failed = untraced["attempted"], untraced["failed"]
    correct = untraced["correct"]
    e2e = dict(untraced["metrics"])
    e2e["failed_frac"] = {"value": failed / max(1, attempted), "unit": "ratio"}
    record["e2e"] = {m["name"]: e2e[m["name"]]["value"]
                     for m in spec.bounded_metrics(workload) if m["name"] in e2e}
    printed = select(untraced["metrics"], [m["name"] for m in spec.END_TO_END])
    if trace:
        traced = run_driver(workload, seed, True)
        if traced is None:
            return None
        record["traced"] = traced
        correct = correct and traced["correct"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        layer = dict(traced["metrics"])
        layer["trace.overhead_pct"] = {
            "value": overhead_pct(workload, untraced, traced), "unit": "%"}
        printed = select(layer, [m["name"] for m in spec.PER_LAYER])
        record["layer"] = {name: m["value"] for name, m in printed.items()}
    record.update(correct=correct, attempted=attempted, failed=failed)
    os.makedirs(results_dir, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    path = os.path.join(results_dir, "%s-%s-seed%d-trace%d.json"
                        % (stamp, workload, seed, int(trace)))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print("%s (seed %d, %s): %s, %d attempted, %d failed -> %s"
          % (workload, seed, "traced" if trace else "untraced",
             "correct" if correct else "INCORRECT", attempted, failed,
             os.path.relpath(path, ROOT)))
    for name, metric in printed.items():
        print("  %-28s %16.6g %s" % (name, metric["value"], metric["unit"]))
    if not trace:
        for metric in spec.WORKLOAD_END_TO_END:
            name = metric["name"]
            if name in e2e and workload in metric["workloads"]:
                print("  %-28s %16.6g %s  (not in BENCHMARK.json)"
                      % (name, e2e[name]["value"], e2e[name]["unit"]))
    for check in untraced["checks"] + record.get("traced", {}).get("checks", []):
        if not check["ok"]:
            print("  FAILED CHECK %s: %s" % (check["name"], check["detail"]))
    return record, printed


def write_manifest():
    document = spec.manifest()
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200, workload["name"]
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w") as f:
        json.dump(document, f, indent=2)
        f.write("\n")
    print("wrote %s" % path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="must be %d, the run length the workloads are "
                             "sized for" % spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results", default=os.path.join(ROOT, ".bench_results"))
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args()
    if args.seconds != spec.RUN_SECONDS:
        parser.error("--seconds must be %d: the workloads are sized for that "
                     "run length" % spec.RUN_SECONDS)
    if args.write_manifest:
        write_manifest()
        return 0
    if not build():
        return 2
    env = environment()
    workloads = [args.workload] if args.workload else spec.listed_workloads()
    results = {}
    for workload in workloads:
        result = run_workload(workload, args.seed, bool(args.trace), env,
                              args.results)
        if result is None:
            return 3
        results[workload] = result
    if args.workload:
        record, printed = results[args.workload]
        metrics = printed
    else:
        metrics = {"%s.%s" % (w, name): m for w, (_, printed) in results.items()
                   for name, m in printed.items()}
    records = [record for record, _ in results.values()]
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
