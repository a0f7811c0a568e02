#!/usr/bin/env python3
"""Falkon dispatcher benchmark: build, run one workload (or all), report.

    python3 perfbench/run.py --workload burst_sleep0 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --self-test

Run from the repository root. Builds perfbench/ (and the dispatcher
libraries from src/) in Release mode under .bench_build/, gives the
dispatcher host one of the allowed CPUs and the load generator the others,
runs perfbench_loadgen and passes its output through. The last stdout line is
the result: {"correct", "attempted", "failed", "metrics"}; --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
Exits non-zero when the build fails, a check fails or a metric is missing.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 175
TARGETS = ["perfbench_host", "perfbench_loadgen", "perfbench_test_checker"]


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (Release) and build the benchmark; returns the build dir."""
    out = os.path.join(ROOT, ".bench_build", "perfbench")
    cache = os.path.join(out, "CMakeCache.txt")
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    with open(cache) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            raise RuntimeError(f"{out} is not a Release build; remove it and rerun")
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] + TARGETS,
                   check=True, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    return out


def cpu_split():
    """One CPU for the dispatcher host, the rest for the load generator.

    The one synchronous client of the closed loops drives about 1.3 cores of
    dispatcher work, so a one-CPU host is the split in which the dispatcher,
    not the load generator, is the saturated side.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        raise RuntimeError("need at least 2 CPUs to give host and load "
                           f"generator disjoint cores, have {cpus}")
    return cpus[:1], cpus[1:]


def provenance():
    """Git commit when available, and a hash of every source file."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit or "none (not a git checkout)", digest.hexdigest()[:16]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(out, workload, seed, seconds, trace, commit, source_hash):
    """Run the load generator once; returns (exit code, stdout lines)."""
    host_cpus, loadgen_cpus = cpu_split()
    work = os.path.join(os.path.dirname(out), "runs",
                        f"{workload}-{seed}-{trace}-{os.getpid()}")
    traces = os.path.join(os.path.dirname(out), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(out, "perfbench_loadgen"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--host-bin", os.path.join(out, "perfbench_host"),
           "--host-cpus", ",".join(map(str, host_cpus)),
           "--loadgen-cpus", ",".join(map(str, loadgen_cpus)),
           "--work-dir", work,
           "--git-commit", commit, "--source-hash", source_hash]
    if trace:
        cmd += ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
        code, stdout = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        code, stdout = 1, ""
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code, stdout.strip().splitlines()


def check_result(lines, trace):
    """The last line must name every metric BENCHMARK.json lists, with its unit."""
    result = json.loads(lines[-1])
    wanted = spec()["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            raise RuntimeError(f"metric {metric['name']} missing or not in "
                               f"{metric['unit']}: {got}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests")
    args = parser.parse_args()

    try:
        out = build()
    except (OSError, subprocess.CalledProcessError, RuntimeError) as error:
        log(f"build failed: {error}")
        return 1
    if args.self_test:
        tests = os.path.join(BENCH_DIR, "tests", "test_smoke.py")
        checker = subprocess.run([os.path.join(out, "perfbench_test_checker")])
        smoke = subprocess.run([sys.executable, tests], cwd=ROOT)
        return 1 if checker.returncode or smoke.returncode else 0

    commit, source_hash = provenance()
    names = [w["name"] for w in spec()["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            log(f"unknown workload {args.workload}; known: {', '.join(names)}")
            return 2
        code, lines = run_one(out, args.workload, args.seed, args.seconds,
                              args.trace, commit, source_hash)
        if code != 0 or not lines:
            print("\n".join(lines), flush=True)  # a failed check's result
            return code or 1
        try:
            check_result(lines, args.trace)
        except (ValueError, RuntimeError) as error:
            log(str(error))
            return 1
        print("\n".join(lines), flush=True)
        return 0

    # Every workload, untraced then traced: one summary with every metric.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        for trace in (0, 1):
            code, lines = run_one(out, workload, args.seed, args.seconds, trace,
                                  commit, source_hash)
            if code != 0 or not lines:
                return code or 1
            result = check_result(lines, trace)
            print("\n".join(lines), flush=True)
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}.{name}"] = metric
    for name, metric in summary["metrics"].items():
        print(f"  {name:60s} {metric['value']:16.4f} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
