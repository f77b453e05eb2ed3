#!/usr/bin/env python3
"""Build rdb_bench from source and run one workload of the benchmark.

    python3 e2e_bench/run.py --workload std-b100 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The repository is built with its own
CMakeLists.txt (only the targets the benchmark links), then this package,
both under $CARGO_TARGET_DIR (default .bench_build). rdb_bench's report is
passed through; the last line is a JSON summary holding exactly the metrics
BENCHMARK.json names: the end-to-end ones, or with --trace 1 the per-layer
ones of a traced run.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, env):
    with open(log, "a") as f:
        result = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, env=env)
    if result.returncode != 0:
        with open(log) as f:
            tail = f.read()[-4000:]
        fail(f"{' '.join(cmd)} failed:\n{tail}")


def build(root, out, env):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("the repository sources are not here; run from a checkout root")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    repo_build = os.path.join(out, "rdb")
    bench_build = os.path.join(out, "bench")
    log = os.path.join(out, "build.log")
    if not os.path.isfile(os.path.join(repo_build, "CMakeCache.txt")):
        run_logged(["cmake", "-S", root, "-B", repo_build, *generator,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], log, env)
    # rdb_replica depends on every library rdb_bench links.
    run_logged(["cmake", "--build", repo_build, "--target", "rdb_replica",
                "-j", jobs], log, env)
    if not os.path.isfile(os.path.join(bench_build, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", bench_build, *generator,
                    f"-DRDB_ROOT={root}", f"-DRDB_BUILD={repo_build}"], log, env)
    run_logged(["cmake", "--build", bench_build, "-j", jobs], log, env)
    return os.path.join(bench_build, "rdb_bench")


def stop_group(proc):
    """Kill rdb_bench and any rdb_replica it started; wait for all of them."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found; run from a checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    out = os.path.abspath(os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    # Compilers and the benchmark keep their temporary files in the checkout.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    binary = build(root, out, env)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--tmp", tmp,
           "--out", os.path.join(out, "runs.jsonl"),
           "--trace-out", os.path.join(out, "traces")]
    if args.trace:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail(f"rdb_bench did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    if lines[:-1]:
        print("\n".join(lines[:-1]))
    try:
        summary = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        if lines:
            print(lines[-1])
        fail(f"rdb_bench exited {proc.returncode} without a summary")

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = summary["metrics"].get(m["name"])
        if got is None:
            fail(f"rdb_bench did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))
    sys.exit(0 if proc.returncode == 0 and summary["correct"] else 1)


if __name__ == "__main__":
    main()
