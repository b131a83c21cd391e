#!/usr/bin/env python3
"""Builds and runs one workload of the client-store benchmark.

    python3 perfbench/run.py --workload sort|query|oram --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark crate in this directory is
built with cargo (into $CARGO_TARGET_DIR, default .bench_build), then run
as a child process of its own, so its peak memory and its store files
belong to this workload alone. The store files are two anonymous
in-memory files (memfd, Linux) that the child inherits, so the
filesystem of the checkout does not enter the measurement and nothing is
left behind. The child's metrics are printed one per line, with the
run's environment, and the last line of standard output is the result as one
JSON object: correct, attempted, failed and metrics (the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer ones with
--trace 1).
"""

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; a child still running after this is killed
# and the run fails without a result.
CHILD_TIMEOUT_S = 170


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        sys.exit(f"perfbench: build failed (cargo exited with {res.returncode})")
    return target / "release" / "perfbench"


def rustc_version():
    try:
        return subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        return "?"


def run_child(binary, args, stores, fds):
    """Runs the benchmark binary and returns (exit code, stdout, peak RSS in MiB)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--stores", ",".join(str(s) for s in stores)]
    # glibc raises its mmap threshold each time a large block is freed, so
    # whether a big buffer lands on the heap (and stays resident after it
    # is freed) would depend on the order the two threads happened to free
    # things in; peak RSS then moved 20 % between runs. Fixed at its
    # default starting value, peak RSS follows the memory actually live.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, pass_fds=fds, env=env)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    watchdog.start()
    stdout = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    watchdog.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return child.returncode, stdout, usage.ru_maxrss / 1024.0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    fds = [os.memfd_create(f"perfbench-store-{i}") for i in range(2)]
    # The child opens its inherited descriptors by these names.
    stores = [f"/proc/self/fd/{fd}" for fd in fds]
    try:
        code, stdout, peak_rss_mb = run_child(binary, args, stores, fds)
    finally:
        for fd in fds:
            os.close(fd)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        sys.exit(f"perfbench: {args.workload} run exited with {code}")
    child = json.loads(lines[-1])

    metrics = dict(child["metrics"])
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: the run did not report {', '.join(missing)}")
    metrics = {m["name"]: metrics[m["name"]] for m in wanted}
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            sys.exit(f"perfbench: {m['name']} reported in {metrics[m['name']]['unit']}, "
                     f"BENCHMARK.json says {m['unit']}")

    info = dict(child["info"])
    info.update({
        "failed_frac": child["failed"] / max(child["attempted"], 1),
        "store_filesystem": "memfd (tmpfs memory)",
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc_version(),
        "malloc_mmap_threshold": 131072,
        "peak_rss_mb": peak_rss_mb,
    })
    for name, m in metrics.items():
        print(f"{args.workload:6} {name:26} {m['value']:>18.6f} {m['unit']}")
    for key, value in info.items():
        print(f"{args.workload:6} info {key}: {value}")
    for err in child.get("errors", []):
        print(f"{args.workload:6} error: {err}")
    result = {
        "correct": bool(child["correct"]),
        "attempted": int(child["attempted"]),
        "failed": int(child["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
