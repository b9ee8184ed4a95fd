#!/usr/bin/env python3
"""Builds and runs the BriQ benchmark.

Run from the root of a checkout:

    python3 briqbench/run.py --workload align_stream --seed 1 --seconds 30 --trace 0
    python3 briqbench/run.py --test      # the benchmark's own tests

The first run configures and builds briqbench/ (the library sources of
this checkout plus the benchmark binary) in Release mode into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. Build output goes to stderr. Standard output carries
a host line, the binary's build and details lines, and as its last line the
result object. Without BriQ sources next to briqbench/ the run fails
without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "briqbench"
WORKLOADS = ("align_stream", "serve_open", "train_stream")
# A run must end within 180 s; this watchdog stops the binary before that.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"briqbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(configured)
    return path if path.is_absolute() else ROOT / path


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no BriQ sources at {ROOT / 'src'}; nothing to benchmark")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", target])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out / target


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if Path(top).resolve() != ROOT:
            return None
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "briqbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    load_1m = os.getloadavg()[0]
    if args.test:
        binary = build("briqbench_test")
        sys.exit(subprocess.run([str(binary)], cwd=binary.parent).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("briqbench")
    host = {
        "git_sha": git_sha() or "unknown (not a git checkout)",
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": load_1m,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(json.dumps({"host": host}), flush=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(ROOT / ".bench_out")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"{args.workload} exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{\"correct\""):
        fail(f"{args.workload} printed no result")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
