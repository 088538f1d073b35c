#!/usr/bin/env python3
"""Build pverify from the enclosing source tree and run one benchmark workload.

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 30 \
        --trace 0

The build (library, pverify_serve daemon and pverify_perfbench) goes to
.bench_build/perfbench under the repository root; the first run configures
and compiles, later runs only check that the build is current. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md). The exit code is 0 only when every
answer matched the sequential reference.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_batch", "hotspot_serve", "mixed_serve")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    log_path = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                  "pverify_perfbench", "pverify_serve"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)}", 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"no pverify source tree at {root} (expected CMakeLists.txt "
             "and src/ beside perfbench/)")

    build_dir = root / ".bench_build" / "perfbench"
    build(root, build_dir)

    work_dir = (root / ".bench_build" / "runs" /
                f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    cmd = [str(build_dir / "pverify_perfbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--serve={build_dir / 'pverify' / 'pverify_serve'}",
           f"--workdir={work_dir}",
           f"--trace-out={root / '.bench_build' / 'traces'}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=root)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"pverify_perfbench printed no result (exit {proc.returncode})", 1)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail("pverify_perfbench's last line is not JSON "
             f"(exit {proc.returncode})", 1)
    print(json.dumps(result))
    if proc.returncode != 0 or not result.get("correct", False):
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
