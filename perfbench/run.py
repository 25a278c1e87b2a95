#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of the repository. The first call configures and builds
perfbench/ (and the repository libraries it links) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls only
rebuild what changed. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 1 the
per-layer span histograms are written next to the build, under trace/.
Exit status 0 means every output check passed.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORKLOADS = ("pm-n200-happy", "pm-n16-ed25519", "cm-n100-faults")
RUN_LIMIT_S = 170  # a run must end within 180 s


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_logged(cmd, log):
    with open(log, "a") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT).returncode


def build(target):
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    log.write_text("")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir)])
    steps.append(["cmake", "--build", str(bdir), "--target", target, "-j", jobs])
    for cmd in steps:
        try:
            code = run_logged(cmd, log)
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return None
        if code != 0:
            sys.stderr.write(log.read_text()[-4000:])
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return bdir / target


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="build and run the benchmark's tests")
    args = ap.parse_args()

    if args.selftest:
        exe = build("perfbench_tests")
        return 1 if exe is None else subprocess.run([str(exe)], cwd=ROOT).returncode
    if args.workload is None:
        ap.error("--workload is required")

    exe = build("perfbench_world")
    if exe is None:
        return 1
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = build_dir() / "trace"
        trace_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.json")]

    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish within {RUN_LIMIT_S} s",
              file=sys.stderr)
        return 1
    result = parse_result(proc.stdout)
    if result is None:
        print(f"perfbench: no result from {exe.name} (exit {proc.returncode})", file=sys.stderr)
        return 1
    print(f"perfbench: {args.workload} seed {args.seed} ran {time.monotonic() - t0:.1f} s",
          file=sys.stderr)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
