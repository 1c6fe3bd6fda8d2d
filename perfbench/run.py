#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library and the perfbench binary from source into .bench_build/; later runs
only rebuild what changed. The load values that differ between workloads
(rate, depth, payload size, corpus, compression, shares, warm-up) come from
perfbench/workloads.json; the ones they share are constants in the binary.

Standard output ends with one JSON line: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1). A traced run
also writes its spans to .bench_build/trace/<workload>-seed<N>.jsonl.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def check_result(line, spec, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    got = list(result["metrics"])
    if sorted(got) != sorted(wanted):
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, unexpected {extra}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"no library sources under {root} (expected CMakeLists.txt and src/)", 2)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = json.loads((root / "perfbench" / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; known: {sorted(workloads)}", 2)

    out_dir = root / ".bench_build"
    binary = build(root, out_dir / "perfbench")
    (out_dir / "trace").mkdir(exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(out_dir / "trace" / f"{args.workload}-seed{args.seed}.jsonl")]
    for key, value in workloads[args.workload]["flags"].items():
        cmd += [f"--{key}", str(value)]

    try:
        proc = subprocess.run(cmd, cwd=out_dir, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing")
    check_result(lines[-1], spec, args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
