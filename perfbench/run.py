#!/usr/bin/env python3
"""End-to-end HTTP benchmark of the HEDC stack.

Builds the stack and the benchmark from source into .bench_build (or
$CARGO_TARGET_DIR), runs one workload and prints, as its last line, one
JSON object with the metrics BENCHMARK.json names: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.

  python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --all [--seed 1] [--seconds 10]
  python3 perfbench/run.py --test

--all runs every workload untraced and traced, prints every metric by
name with its unit, and exits non-zero if any response check failed.
--test builds and runs the benchmark's own unit tests.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the HEDC sources (src/) are missing next to perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", *targets, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; echoes its report and returns the RESULT object."""
    out_dir = os.path.join(ROOT, ".bench_out")
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace), "--out", out_dir],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        fail(f"{workload} run failed (exit {proc.returncode})", 1)
    return result


def contract_result(result, specs):
    """The driver's result line: exactly the metrics named in `specs`."""
    metrics = {}
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            fail(f"metric {spec['name']} missing from the benchmark output", 1)
        if got["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} in {got['unit']}, expected {spec['unit']}", 1)
        metrics[spec["name"]] = got
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    if args.test:
        build_dir = build(["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_test")]).returncode)

    contract = load_contract()
    workloads = [w["name"] for w in contract["workloads"]]
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    if not args.all and args.workload not in workloads:
        fail(f"--workload must be one of {', '.join(workloads)} (or use --all)")
    binary = os.path.join(build(["hedc_e2e"]), "hedc_e2e")

    if not args.all:
        specs = contract["per_layer" if args.trace else "end_to_end"]
        result = run_workload(binary, args.workload, args.seed, seconds, args.trace)
        print(json.dumps(contract_result(result, specs)))
        return

    all_correct = True
    for workload in workloads:
        for trace in (0, 1):
            print(f"=== {workload} (trace {trace}) ===")
            result = run_workload(binary, workload, args.seed, seconds, trace)
            specs = contract["per_layer" if trace else "end_to_end"]
            contract_result(result, specs)  # every named metric is present
            all_correct = all_correct and result["correct"]
            print(f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
    print("all response checks passed" if all_correct else "RESPONSE CHECKS FAILED")
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
