#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness and the library are built from
source into $CARGO_TARGET_DIR (default .bench_build); the NNP workloads
first train their network once, in a separate process, so training never
counts against a timed run or its memory. The last line of standard
output is one JSON object: correct, attempted, failed and the metrics
named in BENCHMARK.json (end-to-end with --trace 0, per-layer with
--trace 1). The exit code is 0 only when no operation failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NNP_WORKLOADS = {"serial_nnp", "parallel_nnp"}
BUILD_TIMEOUT_S = 840
TRAIN_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; returns the binary's path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", build_dir]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "tkmc_perfbench")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def select(measured, declared, fill_missing):
    """Keeps the declared metrics, in declared order, with declared units.

    Per-layer metrics of a layer the workload does not run are reported as
    0; an end-to-end metric must always be measured."""
    out = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                raise RuntimeError(f"{name}: unit {measured[name]['unit']} != {unit}")
            out[name] = measured[name]
        elif fill_missing:
            out[name] = {"value": 0, "unit": unit}
        else:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
    unknown = set(measured) - set(out)
    if unknown:
        raise RuntimeError("undeclared metrics: " + ", ".join(sorted(unknown)))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serial_nnp", "parallel_nnp", "parallel_eam_ckpt"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    end_to_end, per_layer = declared_metrics()
    binary = build()
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
        if args.workload in NNP_WORKLOADS:
            model = os.path.join(workdir, "nnp.txt")
            subprocess.run([binary, "train", "--out", model], check=True,
                           stdout=sys.stderr, timeout=TRAIN_TIMEOUT_S)
            cmd += ["--model", model]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    lines = done.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"harness exited with {done.returncode} and no result")
    result = json.loads(lines[-1])
    if args.trace:
        metrics = select(result["per_layer"], per_layer, fill_missing=True)
    else:
        metrics = select(result["end_to_end"], end_to_end, fill_missing=False)
    ok = done.returncode == 0 and result["correct"] and result["failed"] == 0
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as e:  # build, training or harness failure: no result
        log(f"perfbench: {e}")
        sys.exit(1)
