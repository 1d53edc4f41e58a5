#!/usr/bin/env python3
"""End-to-end benchmark of the repository: build, run, report.

    python3 perfbench/run.py --workload tune-tab10 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --short

Run from the repository root. Builds perfbench/ (which links the heron
library from src/) in Release mode under $CARGO_TARGET_DIR or
.bench_build, runs one workload, and passes its output through. The
last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--short runs every workload briefly, traced and untraced, with every
output check on, and exits non-zero if any run fails a check.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["tune-tab10", "serve-warm", "serve-cold-model"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root):
    """Configure and build the benchmark; return the binary path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("the heron sources (src/) are missing; cannot build")
        return None
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(build_dir, "heron_perfbench")
    return binary if os.path.isfile(binary) else None


def run(binary, root, workload, seed, seconds, trace, short_run=False,
        tune_seed=None):
    """Run one workload; return (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(os.path.dirname(binary), "work")]
    if short_run:
        cmd.append("--short")
    if tune_seed is not None:
        cmd += ["--tune-seed", str(tune_seed)]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    return done.returncode, done.stdout.splitlines()


def short(binary, root):
    """Every workload briefly, untraced and traced, all checks on."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run(binary, root, workload, 1, 1, trace,
                              short_run=True)
            result = json.loads(lines[-1]) if lines else {}
            good = (code == 0 and result.get("correct") is True and
                    result.get("failed") == 0)
            ok = ok and good
            print(f"{workload:18s} trace={trace} "
                  f"{'ok' if good else 'FAILED'} "
                  f"attempted={result.get('attempted')} "
                  f"failed={result.get('failed')}")
    print(json.dumps({"short": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tune-seed", type=int,
                        help="seed of the Heron tunes (default 1, fixed)")
    parser.add_argument("--short", action="store_true",
                        help="run every workload briefly with all checks")
    args = parser.parse_args()
    if not args.short and not args.workload:
        parser.error("--workload is required (or --short)")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    if binary is None:
        return 2
    if args.short:
        return short(binary, root)
    code, lines = run(binary, root, args.workload, args.seed, args.seconds,
                      args.trace, tune_seed=args.tune_seed)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
