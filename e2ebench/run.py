#!/usr/bin/env python3
"""Build the end-to-end benchmark program and run one workload.

    python3 e2ebench/run.py --workload <batch_dense|serve_vc|apps_hypercut> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. gms_e2ebench is configured and built in
Release from e2ebench/CMakeLists.txt against the library sources in src/,
under $CARGO_TARGET_DIR (default .bench_build); the first run builds, later
runs only check that the build is current. Generated inputs and traces go
to the same directory. The last line of stdout is the program's JSON result;
build output goes to stderr.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_dense", "serve_vc", "apps_hypercut")


def build(build_dir):
    """Configure (once) and build gms_e2ebench; returns the binary's path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "gms_e2ebench", "-j4"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "gms_e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: library sources not found at %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 1
    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                            ".bench_build")
    try:
        binary = build(os.path.join(out_root, "e2ebench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print("e2ebench: build failed: %s" % err, file=sys.stderr)
        return 1
    input_dir = os.path.join(out_root, "e2ebench-inputs")
    os.makedirs(input_dir, exist_ok=True)
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--input-dir", input_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
