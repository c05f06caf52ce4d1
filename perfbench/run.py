#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the tpi-layout libraries,
the tpi_flow_server daemon and the tpi_perfbench program from source as an
uninstrumented Release build (into $CARGO_TARGET_DIR, default
.bench_build), then runs one workload. tpi_perfbench prints every metric by
name with its unit; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Workloads and metrics are
described in perfbench/README.md and BENCHMARK.json.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("table1_atpg", "paper_layout", "server_mix")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configure once, then let the build tool skip up-to-date targets."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no tpi-layout sources under %s/src; run from a source checkout" % root)
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Keep the compiler's and the program's temporary files in the build tree.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    build(root, build_dir)

    # Relative to the checkout: the server workload puts its unix socket
    # here, and socket paths are limited to about 100 bytes.
    state_dir = os.path.relpath(os.path.join(build_dir, "perfbench_state"))
    os.makedirs(state_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "tpi_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--server-bin", os.path.join(build_dir, "tpi", "server", "tpi_flow_server"),
           "--state-dir", state_dir]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
