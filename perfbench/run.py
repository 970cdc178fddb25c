#!/usr/bin/env python3
"""Served-path benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kv-point --seed 1 --seconds 10 --trace 0

Builds verlib_serve and the load client (perfbench/pb.ml) from source
with dune, into $CARGO_TARGET_DIR or .bench_build, then hands the
arguments to the client.  The client's last stdout line is the JSON
result; it exits non-zero on any check violation.  Runs write their
window slices (--trace 0) or spans (--trace 1) to .bench_out/.
"""
import os
import subprocess
import sys


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    targets = ["./bin/verlib_serve.exe", "./perfbench/pb.exe"]
    try:
        built = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", build, *targets],
            stdout=sys.stderr,
            timeout=900,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    out = ".bench_out"
    os.makedirs(out, exist_ok=True)
    exe = os.path.join(build, "default", "perfbench", "pb.exe")
    serve = os.path.join(build, "default", "bin", "verlib_serve.exe")
    sys.stdout.flush()
    return subprocess.run(
        [exe, "--serve-exe", serve, "--out-dir", out, *sys.argv[1:]]
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
