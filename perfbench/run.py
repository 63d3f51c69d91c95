#!/usr/bin/env python3
"""Build the PRORD benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --compare A.json B.json

Everything the build and the runs write stays under .bench_build/ at the
repository root: the Go build cache, the binary, saved results and spans.
The workloads and metrics are described in perfbench/doc.go.
"""

import os
import shutil
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    out = os.path.join(root, ".bench_build")
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOTMPDIR=os.path.join(out, "tmp"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOENV="off",
        # Go's local telemetry counters live under the user config dir.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        PRORDBENCH_DIR=out,
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(out, "bin", "prordbench")
    # Build output goes to stderr: stdout carries only the benchmark's
    # metric lines and its final JSON result.
    build = subprocess.run([go, "build", "-o", exe, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.chdir(root)
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
