#!/usr/bin/env python3
"""Build and run the shiftgears benchmark of record.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload steady-tcp --seed 1 --seconds 40 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds the
library from the checkout's sources through a directory replace. Every
build artefact -- the Go build and module caches, the compiler's temporary
files, the toolchain's config files and the benchmark binary -- stays
under .bench_build/ in the checkout. The arguments are handed to the
binary unchanged; its exit code is this script's exit code.
"""

import os
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go-cache"),
        GOMODCACHE=os.path.join(build, "go-mod"),
        # The toolchain's own config and telemetry files go here too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTMPDIR=tmp,
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=bench_dir, env=env
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
