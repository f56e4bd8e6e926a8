#!/usr/bin/env python3
"""Build and run tierdb's wall-clock benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload olap_scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py compare BASE_DIR [NEW_DIR]

The benchmark is the Go program in perfbench/, a module of its own that
builds against the tierdb module in the directory above it. It is built
into .bench_build/ with the Go build cache kept there too, so a run
reads and writes only inside the checkout. Build output goes to standard
error; the program's own standard output (its last line is the result)
is passed through unchanged, as is its exit code.
"""

import os
import signal
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        GOENV="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench.bin")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        sys.exit(built.returncode)

    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root)

    def stop(signum, _frame):
        proc.send_signal(signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    sys.exit(proc.wait())


if __name__ == "__main__":
    main()
