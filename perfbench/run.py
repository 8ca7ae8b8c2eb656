#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload recorded --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark program (see main.go and
METRICS.md). The Go build cache, the binary and the traced run's spans
all live under .bench_build/ in the repository root (or under
$CARGO_TARGET_DIR when that is set, relative to the root), so a run
reads and writes nothing outside the checkout. Build output goes to standard error; the
benchmark's own output, ending in its one-line JSON result, is all that
reaches standard output.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        {
            "GOCACHE": os.path.join(build, "gocache"),
            "GOPATH": os.path.join(build, "gopath"),
            "XDG_CONFIG_HOME": os.path.join(build, "config"),
            "GOTMPDIR": os.path.join(build, "tmp"),
            "TMPDIR": os.path.join(build, "tmp"),
            "GOTOOLCHAIN": "local",
            "GOPROXY": "off",
            "GOFLAGS": "",
            "CGO_ENABLED": "0",
        }
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # Replace this process, so the benchmark is the only process running
    # and its getrusage peak is its own.
    sys.stdout.flush()
    trace_dir = os.path.join(build, "trace")
    os.execv(binary, [binary, "--trace-dir", trace_dir] + sys.argv[1:])
    return 2  # not reached


if __name__ == "__main__":
    sys.exit(main())
