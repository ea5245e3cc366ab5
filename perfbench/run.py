#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <drift|storm|advise> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench` (a cargo package of its
own over the workspace crates) in release mode, then runs it with the
given arguments. Build output goes to standard error; the benchmark's
last line of standard output is its JSON result. The build directory is
`$CARGO_TARGET_DIR` when set (relative paths are taken from the
repository root), `perfbench/target` otherwise.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    binary = os.path.join(ROOT, target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
