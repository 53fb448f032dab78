#!/usr/bin/env python3
"""Build the benchmark and the `fpdm-serve` binary from source, then run
one benchmark run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Both builds go to CARGO_TARGET_DIR
(default: the repository's `target`). Build output goes to standard error,
so the last line of standard output is the run's JSON result. The exit
code is non-zero when a build fails or the run finds a wrong answer.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(here, "Cargo.toml")],
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "fpdm-service", "--bin", "fpdm-serve"],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return 3
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "perfbench"), *sys.argv[1:],
             "--serve-bin", os.path.join(release, "fpdm-serve")]
    return subprocess.run(bench).returncode


if __name__ == "__main__":
    sys.exit(main())
