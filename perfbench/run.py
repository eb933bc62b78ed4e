#!/usr/bin/env python3
"""Build the benchmark and the segserve binary from source, then run it.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload read-1m-random --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 0

Everything the build and the run write goes to .bench_build/ at the root of
the checkout: the Go build cache, the binaries and the traced run's spans.
The arguments are passed on to the benchmark program (perfbench/main.go).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
    )
    return env


def build(env):
    """Build both binaries; build output goes to stderr, never stdout."""
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    for out, pkg in (("perfbench", "."), ("segserve", "repro/cmd/segserve")):
        cmd = ["go", "build", "-o", os.path.join(BUILD, out), pkg]
        done = subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: %s failed with exit code %d" % (" ".join(cmd), done.returncode))


def main():
    env = go_env()
    build(env)
    binary = os.path.join(BUILD, "perfbench")
    args = [binary] + sys.argv[1:] + [
        "--segserve", os.path.join(BUILD, "segserve"),
        "--spans-dir", os.path.join(BUILD, "spans"),
    ]
    sys.stdout.flush()
    # Replace this process, so the benchmark's exit code and output are the
    # command's own and no wrapper process is left to stop.
    os.execve(binary, args, env)


if __name__ == "__main__":
    main()
