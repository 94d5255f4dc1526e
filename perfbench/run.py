#!/usr/bin/env python3
"""Build perfbench from source and run one benchmark workload.

    python3 perfbench/run.py --workload pagerank-udp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The Go build cache, module cache and the
binary all live in .bench_build/ under the checkout, so the run reads and
writes nothing outside it. The benchmark's result is the last line of
standard output. Build failures exit 2 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
# A run must end within 180 s; keep a margin for the build step.
RUN_TIMEOUT_S = 170


def go_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith(("GO", "LCI_"))}
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOENV="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        HOME=os.path.join(BUILD, "home"),
    )
    return env


def commit():
    """The commit being measured, when the checkout is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return ""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return ""
    return lines[1]


def main():
    env = go_env()
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print("perfbench: cannot run the go toolchain: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env["PERFBENCH_COMMIT"] = commit()
    try:
        run = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
