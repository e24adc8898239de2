#!/usr/bin/env python3
"""Build the benchmark and proteand from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sessions --seed 1 --seconds 15 --trace 0

Every argument is passed on to the perfbench program (see main.go and
README.md in this directory). Everything this script and the program
build or write stays under .bench_build/ in the checkout. The Go
toolchain must be on PATH; nothing is downloaded.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        PPROF_TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOENV="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    bench = os.path.join(build, "bin", "perfbench")
    proteand = os.path.join(build, "bin", "proteand")
    for out, pkg in ((bench, "."), (proteand, "protean/cmd/proteand")):
        # The benchmark is its own module inside the repository; the
        # build fails, and so does this script, without the repository
        # around it.
        done = subprocess.run(
            ["go", "build", "-trimpath", "-o", out, pkg],
            cwd=os.path.join(root, "perfbench"),
            env=env,
            stdout=sys.stderr,
        )
        if done.returncode != 0:
            print("perfbench: build of %s failed" % pkg, file=sys.stderr)
            return 1
    return subprocess.run(
        [bench, "-proteand", proteand] + sys.argv[1:], env=env
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
