#!/usr/bin/env python3
"""Build perfbench from source and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload live-bulk --seed 1 --seconds 10 --trace 0

The arguments pass through to the Go program (see main.go). Everything the
build writes -- compiler cache, temporary files, the binary, the span log of
a traced run -- goes under .bench_build/ in the current directory.
"""

import argparse
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"), ("HOME", "home")):
        env[key] = os.path.join(out, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = "-mod=readonly"

    binary = os.path.join(out, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env).returncode == 0
    except OSError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        built = False
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = sys.argv[1:]
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--trace", default="0")
    if flags.parse_known_args(args)[0].trace == "1":
        args += ["--spans", os.path.join(out, "spans.json")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
