#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload fleet|fleet-sym|serve \
        --seed N --seconds S --trace 0|1

The last line of standard output is the result: one JSON object with
the keys correct, attempted, failed and metrics (see perfbench/README.md).
The program is built with dune into _build/ of the checkout; the
benchmark writes its scratch store and the Chrome trace of a traced run
under .perfbench/ and nowhere else.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys
import time

RUN_LIMIT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["fleet", "fleet-sym", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    root = os.getcwd()
    needed = ["dune-project", "lib", "examples/specs", "perfbench/dune"]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        fail("not the root of a checkout (missing %s)" % ", ".join(missing))
    if shutil.which("dune") is None:
        fail("dune is not on PATH")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed", 1)

    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--root", root, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    start = time.time()
    try:
        run = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        for d in glob.glob(os.path.join(root, ".perfbench", "run-*")):
            shutil.rmtree(d, ignore_errors=True)
        fail("run exceeded %d s" % RUN_LIMIT_S, 1)
    sys.stdout.write(run.stdout)
    if run.returncode != 0:
        fail("benchmark exited with %d after %.1f s" % (run.returncode, time.time() - start), 1)


if __name__ == "__main__":
    main()
