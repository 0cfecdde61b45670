#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The build uses dune with its shared cache
off, so nothing is read from or written to outside the checkout; the
runtime-events ring files of the traced run go to perfbench/_run.  The
last line of standard output is the benchmark's JSON result; the exit
code is the benchmark's (nonzero when the build fails or a check fails).
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no process outlives the benchmark."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: %s exceeded %d s" % (cmd[0], timeout),
              file=sys.stderr)
        return 3


def main():
    build = run(["dune", "build", "--root", ROOT, "--cache=disabled",
                 "--display=quiet", "./perfbench/bench.exe"],
                BUILD_TIMEOUT_S, stdout=sys.stderr)
    if build != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build
    run_dir = os.path.join(HERE, "_run")
    os.makedirs(run_dir, exist_ok=True)
    # A killed run cannot remove its ring file; clear what such runs left.
    for name in os.listdir(run_dir):
        if name.endswith(".events"):
            os.remove(os.path.join(run_dir, name))
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=run_dir)
    return run([EXE] + sys.argv[1:], RUN_TIMEOUT_S, env=env)


if __name__ == "__main__":
    sys.exit(main())
