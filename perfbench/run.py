#!/usr/bin/env python3
"""Build and run manasim's whole-job benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload full-ckpt --seed 42 --seconds 20 --trace 0

The Go program in this directory is built from source into the build
directory ($CARGO_TARGET_DIR, default .bench_build), with the Go build
cache, module cache and temporary files kept there too, so a run reads and
writes nothing outside the checkout besides the Go toolchain itself. The
arguments are passed through; the program's last line of standard output
is the JSON result, and its exit code is this script's.
"""

import os
import signal
import subprocess
import sys


def call(cmd, **kwargs):
    """Run cmd to completion; if this script is stopped first, stop it too."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    # SIGTERM unwinds through call()'s cleanup like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    dirs = {
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
    }
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env.update(dirs)
    env.update(GOFLAGS="", GOWORK="off", GOPROXY="off", GOTOOLCHAIN="local")

    binary = os.path.join(build, "perfbench")
    code = call(["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    if code != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return code or 1
    args = [binary] + sys.argv[1:] + ["--spans-dir", os.path.join(build, "spans")]
    return call(args, env=env)


if __name__ == "__main__":
    sys.exit(main())
