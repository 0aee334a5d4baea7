#!/usr/bin/env python3
"""Serve-path benchmark entry point.

Builds perfbench/serve_bench.exe from the checkout's sources with dune, then
runs it from the checkout root with this script's arguments, for example:

    python3 perfbench/run.py --workload serve-g5k --seed 2006 --seconds 10 --trace 0

The benchmark's output passes through unchanged; its last line is the JSON
result. If the build fails, this script exits non-zero without a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/serve_bench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "serve_bench.exe")
BUILD_TIMEOUT_S = 840
# serve_bench.exe defaults to 10 s of measurement.  A run measures for
# --seconds, then finishes its last round and its checks; allow twice the
# measured time plus a fixed margin for warm-up and set-up.
DEFAULT_SECONDS = 10.0
RUN_MARGIN_S = 60.0


def run_timeout(argv):
    seconds = DEFAULT_SECONDS
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seconds":
            try:
                seconds = max(0.0, float(value))
            except ValueError:
                pass  # serve_bench.exe rejects it with a usage message
    return 2 * seconds + RUN_MARGIN_S


def main(argv):
    # The shared dune cache lives outside the checkout; keep every build
    # product under _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet", TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if build.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
        timeout = run_timeout(argv)
        try:
            return subprocess.run([EXE] + argv, cwd=ROOT, timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {timeout:.0f} s "
                  f"(2 x --seconds + {RUN_MARGIN_S:.0f} s); no result",
                  file=sys.stderr)
            return 1
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
