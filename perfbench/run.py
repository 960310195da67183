#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decode --seed 1 --seconds 10 --trace 0

The harness is built with dune, run once, and its standard output passed
through; the last line is the JSON result. Exits non-zero without a result
line when the library sources are missing, the build fails, the run fails
or times out, or the result line is malformed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("decode", "sparsolve", "serve", "ingest")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 840
# Set-up, warm-up and output checks come on top of the measured seconds.
RUN_MARGIN_S = 120
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

_child = None


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, stdout, env=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    global _child
    _child = subprocess.Popen(
        cmd, cwd=ROOT, stdout=stdout, env=env, start_new_session=True
    )
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.communicate()
        fail(f"{os.path.basename(cmd[0])} timed out after {timeout}s")
    finally:
        code = _child.returncode
        _child = None
    return code, out


def on_signal(signum, _frame):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(128 + signum)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune not found on PATH", 2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, on_signal)

    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        fail("library sources (dune-project, lib/) not found beside perfbench/", 2)

    # Dune's shared cache lives in the home directory; keep every write of
    # the build inside the checkout.
    code, _ = run(
        dune_command() + ["build", "--root", ROOT, "./perfbench/perfbench.exe"],
        BUILD_TIMEOUT_S,
        sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if code != 0:
        fail(f"build failed (exit {code})")

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    code, out = run(cmd, args.seconds + RUN_MARGIN_S, subprocess.PIPE)
    out = out.decode()
    if code != 0:
        sys.stderr.write(out)
        fail(f"run failed (exit {code})")
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out)
        fail("no JSON result on the last line")
    if set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        fail("malformed result line")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
