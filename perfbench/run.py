#!/usr/bin/env python3
"""Run one workload of the chow88 benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds bin/pawnc.exe and the measuring program perfbench/ocaml/perfbench.exe
with dune, runs the workload from the repository root and relays its output.
The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics": the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Scratch files go to _perfbench/ at the repository root.  Exit code 0 only
when every output was correct.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "ocaml", "perfbench.exe")
PAWNC = os.path.join("_build", "default", "bin", "pawnc.exe")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_group(argv, timeout, **kw):
    """Run argv in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (argv[0], timeout))
    return proc.returncode, out


def find_dune():
    """dune on PATH, else in the active or an installed opam switch."""
    found = shutil.which("dune")
    if found:
        return found
    switches = [os.environ.get("OPAM_SWITCH_PREFIX", "")]
    switches += sorted(glob.glob(os.path.join(os.path.expanduser("~"), ".opam", "*")))
    for prefix in switches:
        cand = os.path.join(prefix, "bin", "dune")
        if prefix and os.access(cand, os.X_OK):
            return cand
    fail("dune not found")


def build():
    dune = find_dune()
    # the compilers live next to dune; no shared build cache, so the build
    # reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    code, _ = run_group(
        [dune, "build", "--root", ".", "--display", "quiet", "./" + PAWNC, "./" + EXE],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
        env=env,
    )
    if code != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    build()
    work = os.path.join("_perfbench", "%s-%d" % (args.workload, os.getpid()))
    code, out = run_group(
        [
            os.path.join(".", EXE),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--pawnc", os.path.join(".", PAWNC),
            "--expected", os.path.join("perfbench", "expected.txt"),
            "--work", work,
        ],
        RUN_TIMEOUT_S,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("no result line (exit code %d)" % code)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        fail("reported metrics do not match BENCHMARK.json: %s" % sorted(set(got) ^ set(declared)))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
