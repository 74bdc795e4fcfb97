#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (the simulator library
from src/ plus the driver in perfbench/src/) into the build directory:
$CARGO_TARGET_DIR if set, else .bench_build.  Later runs rebuild only
when a source file changed.  The build directory also receives the
exported Chrome trace of each traced run and the ledger of
simulation-fixed counts per seed.  The last line of standard output is
the result JSON; see perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
WORKLOADS = ("fleet_small", "fleet_ramcrc", "solo_fullsystem", "replay_validated")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    path.mkdir(parents=True, exist_ok=True)
    # The fleet workloads bind a Unix socket in this directory, and a
    # socket path is limited to 107 bytes, so keep it relative.
    try:
        return pathlib.Path(os.path.relpath(path.resolve(), pathlib.Path.cwd()))
    except ValueError:
        return path


def source_digest():
    """Hash of every input of the build: a stale binary is rebuilt."""
    h = hashlib.sha256()
    files = [p for p in (REPO / "src").rglob("*") if p.suffix in (".cc", ".h")]
    files += [BENCH_DIR / "CMakeLists.txt"]
    files += sorted((BENCH_DIR / "src").glob("*"))
    for path in sorted(files):
        h.update(str(path.relative_to(REPO)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def ensure_built(out):
    if not (REPO / "src" / "runtime" / "session.h").is_file():
        sys.exit("perfbench: simulator sources not found under %s" % (REPO / "src"))
    tree = out / "perfbench-build"
    binary = tree / "perfbench"
    stamp = out / "perfbench.stamp"
    digest = source_digest()
    if binary.is_file() and stamp.is_file() and stamp.read_text() == digest:
        return binary
    jobs = str(max(1, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(BENCH_DIR), "-B", str(tree), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(tree), "-j", jobs],
    ):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))
    stamp.write_text(digest)
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be at least 1 and --seed not negative")

    out = build_dir()
    binary = ensure_built(out)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(out)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit("perfbench: %s exited with code %d" % (args.workload, done.returncode))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: malformed result line")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
