#!/usr/bin/env python3
"""Builds the suite benchmark from source and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload straight --seed 1 --seconds 30 --trace 0

It builds the `perfbench` package (a package of its own that depends on the
repository's crates by path) into `$CARGO_TARGET_DIR`, `.bench_build` when
unset, and runs it with the given arguments. Every result is stamped with
the git commit, when the repository is a git checkout, and with a hash of
the `crates/` tree it measured. A traced run (`--trace 1`) also writes its
spans to `<target dir>/perfbench-spans/<workload>-<seed>.json`.

The last line of standard output is the result as one JSON object; build
output goes to standard error.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def crates_hash():
    """SHA-256 over the path and contents of every file under `crates/`."""
    digest = hashlib.sha256()
    for path in sorted(p for p in (ROOT / "crates").rglob("*") if p.is_file()):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def git_commit():
    """The checked-out commit, or "none" outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["straight", "loops", "libm"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--commit", git_commit(),
        "--crates-hash", crates_hash(),
    ]
    if args.trace == "1":
        spans = target / "perfbench-spans" / f"{args.workload}-{args.seed}.json"
        command += ["--spans", str(spans)]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
