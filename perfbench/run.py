#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
                             [--size full|tiny] [--inject-nan STEP]

Workloads: mhd3d_m16, mhd3d_m4, comet_subcycled, dist2_tracking.

The script builds `perfbench` (a package of its own next to this file) in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs it
with the given arguments plus provenance: the git commit when the
checkout is a git work tree, and a digest of every source file the build
reads. Its output is passed through unchanged, so the last line is the
result object; a copy of each run's output is kept under
`.bench_out/runs/` for `perfbench/compare.py`. A failed build exits
non-zero without printing a result.
"""

import datetime
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# The benchmark bounds its own run time; this only stops a hung process.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def source_digest():
    """SHA-256 over the files the build reads, in sorted path order."""
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / ".cargo" / "config.toml"]
    for top in (ROOT / "crates", ROOT / "perfbench"):
        files += [p for p in top.rglob("*") if p.suffix in (".rs", ".toml", ".lock")]
    h = hashlib.sha256()
    for p in sorted(f for f in files if f.is_file()):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def arg_value(args, flag, default):
    return args[args.index(flag) + 1] if flag in args[:-1] else default


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
            cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: build took over {BUILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    cmd = [str(target / "release" / "perfbench"), *args,
           "--commit", git_commit(), "--source", source_digest(), "--out", str(OUT)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode == 0:
        stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
        name = "{}-seed{}-trace{}-{}.log".format(
            arg_value(args, "--workload", "none"), arg_value(args, "--seed", "1"),
            arg_value(args, "--trace", "0"), stamp)
        (OUT / "runs").mkdir(parents=True, exist_ok=True)
        (OUT / "runs" / name).write_text(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
