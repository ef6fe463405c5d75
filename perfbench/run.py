#!/usr/bin/env python3
"""Builds and runs the qlink benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid_service --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Builds `perfbench/` (a cargo package of its own that depends on the
repository's crates by path) in release mode, then runs it once. The
build goes to `$CARGO_TARGET_DIR`, or `.bench_build/` when that is unset.
The benchmark's report goes to standard output and ends with one JSON
line; cargo's output goes to standard error. `--workload all` runs every
workload untraced and traced, printing every end-to-end and per-layer
metric, and fails if any run fails its checks. Exits non-zero, printing
no result, when the repository's sources are missing or the build or
a run fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("link_mixed", "grid_sparse", "grid_service")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Variables the library or its benches read: never passed on, so only
# the arguments decide what is measured.
ISOLATED_PREFIX = "QLINK_"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the sources the benchmark builds, by relative path."""
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in (ROOT / "crates", ROOT / "vendor", HERE / "src"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def command_output(argv):
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment_line(env):
    commit = None
    if (ROOT / ".git").exists():
        commit = command_output(["git", "rev-parse", "HEAD"])
    rustc = command_output(["rustc", "--version"]) or "unknown"
    return (
        f"environment: nproc {len(os.sched_getaffinity(0))} (host cpus {os.cpu_count()}), "
        f"{rustc}, commit {commit or 'none (not a git checkout)'}, "
        f"source sha256 {source_digest()}, exec Sequential, telemetry set per run, "
        f"cleared {sorted(k for k in os.environ if k.startswith(ISOLATED_PREFIX)) or 'nothing'}"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be at least 0 and --seconds at least 1")

    if not (ROOT / "crates" / "qlink" / "Cargo.toml").is_file():
        fail(f"no qlink sources under {ROOT}: run from a full checkout of the repository")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    env = {k: v for k, v in os.environ.items() if not k.startswith(ISOLATED_PREFIX)}
    env["CARGO_TARGET_DIR"] = str(target)

    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    binary = target / "release" / "qlink-perfbench"
    print(environment_line(env), flush=True)
    if args.workload != "all":
        sys.stdout.write(run_once(binary, env, args.workload, args.seed, args.seconds, args.trace))
        return
    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            report = run_once(binary, env, workload, args.seed, args.seconds, trace)
            sys.stdout.write(report)
            sys.stdout.flush()
            correct &= json.loads(report.splitlines()[-1])["correct"]
    if not correct:
        fail("a run failed its checks")


def run_once(binary, env, workload, seed, seconds, trace):
    """Runs the benchmark binary once and returns its report."""
    run = [
        str(binary),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    try:
        done = subprocess.run(run, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    if done.returncode != 0:
        fail(f"run failed with exit code {done.returncode}")
    return done.stdout


if __name__ == "__main__":
    main()
