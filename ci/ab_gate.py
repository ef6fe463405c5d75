#!/usr/bin/env python3
"""Same-host A/B gate: fails when HEAD costs more host time than a base revision.

Usage, from the root of a git checkout:

    python3 ci/ab_gate.py --base <rev> [--workload <name>]

Checks `<rev>` out into a git worktree next to the checkout, then runs
`perfbench/run.py --workload <name> --seed <s> --seconds 25 --trace 0`
(default workload: grid_service) on the base and on HEAD for seeds 1..5, alternating which
side goes first per seed. Each side builds into its own
`CARGO_TARGET_DIR`. The gate reads `cpu_s_per_sim_s` from each run's
last JSON line, forms the per-seed ratio HEAD / base, and exits
non-zero when the median ratio is above 1.05 or when any run fails
its own checks. Both sides run on the same host within minutes of
each other, so the ratio does not depend on how fast the runner is.

With `--base HEAD` the two sides are the same code: that A/A run
measures the spread the gate has to live with on a given host.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("link_mixed", "grid_sparse", "grid_service")
SEEDS = range(1, 6)
SECONDS = 25
METRIC = "cpu_s_per_sim_s"
MAX_RATIO = 1.05


def run_bench(checkout, target, workload, seed):
    """Runs one untraced benchmark and returns `METRIC`'s value."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"ab_gate: benchmark in {checkout} failed with exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"ab_gate: benchmark in {checkout} failed its checks at seed {seed}")
    return result["metrics"][METRIC]["value"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare HEAD against")
    parser.add_argument("--workload", choices=WORKLOADS, default="grid_service",
                        help="benchmark workload to compare on (default: grid_service)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="ab_gate.") as tmp:
        tmp = pathlib.Path(tmp)
        base = tmp / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(base), args.base],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        try:
            sides = {"base": (base, tmp / "target-base"), "head": (ROOT, tmp / "target-head")}
            ratios = []
            for i, seed in enumerate(SEEDS):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                value = {side: run_bench(*sides[side], args.workload, seed) for side in order}
                ratios.append(value["head"] / value["base"])
                print(f"seed {seed}: base {value['base']:.4f}  head {value['head']:.4f}  "
                      f"head/base {ratios[-1]:.4f}", flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base)], cwd=ROOT)

    median = statistics.median(ratios)
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    print(f"{args.workload} {METRIC} head/base over {len(ratios)} seeds: median {median:.4f}, "
          f"quartiles {q1:.4f}..{q3:.4f}, gate {MAX_RATIO:.2f}")
    if median > MAX_RATIO:
        sys.exit(f"ab_gate: HEAD is {100 * (median - 1):.1f}% slower than {args.base} "
                 f"(median ratio {median:.4f} > {MAX_RATIO:.2f})")


if __name__ == "__main__":
    main()
