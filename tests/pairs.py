"""Paired bench runs of a parent commit against the working tree, and the
claim rule applied to their end-to-end metrics.

    python tests/pairs.py --workload oracle                  # 10 pairs of 20 s runs against HEAD
    python tests/pairs.py --workload deep --rev HEAD~1 --pairs 6 --seconds 8 --seed 7
    python tests/pairs.py --workload deep,counting,oracle    # every workload, one after another

The parent is written with `git archive REV` into a temporary directory.
Each pair runs `python3 bench/run.py --workload W --trace 0 --seconds S
--seed K` once in that directory and once in the working tree, the parent
first in even pairs and the change first in odd ones, so a drift in
machine speed does not favour one side.  --workload takes a
comma-separated list, and each workload gets its own pairs and report.
For each end-to-end metric in BENCHMARK.json the report gives the
parent's median [q1, q3], the change's median, how many pairs the change
won, whether the claim rule holds: the change wins at least nine in ten
pairs, and its median is better than the parent's by more than the
parent's interquartile range; and whether its mirror holds, which marks
the metric `worse`: the change loses at least nine in ten pairs, and its
median is worse than the parent's by more than that range; and whether
the change's median is `within bound` or `PAST BOUND`: worse than the
parent's by more than the metric's BENCHMARK.json `bound` times the
parent's median.  It exits 1 when any run is not `correct`, or any metric
is worse or past its bound.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One run's JSON line: correct, attempted, failed, metrics."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--trace", "0",
         "--seconds", repr(seconds), "--seed", str(seed)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def report(metrics: list[dict], parent: list[dict], change: list[dict]) -> tuple[list[str], bool]:
    """One line per metric: the parent's median [q1, q3], the change's
    median, pairs won, the claim rule, its mirror and the metric's bound;
    and whether any metric is worse or past its bound."""
    lines, any_worse = [], False
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        before = [run["metrics"][name]["value"] for run in parent]
        after = [run["metrics"][name]["value"] for run in change]
        median, q1, q3 = quartiles(before)
        new = statistics.median(after)
        wins = sum(sign * (b - a) > 0 for a, b in zip(before, after))
        losses = sum(sign * (b - a) < 0 for a, b in zip(before, after))
        most = math.ceil(0.9 * len(before))
        claim = wins >= most and sign * (new - median) > q3 - q1
        worse = losses >= most and sign * (median - new) > q3 - q1
        past = sign * (median - new) > metric["bound"] * median
        any_worse = any_worse or worse or past
        lines.append(
            f"{name:<16} parent {median:.6g} [{q1:.6g}, {q3:.6g}]  change {new:.6g} "
            f"({(new - median) / median:+.1%})  won {wins}/{len(before)}  claim {'holds' if claim else 'fails'}"
            + ("  WORSE" if worse else "") + ("  PAST BOUND" if past else "  within bound")
        )
    return lines, any_worse


def pairs(tmp: Path, workload: str, args: argparse.Namespace) -> tuple[list[dict], list[dict]]:
    """The parent's and the change's runs of one workload, alternating."""
    parent, change = [], []
    for k in range(args.pairs):
        sides = [(tmp, parent), (ROOT, change)]
        for checkout, runs in sides if k % 2 == 0 else sides[::-1]:
            runs.append(bench(checkout, workload, args.seconds, args.seed))
        rates = [f"{runs[-1]['metrics']['decided_per_s']['value']:.6g}" for _, runs in sides]
        print(f"{workload} pair {k + 1}: decided_per_s parent {rates[0]}, change {rates[1]}", flush=True)
    return parent, change


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="one workload, or several separated by commas")
    parser.add_argument("--rev", default="HEAD", help="the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: the quartiles need two runs a side")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    correct, worse = True, False
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT, stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        for workload in args.workload.split(","):
            parent, change = pairs(Path(tmp), workload, args)
            correct = correct and all(run["correct"] for run in parent + change)
            lines, got_worse = report(metrics, parent, change)
            worse = worse or got_worse
            print(f"== {workload}: {args.rev} against the working tree, {args.pairs} pairs of "
                  f"{args.seconds:g} s, seed {args.seed}")
            for line in lines:
                print("  " + line, flush=True)
    if not correct:
        print("a run was not correct", file=sys.stderr)
    if worse:
        print("a metric got worse or past its bound", file=sys.stderr)
    if worse or not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
