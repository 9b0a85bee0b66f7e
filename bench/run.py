"""Verdict-latency benchmark for the alcqisat decision procedure.

    python3 bench/run.py --workload deep --seed 3 --seconds 20 --trace 0
    python3 bench/run.py                 # every workload, untraced and traced

Run from the root of a checkout.  Each workload runs in its own
single-threaded Python process (bench/workload.py) with PYTHONHASHSEED
pinned, importing the library from the checkout's src/.  The inputs are the
frozen corpora in bench/answers/; --seed only fixes the orders in which a
run's passes visit them.  Every answer is checked against the committed
known answers.

--trace 0 makes passes over the whole corpus, each in a fresh process,
until --seconds have passed and at least MIN_PASSES were made.  A shared
virtual machine can change speed several times over within minutes, so
every instance's time is scaled by a reference loop timed around it (see
workload.py) to the speed at which that loop takes REF_NOMINAL_S; the
unscaled figures are printed beside the scaled ones.  Each instance's
latency is its mean over the passes, throughput is the decided count
over the sum of those latencies (failed instances' included), and set-up
time and peak RSS are medians over the passes.

--trace 1 runs one untraced and one traced pass, checks that their verdicts
and RunStats agree, and prints the per-layer metrics of the traced pass.

The last stdout line is one JSON object: correct, attempted, failed,
metrics; attempted and failed count instances.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("counting", "deep", "oracle")  # see bench/corpora.py
# backstop wall-clock cap per instance; engine runs are capped by a nogood
# budget first (workload.ENGINE_LIMITS), and the slowest instance of the
# seed commit, deep #108, takes about 5 s
CAP_S = 60.0
# the reference loop's time (workload.reference_s) that the scaled figures
# assume; about what it takes on a 2-core x86 VM when it runs fast
REF_NOMINAL_S = 0.001
MIN_PASSES = 3
RUN_BUDGET_S = 75.0  # start no pass that would end past this
CHILD_TIMEOUT_S = 170.0


def spawn(workload: str, order: str, hash_seed: int, traced: bool = False) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(ROOT / "src"))
    cmd = [
        sys.executable, str(BENCH / "workload.py"), "--workload", workload,
        "--order", order, "--cap", str(CAP_S),
    ]
    if traced:
        cmd.append("--traced")
    t0 = time.time()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def decided(kind: str) -> bool:
    """Engine verdicts are S and U; model-search outcomes start with m or n."""
    return kind in ("S", "U") or kind[0] in "mn"


def measure_passes(workload: str, seed: int, seconds: float, hash_seed: int) -> list[dict]:
    """Passes over every instance, each in a fresh process and its own order,
    until `seconds` have passed and MIN_PASSES were made, unless the next
    pass would end past RUN_BUDGET_S.  An instance's time depends on what
    ran before it in the process, so the orders differ."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(spawn(workload, f"{seed}.{len(passes)}", hash_seed))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed >= seconds:
            return passes
        if elapsed * (len(passes) + 1) / len(passes) > RUN_BUDGET_S:
            return passes


def scaled(seconds: float, reference_s: float) -> float:
    """Seconds at the machine speed where the reference loop takes
    REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / reference_s


def end_to_end(passes: list[dict]) -> tuple[dict, list[str], int, int]:
    """Metrics over passes.  Each instance's time is its mean over the
    passes, each pass's time scaled by the reference loop around it.  An
    instance that failed in any pass is failed and ranks above every
    decided one.  Throughput is the decided count over the sum of the
    instance times, failed instances' included.  Set-up time is the median
    over the passes, scaled by the reference loop that follows it; peak RSS
    is the median over the pass processes."""
    tries: dict[int, list] = {}
    for p in passes:
        for i, kind, seconds, _, ref in p["records"]:
            tries.setdefault(i, []).append((kind, scaled(seconds, ref), seconds))
    outcome = []  # (failed, scaled s, unscaled s, kind) per instance
    for attempts in tries.values():
        bad = [a for a in attempts if not decided(a[0])]
        outcome.append((
            bool(bad),
            statistics.fmean(a[1] for a in attempts),
            statistics.fmean(a[2] for a in attempts),
            (bad or attempts)[0][0],
        ))
    n = len(outcome)
    failures = Counter(kind for bad, _, _, kind in outcome if bad)
    n_decided = n - sum(failures.values())
    p90_index = math.ceil(0.9 * n) - 1

    def figures(column: int) -> tuple[float, float, float, float]:
        ranked = sorted((o[0], o[column]) for o in outcome)
        total = sum(t for _, t in ranked)
        p50 = ranked[math.ceil(0.5 * n) - 1][1]
        return n_decided / total, p50 * 1e3, ranked[p90_index][1] * 1e3, total

    rate, p50, p90, total = figures(1)
    raw_rate, raw_p50, raw_p90, raw_total = figures(2)
    setups = [scaled(p["setup_s"], p["setup_reference_s"]) for p in passes]
    raw_setups = [p["setup_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    metrics = {
        "decided_per_s": (rate, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    wrong = sum(len(p["wrong"]) for p in passes)
    kinds = ", ".join(f"{k} {v}" for k, v in sorted(failures.items())) or "none"
    walls = ", ".join(f"{p['wall_s']:.2f}" for p in passes)
    notes = {
        "decided_per_s": f"{n_decided} decided of {n} in {total:.3f} s; unscaled {raw_rate:.6g} "
        f"in {raw_total:.3f} s; mean of {len(passes)} passes of {walls} s",
        "latency_p50_ms": f"n={n}; unscaled {raw_p50:.6g}",
        "latency_p90_ms": f"n={n}, {n - 1 - p90_index} beyond; unscaled {raw_p90:.6g}",
        "setup_s": f"unscaled {statistics.median(raw_setups):.6g}",
        "peak_rss_mb": "median of " + ", ".join(f"{r:.1f}" for r in rss),
    }
    lines = [f"{name:<16} {value:.6g} {unit}  ({notes[name]})" for name, (value, unit) in metrics.items()]
    lines.insert(3, f"{'failed_frac':<16} {sum(failures.values()) / n:.6g}  ({kinds})")
    lines.insert(4, f"{'wrong_verdicts':<16} {wrong}")
    return metrics, lines, n, sum(failures.values())


def reference_note(runs: list[dict]) -> str:
    """The machine-speed diagnostic: the reference loop over the passes."""
    samples = sorted(s for run in runs for s in run["reference_s"])
    return (
        f"reference_loop_ms={statistics.median(samples) * 1e3:.3f} "
        f"(min {samples[0] * 1e3:.3f}, max {samples[-1] * 1e3:.3f}, n={len(samples)})"
    )


def outcomes(run: dict) -> dict:
    return {i: (kind, stats) for i, kind, _, stats, _ in run["records"]}


def mismatches(base: dict, traced: dict) -> list[str]:
    """Instances whose outcome or RunStats differ between the two runs; a
    timed-out run's partial stats depend on speed, so only its kind counts."""
    a, b = outcomes(base), outcomes(traced)
    out = []
    for i in sorted(a.keys() | b.keys()):
        if i not in a or i not in b or a[i][0] != b[i][0]:
            out.append(f"#{i}: {a.get(i)} untraced, {b.get(i)} traced")
        elif a[i][0] != "timeout" and a[i][1] != b[i][1]:
            out.append(f"#{i}: stats {a[i][1]} untraced, {b[i][1]} traced")
    return out


def overhead_s(base: dict, traced: dict) -> float:
    """Traced minus untraced time, scaled, over the instances neither run
    timed out on; a timed-out instance costs the cap in both."""
    untraced = {i: scaled(t, ref) for i, kind, t, _, ref in base["records"] if kind != "timeout"}
    return sum(
        scaled(t, ref) - untraced[i]
        for i, kind, t, _, ref in traced["records"]
        if i in untraced and kind != "timeout"
    )


def per_layer(base: dict, traced: dict) -> dict:
    sec = traced["layers"]["seconds"]
    cnt = traced["layers"]["counts"]
    # a timed-out instance's partial work depends on machine speed; the
    # layer totals leave it out too (workload.py)
    stats = [st for _, kind, _, st, _ in traced["records"] if st and kind != "timeout"]
    restarts = sum(st[0] for st in stats)
    nodes = sum(st[1] for st in stats)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def secs(bucket: str) -> tuple:
        return (sec.get(bucket, 0.0), "s")

    def count(name: str) -> tuple:
        return (cnt.get(name, 0), "count")

    phases = traced["phases"]
    return {
        "problems.generate_s": (phases["problems.generate_s"], "s"),
        "problems.parse_s": (phases["problems.parse_s"], "s"),
        "syntax.build_problem_s": (phases["syntax.build_problem_s"], "s"),
        "syntax.cut_formulas_mean": (phases["syntax.cut_formulas_mean"], "count"),
        "branch.enumerate_calls": count("branch.enumerate_calls"),
        "branch.branches_yielded": count("branch.branches_yielded"),
        "branch.branches_used": count("line.PB"),
        "branch.useful_ratio": (
            ratio(cnt.get("line.PB", 0), cnt.get("branch.branches_yielded", 0)), "ratio"
        ),
        "branch.enumerate_s": secs("branch.enumerate"),
        "branch.support_s": secs("branch.support"),
        "engine.nodes": (nodes, "count"),
        "engine.restarts": (restarts, "count"),
        "engine.restarts_per_node": (ratio(restarts, nodes), "ratio"),
        "engine.blocked": count("line.BLOCKED"),
        "engine.nogood_lookups": count("engine.nogood_lookups"),
        "engine.nogood_hits": count("engine.nogood_hits"),
        "engine.nogood_hit_ratio": (
            ratio(cnt.get("engine.nogood_hits", 0), cnt.get("engine.nogood_lookups", 0)), "ratio"
        ),
        "engine.nogood_lookup_s": secs("engine.nogood"),
        "engine.nogood_adds": count("engine.nogood_adds"),
        "engine.nogoods_final": (sum(st[2] for st in stats), "count"),
        "engine.decide_self_s": secs("engine.decide"),
        "lii.builds": count("lii.builds"),
        "lii.atoms": count("lii.atoms"),
        "lii.max_lambda": (traced["layers"]["max_lambda"], "count"),
        "lii.build_s": secs("lii.build"),
        "lii.solves": count("lii.solves"),
        "lii.infeasible": count("lii.infeasible"),
        "lii.solver_limit_hits": count("lii.solver_limit_hits"),
        "lii.zeroed_columns": count("lii.zeroed_columns"),
        "lii.solve_s": secs("lii.solve"),
        "oracle.searches": count("oracle.searches"),
        "oracle.models_found": count("oracle.models_found"),
        "oracle.refusals": count("oracle.refusals"),
        "oracle.search_s": secs("oracle.search"),
        "trace.overhead_s": (overhead_s(base, traced), "s"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, hash_seed: int) -> dict:
    if trace:
        base = spawn(workload, f"{seed}.0", hash_seed)
        traced = spawn(workload, f"{seed}.0", hash_seed, traced=True)
        differ = mismatches(base, traced)
        for line in differ[:10]:
            print(f"traced run differs: {line}", file=sys.stderr)
        wrong = base["wrong"] + traced["wrong"]
        metrics = per_layer(base, traced)
        lines = [f"{name:<28} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        lines.append(f"{'traced_vs_untraced_mismatches':<28} {len(differ)}")
        attempted = len(traced["records"])
        failed = sum(not decided(kind) for _, kind, *_ in traced["records"])
        ok = not differ and not wrong
        runs = [base, traced]
    else:
        passes = measure_passes(workload, seed, seconds, hash_seed)
        wrong = [why for p in passes for why in p["wrong"]]
        metrics, lines, attempted, failed = end_to_end(passes)
        ok = not wrong
        runs = passes
    for line in wrong[:10]:
        print(f"wrong answer: {line}", file=sys.stderr)
    print(
        f"== {workload} trace={int(trace)} seed={seed} PYTHONHASHSEED={hash_seed} "
        f"cap={CAP_S:g}s {reference_note(runs)}"
    )
    for line in lines:
        print("  " + line)
    return {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1, help="orders the instances of a run")
    parser.add_argument("--seconds", type=float, default=20.0, help="minimum time a run spends on passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both, in turn")
    parser.add_argument("--hash-seed", type=int, default=0, help="PYTHONHASHSEED of every workload process")
    args = parser.parse_args()

    for needed in (ROOT / "src" / "alcqisat" / "__init__.py", BENCH / "answers"):
        if not needed.exists():
            sys.exit(f"not a checkout of the library: {needed} is missing")
    names = WORKLOADS if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = {}
    for name in names:
        for trace in modes:
            results[(name, trace)] = run_workload(name, args.seed, args.seconds, trace, args.hash_seed)
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({f"{name}/trace{int(trace)}": r for (name, trace), r in results.items()}))


if __name__ == "__main__":
    main()
