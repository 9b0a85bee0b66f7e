"""One pass of one workload in one process: set up, time every instance,
print JSON.

`bench/run.py` starts this with PYTHONHASHSEED pinned and the checkout's
`src/` on PYTHONPATH.  The last stdout line is one JSON object: set-up time
and phases, one record per attempted instance, the wrong answers, peak RSS
and, in traced mode, the per-layer totals.

Engine runs are capped by work, not time: the Tableau gets a nogood budget
(ENGINE_LIMITS) that no instance the seed commit decides comes near, so an
instance that would run on is stopped by ResourceLimitError at the same
point on any machine, with exact partial stats.  An interval timer backs
this up, since the engine has no deadline of its own.  A capped or
timed-out instance is a failure, as is every exception; its partial work is
read from the Tableau.

A shared virtual machine can change speed several times over within minutes.
So every REF_EVERY_S of CPU time, also in the middle of an instance, a
pass times a fixed pure-Python loop (Sampler); each record carries
the mean loop time over its instance, and run.py scales the instance's time
by it.  The time spent on the loop is kept out of the instance's.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import alcqisat
import alcqisat.syntax
from alcqisat import (
    Interpretation,
    Limits,
    OracleLimitError,
    ResourceLimitError,
    SolverLimitError,
    Tableau,
    build_problem,
    evaluate,
    parse_problem_text,
)

import corpora

ANSWERS = Path(__file__).with_name("answers")
ORACLE_MAX_DOMAIN = 2
# the most nogoods any instance the seed commit decides stores is 189 (deep
# #122); deep #64 and #106, which never finish, reach this budget in a fifth
# and a half of the time deep #108, the slowest instance decided, takes
ENGINE_LIMITS = Limits(nogood_capacity=250)
REF_EVERY_S = 0.1
REF_LOOP = 25_000


class CapReached(BaseException):
    """Raised by the interval timer; a BaseException so no handler inside
    the library can swallow it."""


def _on_alarm(signum, frame):
    raise CapReached()


def reference_s() -> float:
    """Seconds for a fixed pure-Python loop, the faster of two runs: how fast
    the machine runs the interpreter just now.  It shares no code with the
    library, so no change to the library moves it."""
    best = math.inf
    for _ in range(2):
        start = perf_counter()
        total = 0
        for i in range(REF_LOOP):
            total += i
        best = min(best, perf_counter() - start)
    return best


class Sampler:
    """Times the reference loop on a CPU-time interval timer, so that long
    instances are sampled while they run.  A sample interrupts the program
    between two bytecodes and runs to its end, so it falls wholly inside or
    wholly outside any interval the program times."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (taken at, loop s, sample s)
        self.total = 0.0  # seconds spent sampling so far

    def sample(self, *_) -> None:
        start = perf_counter()
        ref = reference_s()
        took = perf_counter() - start
        self.samples.append((start, ref, took))
        self.total += took

    def run_every(self, seconds: float) -> None:
        """Sample every `seconds` of CPU time; 0 stops."""
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, seconds, seconds)

    def spent(self, start: float, end: float) -> float:
        """Seconds spent sampling between start and end."""
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_left(self.samples, (end,))
        return sum(s[2] for s in self.samples[lo:hi])

    def around(self, start: float, end: float) -> float:
        """Mean loop time of the samples from the last one before start to
        the first one after end."""
        lo = max(bisect.bisect_left(self.samples, (start,)) - 1, 0)
        hi = min(bisect.bisect_left(self.samples, (end,)), len(self.samples) - 1)
        return statistics.fmean(s[1] for s in self.samples[lo : hi + 1])


SAMPLER = Sampler()  # attempt() keeps its samples' time out of every instance's


def attempt(call, cap: float) -> tuple[str, float, object]:
    """Run call() under the cap: (kind, seconds, result or None).  kind is
    'ok' or the failure kind."""
    result = None
    signal.signal(signal.SIGALRM, _on_alarm)
    start = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            result = call()
            kind = "ok"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CapReached:
        kind = "timeout"
    except ResourceLimitError:
        kind = "resource_limit"
    except SolverLimitError:
        kind = "solver_limit"
    except OracleLimitError:
        kind = "oracle_limit"
    except RecursionError:
        kind = "recursion"
    except Exception as exc:  # any other failure is counted, never fatal
        kind = "error:" + type(exc).__name__
    end = perf_counter()
    return kind, end - start - SAMPLER.spent(start, end), result


def decide_instance(problem, cap: float, on_line=None, limits=None) -> tuple[str, float, list[int]]:
    """One engine run: (verdict 'S'/'U' or failure kind, seconds, stats).
    Stats are read from the Tableau, so an aborted run reports its partial
    work; RunStats.nogoods is only filled in at the verdict."""
    box = []

    def call():
        box.append(Tableau(problem, trace=on_line, limits=limits))
        return box[0].decide()

    kind, seconds, verdict = attempt(call, cap)
    if kind == "ok":
        kind = "S" if verdict.satisfiable else "U"
    stats = [0] * 5
    if box:
        s = box[0].stats
        stats = [s.restarts, s.nodes, len(box[0].nogoods), s.lii_solves, s.max_lambda]
    return kind, seconds, stats


def model_checks(model: Interpretation, problem) -> bool:
    """The model satisfies the axiom everywhere and the goal somewhere, by
    oracle.evaluate, which shares nothing with the bitmask search."""
    domain = range(model.domain_size)
    return all(evaluate(model, problem.axiom, x) for x in domain) and any(
        evaluate(model, problem.goal, x) for x in domain
    )


def search_instance(problem, cap: float, max_domain: int, **signature):
    """One model search: ('m<size>' or 'n<searched>' or failure kind,
    seconds, model or None)."""
    kind, seconds, found = attempt(
        lambda: alcqisat.find_model(problem.goal, problem.axiom, max_domain=max_domain, **signature),
        cap,
    )
    if kind != "ok":
        return kind, seconds, None
    if isinstance(found, Interpretation):
        return f"m{found.domain_size}", seconds, found
    return f"n{found.searched_max_domain}", seconds, None


def expected_search(known: str) -> str:
    """The max_domain=2 search result implied by a known oracle answer
    (searched to the largest domain its budget allowed)."""
    if known[0] == "m" and int(known[1:]) <= ORACLE_MAX_DOMAIN:
        return known
    if known[0] == "n" and int(known[1:]) < ORACLE_MAX_DOMAIN:
        return known
    return f"n{ORACLE_MAX_DOMAIN}"


def load_frozen(workload: str, texts: list[str]) -> list[str]:
    """Known answers for the workload; exits when its inputs drifted."""
    frozen = json.loads((ANSWERS / f"{workload}.json").read_text())
    if corpora.digest(texts) != frozen["digest"]:
        sys.exit(f"refusing to time: {workload} problem texts differ from the frozen digest")
    return frozen["answers"]


def setup(workload: str) -> dict:
    t0 = perf_counter()
    texts = [pf.to_text() for pf in corpora.generate(workload)]
    t1 = perf_counter()
    answers = load_frozen(workload, texts)
    t2 = perf_counter()
    files = [parse_problem_text(text) for text in texts]
    t3 = perf_counter()
    problems = [build_problem(pf.query, pf.tbox) for pf in files]
    t4 = perf_counter()
    return {
        "problems": problems,
        "answers": answers,
        "phases": {
            "problems.generate_s": t1 - t0,
            "problems.parse_s": t3 - t2,
            "syntax.build_problem_s": t4 - t3,
            "syntax.cut_formulas_mean": sum(len(p.cuts) for p in problems) / len(problems),
        },
    }


def wrong_answer(workload: str, index: int, kind: str, known: str, result, problem) -> str | None:
    """Why this outcome contradicts the known answer, or None."""
    verdict, oracle_known = known[0], known[1:]
    if workload == "oracle":
        if kind[0] not in "mn":
            return None  # a failure, counted as such
        if kind != expected_search(oracle_known):
            return f"#{index}: search gave {kind}, expected {expected_search(oracle_known)}"
        if result is not None and not model_checks(result, problem):
            return f"#{index}: returned model fails oracle.evaluate"
        if result is not None and verdict == "U":
            return f"#{index}: model found for a known UNSAT instance"
        return None
    if kind not in ("S", "U"):
        return None
    if verdict in "SU" and kind != verdict:
        return f"#{index}: verdict {kind}, known {verdict}"
    if kind == "U" and oracle_known[0] == "m":
        return f"#{index}: UNSAT but the oracle has a model of size {oracle_known[1:]}"
    return None


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(corpora.COUNTS))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--order", required=True, help="seeds the order of the instances")
    parser.add_argument("--cap", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True, help="epoch time the parent spawned us")
    args = parser.parse_args()

    if not Path(alcqisat.__file__).resolve().is_relative_to(Path.cwd().resolve() / "src"):
        sys.exit(f"alcqisat imported from {alcqisat.__file__}, not from this checkout")

    layers = None
    if args.traced:
        from tracing import Layers

        layers = Layers(SAMPLER)
        layers.install()
    state = setup(args.workload)
    setup_s = time.time() - args.t0
    # the corpus lives for the whole pass; keep the collector from rescanning it
    gc.freeze()

    problems, answers = state["problems"], state["answers"]
    order = list(range(len(problems)))
    random.Random(args.order).shuffle(order)
    on_line = None
    if layers is not None:
        counts = layers.counts

        def on_line(line: str) -> None:
            counts["line." + line.split(" ", 1)[0]] += 1

    # time every instance as a fresh process would see it, whatever ran before
    clear_cache = getattr(alcqisat.syntax.concept_key, "cache_clear", lambda: None)
    records, outcomes, spans = [], [], []
    SAMPLER.sample()
    SAMPLER.run_every(REF_EVERY_S)
    start = perf_counter()
    for i in order:
        clear_cache()
        began = perf_counter()
        before = layers.snapshot() if layers is not None else None
        if args.workload == "oracle":
            kind, seconds, result = search_instance(problems[i], args.cap, ORACLE_MAX_DOMAIN)
            stats = []
        else:
            kind, seconds, stats = decide_instance(problems[i], args.cap, on_line, ENGINE_LIMITS)
            result = None
        spans.append((began, perf_counter()))
        if layers is not None:
            layers.reset_stack()
            if kind == "timeout":
                layers.restore(before)  # partial work there depends on machine speed
        records.append([i, kind, seconds, stats])
        outcomes.append(result)
    wall_s = perf_counter() - start
    SAMPLER.run_every(0)
    SAMPLER.sample()
    for record, span in zip(records, spans):
        record.append(SAMPLER.around(*span))
    wrong = [
        why
        for (i, kind, *_), result in zip(records, outcomes)
        if (why := wrong_answer(args.workload, i, kind, answers[i], result, problems[i]))
    ]
    out = {
        "setup_s": setup_s,
        "setup_reference_s": SAMPLER.samples[0][1],
        "reference_s": [s[1] for s in SAMPLER.samples],
        "phases": state["phases"],
        "wall_s": wall_s,
        "records": records,
        "wrong": wrong,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if layers is not None:
        out["layers"] = {
            "seconds": dict(layers.seconds),
            "counts": dict(layers.counts),
            "max_lambda": layers.max_lambda,
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
