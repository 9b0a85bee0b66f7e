"""Acceptance suite.  Each criterion prints one pass/fail line; run with
pytest -s to see them all."""

import random
import time

import pytest

from alcqisat import (
    Atom,
    Interpretation,
    TOP,
    atomic_decomposition,
    build_problem,
    conj,
    decide,
    feasible,
    find_model,
    generate_corpus,
    parse_concept,
)
from alcqisat.engine import Tableau
from alcqisat.syntax import NegAtom
from conftest import Row, assert_nogoods_are_new, brute_force_feasible, system_from_rows

CORPUS_SEED = 20260809
CORPUS_SIZE = 200


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def corpus_runs():
    """Engine runs over the generated corpus, shared by several criteria."""
    runs = []
    for pf in generate_corpus(seed=CORPUS_SEED, count=CORPUS_SIZE):
        problem = build_problem(pf.query, pf.tbox)
        trace: list[str] = []
        tableau = Tableau(problem, trace=trace.append)
        verdict = tableau.decide()
        runs.append((pf, problem, verdict, trace, tableau))
    return runs


def test_criterion_1_atomic_decomposition_example():
    c1, c2, c3 = Atom("C1"), Atom("C2"), Atom("C3")
    n1, n2, n3 = NegAtom("C1"), NegAtom("C2"), NegAtom("C3")
    fillers = [c1, c2, c3]
    atomic_decomposition(fillers)  # warm caches before timing
    best = min(
        _timed(lambda: atomic_decomposition(fillers))[0] for _ in range(5)
    )
    atoms = atomic_decomposition(fillers)
    realized = {conj(literals) for literals in atoms}
    expected = {
        conj([c1, c2, c3]),
        conj([c1, c2, n3]),
        conj([c1, n2, c3]),
        conj([c1, n2, n3]),
        conj([n1, c2, c3]),
        conj([n1, c2, n3]),
        conj([n1, n2, c3]),
    }
    ok = realized == expected and len(atoms) == 7 and best < 0.001
    assert report(
        1, ok, f"7 sign combinations, exact set match, {best * 1e6:.0f} us"
    )


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def test_criterion_2_oracle_agreement(corpus_runs):
    start = time.perf_counter()
    confirmed = mismatches = 0
    for pf, problem, verdict, _, _ in corpus_runs:
        found = find_model(problem.goal, problem.axiom, max_domain=3)
        if isinstance(found, Interpretation):
            if verdict.satisfiable:
                confirmed += 1
            else:
                mismatches += 1
                print("disagreement on:\n" + pf.to_text())
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and len(corpus_runs) >= 200 and elapsed <= 300
    assert report(
        2,
        ok,
        f"{confirmed} model-backed instances all SAT, 0 mismatches, "
        f"{len(corpus_runs)} instances in {elapsed:.1f}s",
    )


def test_criterion_3_regression_verdicts():
    cases = [
        ("(and (atleast 2 R C) (atmost 1 R top))", False),
        ("(and (atleast 2 R A) (atleast 2 R B) (atmost 2 R top))", True),
        ("(and (atleast 2 R A) (atleast 2 R (not A)) (atmost 3 R top))", False),
        ("(and A (atleast 1 R (atmost 0 (inv R) A)))", False),
    ]
    results = []
    for text, want in cases:
        verdict = decide(build_problem(parse_concept(text)))
        results.append(verdict.satisfiable == want)
    ok = all(results)
    assert report(3, ok, f"{sum(results)}/4 hand-verified verdicts match")


def test_criterion_4_cyclic_axioms_terminate():
    problem = build_problem(
        parse_concept("A"), [(TOP, parse_concept("(atleast 1 R top)"))]
    )
    trace: list[str] = []
    elapsed, verdict = _timed(lambda: decide(problem, trace=trace.append))
    blocked = any(line.startswith("BLOCKED") for line in trace)
    ok = (
        verdict.satisfiable
        and blocked
        and verdict.stats.nodes <= 10_000
        and elapsed <= 10
    )
    assert report(
        4,
        ok,
        f"SAT via blocking, {verdict.stats.nodes} nodes, {elapsed * 1000:.0f} ms",
    )


def test_criterion_5_solver_equivalence():
    rng = random.Random(97)
    start = time.perf_counter()
    agreements = 0
    for _ in range(1000):
        width = rng.randint(1, 3)
        fillers = tuple(Atom(f"F{i}") for i in range(width))
        rows = []
        for _ in range(rng.randint(1, 4)):
            k = rng.randrange(width)
            coeff = 0
            for mask in range(1, 1 << width):
                if (mask >> k) & 1:
                    coeff |= 1 << (mask - 1)
            rows.append(Row(coeff, rng.random() < 0.5, rng.randint(0, 4)))
        zeroed = [m for m in range(1, 1 << width) if rng.random() < 0.2]
        system = system_from_rows(fillers, rows, zeroed)
        got = feasible(system)
        want = brute_force_feasible(system)
        if (got is None) == (want is None):
            agreements += 1
    elapsed = time.perf_counter() - start
    ok = agreements == 1000 and elapsed <= 60
    assert report(5, ok, f"{agreements}/1000 verdicts agree in {elapsed:.1f}s")


def test_criterion_6_number_coding_insensitivity():
    big = build_problem(
        parse_concept("(and (atleast 1000000 R A) (atmost 999999 R A))")
    )
    small = build_problem(parse_concept("(and (atleast 7 R A) (atmost 6 R A))"))
    elapsed, verdict_big = _timed(lambda: decide(big))
    verdict_small = decide(small)
    ok = (
        not verdict_big.satisfiable
        and not verdict_small.satisfiable
        and elapsed <= 1.0
        and verdict_big.stats.nodes == verdict_small.stats.nodes
    )
    assert report(
        6,
        ok,
        f"UNSAT in {elapsed * 1000:.1f} ms, {verdict_big.stats.nodes} nodes at both "
        f"bound sizes",
    )


def test_criterion_7_restart_monotonicity(corpus_runs):
    # the criterion asked that each restart store a new nogood; a run now
    # builds one tree and never restarts, so what it checks is that the
    # store only grows by new failures: none repeats or is covered by an
    # earlier one (`assert_nogoods_are_new`)
    storing_runs = stored = 0
    for _, _, verdict, trace, tableau in corpus_runs:
        assert_nogoods_are_new(tableau, trace)
        storing_runs += verdict.stats.nogoods > 0
        stored += verdict.stats.nogoods
    ok = storing_runs > 0
    assert report(
        7,
        ok,
        f"{stored} nogoods on {storing_runs} storing runs, each new and none covered "
        f"by an earlier one; no restart on all {len(corpus_runs)}",
    )


def test_criterion_8_nogood_soundness_sampling(corpus_runs):
    checked = found_models = 0
    for _, problem, _, _, tableau in corpus_runs:
        small = [
            t.body
            for t in sorted(
                tableau.nogoods,
                key=lambda t: sorted(map(str, t.body)),
            )
            if t.is_wildcard() and 0 < len(t.body) <= 3
        ][:20]
        for body in small:
            result = find_model(conj(body), problem.axiom, max_domain=3)
            checked += 1
            if isinstance(result, Interpretation):
                found_models += 1
                print(
                    "unsound cached set:", sorted(map(str, body)),
                    "model:\n" + result.dump(),
                )
    ok = found_models == 0 and checked > 0
    assert report(
        8,
        ok,
        f"{checked} cached sets re-checked by bounded model search, "
        f"{found_models} spurious",
    )
