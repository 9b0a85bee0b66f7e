import random
from collections import Counter

import pytest

from alcqisat import (
    AtLeast,
    AtMost,
    Atom,
    Interpretation,
    NoneFound,
    OracleLimitError,
    Role,
    TOP,
    build_problem,
    conj,
    disj,
    evaluate,
    find_model,
    generate_corpus,
    parse_concept,
    to_nnf,
)
from alcqisat.oracle import _AT_LEAST, _compile
from alcqisat.syntax import BOTTOM, Not, signature_of
from conftest import random_interpretation, random_raw_concept, reference_find_model

A = Atom("A")
R = Role("R")


def interp(n, concepts=None, roles=None):
    return Interpretation(
        domain_size=n,
        concept_extensions={k: frozenset(v) for k, v in (concepts or {}).items()},
        role_extensions={k: frozenset(v) for k, v in (roles or {}).items()},
    )


def test_top_everywhere():
    i = interp(2)
    assert evaluate(i, TOP, 0) and evaluate(i, TOP, 1)


def test_atleast_without_edges():
    i = interp(1, concepts={"C": {0}})
    assert not evaluate(i, AtLeast(1, R, Atom("C")), 0)


def test_inverse_counts_back_edges():
    # (x, y) in R makes x an R-inverse neighbor of y
    i = interp(2, concepts={"A": {0}}, roles={"R": {(0, 1)}})
    assert not evaluate(i, AtMost(0, Role("R", True), A), 1)
    assert evaluate(i, AtMost(0, Role("R", True), A), 0)


def test_unknown_name_is_empty():
    i = interp(1)
    assert not evaluate(i, Atom("Mystery"), 0)


def test_find_model_singleton():
    result = find_model(A)
    assert isinstance(result, Interpretation)
    assert result.domain_size == 1
    assert result.concept_extensions["A"] == frozenset({0})


def test_find_model_contradictory_counts():
    goal = to_nnf(parse_concept("(and (atleast 2 R C) (atmost 1 R top))"))
    result = find_model(goal)
    assert result == NoneFound(searched_max_domain=3)


def test_find_model_shared_successors():
    goal = to_nnf(parse_concept("(and (atleast 2 R A) (atleast 2 R B) (atmost 2 R top))"))
    result = find_model(goal)
    assert isinstance(result, Interpretation)
    # two successors in both A and B; self loops allowed, so two elements do
    assert result.domain_size == 2
    assert any(evaluate(result, goal, x) for x in range(result.domain_size))


def test_find_model_respects_axiom():
    result = find_model(A, to_nnf(parse_concept("(not A)")))
    assert isinstance(result, NoneFound)


def test_find_model_deterministic():
    goal = to_nnf(parse_concept("(or (atleast 1 R B) A)"))
    assert find_model(goal) == find_model(goal)


def test_signature_guard():
    # refused exactly where the plain enumeration refuses
    too_many_atoms = conj(Atom(f"N{i}") for i in range(4))
    three_roles = conj(AtLeast(1, Role(name), A) for name in ("P", "R", "S"))
    for goal, options in [
        (too_many_atoms, {}),
        (A, {"max_domain": 4}),
        (three_roles, {"max_domain": 1}),
        (A, {"max_atoms": 0}),
    ]:
        with pytest.raises(OracleLimitError):
            reference_find_model(goal, **options)
        with pytest.raises(OracleLimitError):
            find_model(goal, **options)
    # widened guards search the same space
    assert find_model(three_roles, max_roles=3, max_domain=1) == reference_find_model(
        three_roles, max_roles=3, max_domain=1
    )


def test_budget_reports_searched_sizes():
    goal = to_nnf(parse_concept("(and (atleast 3 R (and A B)) (atmost 2 R top) (atleast 1 S C))"))
    result = find_model(goal, budget=10)
    assert isinstance(result, NoneFound)
    assert result.searched_max_domain == 0
    result = find_model(goal, budget=100)
    assert isinstance(result, NoneFound)
    assert result.searched_max_domain == 1


def test_models_satisfy_every_cut_formula():
    # cut formulas are valid, so any model extends to them without change
    rng = random.Random(23)
    checked = 0
    for _ in range(40):
        problem = build_problem(random_raw_concept(rng, rng.randint(0, 2), atoms=("A", "B"), roles=("R",)))
        result = find_model(problem.goal, problem.axiom)
        if not isinstance(result, Interpretation):
            continue
        checked += 1
        for cf in problem.cut_concepts:
            for x in range(result.domain_size):
                assert evaluate(result, cf, x)
    assert checked > 5


def test_evaluate_respects_de_morgan():
    rng = random.Random(29)
    for _ in range(150):
        c = random_raw_concept(rng, 2)
        d = random_raw_concept(rng, 2)
        i = random_interpretation(rng)
        for x in range(i.domain_size):
            both = evaluate(i, conj([c, d]), x)
            assert both == (evaluate(i, c, x) and evaluate(i, d, x))


def _budget_stopping_after(goal, axiom, domain):
    """The budget that covers the candidate spaces of sizes 1..domain and no
    more, so a search finding no model stops after that size."""
    atoms, roles = signature_of(goal, axiom)
    return sum(1 << (n * len(atoms) + n * n * len(roles)) for n in range(1, domain + 1))


def test_find_model_matches_reference():
    # the staged sweep returns what the plain enumeration returns: the same
    # first model, or NoneFound with the same searched size
    for pf in generate_corpus(seed=20260809, count=200):
        problem = build_problem(pf.query, pf.tbox)
        expected = reference_find_model(problem.goal, problem.axiom, max_domain=2)
        assert find_model(problem.goal, problem.axiom, max_domain=2) == expected, pf.to_text()

    # random pairs.  A quarter conjoin an at-least 2 or 3, so that larger
    # models occur; a quarter conjoin a choice between an R- and an
    # S-successor, so that the role loops' nesting decides the first model.
    # The budgets stop the search after size 0, 1 or 2, or admit size 3 for
    # one atom and one role (its 4,164 candidates)
    rng = random.Random(47)
    stops = (0, 1, 1, 2, 2, 2, 3, 3, 3, 3)
    outcomes = Counter()
    for i in range(600):
        counting, choice = i % 4 == 1, i % 4 == 3
        atoms = ("A", "B", "C")[: 1 if choice else rng.randint(1, 2 if counting else 3)]
        roles = ("R", "S")[: 2 if choice else rng.randint(1, 2)]
        goal = random_raw_concept(rng, rng.randint(1, 3), atoms, roles)
        if counting:
            role = Role(rng.choice(roles), rng.random() < 0.3)
            filler = random_raw_concept(rng, rng.randint(0, 1), atoms, roles)
            goal = conj([goal, AtLeast(rng.randint(2, 3), role, filler)])
        if choice:
            options = [
                AtLeast(1, Role(name, rng.random() < 0.3), random_raw_concept(rng, rng.randint(0, 1), atoms, roles))
                for name in roles
            ]
            goal = conj([goal, disj(options)])
        axiom = TOP if rng.random() < 0.3 else random_raw_concept(rng, rng.randint(1, 2), atoms, roles)
        stop = stops[i % len(stops)]
        budget = _budget_stopping_after(goal, axiom, stop) if stop < 3 else 6_000
        expected = reference_find_model(goal, axiom, max_domain=3, budget=budget)
        assert find_model(goal, axiom, max_domain=3, budget=budget) == expected, (goal, axiom, budget)
        if isinstance(expected, Interpretation):
            outcomes[f"model {expected.domain_size}"] += 1
        else:
            outcomes[f"none {expected.searched_max_domain}"] += 1
    # every stopping point and model size occurs
    assert all(outcomes[f"none {d}"] >= 30 for d in range(4)), outcomes
    assert all(outcomes[f"model {d}"] >= 5 for d in range(1, 4)), outcomes


def test_find_model_returns_first_model_in_candidate_order():
    # several one-element models; the first in candidate order puts A (the
    # lower atom bits) before B and R (the lower role bits) before S
    goal = parse_concept("(and (or A B) (or (atleast 1 R top) (atleast 1 S top)))")
    result = find_model(goal)
    assert result == reference_find_model(goal)
    assert result == interp(1, concepts={"A": {0}, "B": set()}, roles={"R": {(0, 0)}, "S": set()})
    # on two elements a role loop runs over its pair bits (0,0), (0,1), (1,0), (1,1)
    goal = parse_concept("(and A (atleast 1 R (not A)) (atmost 0 (inv S) A))")
    result = find_model(goal)
    assert result == reference_find_model(goal)
    assert result == interp(2, concepts={"A": {0}}, roles={"R": {(0, 1)}, "S": set()})


def random_bounded_concept(rng, depth, n, atoms, roles):
    """Concept whose restrictions have bounds from 0 to n + 1 (at-most from
    -1, which bound adjustment constructs), under negations, junctions and
    other restrictions, with top and bottom among the leaves."""
    if depth <= 0:
        pick = rng.randrange(8)
        if pick < 2:
            return (TOP, BOTTOM)[pick]
        atom = Atom(rng.choice(atoms))
        return atom if pick < 5 else Not(atom)
    pick = rng.randrange(10)
    if pick < 4:
        role = Role(rng.choice(roles), rng.random() < 0.4)
        filler = random_bounded_concept(rng, depth - 1, n, atoms, roles)
        if pick < 2:
            return AtLeast(rng.randint(0, n + 1), role, filler)
        return AtMost(rng.randint(-1, n + 1), role, filler)
    if pick < 6:
        return conj(random_bounded_concept(rng, depth - 1, n, atoms, roles) for _ in range(2))
    if pick < 8:
        return disj(random_bounded_concept(rng, depth - 1, n, atoms, roles) for _ in range(2))
    return Not(random_bounded_concept(rng, depth - 1, n, atoms, roles))


def test_folded_restrictions_keep_the_first_model():
    # bounds reach past each domain size the search completes, so every
    # folding rule fires at sizes 1, 2 and 3; size 3 is searched for one
    # atom and one role only, the inverse included
    rng = random.Random(53)
    outcomes = Counter()
    for i in range(450):
        stop = 1 + i % 3
        atoms, roles = (("A",), ("R",)) if stop == 3 else (("A", "B"), ("R", "S"))
        goal = random_bounded_concept(rng, rng.randint(1, 3), stop, atoms, roles)
        axiom = TOP if rng.random() < 0.4 else random_bounded_concept(rng, rng.randint(1, 2), stop, atoms, roles)
        budget = _budget_stopping_after(goal, axiom, stop)
        expected = reference_find_model(goal, axiom, max_domain=3, budget=budget)
        assert find_model(goal, axiom, max_domain=3, budget=budget) == expected, (goal, axiom, budget)
        if isinstance(expected, Interpretation):
            outcomes[f"model {expected.domain_size}"] += 1
        else:
            outcomes[f"none {expected.searched_max_domain}"] += 1
    assert all(outcomes[f"none {d}"] >= 10 for d in range(1, 4)), outcomes
    assert all(outcomes[f"model {d}"] >= 5 for d in range(1, 4)), outcomes


def test_restriction_beyond_the_domain_folds():
    # at size 2 no element has 3 R-neighbours: the restriction is a
    # constant, so no op waits for the role loop and the goal fails at
    # the atom loop; at size 3 it is counted in R's loop
    goal = parse_concept("(and A (atleast 3 R B))")
    folded = _compile(goal, TOP, ["A", "B"], ["R"], 2)
    assert folded.stages[1] == []
    assert len(folded.goal_parts[0]) == 2 and folded.goal_parts[1] == []
    counted = _compile(goal, TOP, ["A", "B"], ["R"], 3)
    assert [op[0] for op in counted.stages[1]] == [_AT_LEAST]
    assert len(counted.goal_parts[1]) == 1
    assert find_model(goal, max_domain=2) == NoneFound(searched_max_domain=2)
    assert find_model(goal) == reference_find_model(goal)
