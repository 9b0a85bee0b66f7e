import hashlib
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
    cut_formula,
    disj,
    evaluate,
    find_model,
    generate_corpus,
    parse_concept,
    to_nnf,
)
import alcqisat.oracle as oracle
from alcqisat.oracle import _AT_LEAST, _compile, _materialize, _one_element, _passing
from alcqisat.syntax import BOTTOM, Not, signature_of, walk_concepts
from conftest import (
    bench_module,
    random_interpretation,
    random_raw_concept,
    reference_find_model,
    restriction_pairs,
)

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
    # cut formulas are valid, so any model extends to them without change;
    # checked for every (role, filler) pair, not only those cut_table keeps
    rng = random.Random(23)
    checked = formulas = 0
    for _ in range(40):
        problem = build_problem(random_raw_concept(rng, rng.randint(0, 2), atoms=("A", "B"), roles=("R",)))
        result = find_model(problem.goal, problem.axiom)
        if not isinstance(result, Interpretation):
            continue
        checked += 1
        every_cut = {cut_formula(*p) for p in restriction_pairs(problem.goal, problem.axiom)}
        assert problem.cut_concepts <= every_cut
        for cf in every_cut:
            formulas += 1
            for x in range(result.domain_size):
                assert evaluate(result, cf, x)
    assert checked > 5 and formulas > 0


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
    assert set(folded.depths) == {0}
    assert [folded.depths[slot] for slot in folded.goal_parts[0]] == [0, 0]
    counted = _compile(goal, TOP, ["A", "B"], ["R"], 3)
    assert [op[0] for op in counted.stages[1]] == [_AT_LEAST]
    assert len(counted.goal_parts[1]) == 1
    assert find_model(goal, max_domain=2) == NoneFound(searched_max_domain=2)
    assert find_model(goal) == reference_find_model(goal)


def test_equal_subterms_share_one_slot():
    # both occurrences of (atleast 1 R A) are one hash-consed node, so the
    # compile emits one op for them
    goal = parse_concept("(and (atleast 1 R A) (or B (atleast 1 R A)))")
    program = _compile(goal, TOP, ["A", "B"], ["R"], 2)
    codes = [op[0] for stage in program.stages for op in stage]
    assert codes.count(_AT_LEAST) == 1


def test_find_model_on_a_600_deep_chain():
    # at size 1 the search reads the chain in one recursive pass, one frame
    # per level, so a chain this deep stays under the default recursion
    # limit, and so does evaluate
    chain = A
    for _ in range(600):
        chain = AtLeast(1, R, chain)
    model = find_model(chain, max_domain=1)
    assert model == interp(1, concepts={"A": {0}}, roles={"R": {(0, 0)}})
    assert evaluate(model, chain, 0)


def test_find_model_refuses_a_5000_deep_chain():
    # the size-1 pass recurses once per level, past the default recursion
    # limit here: a refusal, not a RecursionError
    chain = A
    for _ in range(5000):
        chain = AtLeast(1, R, chain)
    with pytest.raises(OracleLimitError, match="nesting too deep"):
        find_model(chain, max_domain=1)


def test_evaluate_on_a_600_deep_chain():
    # 200 rounds of (atleast 1 R (and B (or C ...))), 600 nodes deep: a
    # junction or a count costs evaluate one frame per level
    chain = A
    for _ in range(200):
        chain = AtLeast(1, R, conj([Atom("B"), disj([Atom("C"), chain])]))
    loop = {"R": {(0, 0)}}
    assert evaluate(interp(1, concepts={"A": {0}, "B": {0}}, roles=loop), chain, 0)
    assert not evaluate(interp(1, concepts={"B": {0}}, roles=loop), chain, 0)
    assert not evaluate(interp(1, concepts={"A": {0}}, roles=loop), chain, 0)


def test_block_extensions_match_evaluate():
    # the goal's extension over the innermost block, under random candidates
    # of the outer blocks, holds at element x of candidate c exactly when
    # evaluate says the goal holds at x in that candidate's interpretation
    rng = random.Random(61)
    # at size 3 the at-least over (inv R1) sits in role 0's block, since its
    # filler counts over R0, and counts over R1, whose mask an outer block fixes
    nested = parse_concept("(atleast 2 (inv R1) (atleast 3 (inv R0) (or A0 (atmost 1 R0 A1))))")
    cases = [(nested, 3, ("A0", "A1"), ("R0", "R1"))] * 20
    for i in range(300):
        n = 1 + i % 3
        atoms, roles = (("A", "B"), ("R", "S")) if n < 3 else (("A",), ("R", "S"))
        cases.append((random_bounded_concept(rng, rng.randint(1, 3), n, atoms, roles), n, atoms, roles))
    blocks = Counter()
    for goal, n, atoms, roles in cases:
        program = _compile(goal, TOP, list(atoms), list(roles), n)
        chunk = (1 << n) - 1
        ext, index, meet = [0] * len(program.depths), 0, chunk
        for b, (offset, _, full, _, _) in enumerate(program.shapes):
            _, meet, wide = _passing(program, b, n, ext, index, meet)
            count = full.bit_length() // n
            if b + 1 < len(program.shapes):
                c = rng.randrange(count)
                for op in program.stages[b]:
                    ext[op[1]] = wide[op[1]] >> c * n & chunk
                meet, index = meet >> c * n & chunk, index | c << offset
        blocks[n, len(program.shapes)] += 1
        for c in range(count) if count <= 64 else rng.sample(range(count), 64):
            interp = _materialize(n, list(atoms), list(roles), index | c << offset)
            for x in range(n):
                assert (meet >> (c * n + x)) & 1 == evaluate(interp, goal, x), (goal, n, index, c, x)
    # one block at size 1; at size 2 the atom loop outside the two role
    # loops, and at size 3 one block per loop
    assert set(blocks) == {(1, 1), (2, 2), (3, 3)}, blocks


def test_size_one_extensions_match_evaluate():
    # bit c of a concept's size-1 extension is set exactly when evaluate
    # says the concept holds at the one element of candidate c, for every
    # candidate: on random concepts, and on every subterm of the acceptance
    # corpus's goals and axioms
    rng = random.Random(67)
    cases = [(random_bounded_concept(rng, rng.randint(1, 3), 1, ("A", "B"), ("R", "S")),) for _ in range(300)]
    for pf in generate_corpus(seed=20260809, count=200):
        problem = build_problem(pf.query, pf.tbox)
        cases.append(tuple(walk_concepts(problem.goal, problem.axiom)))
    seen = Counter()
    for concepts in cases:
        atoms, roles = (sorted(names) for names in signature_of(*concepts))
        extension = _one_element(atoms, roles)
        models = [_materialize(1, atoms, roles, c) for c in range(1 << len(atoms) + len(roles))]
        for concept in walk_concepts(*concepts):
            ext = extension(concept)
            assert ext >> len(models) == 0
            for c, model in enumerate(models):
                assert (ext >> c) & 1 == evaluate(model, concept, 0), (concept, c)
            kind = type(concept)
            seen[kind.__name__] += 1
            if kind is AtMost and concept.bound < 0:
                seen["at-most -1"] += 1
            if kind in (AtMost, AtLeast) and concept.role.inverted:
                seen["inverse"] += 1
    assert all(seen[k] for k in ("at-most -1", "inverse", "Not", "Top", "Bottom", "AtLeast", "Or")), seen


def test_size_one_compiles_no_program(monkeypatch):
    # size 1 is read by the recursive pass alone: on the oracle corpus at
    # max_domain=2, every compile is for size 2
    sizes = Counter()

    def counted_compile(goal, axiom, atom_list, role_list, n):
        sizes[n] += 1
        return _compile(goal, axiom, atom_list, role_list, n)

    monkeypatch.setattr(oracle, "_compile", counted_compile)
    outcomes = Counter()
    for pf in generate_corpus(seed=20260809, count=200):
        problem = build_problem(pf.query, pf.tbox)
        result = find_model(problem.goal, problem.axiom, max_domain=2)
        outcomes[result.domain_size if isinstance(result, Interpretation) else "none"] += 1
    assert set(sizes) == {2} and sizes[2] == 200 - outcomes[1], (sizes, outcomes)


def test_lifted_budget_decides_size_3_where_the_default_stops():
    # the default budget stops these acceptance instances at size 2 (2**21
    # to 2**27 size-3 candidates); without it the sweep finishes size 3:
    # a model, which evaluate checks, where the engine says SAT, and none
    # where it says UNSAT
    corpus = generate_corpus(seed=20260809, count=200)
    unsat = {23, 66, 83, 183}
    for i in (23, 66, 75, 80, 83, 88, 99, 129, 144, 151, 168, 183, 195):
        problem = build_problem(corpus[i].query, corpus[i].tbox)
        assert find_model(problem.goal, problem.axiom) == NoneFound(searched_max_domain=2), i
        result = find_model(problem.goal, problem.axiom, max_domain=3, budget=10**12)
        if i in unsat:
            assert result == NoneFound(searched_max_domain=3), i
        else:
            assert isinstance(result, Interpretation) and result.domain_size == 3, i
            assert all(evaluate(result, problem.axiom, x) for x in range(3)), i
            assert any(evaluate(result, problem.goal, x) for x in range(3)), i


# sha256 over every result of test_find_model_answers_are_pinned, computed
# with the per-occurrence signature walk and the extensions built bit by bit
FIND_MODEL_DIGEST = "e8625b4fe993c98ae65096310370773a35c57b6aad83fc80c6d549ed4397387a"


def test_find_model_answers_are_pinned():
    # the three bench corpora and five generated ones, each searched to
    # sizes 1, 2 and 3: a model's dump, a NoneFound size or a refusal
    corpora = bench_module("corpora")
    files = [pf for workload in ("oracle", "deep", "counting") for pf in corpora.generate(workload)]
    files += [pf for seed in range(1, 6) for pf in generate_corpus(seed=seed, count=150)]
    digest, outcomes = hashlib.sha256(), Counter()
    for pf in files:
        problem = build_problem(pf.query, pf.tbox)
        for max_domain in 1, 2, 3:
            try:
                result = find_model(problem.goal, problem.axiom, max_domain=max_domain)
            except OracleLimitError as exc:
                text = f"refused: {exc}"
            else:
                text = result.dump() if isinstance(result, Interpretation) else f"none {result.searched_max_domain}"
            digest.update(text.encode() + b"\0")
            outcomes[text.split()[0]] += 1
    assert sum(outcomes.values()) == 4200
    assert set(outcomes) == {"domain:", "none", "refused:"}, outcomes
    assert digest.hexdigest() == FIND_MODEL_DIGEST


def plain_materialize(n, atom_list, role_list, index):
    """The candidate with the given index, each extension built from its
    bits one by one: the reference for `_materialize`'s tables."""
    concepts, roles = {}, {}
    for i, name in enumerate(atom_list):
        bits = index >> (n * n * len(role_list) + i * n)
        concepts[name] = frozenset([x for x in range(n) if bits >> x & 1])
    for k, name in enumerate(role_list):
        bits = index >> (k * n * n)
        roles[name] = frozenset([(x, y) for x in range(n) for y in range(n) if bits >> (x * n + y) & 1])
    return Interpretation(domain_size=n, concept_extensions=concepts, role_extensions=roles)


def test_materialize_matches_the_plain_construction():
    # every atom mask and role mask at sizes 1 to 3; the second atom and
    # role take the complements, so each mask is also read above the first
    atom_list, role_list = ["A", "B"], ["R", "S"]
    for n in 1, 2, 3:
        chunk, square = (1 << n) - 1, (1 << n * n) - 1
        for atoms in range(chunk + 1):
            for roles in range(square + 1):
                index = roles | (roles ^ square) << n * n | (atoms | (atoms ^ chunk) << n) << 2 * n * n
                assert _materialize(n, atom_list, role_list, index) == plain_materialize(
                    n, atom_list, role_list, index
                ), (n, atoms, roles)
