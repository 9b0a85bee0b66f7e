import itertools
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import alcqisat
import alcqisat.oracle as oracle
import alcqisat.syntax as syntax
from alcqisat import (
    And,
    AtLeast,
    AtMost,
    Atom,
    BOTTOM,
    ConceptSyntaxError,
    CorpusProfile,
    Interpretation,
    NegAtom,
    Not,
    Or,
    OracleLimitError,
    Role,
    TOP,
    build_problem,
    conj,
    cut_formula,
    cut_table,
    disj,
    evaluate,
    find_model,
    generate_corpus,
    internalize,
    negate,
    parse_concept,
    parse_problem_text,
    to_nnf,
)
from alcqisat.branch import cut_set_for_child
from alcqisat.syntax import signature_of, sorted_signature, walk_concepts
from conftest import (
    _reference_nnf,
    bench_module,
    complement,
    random_interpretation,
    random_raw_concept,
    reference_negate,
    with_named_inverse_cuts,
)

A, B, C = Atom("A"), Atom("B"), Atom("C")
R = Role("R")


def test_parse_atleast():
    assert parse_concept("(atleast 2 R C)") == AtLeast(2, R, C)


def test_parse_not_echoes_structure():
    c = parse_concept("(not (and A B))")
    assert isinstance(c, Not)
    assert c.sub == conj([A, B])


def test_parse_inverse_role():
    assert parse_concept("(atmost 0 (inv R) top)") == AtMost(0, Role("R", True), TOP)


def test_parse_double_inverse_normalizes():
    assert parse_concept("(atleast 1 (inv (inv R)) A)") == AtLeast(1, R, A)


def test_deeply_nested_inverses_parse_without_recursion():
    # far past the recursion limit: an even count of inv is the role itself
    for depth, role in ((3000, Role("R")), (2999, Role("R", True))):
        text = "(atleast 1 " + "(inv " * depth + "R" + ")" * depth + " A)"
        assert parse_concept(text) == AtLeast(1, role, A)


# every way a role can be malformed, with the message and offset each gives
ROLE_ERRORS = {
    "(atleast 1 (inv) A)": "invalid role name ')' (at position 15)",
    "(atleast 1 (foo R) A)": "expected 'inv', found 'foo' (at position 12)",
    "(atleast 1 (inv R A)": "expected ')', found 'A' (at position 18)",
    "(atleast 1 (inv (inv R) A)": "expected ')', found 'A' (at position 24)",
    "(atleast 1 (inv 9R) A)": "invalid role name '9R' (at position 16)",
    "(atleast 1 ) A)": "invalid role name ')' (at position 11)",
    "(atleast 1 (inv": "unexpected end of input (at position 15)",
    "(atleast 1 (inv (inv": "unexpected end of input (at position 20)",
    "(atleast 1 (inv (": "unexpected end of input (at position 17)",
    "(atleast 1 (inv (inv R": "unexpected end of input (at position 22)",
    "(atleast 1 (inv R) A": "unexpected end of input (at position 20)",
    "(atleast 1 ((inv R)) A)": "expected 'inv', found '(' (at position 12)",
    "(atleast 1 (inv (inv R)))": "unexpected ')' (at position 24)",
}


@pytest.mark.parametrize("text", list(ROLE_ERRORS))
def test_role_errors_keep_their_text_and_offset(text):
    with pytest.raises(ConceptSyntaxError) as err:
        parse_concept(text)
    assert str(err.value) == ROLE_ERRORS[text]


def test_parse_top_bottom_names():
    assert parse_concept("top") == TOP
    assert parse_concept("bottom") == BOTTOM
    assert parse_concept("myConcept_1") == Atom("myConcept_1")


# every rejected input, with the character offset its error carries
REJECTED = {
    "(atleast -1 R C)": 9,
    "(atleast --1 R C)": 9,
    "(atleast \u00b2 R C)": 9,
    "(atleast -\u00b2 R C)": 9,
    "(and A)": 1,
    "(foo A B)": 1,
    "(atleast x R C)": 9,
    "(and A B": 8,
    "A B": 2,
    "()": 1,
    "(not)": 4,
    "(atmost 1 2 C)": 10,
}


@pytest.mark.parametrize("text", list(REJECTED))
def test_parse_rejects(text):
    with pytest.raises(ConceptSyntaxError) as err:
        parse_concept(text)
    assert err.value.position == REJECTED[text]


# one malformed text per place the parser raises, with the message and
# offset each gives; a concept nested in another raises at the same token
PARSE_ERRORS = {
    ")": "unexpected ')' (at position 0)",
    "(not)": "unexpected ')' (at position 4)",
    "(and A (not ))": "unexpected ')' (at position 12)",
    "and": "keyword 'and' needs parentheses (at position 0)",
    "(and A not)": "keyword 'not' needs parentheses (at position 7)",
    "inv": "keyword 'inv' needs parentheses (at position 0)",
    "(atleast 1 R atmost)": "keyword 'atmost' needs parentheses (at position 13)",
    "9A": "invalid concept name '9A' (at position 0)",
    "(and A B-C)": "invalid concept name 'B-C' (at position 7)",
    "(atleast 1 R _x)": "invalid concept name '_x' (at position 13)",
    "(foo A B)": "unknown keyword 'foo' (at position 1)",
    "(A B)": "unknown keyword 'A' (at position 1)",
    "(inv R)": "unknown keyword 'inv' (at position 1)",
    "((and A B))": "unknown keyword '(' (at position 1)",
    "(top)": "unknown keyword 'top' (at position 1)",
    "(or A (not (bar B)))": "unknown keyword 'bar' (at position 12)",
    "(not A B)": "expected ')', found 'B' (at position 7)",
    "(atleast 1 R A B)": "expected ')', found 'B' (at position 15)",
    "(atmost 2 R (and A B) C)": "expected ')', found 'C' (at position 22)",
    "(and A (not B C))": "expected ')', found 'C' (at position 14)",
    "(not (not A) (": "expected ')', found '(' (at position 13)",
    "": "unexpected end of input (at position 0)",
    "(": "unexpected end of input (at position 1)",
    "(and": "unexpected end of input (at position 4)",
    "(and A": "unexpected end of input (at position 6)",
    "(not": "unexpected end of input (at position 4)",
    "(not A": "unexpected end of input (at position 6)",
    "(atleast": "unexpected end of input (at position 8)",
    "(atleast 1": "unexpected end of input (at position 10)",
    "(atleast 1 R": "unexpected end of input (at position 12)",
    "(atleast 1 R A": "unexpected end of input (at position 14)",
    "(or A (and B": "unexpected end of input (at position 12)",
    "(and A (atleast 1 R (not B)": "unexpected end of input (at position 27)",
    "(and A)": "'and' needs at least two arguments (at position 1)",
    "(or)": "'or' needs at least two arguments (at position 1)",
    "(and)": "'and' needs at least two arguments (at position 1)",
    "(and A ) B)": "'and' needs at least two arguments (at position 1)",
    "(or (and A B) (or C))": "'or' needs at least two arguments (at position 15)",
    "(and A (or))": "'or' needs at least two arguments (at position 8)",
    "(atleast 1 R (and B))": "'and' needs at least two arguments (at position 14)",
    "A B": "trailing input 'B' (at position 2)",
    "(and A B) C": "trailing input 'C' (at position 10)",
    "(and A B))": "trailing input ')' (at position 9)",
    "top )": "trailing input ')' (at position 4)",
    "(not A) (": "trailing input '(' (at position 8)",
    "(atleast -1 R C)": "number restriction bound must be non-negative (at position 9)",
    "(atmost -0 R C)": "number restriction bound must be non-negative (at position 8)",
    "(atleast x R C)": "expected a non-negative integer, found 'x' (at position 9)",
    "(atleast 1.5 R C)": "expected a non-negative integer, found '1.5' (at position 9)",
    "(atmost \u00b2 R C)": "expected a non-negative integer, found '\u00b2' (at position 8)",
    "(atleast -x R C)": "expected a non-negative integer, found '-x' (at position 9)",
    "(atleast - R C)": "expected a non-negative integer, found '-' (at position 9)",
    "(atleast ( R C)": "expected a non-negative integer, found '(' (at position 9)",
    "(atleast ) R C)": "expected a non-negative integer, found ')' (at position 9)",
    "(and A (atmost x R C))": "expected a non-negative integer, found 'x' (at position 15)",
}


@pytest.mark.parametrize("text", list(PARSE_ERRORS))
def test_each_parse_error_keeps_its_text_and_offset(text):
    with pytest.raises(ConceptSyntaxError) as err:
        parse_concept(text)
    assert str(err.value) == PARSE_ERRORS[text]


def test_a_parse_error_far_past_the_recursion_limit_keeps_its_offset():
    # the parser holds the open concepts on a list: an error 5,000 levels
    # down raises where it is, and the same text one level deep gives
    # the same message
    for depth in (1, 5000):
        text = "(not " * depth + "(and A (foo B))" + ")" * depth
        with pytest.raises(ConceptSyntaxError) as err:
            parse_concept(text)
        assert str(err.value) == f"unknown keyword 'foo' (at position {5 * depth + 8})"


def test_parse_error_carries_position():
    with pytest.raises(ConceptSyntaxError) as err:
        parse_concept("(and A (atleast -3 R B))")
    assert err.value.position == 16


def test_role_inverse_involution():
    assert R.inverse().inverse() == R
    assert R.inverse() == Role("R", True)
    # building the inverse first builds the forward role with it, and each
    # direction holds the other: inverse() returns the interned object
    backward = Role("Q", True)
    forward = Role("Q")
    assert forward.inverse() is backward
    assert backward.inverse() is forward
    assert backward.inverse().inverse() is backward


def test_role_fields_cannot_be_deleted_or_assigned():
    # roles are interned, so a lost field would be lost for every later use
    role = Role("Frozen")
    for name in ("base", "inverted", "_inv"):
        with pytest.raises(AttributeError):
            delattr(role, name)
        with pytest.raises(AttributeError):
            setattr(role, name, None)
    assert Role("Frozen") is role
    assert repr(role) == "Role(base='Frozen', inverted=False)"
    assert (str(role), str(role.inverse())) == ("Frozen", "(inv Frozen)")
    assert role.inverse().inverse() is role


def test_and_or_children_are_canonical():
    assert parse_concept("(and B A)") == parse_concept("(and A B)")
    assert parse_concept("(or B (or A C))") == disj([A, B, C])
    assert parse_concept("(and A A)") == A


def test_nnf_double_negation():
    assert to_nnf(Not(Not(C))) == C


def test_nnf_bound_shifts():
    assert to_nnf(Not(AtLeast(3, R, C))) == AtMost(2, R, C)
    assert to_nnf(Not(AtMost(3, R, C))) == AtLeast(4, R, C)


def test_nnf_atleast_zero_negation_is_bottom():
    # at-least 0 holds everywhere, so its negation collapses instead of
    # producing a negative bound
    assert to_nnf(Not(AtLeast(0, R, C))) == BOTTOM
    assert to_nnf(AtLeast(0, R, C)) == TOP


def test_nnf_keeps_literals():
    assert to_nnf(A) == A
    assert to_nnf(NegAtom("A")) == NegAtom("A")


def test_nnf_de_morgan():
    assert to_nnf(Not(conj([A, B]))) == disj([NegAtom("A"), NegAtom("B")])
    assert to_nnf(Not(disj([A, B]))) == conj([NegAtom("A"), NegAtom("B")])


def test_negate_examples():
    assert negate(conj([A, B])) == disj([NegAtom("A"), NegAtom("B")])
    assert negate(AtMost(3, R, C)) == AtLeast(4, R, C)
    assert negate(TOP) == BOTTOM


def test_nnf_idempotent():
    rng = random.Random(7)
    for _ in range(300):
        c = random_raw_concept(rng, rng.randint(0, 4))
        n = to_nnf(c)
        assert to_nnf(n) == n


def test_negate_is_involution_on_nnf():
    rng = random.Random(11)
    for _ in range(300):
        c = to_nnf(random_raw_concept(rng, rng.randint(0, 4)))
        assert negate(negate(c)) == c
        assert to_nnf(negate(negate(c))) == c


def test_nnf_and_negate_agree_with_semantics():
    rng = random.Random(13)
    for _ in range(200):
        c = random_raw_concept(rng, rng.randint(0, 3))
        interp = random_interpretation(rng)
        n = to_nnf(c)
        for x in range(interp.domain_size):
            assert evaluate(interp, c, x) == evaluate(interp, n, x)
            assert evaluate(interp, negate(n), x) == (not evaluate(interp, n, x))


def test_internalize_empty():
    assert internalize([]) == TOP


def test_internalize_top_lhs_drops_disjunct():
    assert internalize([(TOP, C)]) == to_nnf(C)


def test_internalize_two_axioms():
    g = internalize([(A, B), (B, C)])
    assert g == conj([disj([NegAtom("A"), B]), disj([NegAtom("B"), C])])


def test_cut_table_nested():
    # under an S-restriction, so that a node other than the root holds both
    r_inv = R.inverse()
    inner = AtMost(0, r_inv, A)
    e = AtLeast(1, Role("S"), AtLeast(1, R, inner))
    assert cut_table(e, TOP) == ((R, inner), (r_inv, A))


def test_cut_table_empty():
    assert cut_table(A, TOP) == ()


def test_cut_table_shared_pair():
    e = AtLeast(1, Role("S"), conj([AtLeast(2, R, C), AtMost(1, R, C), AtMost(1, R.inverse(), C)]))
    assert cut_table(e, TOP) == ((R, C), (R.inverse(), C))


def test_cut_formula_shape():
    e = AtLeast(1, Role("S"), conj([AtLeast(2, R, C), AtMost(1, Role("R", True), C)]))
    cuts = build_problem(e).cut_concepts
    assert cuts == {
        disj([AtMost(0, Role("R", True), TOP), C, NegAtom("C")]),
        disj([AtMost(0, R, TOP), C, NegAtom("C")]),
    }


def test_cut_formulae_vacuous():
    assert build_problem(A).cut_concepts == frozenset()


def test_alcq_input_gets_no_cuts():
    # no restriction names an inverse role, so no child ever reads a cut
    goal = parse_concept("(and (atleast 2 R (atmost 1 S A)) (atmost 3 R (not B)))")
    p = build_problem(goal, [(A, parse_concept("(atleast 1 S (or B C))"))])
    assert p.cuts == ()
    assert p.cut_concepts == frozenset()


def test_cut_table_keeps_the_pairs_whose_inverse_role_is_named():
    # R and (inv R) are both named, S only forwards: the pairs on S are
    # dropped, including the one nested under R's filler; the goal sits
    # under an S-restriction, so that a node other than the root holds it
    goal = parse_concept(
        "(atleast 1 S (and (atleast 1 R (atmost 1 S A)) (atmost 2 (inv R) B) (atleast 1 S C)))"
    )
    p = build_problem(goal, [(TOP, parse_concept("(atmost 4 R (not C))"))])
    assert p.cuts == (
        (R, NegAtom("C")),
        (R, AtMost(1, Role("S"), A)),
        (R.inverse(), B),
    )
    assert p.cut_concepts == {cut_formula(role, filler) for role, filler in p.cuts}


def test_cut_formula_guard_uses_inverse_of_inverse():
    s_inv = Role("S", True)
    # under an R-restriction, so that a node other than the root holds both
    e = AtLeast(1, R, conj([AtMost(1, s_inv, Atom("D")), AtLeast(1, Role("S"), TOP)]))
    forward, pair = cut_table(e, TOP)
    assert forward == (Role("S"), TOP)
    assert pair == (s_inv, Atom("D"))
    guard = AtMost(0, s_inv.inverse(), TOP)
    assert guard == AtMost(0, Role("S"), TOP)
    assert cut_formula(*pair) == disj([guard, Atom("D"), NegAtom("D")])


def test_cut_table_drops_the_pairs_only_the_root_holds():
    # the restrictions sit in the goal's own and/or nodes, and no node
    # reads the root's decisions; under an S-filler the root's successors
    # hold them, and their successors read them
    goal = parse_concept("(or (and (atleast 2 R A) (atmost 1 (inv R) B)) (atmost 3 R (not A)))")
    assert cut_table(goal, TOP) == ()
    assert cut_table(AtLeast(1, Role("S"), goal), TOP) == (
        (R, A),
        (R, NegAtom("A")),
        (R.inverse(), B),
    )


def test_cut_table_keeps_the_pairs_held_in_the_axiom_or_a_filler():
    # (inv R, A) is in the axiom and (inv R, B) inside R's filler; the
    # goal's own (R, ...) and (R, C) are held by the root alone
    goal = parse_concept("(and (atleast 1 R (atmost 1 (inv R) B)) (atmost 2 R C))")
    p = build_problem(goal, [(TOP, parse_concept("(atmost 3 (inv R) A)"))])
    assert p.cuts == ((R.inverse(), A), (R.inverse(), B))


def test_cut_table_keeps_the_top_pairs_that_kept_guards_hold():
    # shrunk from generate_corpus seed 32 (default profile) #65: the
    # axiom's pair (R, A) is kept, so its guard (atmost 0 (inv R) top)
    # labels nodes other than the root, and the goal's pair (inv R, top)
    # counts the parent against it; where the goal also holds (atmost 1 R
    # top), that pair's guard (atmost 0 R top) keeps (R, top) in a second
    # round
    pf = parse_problem_text("gci (atmost 0 R A) B\nsat (atmost 0 (inv R) top)\n")
    p = build_problem(pf.query, pf.tbox)
    assert p.cuts == ((R, A), (R.inverse(), TOP))
    assert AtMost(0, R.inverse(), TOP) in cut_formula(R, A).parts
    two_rounds = build_problem(conj([pf.query, AtMost(1, R, TOP)]), pf.tbox)
    assert two_rounds.cuts == ((R, TOP), (R, A), (R.inverse(), TOP))


def test_a_top_pair_stays_in_cuts_without_a_formula():
    # cut_formula(R, top) is (or top bottom (atmost 0 (inv R) top)), which
    # holds in every node, so no label carries it; the pair stays in cuts,
    # since a child reads the decision on it off its parent's branch
    pf = parse_problem_text("gci (atmost 0 R A) B\nsat (atmost 0 (inv R) top)\n")
    p = build_problem(pf.query, pf.tbox)
    assert p.cuts == ((R, A), (R.inverse(), TOP))
    assert p.cut_concepts == {cut_formula(R, A)}
    two_rounds = build_problem(conj([pf.query, AtMost(1, R, TOP)]), pf.tbox)
    assert two_rounds.cuts == ((R, TOP), (R, A), (R.inverse(), TOP))
    assert two_rounds.cut_concepts == {cut_formula(R, A)}
    # any branch decides top: an R-child gets (top, +), an (inv R)-child too
    assert cut_set_for_child(frozenset({B}), R, p.cuts) == {(TOP, True)}
    assert cut_set_for_child(frozenset({B}), R.inverse(), two_rounds.cuts) == {(TOP, True)}


def test_no_counting_instance_gets_a_cut_formula():
    # flat number restrictions in the goal's own and-node: the rule that
    # kept every pair whose inverse role is named gave 1,055 cut formulas
    named_pairs = 0
    for pf in bench_module("corpora").generate("counting"):
        p = build_problem(pf.query, pf.tbox)
        assert p.cuts == () and p.cut_concepts == frozenset()
        named_pairs += len(with_named_inverse_cuts(p).cuts)
    assert named_pairs == 1055


def test_cut_count_bounded_by_distinct_pairs():
    rng = random.Random(17)
    for _ in range(100):
        e = to_nnf(random_raw_concept(rng, 3))
        g = to_nnf(random_raw_concept(rng, 2))
        p = build_problem(e, [(TOP, g)])
        pairs = {
            (c.role, c.filler)
            for c in walk_concepts(p.goal, p.axiom)
            if isinstance(c, (AtMost, AtLeast))
        }
        assert len(p.cut_concepts) <= len(pairs)


def test_round_trip_printing():
    rng = random.Random(19)
    for _ in range(200):
        c = to_nnf(random_raw_concept(rng, rng.randint(0, 4)))
        assert parse_concept(str(c)) == c


def test_build_problem_signature():
    p = build_problem(parse_concept("(and A (atleast 1 R (not B)))"))
    assert signature_of(p.goal, p.axiom) == ({"A", "B"}, {"R"})


def test_find_model_on_a_built_problem_reads_the_names_build_problem_read(monkeypatch):
    # names no other test uses, so that no search has read this pair yet
    goal = parse_concept("(and SigOnce0 (atleast 1 SigOnceR (not SigOnce1)))")
    p = build_problem(goal, [(Atom("SigOnce0"), Atom("SigOnce2"))])

    def no_walk(*concepts):
        raise AssertionError("the model search walked a built problem")

    monkeypatch.setattr(syntax, "signature_of", no_walk)
    model = find_model(p.goal, p.axiom)
    assert isinstance(model, Interpretation)
    assert sorted(model.concept_extensions) == ["SigOnce0", "SigOnce1", "SigOnce2"]
    assert sorted(model.role_extensions) == ["SigOnceR"]


def test_deep_chain_needs_no_recursion():
    # far past the recursion limit: hashing, equality, interning and the
    # walkers all work on the cached fields of each node
    depth = 5000

    def chain():
        c = A
        for _ in range(depth):
            c = AtLeast(1, R, c)
        return c

    c = chain()
    rebuilt = chain()
    assert rebuilt is c
    assert rebuilt == c
    assert hash(rebuilt) == hash(c)
    assert rebuilt in {c}
    assert len(list(walk_concepts(c))) == depth + 1
    assert sum(isinstance(sub, AtLeast) for sub in walk_concepts(c)) == depth
    assert signature_of(c) == (frozenset({"A"}), frozenset({"R"}))


def reference_signature(*concepts):
    """Atom names and role base names, read in one walk over the distinct
    subterms: the reference for signature_of and sorted_signature."""
    atoms, roles = set(), set()
    for c in walk_concepts(*concepts):
        if isinstance(c, (Atom, NegAtom)):
            atoms.add(c.name)
        elif isinstance(c, (AtMost, AtLeast)):
            roles.add(c.role.base)
    return frozenset(atoms), frozenset(roles)


def reference_sorted_signature(*concepts):
    return tuple(tuple(sorted(names)) for names in reference_signature(*concepts))


def test_node_signatures_match_the_walk_on_the_corpora():
    corpora = bench_module("corpora")
    kinds = set()
    for workload in ("oracle", "deep", "counting"):
        for pf in corpora.generate(workload):
            problem = build_problem(pf.query, pf.tbox)
            raw = [pf.query, *(c for gci in pf.tbox for c in gci)]
            for sub in walk_concepts(*raw, problem.goal, problem.axiom, *problem.cut_concepts):
                assert signature_of(sub) == reference_signature(sub)
                kinds.add(type(sub))
                if isinstance(sub, (AtMost, AtLeast)):
                    kinds.add(sub.role.inverted)
            goal, axiom = problem.goal, problem.axiom
            assert signature_of(goal, axiom) == reference_signature(goal, axiom)
            assert sorted_signature(goal, axiom) == reference_sorted_signature(goal, axiom)
    # raw negation, top, bottom and inverse roles all occur
    assert {Not, type(TOP), type(BOTTOM), True, False} <= kinds


def wide_goals():
    """Goals naming nine atoms or nine roles."""
    atoms = [Atom(f"Wide{i}") for i in range(9)]
    roles = [Role(f"WideR{i}") for i in range(9)]
    chain = atoms[0]
    for role in roles:
        chain = AtLeast(1, role, chain)
    return [
        conj(atoms),  # a model at size 1
        conj([*atoms, AtLeast(2, roles[0], TOP)]),  # needs two elements
        disj([conj(atoms[:2]), conj([NegAtom(a.name) for a in atoms])]),
        chain,
        Not(conj(atoms)),
    ]


def test_find_model_on_a_wide_goal_reads_what_the_walk_reads(monkeypatch):
    cases = []
    for goal in wide_goals():
        for axiom in (TOP, disj([NegAtom("Wide0"), Atom("Wide1")])):
            for limits in ({}, {"max_atoms": 9, "max_roles": 9}):
                cases.append((goal, axiom, limits))

    def outcomes():
        out = []
        for goal, axiom, limits in cases:
            try:
                out.append(find_model(goal, axiom, max_domain=2, budget=1 << 14, **limits))
            except OracleLimitError as exc:
                out.append(str(exc))
        return out

    got = outcomes()
    monkeypatch.setattr(oracle, "sorted_signature", reference_sorted_signature)
    assert got == outcomes()
    # models, searches cut by the budget and refusals all occur
    assert {type(o) for o in got} == {Interpretation, oracle.NoneFound, str}


GROWTH_SCRIPT = r"""
import resource, tracemalloc
# a signature that keeps every name below it needs gigabytes here: fail
# with MemoryError rather than take the machine's memory
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from alcqisat import Atom, conj, disj

def chain(depth):
    # test_branch's or/and chain, with names no other chain shares
    tag = f"G{depth}_"
    c = Atom(tag + "base")
    for i in range(depth):
        c = disj([conj([Atom(f"{tag}A{i}"), c]), conj([Atom(f"{tag}B{i}"), Atom(f"{tag}C{i}")])])
    return c

peaks = []
for depth in (500, 5000):
    tracemalloc.start()
    chain(depth)
    peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
print(peaks[1] / peaks[0])
"""


def test_a_chain_of_distinct_names_costs_memory_linear_in_its_depth():
    # ten times the depth: linear growth reads about 10x, a name set kept
    # whole on every node about 100x.  In a process of its own, so that
    # no earlier test's nodes or table sizes enter the peaks.
    src = Path(alcqisat.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", GROWTH_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 15


def test_interning_is_atomic_across_threads():
    # 4 threads build the same fresh atoms, negated atoms and roles, two in
    # one order and two in the other, with a thread switch as often as the
    # interpreter allows: each key is one object in every thread, and each
    # atom is linked to its negation however the builds interleave
    count = 10_000
    start = threading.Barrier(4)
    built = [None] * 4

    def build(slot):
        start.wait()
        out = []
        for i in range(count):
            name = f"Intern{i}"
            if slot % 2:
                out += (Atom(name), NegAtom(name), Role(f"InternR{i}", True))
            else:
                out += (NegAtom(name), Atom(name), Role(f"InternR{i}"))
        built[slot] = out

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    unlinked, twice = [], []
    for i in range(count):
        atom, neg, role = Atom(f"Intern{i}"), NegAtom(f"Intern{i}"), Role(f"InternR{i}")
        if not (atom._neg is neg and neg._neg is atom and role.inverse() is Role(f"InternR{i}", True)):
            unlinked.append(i)
        expected = [(neg, atom, role), (atom, neg, role.inverse())]
        if any(not all(x is y for x, y in zip(out[3 * i:3 * i + 3], expected[slot % 2]))
               for slot, out in enumerate(built)):
            twice.append(i)
    assert (unlinked, twice) == ([], [])


def corpus_files():
    """The acceptance corpus and the deep profile's."""
    deep = CorpusProfile(max_depth=5, max_bound=5, max_roles=3, max_atoms=4, max_gcis=3)
    return generate_corpus(seed=20260809, count=200) + generate_corpus(
        seed=7, count=150, profile=deep
    )


def corpus_concepts():
    for pf in corpus_files():
        problem = build_problem(pf.query, pf.tbox)
        yield from (pf.query, problem.goal, problem.axiom)
        for lhs, rhs in pf.tbox:
            yield from (lhs, rhs)


def test_equal_concepts_are_one_object():
    for c in corpus_concepts():
        assert parse_concept(str(c)) is c
        n = to_nnf(c)
        assert to_nnf(n) is n
        assert negate(negate(n)) is n


def test_to_nnf_is_the_reference_nnf():
    # every subterm of random concepts over names fresh to each seed, so
    # the Not nodes inside them are built before their sub's negation;
    # then a Not node over every subterm, built after its sub's negation
    for seed in range(40):
        rng = random.Random(seed)
        atoms = tuple(f"Nnf{seed}{name}" for name in "ABC")
        c = random_raw_concept(rng, 4, atoms)
        for sub in walk_concepts(c):
            assert to_nnf(sub) is _reference_nnf(sub), sub
        negated = [negate(to_nnf(sub)) for sub in walk_concepts(c)]
        for sub, neg in zip(walk_concepts(c), negated):
            assert to_nnf(Not(sub)) is neg is _reference_nnf(Not(sub)), sub


def test_nnf_keeps_nnf_nodes():
    # to_nnf returns a node already in NNF itself, at every depth
    for pf in corpus_files():
        problem = build_problem(pf.query, pf.tbox)
        for c in walk_concepts(problem.goal, problem.axiom):
            assert to_nnf(c) is c


def test_cached_negation_is_the_structural_one():
    for c in corpus_concepts():
        for sub in walk_concepts(c, to_nnf(c)):
            neg = negate(sub)
            assert neg is reference_negate(sub)
            assert sub._neg is neg
            assert negate(sub) is neg


def test_negation_cache_points_one_way():
    # negate is not an involution off NNF: the cache must not assume it
    assert negate(Not(A)) is A
    assert negate(A) is NegAtom("A")
    assert Not(A)._neg is A and A._neg is NegAtom("A")
    at_least_zero = AtLeast(0, R, A)
    assert negate(at_least_zero) is BOTTOM
    assert negate(BOTTOM) is TOP


def test_complement_never_builds():
    # names no other test builds, so every negation starts unbuilt; a
    # node's negation is linked when the later of the two is built, and
    # neither the link nor the reference lookup builds a node
    x, y = Atom("ComplementX"), Atom("ComplementY")
    at_least, at_most = AtLeast(2, R, x), AtMost(1, R, y)
    junction = conj([x, disj([y, at_least])])
    literals = (x, y, at_least, at_most)
    for c in literals + (junction,):
        size = len(syntax._NODES)
        assert complement(c) is None
        assert len(syntax._NODES) == size
        assert c._neg is None
    for c in literals:
        size = len(syntax._NODES)
        neg = negate(c)
        assert len(syntax._NODES) == size + 1
        assert c._neg is neg and neg._neg is c
        assert complement(c) is neg
        assert complement(neg) is c
    # at-least 0 negates to bottom, which is always built
    assert AtLeast(0, R, x)._neg is BOTTOM
    assert complement(AtLeast(0, R, x)) is BOTTOM
    # every part's negation is built, the or-node over them is not
    inner = disj([y, at_least])
    assert complement(inner) is None and complement(junction) is None
    assert inner._neg is None and junction._neg is None
    # built by hand, not by negate: building the and-node and the or-node
    # over it links both to the nodes they negate, and builds nothing else
    size = len(syntax._NODES)
    built = disj([NegAtom("ComplementX"), conj([negate(y), negate(at_least)])])
    assert len(syntax._NODES) == size + 2
    assert junction._neg is built and built._neg is junction
    assert inner._neg is built.parts[1]
    assert complement(junction) is built
    assert negate(junction) is built


# NNF recipes over atom names A-C, built under a prefix fresh to each
# example: ("atom", name, positive), ("top",), ("bottom",), ("and" or
# "or", parts) and ("atleast" or "atmost", bound, role, filler), with no
# at-least 0, which is not NNF
LINK_LEAVES = st.one_of(
    st.tuples(st.just("atom"), st.sampled_from("ABC"), st.booleans()),
    st.sampled_from([("top",), ("bottom",)]),
)
LINK_ROLES = st.sampled_from([R, R.inverse(), Role("S")])


def _link_compound(parts):
    return st.one_of(
        st.tuples(st.sampled_from(["and", "or"]), st.lists(parts, min_size=1, max_size=3)),
        st.tuples(st.just("atleast"), st.integers(1, 2), LINK_ROLES, parts),
        st.tuples(st.just("atmost"), st.integers(0, 2), LINK_ROLES, parts),
    )


LINK_RECIPES = st.recursive(LINK_LEAVES, _link_compound, max_leaves=8)
_LINK_EXAMPLES = itertools.count()


def _build(recipe, prefix):
    head = recipe[0]
    if head == "atom":
        return (Atom if recipe[2] else NegAtom)(prefix + recipe[1])
    if head == "top" or head == "bottom":
        return TOP if head == "top" else BOTTOM
    if head == "and" or head == "or":
        return (conj if head == "and" else disj)([_build(p, prefix) for p in recipe[1]])
    bound, role, filler = recipe[1:]
    return (AtLeast if head == "atleast" else AtMost)(bound, role, _build(filler, prefix))


def _dual(recipe):
    """The recipe of the negation: built from it, without the concept."""
    head = recipe[0]
    if head == "atom":
        return ("atom", recipe[1], not recipe[2])
    if head == "top" or head == "bottom":
        return ("bottom",) if head == "top" else ("top",)
    if head == "and" or head == "or":
        return ("or" if head == "and" else "and", [_dual(p) for p in recipe[1]])
    bound, role, filler = recipe[1:]
    if head == "atleast":
        return ("atmost", bound - 1, role, filler)
    return ("atleast", bound + 1, role, filler)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.tuples(LINK_RECIPES, st.sampled_from(["concept", "concept first", "negation first", "negate"])),
                min_size=1, max_size=6))
def test_every_node_links_the_negation_built(steps):
    # each step builds a concept, the concept and then its negation, the
    # negation and then the concept (from the dual recipe, never through
    # negate), or the concept and negate's answer; after every build, each
    # node built so far holds the negation the reference finds, or None
    prefix = f"Link{next(_LINK_EXAMPLES)}"
    built = []

    def check(c):
        built.append(c)
        for node in walk_concepts(*built):
            assert node._neg is complement(node), node

    for recipe, how in steps:
        if how == "negation first":
            check(_build(_dual(recipe), prefix))
        c = _build(recipe, prefix)
        check(c)
        if how == "concept first":
            neg = _build(_dual(recipe), prefix)
            check(neg)
            assert c._neg is neg and neg._neg is c
        elif how == "negate":
            neg = negate(c)
            assert neg is reference_negate(c)
            check(neg)
        elif how == "negation first":
            assert c._neg is _build(_dual(recipe), prefix)


def occurrences(c):
    """Every node of c's AST in preorder, a repeated subterm once per
    occurrence: the reference for walk_concepts' order."""
    yield c
    if isinstance(c, (And, Or)):
        for p in c.parts:
            yield from occurrences(p)
    elif isinstance(c, (AtMost, AtLeast)):
        yield from occurrences(c.filler)
    elif isinstance(c, Not):
        yield from occurrences(c.sub)


def shared_dag(levels):
    """A concept whose every level names the level below twice: 3 distinct
    nodes per level over A and B, while the occurrences double per level."""
    c = A
    for _ in range(levels):
        c = disj([AtLeast(1, R, c), conj([B, c])])
    return c


def test_walk_yields_each_distinct_node_once_in_preorder():
    # the first occurrence of each node, in the order of the occurrences
    assert list(walk_concepts(conj([A, AtLeast(1, R, A)]))) == [conj([A, AtLeast(1, R, A)]), A, AtLeast(1, R, A)]
    rng = random.Random(67)
    for _ in range(300):
        c, d = random_raw_concept(rng, 3), random_raw_concept(rng, 2)
        expected = list(dict.fromkeys([*occurrences(c), *occurrences(d)]))
        assert list(walk_concepts(c, d)) == expected, (c, d)
    dag = shared_dag(20)
    nodes = list(walk_concepts(dag))
    assert len(nodes) == len(set(nodes)) == 62
    assert nodes[0] is dag


DAG_SCRIPT = r"""
from alcqisat import AtLeast, Atom, Interpretation, Not, Role, Tableau, build_problem, conj, disj
from alcqisat import cut_table, find_model, negate, to_nnf
from alcqisat.branch import cut_set_for_child
from alcqisat.syntax import signature_of, walk_concepts

R, B = Role("R"), Atom("B")
c = Atom("A")
for _ in range(40):
    c = disj([AtLeast(1, R, c), conj([B, c])])
assert len(list(walk_concepts(c))) == 122
assert signature_of(c) == ({"A", "B"}, {"R"})
assert cut_table(c, c) == ()
assert to_nnf(Not(c)) is negate(c)
problem = build_problem(c)
assert problem.goal is c  # already in NNF: the same object
assert Tableau(problem).decide().satisfiable
assert isinstance(find_model(problem.goal, problem.axiom, max_domain=1), Interpretation)
print("ok")
"""


def test_a_shared_dag_costs_its_distinct_nodes():
    # 122 distinct nodes, about 2**40 occurrences: each step must visit a
    # node once, or the run hangs, so it runs in a process of its own
    src = Path(alcqisat.__file__).resolve().parents[1]
    try:
        proc = subprocess.run(
            [sys.executable, "-c", DAG_SCRIPT],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("a 40-level shared DAG did not finish in 60 s")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
