import hashlib
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import alcqisat
import alcqisat.engine as engine
import alcqisat.syntax as syntax
from alcqisat import (
    AtLeast,
    AtMost,
    Atom,
    BOTTOM,
    CorpusProfile,
    EMPTY_CUT_SET,
    Interpretation,
    Limits,
    NegAtom,
    NogoodStore,
    NogoodTriple,
    Not,
    Problem,
    ResourceLimitError,
    Role,
    RunStats,
    SolverLimitError,
    TOP,
    Tableau,
    atomic_decomposition,
    build_problem,
    closed_form,
    conj,
    decide,
    disj,
    find_model,
    generate_corpus,
    parse_concept,
    parse_problem_text,
    primitive_clash,
)
from alcqisat.syntax import walk_concepts
from conftest import (
    assert_nogoods_are_new,
    bench_module,
    closed_form_agrees,
    with_every_cut,
    with_named_inverse_cuts,
)
from families import chain_with_inverse
from metamorphic import HAND_MADE

A, B = Atom("A"), Atom("B")
R = Role("R")


def decide_text(text, tbox=(), **kw):
    problem = build_problem(parse_concept(text), tbox)
    return decide(problem, **kw)


def test_plain_atom_is_satisfiable():
    v = decide_text("A")
    assert v.satisfiable
    assert v.stats.restarts == 0


def test_contradiction_is_unsatisfiable():
    v = decide_text("(and A (not A))")
    assert not v.satisfiable


def test_parent_counts_against_child_bound():
    # the tree parent satisfies A, so the child's zero bound over the back
    # edge is already exceeded
    v = decide_text("(and A (atleast 1 R (atmost 0 (inv R) A)))")
    assert not v.satisfiable


def test_guarded_child_without_forced_parent_is_satisfiable():
    v = decide_text("(atleast 1 R (atmost 0 (inv R) A))")
    assert v.satisfiable


@pytest.mark.parametrize(
    "text,want",
    [
        ("(and (atleast 2 R C) (atmost 1 R top))", False),
        ("(and (atleast 2 R A) (atleast 2 R B) (atmost 2 R top))", True),
        ("(and (atleast 2 R A) (atleast 2 R (not A)) (atmost 3 R top))", False),
        ("(or A (and B (not B)))", True),
        ("(atmost 0 R A)", True),
        ("(and (atleast 1 R A) (atmost 0 R top))", False),
        ("(and (atleast 2 R (or A B)) (atmost 1 R A) (atmost 1 R B))", True),
        ("(and (atleast 3 R (or A B)) (atmost 1 R A) (atmost 1 R B))", False),
    ],
)
def test_verdicts(text, want):
    assert decide_text(text).satisfiable == want


def test_axioms_constrain_every_node():
    v = decide_text("A", tbox=[(Atom("A"), Atom("B")), (Atom("B"), NegAtom("A"))])
    assert not v.satisfiable


def test_cyclic_axiom_terminates_by_blocking():
    trace = []
    v = decide_text(
        "A",
        tbox=[(TOP, parse_concept("(atleast 1 R top)"))],
        trace=trace.append,
    )
    assert v.satisfiable
    assert any(line.startswith("BLOCKED") for line in trace)
    assert v.stats.nodes < 50


def test_pb_rule_skips_cached_branches():
    problem = build_problem(parse_concept("(or A B)"))
    tableau = Tableau(problem, trace=None)
    tableau.nogoods.add(NogoodTriple(EMPTY_CUT_SET, None, frozenset({A})))
    v = tableau.decide()
    assert v.satisfiable
    # the only surviving branch is {B}
    trace = []
    tableau2 = Tableau(build_problem(parse_concept("(or A B)")), trace=trace.append)
    tableau2.nogoods.add(NogoodTriple(EMPTY_CUT_SET, None, frozenset({A})))
    tableau2.decide()
    assert "PB node=0 branch=1" in trace


def test_seeded_root_nogood_gives_unsat():
    problem = build_problem(parse_concept("A"))
    tableau = Tableau(problem)
    tableau.nogoods.add(NogoodTriple(EMPTY_CUT_SET, None, frozenset({A})))
    assert not tableau.decide().satisfiable


def test_nogood_store_subset_hit():
    store = NogoodStore()
    store.add(NogoodTriple(EMPTY_CUT_SET, None, frozenset({A, NegAtom("A")})))
    assert store.hit(EMPTY_CUT_SET, None, frozenset({A, NegAtom("A"), B})) is not None
    assert store.hit(EMPTY_CUT_SET, None, frozenset({A, B})) is None


def test_nogood_store_context_mismatch():
    store = NogoodStore()
    cut = frozenset({(R, A, True)})
    store.add(NogoodTriple(cut, R, frozenset({B})))
    assert store.hit(cut, Role("S"), frozenset({B})) is None
    assert store.hit(frozenset({(R, A, False)}), R, frozenset({B})) is None
    assert store.hit(cut, R, frozenset({B, A})) is not None
    # context-keyed triples never answer the unconditional query
    assert store.hit(EMPTY_CUT_SET, None, frozenset({B})) is None


def test_nogood_store_empty():
    store = NogoodStore()
    assert store.hit(EMPTY_CUT_SET, None, frozenset({A})) is None


def test_nogood_store_idempotent_add():
    store = NogoodStore()
    t = NogoodTriple(EMPTY_CUT_SET, None, frozenset({A}))
    assert store.add(t) is True
    assert store.add(t) is False
    assert len(store) == 1


def test_wildcard_matches_any_context():
    store = NogoodStore()
    store.add(NogoodTriple(EMPTY_CUT_SET, None, frozenset({A})))
    cut = frozenset({(R, B, True)})
    assert store.hit(cut, R, frozenset({A, B})) is not None


def test_verdicts_and_stats_deterministic():
    rng = random.Random(59)
    for pf in generate_corpus(seed=3, count=15):
        p1 = build_problem(pf.query, pf.tbox)
        p2 = build_problem(pf.query, pf.tbox)
        assert decide(p1) == decide(p2)


def test_infeasible_system_with_a_stored_body_fails_the_branch(monkeypatch):
    # a context-zeroed system stores its body with the filler decisions; a
    # compound decision such as (or top A) is in no branch, so the walk's
    # wildcard checks on later branches miss that nogood.  The role reads
    # the decisions off the branch and fails on the stored body without
    # building its system again, and the next branch is tried
    outcomes = []
    apply_lii = engine.Tableau._apply_lii

    def counted(self, *args):
        outcomes.append((yield from apply_lii(self, *args)))
        return outcomes[-1]

    monkeypatch.setattr(engine.Tableau, "_apply_lii", counted)
    # the inputs sit under an S-restriction: only a node other than the
    # root decides the pair (R, (atmost 0 (inv R) ...)) that R's children read.
    # Two systems are infeasible, node 1's first branch's and the root's;
    # each other False is a branch of node 1 failed on the stored body
    # without a solve
    v = decide_text("(atleast 1 S (atleast 2 R (atmost 0 (inv R) (or top A))))")
    assert not v.satisfiable
    assert outcomes.count(False) == 10
    assert (v.stats.nodes, v.stats.lii_solves, v.stats.nogoods) == (3, 4, 4)
    # an atomic filler's decision, here top, is in no branch either.  The
    # pair ((inv R), top) gets no cut formula, since (or top bottom (atmost
    # 0 R top)) is a tautology, so node 1's walk yields no branch with the
    # guard (atmost 0 R top) after the one with top fails
    outcomes.clear()
    v = decide_text("(atleast 1 S (atleast 2 R (atmost 0 (inv R) top)))")
    assert not v.satisfiable
    assert outcomes.count(False) == 3
    assert (v.stats.nodes, v.stats.lii_solves, v.stats.nogoods) == (3, 4, 4)


def _decide_traced(text, limits=None):
    trace = []
    tableau = Tableau(build_problem(parse_concept(text)), limits, trace=trace.append)
    try:
        tableau.decide()
    except ResourceLimitError:
        assert limits is not None
    return tableau, trace


def test_restarts_bounded_by_nogoods():
    # a run builds one tree: it never restarts, and every failure it stores
    # is new, one NOGOOD line each
    for text in [
        "(and A (not A))",
        "(and (atleast 2 R C) (atmost 1 R top))",
        "(and A (atleast 1 R (atmost 0 (inv R) A)))",
    ]:
        tableau, trace = _decide_traced(text)
        assert_nogoods_are_new(tableau, trace)


def test_restarts_equal_nogoods_on_the_acceptance_corpus():
    # no restart on any of them, and a run stopped at the store's capacity
    # keeps its stored nogoods new as well
    stopped = 0
    for pf in generate_corpus(seed=20260809, count=200):
        trace = []
        tableau = Tableau(build_problem(pf.query, pf.tbox), Limits(nogood_capacity=250), trace=trace.append)
        try:
            tableau.decide()
        except ResourceLimitError:
            stopped += 1
        assert_nogoods_are_new(tableau, trace)
    assert stopped < 200


def test_new_nogood_between_restarts():
    # the failed child's label is stored once, mid-tree, and no RESTART line
    # follows it: the parent answers the failure in its own solve loop
    tableau, trace = _decide_traced("(and A (atleast 1 R (atmost 0 (inv R) A)))")
    assert not any(line.startswith("RESTART") for line in trace)
    first = next(i for i, line in enumerate(trace) if line.startswith("NOGOOD"))
    assert trace[first + 1] == "LII node=0 role=R atoms=1 verdict=infeasible"
    assert_nogoods_are_new(tableau, trace)


def test_every_stored_nogood_is_new():
    # a run stopped at the store's capacity keeps every stored failure new
    text = "(and (atleast 3 R (or A B)) (atmost 1 R A) (atmost 1 R B))"
    for limits in [None, Limits(nogood_capacity=2)]:
        tableau, trace = _decide_traced(text, limits)
        assert_nogoods_are_new(tableau, trace)


def test_record_returns_a_covering_triple_and_stores_only_new_ones():
    # the store grows while a node is open, so _record first asks it: a
    # failure a stored triple covers gets that triple back and stores
    # nothing; a new one is stored and returned
    tableau = Tableau(build_problem(parse_concept("(and A (atleast 1 R (atmost 0 (inv R) A)))")))
    assert not tableau.decide().satisfiable
    stored = list(tableau.nogoods)
    assert any(triple.cut for triple in stored)
    for triple in stored:
        assert tableau._record(triple.cut, triple.edge, triple.body | {B}) == triple
    assert list(tableau.nogoods) == stored
    new = tableau._record(EMPTY_CUT_SET, None, frozenset({B}) | tableau._core_label)
    assert new == NogoodTriple(EMPTY_CUT_SET, None, frozenset({B}))
    assert tableau.stats.nogoods == len(tableau.nogoods) == len(stored) + 1
    assert tableau.stats.restarts == 0
    # storing a triple again is an internal error, not a no-op
    tableau.nogoods.hit = lambda *args: None
    with pytest.raises(AssertionError, match="already stored"):
        tableau._record(EMPTY_CUT_SET, None, frozenset({B}))


def test_a_fresh_child_failure_is_zeroed_and_re_solved_in_the_same_tree():
    # node 1's full-atom R-child, node 2, has no branch under the axiom: it
    # stores its label and returns to node 1's solve loop, which zeroes the
    # atom and re-solves; the root's S is solved once and nothing restarts
    problem = build_problem(
        parse_concept("(atleast 1 S (and (atleast 1 R A) (atleast 1 R B)))"), [(conj([A, B]), BOTTOM)]
    )
    trace = []
    v = Tableau(problem, trace=trace.append).decide()
    assert v == (True, RunStats(nodes=5, nogoods=1, lii_solves=3, max_lambda=2))
    assert trace == [
        "PB node=0 branch=0",
        "LII node=0 role=S atoms=1 verdict=feasible",
        "PB node=1 branch=0",
        "LII node=1 role=R atoms=3 verdict=feasible",
        "NOGOOD cut={} edge=R body={A, B}",
        "LII node=1 role=R atoms=3 verdict=feasible",
        "PB node=3 branch=0",
        "PB node=4 branch=0",
    ]


def test_each_branch_reads_the_wildcards_once():
    # fine_tune hands back the branch itself when it changes nothing, and at
    # the root the empty context is the wildcards' own: either way, one
    # scan of the wildcard bodies per branch, plus the edge's context below
    # the root.  decide's entry test is the root's label test, so the root
    # label is scanned once
    calls = []

    def hook(name, fn):
        def wrapper(*args):
            calls.append((name, args))
            return fn(*args)
        return wrapper

    branch = frozenset({A})
    for text, edge in (("(or A B)", None), ("(atleast 1 R (or A B))", Role("R"))):
        tableau = Tableau(build_problem(parse_concept(text)))
        store = tableau.nogoods
        store.add(NogoodTriple(EMPTY_CUT_SET, None, frozenset({Atom("C")})))  # unrelated
        store.hit_wildcard = hook("wildcard", store.hit_wildcard)
        store.hit_exact = hook("exact", store.hit_exact)
        calls.clear()
        assert tableau.decide().satisfiable
        wildcard_scans = [
            args for name, args in calls
            if args[-1] == branch
            and (name == "wildcard" or args[:2] == (EMPTY_CUT_SET, None))
        ]
        context_scans = [
            args for name, args in calls
            if name == "exact" and args[1] is not None and args[2] == branch
        ]
        assert len(wildcard_scans) == 1, calls
        assert context_scans == ([] if edge is None else [(EMPTY_CUT_SET, edge, branch)])
        if edge is None:
            root_label = frozenset({tableau.problem.goal})
            root_scans = [args for name, args in calls if args == (root_label,)]
            assert len(root_scans) == 1, calls


def test_an_empty_store_is_never_queried(monkeypatch):
    # an empty store is never asked; counting #1 stores no triple, so its
    # run asks the store nothing
    corpora = bench_module("corpora")
    pf = corpora.generate("counting")[1]
    calls = []

    def hooked(name):
        lookup = getattr(NogoodStore, name)

        def wrapper(self, *args):
            calls.append(name)
            return lookup(self, *args)
        return wrapper

    for name in ("hit", "hit_wildcard", "hit_exact"):
        monkeypatch.setattr(NogoodStore, name, hooked(name))
    trace = []
    tableau = Tableau(build_problem(pf.query, pf.tbox), Limits(nogood_capacity=250), trace=trace.append)
    verdict = tableau.decide()
    assert calls == []
    assert verdict == (True, RunStats(restarts=0, nodes=3, nogoods=0, lii_solves=1, max_lambda=4))
    assert trace == [
        "PB node=0 branch=0",
        "LII node=0 role=R atoms=15 verdict=feasible",
        "PB node=1 branch=0",
        "PB node=2 branch=0",
    ]


def test_overlapping_runs_in_two_threads_both_decide():
    # run A ends while run B, in another thread, is still active on a
    # 900-deep chain, which its open nodes' list holds, not the stack
    chain = A
    for _ in range(900):
        chain = AtLeast(1, R, chain)
    old_limit = sys.getrecursionlimit()
    deep = build_problem(chain)
    b_entered, a_returned = threading.Event(), threading.Event()
    started, results = [], {}

    def run_b():
        def trace_b(line):
            if not b_entered.is_set():
                b_entered.set()
                a_returned.wait(30)

        try:
            results["B"] = decide(deep, trace=trace_b).satisfiable
        except RecursionError as exc:
            results["B"] = exc

    def trace_a(line):
        if not started:
            started.append(threading.Thread(target=run_b))
            started[0].start()
            b_entered.wait(30)

    def run_a():
        try:
            results["A"] = decide_text("(atleast 1 R A)", trace=trace_a).satisfiable
        finally:
            a_returned.set()

    thread_a = threading.Thread(target=run_a)
    thread_a.start()
    thread_a.join(60)
    started[0].join(60)
    assert not thread_a.is_alive() and not started[0].is_alive()
    assert results == {"A": True, "B": True}
    assert sys.getrecursionlimit() == old_limit


def test_runs_in_many_threads_keep_the_recursion_limit_raised():
    # no run sets the process-wide limit, so one its caller raised stays
    # raised through 4 threads of 100 overlapping runs each, with a thread
    # switch as often as the interpreter allows
    old_limit = sys.getrecursionlimit()
    raised = old_limit + 10_000
    problem = build_problem(parse_concept("(and (atleast 1 R A) (or B C))"))
    seen, done = [], []

    def check(line):
        seen.append(sys.getrecursionlimit())

    def runs():
        for _ in range(100):
            done.append(Tableau(problem, trace=check).decide().satisfiable)

    old_interval = sys.getswitchinterval()
    sys.setrecursionlimit(raised)
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=runs) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        after = sys.getrecursionlimit()
    finally:
        sys.setswitchinterval(old_interval)
        sys.setrecursionlimit(old_limit)
    assert not any(thread.is_alive() for thread in threads)
    assert done == [True] * 400
    assert len(seen) > 400 and set(seen) == {raised}
    assert after == raised


def test_the_recursion_limit_is_restored_after_every_outcome():
    # no run sets the process-wide limit: it reads the same while a run
    # is active and after a SAT, an UNSAT and a ResourceLimitError outcome
    old_limit = sys.getrecursionlimit()
    during = []

    def check(line):
        during.append(sys.getrecursionlimit())

    assert decide_text("(atleast 1 R A)", trace=check).satisfiable
    assert sys.getrecursionlimit() == old_limit
    assert not decide_text("(and (atleast 2 R A) (atmost 1 R A))", trace=check).satisfiable
    assert sys.getrecursionlimit() == old_limit
    with pytest.raises(ResourceLimitError):
        decide_text("(atleast 1 R A)", limits=Limits(node_budget=1), trace=check)
    assert sys.getrecursionlimit() == old_limit
    assert during and set(during) == {old_limit}


def test_a_chain_far_past_the_recursion_limit_decides():
    # the open nodes are a list, not nested calls: 15,000 levels decide
    # under the limit the test runs with.  The chain is built in NNF, so
    # it needs no build_problem
    chain = A
    for _ in range(15_000):
        chain = AtLeast(1, R, chain)
    verdict = decide(Problem(chain, TOP, (), frozenset()))
    assert verdict == (True, RunStats(nodes=15_001, lii_solves=15_000, max_lambda=1))


def test_a_deep_chain_with_a_negation_goes_through_build_problem():
    # every node is built with its NNF, so build_problem reads a slot on
    # a 5,000-deep chain whose leaf needs De Morgan, and the chain's text
    # reads back as the chain itself
    chain = Not(conj([A, B]))
    for _ in range(5000):
        chain = AtLeast(1, R, chain)
    problem = build_problem(chain)
    assert problem.goal is not chain
    verdict = decide(problem)
    assert verdict.satisfiable and verdict.stats.nodes == 5001
    assert parse_concept(str(chain)) is chain


def junction_tower(depth):
    """G, depth alternating levels of or- and and-nodes around C, as
    (or A0 (and B1 (or A2 ...))), and its text."""
    g, text = Atom("C"), "C"
    for i in reversed(range(depth)):
        if i % 2:
            g, text = conj((Atom(f"B{i}"), g)), f"(and B{i} {text})"
        else:
            g, text = disj((Atom(f"A{i}"), g)), f"(or A{i} {text})"
    return g, text


def test_a_deeply_nested_filler_is_negated_traced_and_dumped():
    # a run negates G and prints it in a NOGOOD line and in a dumped
    # system, none of which recurses once per level of G
    g, text = junction_tower(400)
    c = Atom("C")

    def run(*parts, **kw):
        return decide(Problem(conj(parts), TOP, (), frozenset()), **kw)

    assert run(AtLeast(1, R, c), AtMost(0, R, g)) == (
        True, RunStats(nodes=2, lii_solves=1, max_lambda=2)
    )
    assert g._neg is not None
    trace = []
    assert run(AtLeast(2, R, g), AtMost(1, R, g), trace=trace.append) == (
        False, RunStats(nodes=1, nogoods=1)
    )
    assert trace == [f"NOGOOD cut={{}} edge=eps body={{(and (atmost 1 R {text}) (atleast 2 R {text}))}}"]
    dumped = []
    assert run(AtLeast(1, R, c), AtLeast(1, R, g), AtMost(1, R, c), dump_systems=dumped.append) == (
        True, RunStats(nodes=2, lii_solves=1, max_lambda=2)
    )
    assert dumped == [
        f"lii node=0 role=R\nfillers: ['C', '{text}']\nv1 + v3 <= 1\nv1 + v3 >= 1\nv2 + v3 >= 1"
    ]


def test_a_filler_2000_junction_levels_deep_decides():
    # every atom of G has its negation built, so the clash mask of the
    # R-system reads a negation on each; a clash test reads the one linked
    # on the node and never descends G's and/or levels
    g, _ = junction_tower(2000)
    for c in walk_concepts(g):
        if type(c) is Atom:
            NegAtom(c.name)
    problem = Problem(conj((AtLeast(1, R, Atom("C")), AtMost(0, R, g))), TOP, (), frozenset())
    assert decide(problem) == (True, RunStats(nodes=2, lii_solves=1, max_lambda=2))


def test_comparing_two_deep_order_keys_is_a_resource_limit():
    # two (atleast 1 R ...) chains 3,000 deep that differ only in their
    # leaf: closed_form sorts the root's restrictions, and comparing their
    # order keys recurses in C once per level, so the run stops on a
    # limit with its partial stats, never on a bare RecursionError
    def chain(leaf):
        for _ in range(3000):
            leaf = AtLeast(1, R, leaf)
        return leaf

    problem = Problem(AtLeast(1, R, chain(Atom("CA"))), AtMost(0, R, chain(Atom("CB"))), (), frozenset())
    with pytest.raises(ResourceLimitError, match="concept nesting too deep") as info:
        decide(problem)
    assert info.value.stats == RunStats(nodes=1)


def test_a_recursion_error_in_a_run_is_a_resource_limit(monkeypatch):
    # comparing deeply nested order keys recurses in C, so a concept built
    # under a higher limit than the run's can make a run raise; it then
    # stops on a limit with its partial stats, never on a bare error
    tune = engine.fine_tune

    def too_deep_below_the_root(branch, cut, edge):
        if edge is not None:
            raise RecursionError("maximum recursion depth exceeded")
        return tune(branch, cut, edge)

    monkeypatch.setattr(engine, "fine_tune", too_deep_below_the_root)
    with pytest.raises(ResourceLimitError, match="concept nesting too deep") as info:
        decide_text("(atleast 1 R (or A B))")
    assert info.value.stats == RunStats(nodes=2, lii_solves=1, max_lambda=1)


def test_node_budget_aborts():
    problem = build_problem(
        parse_concept("A"), [(TOP, parse_concept("(atleast 1 R (atleast 1 S B))"))]
    )
    with pytest.raises(ResourceLimitError):
        decide(problem, Limits(node_budget=1))


def test_lambda_limit_aborts():
    problem = build_problem(
        parse_concept("(and (atleast 1 R A) (atleast 1 R B) (atleast 1 R C))")
    )
    with pytest.raises(ResourceLimitError) as err:
        decide(problem, Limits(lambda_max=2))
    assert "lambda_max" in str(err.value)


def test_trace_line_shapes():
    trace = []
    decide_text("(and (atleast 2 R A) (atmost 3 R top))", trace=trace.append)
    kinds = {line.split()[0] for line in trace}
    assert "PB" in kinds and "LII" in kinds
    for line in trace:
        if line.startswith("LII"):
            assert "atoms=" in line and "verdict=" in line


def test_stored_wildcard_bodies_are_unsatisfiable():
    # every unconditional cached set must be genuinely unsatisfiable against
    # the axiom; the bounded model search may not find a witness
    texts = [
        "(and A (not A))",
        "(and (atleast 2 R C) (atmost 1 R C))",
        "(and A (atleast 1 R (atmost 0 (inv R) A)))",
        "(and (atleast 2 R A) (atleast 2 R (not A)) (atmost 3 R top))",
    ]
    for text in texts:
        problem = build_problem(parse_concept(text))
        tableau = Tableau(problem)
        tableau.decide()
        for triple in tableau.nogoods:
            if not triple.is_wildcard() or len(triple.body) > 3:
                continue
            result = find_model(conj(triple.body), problem.axiom)
            assert not isinstance(result, Interpretation), (
                f"cached set {sorted(map(str, triple.body))} has a model"
            )


def test_oracle_agreement_on_small_batch():
    for pf in generate_corpus(seed=5, count=40):
        problem = build_problem(pf.query, pf.tbox)
        verdict = decide(problem)
        found = find_model(problem.goal, problem.axiom)
        if isinstance(found, Interpretation):
            assert verdict.satisfiable, pf.to_text()


def test_deep_instances_decide_without_clash_nogoods():
    # deep-profile #64 and #106 used to learn one nogood per clashed root
    # disjunct and restart each time, running out of any small store
    profile = CorpusProfile(max_depth=5, max_bound=5, max_roles=3, max_atoms=4, max_gcis=3)
    corpus = generate_corpus(seed=7, count=150, profile=profile)
    for index in (64, 106):
        problem = build_problem(corpus[index].query, corpus[index].tbox)
        verdict = decide(problem, Limits(nogood_capacity=20))
        assert verdict.satisfiable


def test_primitive_clashes_never_stored():
    # a clashed branch is skipped, never cached; a clashed body can only be
    # a root label that is itself a clash, such as the goal bottom
    for pf in generate_corpus(seed=20260809, count=200):
        problem = build_problem(pf.query, pf.tbox)
        tableau = Tableau(problem)
        tableau.decide()
        clashed = [t.body for t in tableau.nogoods if primitive_clash(t.body)]
        assert clashed in ([], [frozenset({problem.goal})]), pf.to_text()


def test_nogood_count_is_live_when_store_overflows():
    # deciding this takes three nogoods, so a store of two aborts the run
    problem = build_problem(
        parse_concept("(and (atleast 3 R (or A B)) (atmost 1 R A) (atmost 1 R B))")
    )
    tableau = Tableau(problem, Limits(nogood_capacity=2))
    with pytest.raises(ResourceLimitError, match="nogood store exceeded 2 triples"):
        tableau.decide()
    assert tableau.stats.nogoods == len(tableau.nogoods) == 2


def test_limit_errors_carry_the_partial_stats(monkeypatch):
    problem = build_problem(
        parse_concept("(and (atleast 3 R (or A B)) (atmost 1 R A) (atmost 1 R B))")
    )
    tableau = Tableau(problem, Limits(nogood_capacity=2))
    with pytest.raises(ResourceLimitError) as info:
        tableau.decide()
    assert info.value.stats is tableau.stats
    assert info.value.stats.nogoods == len(tableau.nogoods) == 2
    problem = build_problem(parse_concept("(atleast 1 R A)"))
    with pytest.raises(ResourceLimitError) as info:
        Tableau(problem, Limits(node_budget=1)).decide()
    assert info.value.stats == RunStats(nodes=2, lii_solves=1, max_lambda=1)
    # at-least 2 over the at-most 1 keeps the full atom from answering the
    # role, so the solver searches, and that takes more than one step;
    # at-least rows alone are solved without one
    problem = build_problem(parse_concept("(and (atleast 2 R A) (atmost 1 R B))"))
    feasible = engine.feasible
    monkeypatch.setattr(engine, "feasible", lambda system: feasible(system, max_steps=1))
    with pytest.raises(SolverLimitError) as info:
        Tableau(problem).decide()
    assert info.value.stats == RunStats(nodes=1, lii_solves=1, max_lambda=2)


def test_apply_lii_zeroes_exactly_the_clashed_atoms(monkeypatch):
    # the first solve of each built system sees the clash zeroing, plus the
    # answer's atom when closed_form answered the role and its child failed
    unsolved, first_solves = [], []
    build_lii, feasible = engine.build_lii, engine.feasible

    def record_build(branch, role, reading):
        system = build_lii(branch, role, reading)
        answer = closed_form(branch, role, None, reading)
        unsolved.append((system, None if answer is None else next(iter(answer[1]))))
        return system

    def record_solve(system, *rest):
        if unsolved:
            built, answered = unsolved.pop()
            first_solves.append((built.fillers, answered, system.zeroed))
        return feasible(system, *rest)

    monkeypatch.setattr(engine, "build_lii", record_build)
    monkeypatch.setattr(engine, "feasible", record_solve)
    corpora = bench_module("corpora")
    corpus = corpora.generate("counting") + generate_corpus(seed=20260809, count=200)
    for pf in corpus:
        try:
            Tableau(build_problem(pf.query, pf.tbox), Limits(nogood_capacity=250)).decide()
        except ResourceLimitError:
            pass
    clashed = fell_back = 0
    for fillers, answered, zeroed in first_solves:
        atoms = atomic_decomposition(list(fillers))
        expected = sum(1 << (m - 1) for m, atom in enumerate(atoms, 1) if primitive_clash(atom))
        if answered is not None:
            expected |= 1 << (answered - 1)
        assert zeroed == expected
        clashed += any(primitive_clash(atom) for atom in atoms)
        fell_back += answered is not None
    assert clashed > 0
    assert fell_back > 0


def test_roles_without_an_at_least_are_not_solved():
    # R has eleven fillers, one over lambda_max, but no at-least on R forces
    # a successor, so only S's system is built and solved
    atmosts = " ".join(f"(atmost 0 R A{i})" for i in range(11))
    v = decide_text(f"(and {atmosts} (atleast 1 S B))")
    assert v.satisfiable
    assert (v.stats.lii_solves, v.stats.max_lambda) == (1, 1)


def test_at_least_zero_forces_no_successor():
    # the parent is the child's one qualifying (inv R)-neighbour, so the
    # child's (atleast 1 (inv R) A) drops to at-least 0, and no other
    # at-least on (inv R) labels it: only the root's R is solved
    trace = []
    v = decide_text("(atleast 1 R (atleast 1 (inv R) A))", trace=trace.append)
    assert v.satisfiable and v.stats.lii_solves == 1
    assert [line.split()[2] for line in trace if line.startswith("LII")] == ["role=R"]


def test_every_solved_system_has_a_positive_at_least(monkeypatch):
    # a role closed_form answers is solved without a system: on the full
    # atom or another, where its `most` is the largest at-least bound, or
    # by a refutation; every such role has a positive at-least too
    solve, answer = engine.feasible, engine.closed_form
    solved, answered = [], []

    def record(system, *rest):
        solved.append(system)
        return solve(system, *rest)

    def record_answer(branch, role, *rest):
        found = answer(branch, role, *rest)
        if found is not None:
            assert any(type(c) is AtLeast and c.role is role and c.bound > 0 for c in branch)
            answered.append(found)
        return found

    monkeypatch.setattr(engine, "feasible", record)
    monkeypatch.setattr(engine, "closed_form", record_answer)
    corpora = bench_module("corpora")
    for workload in ("deep", "counting", "oracle"):  # oracle: the acceptance corpus
        for pf in corpora.generate(workload):
            try:
                Tableau(build_problem(pf.query, pf.tbox), Limits(nogood_capacity=250)).decide()
            except ResourceLimitError:
                pass
    assert len(solved) + len(answered) > 500
    assert solved and answered
    for system in solved:
        assert any(lo > 0 for _, lo, _ in system.intervals), system.describe()
    for width, solution, atom in answered:
        if solution is not None:
            assert list(solution.values())[0] > 0, atom
    # the full atom, another atom and a refutation each answer some role
    kinds = {
        "refuted" if solution is None else "full" if (1 << width) - 1 in solution else "atom"
        for width, solution, _ in answered
    }
    assert kinds == {"refuted", "full", "atom"}


def test_full_atom_answers_a_role_exactly_when_feasible_would(monkeypatch):
    # for every role the engine solves, closed_form refutes exactly when
    # feasible's interval pre-check does on the clash-zeroed system, and
    # answers exactly when feasible returns {full: most} or {M: most} for
    # the highest live atom M, and then with the same atom and multiplicity
    corpora = bench_module("corpora")
    apply_lii = engine.Tableau._apply_lii
    answered, kinds = {}, set()

    def compared(self, node_id, branch, tuned, role):
        kind = closed_form_agrees(tuned, role)
        answered[workload] += kind is not None
        kinds.add(kind)
        return apply_lii(self, node_id, branch, tuned, role)

    monkeypatch.setattr(engine.Tableau, "_apply_lii", compared)
    for workload in ("oracle", "deep", "counting"):  # oracle: the acceptance corpus
        answered[workload] = 0
        for pf in corpora.generate(workload):
            try:
                Tableau(build_problem(pf.query, pf.tbox), Limits(nogood_capacity=250)).decide()
            except ResourceLimitError:
                pass
    assert all(answered.values()), answered
    assert kinds == {"refuted", "full", "atom", None}


def test_a_failed_full_atom_child_falls_back_to_the_system(monkeypatch):
    # the full atom {A, B} answers R, but the axiom kills its child; the
    # child stores its label and fails, and the role goes to the system
    # with the full atom (mask 3) zeroed, in the same tree.  A dump prints
    # the system of each answered solve without decomposing it, so only
    # the fallback, which expands children, takes the atoms, dump or not
    problem = build_problem(
        parse_concept("(and (atleast 1 R A) (atleast 1 R B))"), [(conj([A, B]), BOTTOM)]
    )
    decompose = engine.atomic_decomposition
    decompositions = []

    def counted(*args):
        decompositions.append(args)
        return decompose(*args)

    monkeypatch.setattr(engine, "atomic_decomposition", counted)
    Tableau(problem).decide()
    assert len(decompositions) == 1
    decompositions.clear()
    trace, dumps = [], []
    v = Tableau(problem, trace=trace.append, dump_systems=dumps.append).decide()
    assert len(decompositions) == 1
    assert v.satisfiable
    assert v.stats.lii_solves == 2
    solves = [line for line in trace if line.startswith("LII")]
    assert solves == ["LII node=0 role=R atoms=3 verdict=feasible"] * 2
    node_dumps = [d for d in dumps if d.startswith("lii node=0 role=R")]
    assert len(node_dumps) == 2
    assert "zeroed" not in node_dumps[0]
    assert node_dumps[1].endswith("zeroed: [3]")


def test_unread_cuts_change_no_verdict():
    # cut_table drops the pairs no inverse edge reads; the calculus with
    # every pair's cut formula must decide the same on all three corpora
    corpora = bench_module("corpora")
    compared = lost_a_cut = 0
    for workload in ("oracle", "deep", "counting"):  # oracle: the acceptance corpus
        for pf in corpora.generate(workload):
            filtered = build_problem(pf.query, pf.tbox)
            unfiltered = with_every_cut(filtered)
            assert set(filtered.cuts) <= set(unfiltered.cuts)
            lost_a_cut += len(filtered.cuts) < len(unfiltered.cuts)
            verdicts = [
                Tableau(problem, Limits(nogood_capacity=250)).decide().satisfiable
                for problem in (filtered, unfiltered)
            ]
            assert verdicts[0] == verdicts[1], (workload, pf.query)
            compared += 1
    assert compared == 650
    assert lost_a_cut > 100


def test_chain_with_an_inverse_decides_only_the_pairs_a_successor_reads():
    # the chain's at-leasts on R nest, so nodes below the root hold its
    # pairs on R; the root's own (atleast 1 (inv R) B) and chain head get
    # no cut formula, and deciding them too costs about twice the nodes
    chain = "top"
    for _ in range(6):
        chain = f"(atleast 1 R {chain})"
    problem = build_problem(parse_concept(f"(and {chain} (atleast 1 (inv R) B))"))
    assert len(problem.cuts) == 5
    v = decide(problem, Limits(lambda_max=16))
    assert v.satisfiable
    assert v.stats == RunStats(nodes=92, nogoods=87, lii_solves=169, max_lambda=5)
    named = with_named_inverse_cuts(problem)
    assert len(named.cuts) == 7
    v = decide(named, Limits(lambda_max=16))
    assert v.satisfiable
    assert v.stats == RunStats(nodes=187, nogoods=121, lii_solves=290, max_lambda=6)
    # a filler's own guard counts the parent against it
    assert not decide_text("(atleast 2 R (atmost 0 (inv R) top))").satisfiable


def test_every_label_holds_the_axiom_and_the_cut_formulas(monkeypatch):
    # every label _expand and _settle receive, the root's included, holds
    # the axiom and the cut formulas, so _record's stripping holds at every
    # node: over the deep instances with cut pairs, the hand-made inputs
    # whose verdicts hang on an inner node's decisions, and the chain with
    # an inverse, whose children hold at-most bounds alone
    labels = []

    def recording(method):
        def recorded(self, label, cut, edge):
            labels.append((label, self._core_label, edge))
            return method(self, label, cut, edge)
        return recorded

    monkeypatch.setattr(engine.Tableau, "_expand", recording(engine.Tableau._expand))
    monkeypatch.setattr(engine.Tableau, "_settle", recording(engine.Tableau._settle))
    corpora = bench_module("corpora")
    deep = [build_problem(pf.query, pf.tbox) for pf in corpora.generate("deep")]
    problems = [p for p in deep if p.cuts]
    assert len(problems) == 19  # #59's one pair was read off a valid clause
    for text in HAND_MADE:
        pf = parse_problem_text(text)
        problems.append(build_problem(pf.query, pf.tbox))
    for d in range(1, 7):
        pf = parse_problem_text(chain_with_inverse(d))
        problems.append(build_problem(pf.query, pf.tbox))
    children = 0  # labels of children that carry a cut formula
    for problem in problems:
        labels.clear()
        Tableau(problem, Limits(lambda_max=16, nogood_capacity=250)).decide()
        assert labels and labels[0][2] is None  # the root's comes first
        assert all(label >= core for label, core, _ in labels)
        children += sum(1 for _, _, edge in labels if edge is not None and problem.cut_concepts)
    assert children > 100


def test_forward_chain_gets_no_cuts():
    # (atleast 1 R ... A) nested 400 deep names no inverse role, so no node
    # carries a cut formula and each role has one filler; with a cut per
    # pair, the root's R had 400 fillers, past lambda_max
    chain = A
    for _ in range(400):
        chain = AtLeast(1, R, chain)
    problem = build_problem(chain)
    assert problem.cuts == ()
    v = decide(problem)
    assert v.satisfiable
    assert v.stats.max_lambda == 1


def test_contradictory_counting_instance_decides_within_small_budget(monkeypatch):
    # counting corpus #138 used to run the solver to its step limit
    feasible = engine.feasible
    monkeypatch.setattr(engine, "feasible", lambda system: feasible(system, max_steps=1000))
    v = decide_text(
        "(and (atmost 6 R (not A0)) (atmost 3 R (not A1)) (atleast 3 R A2) "
        "(atmost 5 R A3) (atleast 9 R A3) (atmost 2 (inv R) (not A0)))"
    )
    assert not v.satisfiable


def test_a_failed_branch_drops_the_witnesses_its_subtree_registered():
    # node 0's branch 0 expands its R1-child, node 1, which registers a
    # witness; then the branch fails on role (inv R2).  Node 1 completed
    # under a branch that no longer holds, so it must not block node 4,
    # the R1-child of node 0's branch 1, whose label is node 1's
    pf = parse_problem_text(
        "gci A3 (not A3)\n"
        "gci (atleast 4 R0 (not A3)) A3\n"
        "gci (or (not A2) A3) (atleast 5 (inv R2) A3)\n"
        "sat (atleast 2 R1 A1)\n"
    )
    seen, lines = {}, []

    def trace(line):
        lines.append(line)
        if line in ("PB node=1 branch=1", "PB node=0 branch=1"):
            seen[line] = set(tableau.witnesses.values())

    tableau = Tableau(build_problem(pf.query, pf.tbox), trace=trace)
    assert tableau.decide() == (True, RunStats(nodes=5, nogoods=2, lii_solves=6, max_lambda=1))
    assert seen == {"PB node=1 branch=1": {0}, "PB node=0 branch=1": set()}
    assert lines[-3:] == ["PB node=0 branch=1", "LII node=0 role=R1 atoms=1 verdict=feasible",
                          "PB node=4 branch=1"]
    assert not any(line.startswith("BLOCKED") for line in lines)


def plain_runs(monkeypatch, text, tbox=(), limits=None, seed=None):
    """Decide text with its trace and dumps, recording the labels _expand
    and _settle get; seed is a triple stored before the run."""
    expanded, settled = [], []
    expand, settle = engine.Tableau._expand, engine.Tableau._settle

    def recorded_expand(self, label, cut, edge):
        expanded.append(label)
        return expand(self, label, cut, edge)

    def recorded_settle(self, label, cut, edge):
        settled.append(label)
        return settle(self, label, cut, edge)

    monkeypatch.setattr(engine.Tableau, "_expand", recorded_expand)
    monkeypatch.setattr(engine.Tableau, "_settle", recorded_settle)
    lines = []
    tableau = Tableau(
        build_problem(parse_concept(text), tbox), limits, trace=lines.append, dump_systems=lines.append
    )
    if seed is not None:
        tableau.nogoods.add(seed)
    return tableau, lines, expanded, settled


def test_an_equal_plain_successor_is_blocked_by_the_first(monkeypatch):
    # R's and S's successors both have the label {A}: neither is walked,
    # and the second is blocked by the first, with the lines a walk printed
    tableau, lines, expanded, settled = plain_runs(monkeypatch, "(and (atleast 1 R A) (atleast 1 S A))")
    assert tableau.decide() == (True, RunStats(nodes=3, lii_solves=2, max_lambda=1))
    assert expanded == [frozenset({tableau.problem.goal})]
    assert settled == [frozenset({A})] * 2
    assert [line for line in lines if not line.startswith("lii")] == [
        "PB node=0 branch=0",
        "LII node=0 role=R atoms=1 verdict=feasible",
        "PB node=1 branch=0",
        "LII node=0 role=S atoms=1 verdict=feasible",
        "PB node=2 branch=0",
        "BLOCKED node=2 by=1",
    ]
    assert len(tableau.witnesses) == 2
    assert tableau.witnesses[frozenset({A}), frozenset({A})] == 1


def test_top_is_in_no_atom_literal_set():
    # top holds in every node, so a label that differs from another only in
    # top must block like it.  Generated seed 7 #98, (atleast 1 R0 top)
    # under two axioms: node 2's atom is {(not A2)}, node 1's was {top,
    # (not A2)}, and node 2 was expanded where it is now blocked by node 1
    pf = generate_corpus(seed=7, count=100)[98]
    assert pf.query == parse_concept("(atleast 1 R0 top)")
    v = decide(build_problem(pf.query, pf.tbox))
    assert v == (True, RunStats(nodes=3, lii_solves=2, max_lambda=2))
    # no literal set atomic_decomposition or closed_form gives holds top,
    # a top filler's literal or a bottom filler's negation, on seeded
    # filler lists that hold top
    rng = random.Random(20261021)
    pool = [A, B, NegAtom("A"), NegAtom("B"), Atom("C"), BOTTOM, conj([A, B])]
    answered = 0
    for _ in range(400):
        fillers = rng.sample(pool, rng.randint(0, 4)) + [TOP]
        rng.shuffle(fillers)
        every = range(1, 1 << len(fillers))
        masks = rng.sample(every, min(len(every), rng.randint(1, 3)))
        for atoms in (atomic_decomposition(fillers), atomic_decomposition(fillers, 10, masks)):
            assert not any(TOP in atom for atom in atoms), fillers
        branch = {AtLeast(rng.randint(1, 3), R, TOP)}
        branch |= {rng.choice((AtLeast, AtMost))(rng.randint(0, 3), R, f) for f in fillers}
        answer = closed_form(frozenset(branch), R)
        if answer is not None and answer[2] is not None:
            assert TOP not in answer[2], [str(c) for c in branch]
            answered += 1
    assert answered > 100


def test_a_plain_successor_returns_the_stored_hit(monkeypatch):
    # a stored triple on the R-edge covers the full atom {A, B}: its node
    # prints nothing, the column is zeroed, and the re-solve's two plain
    # successors are settled
    R = Role("R")
    seed = NogoodTriple(EMPTY_CUT_SET, R, frozenset({A, B}))
    tableau, lines, expanded, settled = plain_runs(
        monkeypatch, "(and (atleast 1 R A) (atleast 1 R B))", seed=seed
    )
    assert tableau.decide() == (True, RunStats(nodes=4, lii_solves=2, max_lambda=2))
    assert settled == [frozenset({A, B}), frozenset({A, NegAtom("B")}), frozenset({NegAtom("A"), B})]
    assert len(expanded) == 1
    assert lines == [
        "PB node=0 branch=0",
        "lii node=0 role=R\nfillers: ['A', 'B']\nv1 + v3 >= 1\nv2 + v3 >= 1",
        "LII node=0 role=R atoms=3 verdict=feasible",
        "lii node=0 role=R\nfillers: ['A', 'B']\nv1 + v3 >= 1\nv2 + v3 >= 1\nzeroed: [3]",
        "LII node=0 role=R atoms=3 verdict=feasible",
        "PB node=2 branch=0",
        "PB node=3 branch=0",
    ]


def test_plain_successors_count_against_the_node_budget(monkeypatch):
    # the S-successor is the tree's third node, one over a budget of 2
    tableau, lines, expanded, settled = plain_runs(
        monkeypatch, "(and (atleast 1 R A) (atleast 1 S B))", limits=Limits(node_budget=2)
    )
    with pytest.raises(ResourceLimitError) as info:
        tableau.decide()
    assert info.value.stats == RunStats(nodes=3, lii_solves=2, max_lambda=1)
    assert settled == [frozenset({A}), frozenset({B})]
    assert lines[-1] == "LII node=0 role=S atoms=1 verdict=feasible"


def test_only_plain_labels_skip_the_walk(monkeypatch):
    # a successor holding only atoms is settled, without _expand; one
    # holding a number restriction or a junction is expanded.  Of the
    # expanded labels, only one that reaches an or-node through and-nodes
    # is walked: any other has one branch at most, its literals, which
    # _expand takes without the walk.  A core label with a junction makes
    # every label walked, and a label with a complementary pair gets no
    # branch, walked or not
    walked = []
    walk = engine.enumerate_branches

    def recorded_walk(label):
        walked.append(label)
        return walk(label)

    monkeypatch.setattr(engine, "enumerate_branches", recorded_walk)
    text = "(and (atleast 1 R (or A B)) (atleast 1 S (atmost 2 R A)) (atleast 1 T A))"
    tableau, _, expanded, settled = plain_runs(monkeypatch, text)
    assert tableau.decide().satisfiable
    assert expanded[1:] == [frozenset({parse_concept("(or A B)")}), frozenset({parse_concept("(atmost 2 R A)")})]
    assert settled == [frozenset({A})]
    assert walked == [frozenset({parse_concept("(or A B)")})]
    walked.clear()
    tableau, _, expanded, settled = plain_runs(monkeypatch, text, [(TOP, parse_concept("(or A C)"))])
    assert tableau.decide().satisfiable
    assert len(expanded) == 4 and settled == []
    assert walked == expanded
    walked.clear()
    tableau, _, expanded, settled = plain_runs(monkeypatch, "(atleast 1 R A)", [(TOP, NegAtom("A"))])
    assert not tableau.decide().satisfiable
    assert frozenset({A, NegAtom("A")}) in expanded and settled == []
    assert walked == []


# sha256 over every deep-profile instance's trace lines, verdict and RunStats;
# a change to the search that alters any of them must update it on purpose,
# to the value deep_traces_digest() then returns
DEEP_TRACES_DIGEST = "ddd38ef4ceb22102b2d9198d0ff8e015b2bf89cfae5c0f319d05d4c441ae6dc1"


def deep_traces_digest() -> str:
    profile = CorpusProfile(max_depth=5, max_bound=5, max_roles=3, max_atoms=4, max_gcis=3)
    digest = hashlib.sha256()
    for index, generated in enumerate(generate_corpus(seed=7, count=150, profile=profile)):
        pf = parse_problem_text(generated.to_text())
        lines = []
        tableau = Tableau(
            build_problem(pf.query, pf.tbox), Limits(nogood_capacity=250), trace=lines.append
        )
        verdict = tableau.decide()
        lines.append(f"#{index} {'SAT' if verdict.satisfiable else 'UNSAT'} {verdict.stats}")
        digest.update("\n".join(lines).encode() + b"\n")
    return digest.hexdigest()


def test_deep_corpus_traces_are_pinned():
    assert deep_traces_digest() == DEEP_TRACES_DIGEST


# the same over all 300 counting-workload instances, with every inequality
# system --dump-lii prints: the workload where clash zeroing runs
COUNTING_TRACES_DIGEST = "875f1d1387d022c2024a6be649ff795f6ebb639601bf24642c011b09bba2f9b0"


def counting_traces_digest() -> str:
    corpora = bench_module("corpora")
    generated = corpora.counting_corpus(
        corpora.COUNTING_SEED, corpora.COUNTS["counting"], corpora.COUNTING_MAX_BOUND
    )
    digest = hashlib.sha256()
    for index, instance in enumerate(generated):
        pf = parse_problem_text(instance.to_text())
        lines = []
        tableau = Tableau(
            build_problem(pf.query, pf.tbox),
            Limits(nogood_capacity=250),
            trace=lines.append,
            dump_systems=lines.append,
        )
        verdict = tableau.decide()
        lines.append(f"#{index} {'SAT' if verdict.satisfiable else 'UNSAT'} {verdict.stats}")
        digest.update("\n".join(lines).encode() + b"\n")
    return digest.hexdigest()


def test_counting_corpus_traces_are_pinned():
    assert counting_traces_digest() == COUNTING_TRACES_DIGEST


def digest_in_fresh_process(name: str, hash_seed: str) -> str:
    tests = Path(__file__).resolve().parent
    src = Path(alcqisat.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    proc = subprocess.run(
        [sys.executable, "-c", f"from test_engine import {name} as d; print(d())"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# concepts and roles hash by identity, so set order follows memory addresses
# as well as the hash seed; the traces may depend on neither
@pytest.mark.parametrize("hash_seed", ["0", "5"])
def test_counting_traces_do_not_depend_on_the_hash_seed(hash_seed):
    assert digest_in_fresh_process("counting_traces_digest", hash_seed) == COUNTING_TRACES_DIGEST


@pytest.mark.parametrize("hash_seed", ["0", "5"])
def test_deep_traces_do_not_depend_on_the_hash_seed(hash_seed):
    assert digest_in_fresh_process("deep_traces_digest", hash_seed) == DEEP_TRACES_DIGEST


def nodes_interned_outside_labels() -> str:
    """Over the acceptance, deep and counting corpora, decided once each
    in this process: the number of nodes the runs interned, and those no
    label, branch or tuned branch of their own run holds as a subterm."""
    corpora = bench_module("corpora")
    problems = [
        build_problem(pf.query, pf.tbox)
        for workload in ("oracle", "deep", "counting")  # oracle: the acceptance corpus
        for pf in corpora.generate(workload)
    ]
    held = []
    expand, settle, tune = Tableau._expand, Tableau._settle, engine.fine_tune

    def on_expand(self, label, cut, edge):
        held.append(label)
        return expand(self, label, cut, edge)

    def on_settle(self, label, cut, edge):
        held.append(label)
        return settle(self, label, cut, edge)

    def on_tune(branch, cut, edge):
        tuned = tune(branch, cut, edge)
        held.extend((branch, tuned))
        return tuned

    Tableau._expand, Tableau._settle, engine.fine_tune = on_expand, on_settle, on_tune
    interned, outside = 0, []
    for problem in problems:
        held.clear()
        before = len(syntax._NODES)
        Tableau(problem, Limits(nogood_capacity=250)).decide()
        new = list(syntax._NODES.values())[before:]
        interned += len(new)
        subterms = set(walk_concepts(*(c for concepts in held for c in concepts)))
        outside += [str(c) for c in new if c not in subterms]
    return f"{interned} {len(outside)} {outside[:3]}"


def test_decide_interns_only_what_a_label_holds():
    # a clash test reads the negation linked on a node and builds none, so
    # a run interns only what enters a label: a tuned bound, an expanded
    # atom's negated fillers.  In a fresh process, so that no earlier test
    # has built the nodes already
    interned, outside, examples = digest_in_fresh_process(
        "nodes_interned_outside_labels", "0"
    ).split(" ", 2)
    assert (int(outside), examples) == (0, "[]")
    assert int(interned) > 0
