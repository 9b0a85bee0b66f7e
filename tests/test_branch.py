import hashlib
import itertools
import random
import sys
from collections import Counter

from alcqisat import (
    And,
    AtLeast,
    AtMost,
    Atom,
    BOTTOM,
    EMPTY_CUT_SET,
    NegAtom,
    Or,
    Role,
    TOP,
    branch_satisfies,
    conj,
    cut_formula,
    cut_set_for_child,
    cut_table,
    disj,
    enumerate_branches,
    fine_tune,
    negate,
    primitive_clash,
    to_nnf,
)
from alcqisat.branch import sole_branch
from conftest import (
    propositional_skeleton,
    random_raw_concept,
    reference_primitive_clash,
    unpruned_branches,
)

A, B, C, D = Atom("A"), Atom("B"), Atom("C"), Atom("D")
R = Role("R")
R_INV = Role("R", True)


def branches(label):
    return list(enumerate_branches(label))


def test_two_disjuncts():
    assert branches({disj([A, B])}) == [frozenset({A}), frozenset({B})]


def test_distribution():
    modal = AtLeast(1, R, C)
    got = branches({conj([A, disj([B, modal])])})
    assert got == [frozenset({A, B}), frozenset({A, modal})]


def test_clashed_disjunct_pruned():
    got = branches({A, disj([NegAtom("A"), B])})
    assert got == [frozenset({A, B})]


def test_pruned_walk_covers_the_clash_free_reference_disjuncts():
    # sound: every yielded set is a clash-free disjunct; complete: every
    # clash-free disjunct contains a yielded set; and none is yielded twice
    rng = random.Random(43)
    for _ in range(300):
        label = {to_nnf(random_raw_concept(rng, rng.randint(0, 4))) for _ in range(rng.randint(1, 3))}
        want = {br for br in unpruned_branches(label) if not primitive_clash(br)}
        got = list(enumerate_branches(label))
        assert len(got) == len(set(got))
        assert set(got) <= want
        assert all(any(br <= full for br in got) for full in want)


def test_satisfied_clause_is_not_branched():
    assert branches({A, disj([A, B])}) == [frozenset({A})]


def or_and_chain(depth):
    # the first branch takes the deep alternative (A_i and the rest) at
    # every level; the next ones take (B_i and C_i) at level 0, then 1
    c = Atom("base")
    for i in range(depth):
        c = disj([conj([Atom(f"A{i}"), c]), conj([Atom(f"B{i}"), Atom(f"C{i}")])])
    return c


def first_branches(label, count):
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return list(itertools.islice(enumerate_branches(label), count))
    finally:
        sys.setrecursionlimit(old_limit)


def test_walk_needs_no_recursion():
    # an or/and chain far past the recursion limit
    depth = 5000
    first = first_branches({or_and_chain(depth)}, 3)
    chain = {Atom(f"A{i}") for i in range(depth)}
    assert first[0] == frozenset(chain | {Atom("base")})
    assert first[1] == frozenset(chain - {Atom("A0")} | {Atom("B0"), Atom("C0")})
    assert first[2] == frozenset(chain - {Atom("A0"), Atom("A1")} | {Atom("B1"), Atom("C1")})


def test_deep_first_branch():
    # the trail adds each literal once, without copying the partial
    # disjunct, so one branch of n literals is built in O(n) steps
    depth = 20_000
    (first,) = first_branches({or_and_chain(depth)}, 1)
    assert first == frozenset({Atom(f"A{i}") for i in range(depth)} | {Atom("base")})


def test_duplicate_sets_skipped():
    # choosing B from the first disjunction and A from the second gives the
    # same literal set as other paths; it appears once
    got = branches({disj([A, B]), disj([A, conj([A, B])])})
    assert got == [frozenset({A}), frozenset({A, B})]


def test_enumeration_is_lazy():
    big = {disj([Atom(f"X{i}"), Atom(f"Y{i}")]) for i in range(40)}
    gen = enumerate_branches(big)
    first = next(gen)
    assert len(first) == 40


def test_enumeration_matches_truth_table():
    rng = random.Random(31)
    for _ in range(120):
        label = {to_nnf(random_raw_concept(rng, rng.randint(0, 3))) for _ in range(rng.randint(1, 2))}
        got = list(enumerate_branches(label))
        if len(got) > 64:
            continue
        formula = conj(label)
        leaves = propositional_skeleton(formula)
        if len(leaves) > 8:
            continue

        def truth(assignment, c):
            if c == TOP:
                return True
            if c == BOTTOM:
                return False
            if isinstance(c, NegAtom):
                return not assignment[Atom(c.name)]
            if hasattr(c, "parts"):
                sub = [truth(assignment, p) for p in c.parts]
                return all(sub) if c.__class__.__name__ == "And" else any(sub)
            return assignment[c]

        def sat_by_branch(assignment):
            return any(
                all(
                    truth(assignment, lit)
                    for lit in br
                )
                for br in got
            )

        for bits in itertools.product([True, False], repeat=len(leaves)):
            assignment = dict(zip(leaves, bits))
            assert truth(assignment, formula) == sat_by_branch(assignment)


WALK_LITERALS = (
    TOP, BOTTOM, A, B, C, NegAtom("A"), NegAtom("B"), NegAtom("C"),
    AtLeast(1, R, A), AtMost(0, R, A), AtLeast(2, R_INV, B), AtMost(1, R_INV, B),
)


def random_walk_concept(rng, depth):
    """An NNF concept whose and/or nodes are built either through conj/disj
    or directly from their parts, in any order and possibly repeated, so a
    literal can follow a junction."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(WALK_LITERALS)
    parts = [random_walk_concept(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    pick = rng.randrange(4)
    if pick == 0:
        return conj(parts)
    if pick == 1:
        return disj(parts)
    return (And if pick == 2 else Or)(tuple(parts))


def walk_sequences_digest() -> str:
    """sha256 over every yielded set, in yield order, of 400 seeded labels,
    handed over as a frozenset, a set or a list with repeats."""
    rng = random.Random(2022)
    digest = hashlib.sha256()
    for index in range(400):
        parts = [random_walk_concept(rng, rng.randint(0, 3)) for _ in range(rng.randint(1, 4))]
        label = (frozenset(parts), set(parts), parts + parts[:1])[index % 3]
        lines = [f"#{index}"]
        for branch in enumerate_branches(label):
            lines.append(" ".join(sorted(str(lit) for lit in branch)))
        digest.update("\n".join(lines).encode() + b"\n")
    return digest.hexdigest()


# computed with the walk that pushed one cons cell per part and one stack
# entry per alternative; a change to the walk must yield the same sets in
# the same order
WALK_SEQUENCES_DIGEST = "a8375dc1fb6409654318b812fe5f861f728129fefe5b92fe4166027922a0a102"


def test_walk_yields_are_pinned():
    assert walk_sequences_digest() == WALK_SEQUENCES_DIGEST


def reaches_an_or(c) -> bool:
    """Reference for Concept._splits: an or-node reachable through and-nodes."""
    if isinstance(c, Or):
        return True
    return isinstance(c, And) and any(reaches_an_or(p) for p in c.parts)


def test_a_label_without_an_or_has_the_walk_s_one_branch():
    # sole_branch gives what the walk yields for a label none of whose
    # concepts reaches an or-node through and-nodes: its literals, or
    # nothing when they clash; the and-nodes come nested, repeated and
    # unsorted, as random_walk_concept builds them
    rng = random.Random(2030)
    kinds = Counter()
    for _ in range(3000):
        parts = [random_walk_concept(rng, rng.randint(0, 3)) for _ in range(rng.randint(1, 4))]
        for part in parts:
            assert part._splits == reaches_an_or(part), part
        if any(part._splits for part in parts):
            continue
        label = frozenset(parts)
        want = branches(label)
        got = sole_branch(label)
        assert ([] if got is None else [got]) == want, [str(p) for p in parts]
        kinds["none" if got is None else "nested" if any(
            isinstance(q, And) for p in parts if isinstance(p, And) for q in p.parts
        ) else "one"] += 1
    assert kinds["one"] > 100 and kinds["none"] > 100 and kinds["nested"] > 10, kinds


def make_cuts(goal):
    return cut_table(to_nnf(goal), TOP)


# names R and (inv R) inside an S-filler, where a node other than the root
# holds them, so cut_table keeps the pair (R, D), which a child over (inv R)
# reads, and the pair (inv R, A), which a child over R reads
R_BOTH_WAYS = AtLeast(1, Role("S"), conj([AtLeast(2, R, D), AtLeast(1, R_INV, A)]))


def test_cut_set_records_filler():
    cuts = make_cuts(R_BOTH_WAYS)  # pair (R, D), guard on inv R
    parent = frozenset({D, A})
    cs = cut_set_for_child(parent, R_INV, cuts)
    assert cs == {(D, True)}


def test_cut_set_empty_for_other_edge():
    cuts = make_cuts(R_BOTH_WAYS)
    cs = cut_set_for_child(frozenset({D}), R, cuts)
    assert cs == EMPTY_CUT_SET


def test_cut_set_records_negated_filler():
    cuts = make_cuts(R_BOTH_WAYS)
    cs = cut_set_for_child(frozenset({NegAtom("D")}), R_INV, cuts)
    assert cs == {(D, False)}


def test_cut_set_guard_choice_leaves_pair_out():
    cuts = make_cuts(R_BOTH_WAYS)
    guard = AtMost(0, R_INV, TOP)
    cs = cut_set_for_child(frozenset({guard, A}), R_INV, cuts)
    assert cs == EMPTY_CUT_SET


def test_cut_set_complete_when_guard_not_chosen():
    # inside an S-filler, so that cut_table keeps the pairs
    goal = AtLeast(1, Role("S"), conj([AtLeast(1, R, D), AtMost(2, R, C), AtMost(1, R_INV, B)]))
    cuts = make_cuts(goal)
    assert {role for role, _ in cuts} == {R, R_INV}
    label = frozenset({A}) | {cut_formula(role, filler) for role, filler in cuts}
    for br in enumerate_branches(label):
        if primitive_clash(br):
            continue
        cs = cut_set_for_child(br, R_INV, cuts)
        decided = {filler for filler, _ in cs}
        assert decided <= {C, D}  # the fillers of the pairs on R
        for role, filler in cuts:
            if role is not R:  # the inverse of the edge's role
                continue
            if branch_satisfies(br, AtMost(0, R_INV, TOP)):
                continue
            assert filler in decided


def test_fine_tune_decrements_matching_constraint():
    cut = frozenset({(C, True)})
    got = fine_tune(frozenset({AtLeast(2, R, C)}), cut, R_INV)
    assert got == frozenset({AtLeast(1, R, C)})


def test_fine_tune_ignores_negated_choice():
    cut = frozenset({(C, False)})
    b = frozenset({AtLeast(2, R, C)})
    assert fine_tune(b, cut, R_INV) == b


def test_fine_tune_can_go_negative():
    cut = frozenset({(C, True)})
    got = fine_tune(frozenset({AtMost(0, R, C)}), cut, R_INV)
    assert got == frozenset({AtMost(-1, R, C)})


def test_fine_tune_identity_without_cut():
    b = frozenset({AtMost(0, R, C), A})
    assert fine_tune(b, EMPTY_CUT_SET, R_INV) == b
    assert fine_tune(b, frozenset({(C, True)}), None) == b


def test_fine_tune_returns_the_branch_when_it_lowers_no_bound():
    # the parent holds C, but nothing in the branch counts C over (inv R)'s
    # inverse with a bound to lower: the branch itself comes back, not a copy
    held = frozenset({(C, True)})
    for b in (
        frozenset({A, AtLeast(2, R, D), AtMost(1, Role("S"), C)}),
        frozenset({AtLeast(0, R, C), AtMost(3, R_INV, C)}),
    ):
        assert fine_tune(b, held, R_INV) is b
    # one bound to lower: an equal set to the branch with that bound lowered
    b = frozenset({A, AtLeast(0, R, C), AtMost(2, R, C)})
    got = fine_tune(b, held, R_INV)
    assert got is not b
    assert got == frozenset({A, AtLeast(0, R, C), AtMost(1, R, C)})


def test_fine_tune_only_touches_inverse_edge_role():
    rng = random.Random(37)
    roles = [Role("R"), Role("S"), Role("R", True)]
    for _ in range(200):
        lits = set()
        for _ in range(rng.randint(1, 4)):
            node = AtLeast if rng.random() < 0.5 else AtMost
            lits.add(node(rng.randint(0, 3), rng.choice(roles), rng.choice([A, B, C])))
        cut_entries = frozenset(
            (rng.choice([A, B, C]), rng.random() < 0.5)
            for _ in range(rng.randint(0, 3))
        )
        edge = rng.choice(roles)
        tuned = fine_tune(frozenset(lits), cut_entries, edge)
        back = edge.inverse()
        tuned_by_key = {}
        for lit in tuned:
            tuned_by_key.setdefault((type(lit), lit.role, lit.filler), []).append(lit.bound)
        for lit in lits:
            news = tuned_by_key[(type(lit), lit.role, lit.filler)]
            assert any(lit.bound - n in (0, 1) for n in news)
            if lit.role != back:
                assert lit.bound in news


def test_primitive_clash_complement():
    assert primitive_clash(frozenset({A, NegAtom("A")})) is True
    pair = frozenset({AtMost(1, R, C), AtLeast(2, R, C)})
    assert primitive_clash(pair) is True


def test_primitive_clash_negative_bound():
    assert primitive_clash(frozenset({AtMost(-1, R, C)})) is True


def test_primitive_clash_bottom():
    assert primitive_clash(frozenset({BOTTOM, A})) is True


def test_primitive_clash_clean():
    assert primitive_clash(frozenset({A, B, AtLeast(2, R, C)})) is False


def test_primitive_clash_matches_sorted_reference():
    # several outcomes of clash in one set: the answer must not depend on order
    pool = [TOP, BOTTOM, A, B, NegAtom("A"), NegAtom("B"), conj([A, B]), disj([NegAtom("A"), NegAtom("B")])]
    pool += [AtMost(b, R, f) for b in (-1, 0, 1) for f in (C, TOP)]
    pool += [AtLeast(b, R, f) for b in (0, 1, 2) for f in (C, TOP)]
    rng = random.Random(61)
    outcomes = Counter()
    for _ in range(3000):
        lits = frozenset(rng.sample(pool, rng.randint(0, 7)))
        got = primitive_clash(lits)
        assert got == reference_primitive_clash(lits), sorted(map(str, lits))
        outcomes[got] += 1
    assert set(outcomes) == {False, True}


def test_branch_satisfies_complex_filler():
    # a branch covers a disjunctive filler through any of its disjuncts
    filler = disj([A, B])
    assert branch_satisfies(frozenset({A}), filler)
    assert branch_satisfies(frozenset({NegAtom("A"), NegAtom("B")}), negate(filler))
    assert not branch_satisfies(frozenset({NegAtom("A")}), filler)
    assert branch_satisfies(frozenset(), TOP)


def test_branch_satisfies_needs_no_recursion():
    # 2,000 alternating and- and or-levels, (and X0 (or Y1 (and X2 ...
    # L))): the branch holds no Yi, so the filler holds only through L,
    # read through every level
    filler = Atom("L")
    for i in reversed(range(2000)):
        filler = disj((Atom(f"Y{i}"), filler)) if i % 2 else conj((Atom(f"X{i}"), filler))
    branch = frozenset([Atom("L")] + [Atom(f"X{i}") for i in range(0, 2000, 2)])
    assert branch_satisfies(branch, filler)
    assert not branch_satisfies(branch - {Atom("L")}, filler)

