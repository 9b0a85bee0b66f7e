import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import alcqisat.engine as engine
from alcqisat import (
    AtLeast,
    AtMost,
    Atom,
    BOTTOM,
    LiiSystem,
    NegAtom,
    Role,
    SolverLimitError,
    TOP,
    atomic_decomposition,
    build_lii,
    closed_form,
    collect_fillers,
    conj,
    feasible,
    negate,
    primitive_clash,
    zero_column,
)
from alcqisat.lii import Reading, clashed_atoms
from alcqisat.syntax import sorted_concepts, to_nnf
from conftest import (
    Row,
    brute_force_feasible,
    closed_form_agrees,
    random_raw_concept,
    reference_feasible,
    system_from_rows,
    zeroed_masks,
)

A, B = Atom("A"), Atom("B")
C, C1, C2, C3 = Atom("C"), Atom("C1"), Atom("C2"), Atom("C3")
R, S = Role("R"), Role("S")


def test_collect_fillers_ordered():
    b = frozenset({AtMost(3, R, C1), AtLeast(2, R, C2), AtLeast(4, R, C3)})
    assert collect_fillers(b, R) == [C1, C2, C3]


def test_collect_fillers_dedups():
    b = frozenset({AtLeast(1, R, C), AtMost(2, R, C)})
    assert collect_fillers(b, R) == [C]


def test_collect_fillers_filters_roles():
    assert collect_fillers(frozenset({AtLeast(1, S, A)}), R) == []


def test_atomic_decomposition_three_fillers():
    atoms = atomic_decomposition([C1, C2, C3])
    assert len(atoms) == 7
    realized = {conj(literals) for literals in atoms}
    n1, n2, n3 = NegAtom("C1"), NegAtom("C2"), NegAtom("C3")
    assert realized == {
        conj([C1, C2, C3]),
        conj([C1, C2, n3]),
        conj([C1, n2, C3]),
        conj([C1, n2, n3]),
        conj([n1, C2, C3]),
        conj([n1, C2, n3]),
        conj([n1, n2, C3]),
    }


def test_atomic_decomposition_single():
    assert atomic_decomposition([C]) == [frozenset({C})]


def test_atomic_decomposition_pair():
    atoms = atomic_decomposition([A, B])
    assert atoms == [
        frozenset({A, NegAtom("B")}),
        frozenset({NegAtom("A"), B}),
        frozenset({A, B}),
    ]


def test_atomic_decomposition_negates_each_filler_once(monkeypatch):
    import alcqisat.lii as lii

    calls = []

    def counted_negate(c):
        calls.append(c)
        return negate(c)

    monkeypatch.setattr(lii, "negate", counted_negate)
    fillers = [Atom(f"F{i}") for i in range(4)]
    atoms = atomic_decomposition(fillers)
    assert calls == fillers
    # entry mask - 1: filler k where bit k is set, its negation where clear
    for mask, literals in enumerate(atoms, 1):
        assert literals == frozenset(
            f if (mask >> k) & 1 else negate(f) for k, f in enumerate(fillers)
        )


def test_atomic_decomposition_counts():
    for n in range(1, 7):
        fillers = [Atom(f"F{i}") for i in range(n)]
        assert len(atomic_decomposition(fillers)) == 2**n - 1


def test_atomic_decomposition_limit():
    fillers = [Atom(f"F{i}") for i in range(11)]
    with pytest.raises(SolverLimitError):
        atomic_decomposition(fillers)


def test_build_single_constraint():
    sys_ = build_lii(frozenset({AtLeast(2, R, C)}), R)
    assert sys_.fillers == (C,)
    assert sys_.intervals == ((1, 2, None),)
    assert sys_.restrictions == (AtLeast(2, R, C),)


def test_build_two_fillers():
    sys_ = build_lii(frozenset({AtLeast(2, R, A), AtMost(1, R, B)}), R)
    assert sys_.fillers == (A, B)
    # atoms by mask: 1 = A only, 2 = B only, 3 = A and B; per filler, the
    # atoms holding it, its largest at-least and its smallest at-most
    assert sys_.intervals == ((0b101, 2, None), (0b110, 0, 1))


def test_build_matches_the_atom_by_atom_construction():
    # one row per restriction in canonical order, merged per filler into
    # one interval, fillers indexed on first occurrence, on branches that
    # mix roles and share fillers between rows
    rng = random.Random(7)
    pool = [TOP, A, NegAtom("A"), B, NegAtom("B"), C, NegAtom("C"), conj([A, B])]
    for _ in range(300):
        branch = frozenset(
            rng.choice((AtMost, AtLeast))(rng.randint(0, 5), rng.choice((R, S)), rng.choice(pool))
            for _ in range(rng.randint(1, 9))
        )
        system = build_lii(branch, R)
        fillers = collect_fillers(branch, R)
        assert system.fillers == tuple(fillers)
        want = []
        for lit in sorted_concepts(branch):
            if lit.role != R:
                continue
            k = fillers.index(lit.filler)
            coeff = sum(1 << (m - 1) for m in range(1, 1 << len(fillers)) if (m >> k) & 1)
            want.append(Row(coeff, isinstance(lit, AtMost), lit.bound))
        assert system.intervals == system_from_rows(fillers, want).intervals
        assert system.restrictions == tuple(c for c in sorted_concepts(branch) if c.role == R)


def test_at_most_rows_alone_solve_to_nothing():
    # a role with no positive at-least needs no successor: the all-zero
    # vector meets every at-most row, and it is the smallest solution
    rng = random.Random(20261018)
    pool = [TOP, A, NegAtom("A"), B, NegAtom("B"), C, NegAtom("C"), C1, C2, conj([A, B])]
    widths = set()
    for _ in range(400):
        width = rng.randint(1, 6)
        fillers = rng.sample(pool, width)
        branch = {AtMost(rng.randint(0, 10), R, f) for f in fillers}
        branch |= {AtMost(rng.randint(0, 10), R, rng.choice(fillers)) for _ in range(rng.randint(0, 3))}
        branch |= {AtLeast(0, R, rng.choice(fillers)) for _ in range(rng.randint(0, 2))}
        branch.add(AtLeast(rng.randint(1, 10), S, rng.choice(pool)))  # another role's
        system = build_lii(frozenset(branch), R)
        widths.add(system.width)
        assert system.width == width
        assert feasible(system) == {}
        assert feasible(zero_clashed_atoms(system)) == {}
    assert widths == set(range(1, 7))


def test_clashed_atoms_match_the_literal_set_test():
    # top, bottom, compound fillers and fillers that negate each other, as
    # well as at-least 0 and at-most -1, whose negations do not negate back
    rng = random.Random(20261018)
    odd = [TOP, BOTTOM, AtLeast(0, R, A), AtMost(-1, R, B), AtLeast(2, S, NegAtom("C"))]
    paired = 0
    for _ in range(600):
        fillers = []
        while len(fillers) < rng.randint(1, 6):
            pick = rng.random()
            if pick < 0.2:
                f = rng.choice(odd)
            elif pick < 0.4 and fillers:
                f = negate(rng.choice(fillers))  # another filler's negation
            else:
                f = to_nnf(random_raw_concept(rng, rng.randint(0, 2)))
            if f not in fillers:
                fillers.append(f)
        want = sum(
            1 << (m - 1)
            for m, atom in enumerate(atomic_decomposition(fillers), 1)
            if primitive_clash(atom)
        )
        assert clashed_atoms(tuple(fillers)) == want, [str(f) for f in fillers]
        paired += any(negate(f) in fillers for f in fillers if f not in (TOP, BOTTOM))
    assert paired > 100


def zero_clashed_atoms(sys_):
    for mask, literals in enumerate(atomic_decomposition(list(sys_.fillers)), 1):
        if primitive_clash(literals):
            sys_ = zero_column(sys_, 1 << (mask - 1))
    return sys_


def test_guard_with_required_successor_is_infeasible():
    # a chosen guard forbids successors entirely while an at-least demands one
    b = frozenset({AtMost(0, R, TOP), AtLeast(1, R, Atom("D"))})
    sys_ = zero_clashed_atoms(build_lii(b, R))
    assert brute_force_feasible(sys_) is None
    assert feasible(sys_) is None


def test_zero_column_turns_lower_bound_infeasible():
    sys_ = build_lii(frozenset({AtLeast(2, R, C)}), R)
    assert feasible(sys_) is not None
    assert feasible(zero_column(sys_, 0b1)) is None  # atom 1, bit 0


def test_zero_column_on_slack_atom():
    sys_ = build_lii(frozenset({AtLeast(1, R, A), AtMost(3, R, B)}), R)
    # mask 2 (bit 1) carries only B, no lower bound needs it
    assert feasible(zero_column(sys_, 0b10)) is not None


def test_zero_column_shared_atom():
    # v1 + v2 >= 2 and v1 + v3 <= 1: coefficient masks that are no filler's
    sys_ = LiiSystem(fillers=(A, B), intervals=((0b011, 2, None), (0b101, 0, 1)))
    assert brute_force_feasible(sys_) is not None
    zeroed = zero_column(sys_, 0b10)  # atom 2
    assert brute_force_feasible(zeroed) is None
    assert feasible(zeroed) is None


def test_contradictory_bounds_one_variable():
    sys_ = build_lii(frozenset({AtLeast(2, R, C), AtMost(1, R, C)}), R)
    assert feasible(sys_) is None


def test_shared_successors_take_the_joint_atom():
    b = frozenset({AtLeast(2, R, A), AtLeast(2, R, B), AtMost(3, R, TOP)})
    sys_ = zero_clashed_atoms(build_lii(b, R))
    assert brute_force_feasible(sys_) is not None
    sol = feasible(sys_)
    assert sol is not None
    # fillers are (top, A, B); mask 7 is the all-positive combination
    assert sys_.fillers == (TOP, A, B)
    assert sol == {7: 2}


def test_complementary_fillers_cannot_share():
    b = frozenset({AtLeast(2, R, A), AtLeast(2, R, NegAtom("A")), AtMost(3, R, TOP)})
    sys_ = zero_clashed_atoms(build_lii(b, R))
    assert brute_force_feasible(sys_) is None
    assert feasible(sys_) is None


def random_system(rng, max_width=3, max_bound=4):
    width = rng.randint(1, max_width)
    fillers = tuple(Atom(f"F{i}") for i in range(width))
    rows = []
    for _ in range(rng.randint(1, 4)):
        k = rng.randrange(width)
        coeff = 0
        for mask in range(1, 1 << width):
            if (mask >> k) & 1:
                coeff |= 1 << (mask - 1)
        rows.append(Row(coeff, rng.random() < 0.5, rng.randint(0, max_bound)))
    zeroed = [m for m in range(1, 1 << width) if rng.random() < 0.25]
    return system_from_rows(fillers, rows, zeroed)


def test_solver_agrees_with_enumeration():
    rng = random.Random(41)
    for _ in range(300):
        sys_ = random_system(rng)
        got = feasible(sys_)
        want = brute_force_feasible(sys_)
        assert (got is None) == (want is None)


def test_solution_respects_zeroed_columns():
    rng = random.Random(43)
    for _ in range(100):
        sys_ = random_system(rng)
        sol = feasible(sys_)
        if sol is None:
            continue
        assert not set(zeroed_masks(sys_)) & set(sol)


def test_zeroing_is_monotone():
    rng = random.Random(47)
    for _ in range(200):
        sys_ = random_system(rng)
        if feasible(sys_) is not None:
            continue
        mask = rng.randrange(1, 1 << sys_.width)
        assert feasible(zero_column(sys_, 1 << (mask - 1))) is None


def test_solver_deterministic():
    rng = random.Random(53)
    for _ in range(50):
        sys_ = random_system(rng)
        assert feasible(sys_) == feasible(sys_)


def test_solver_returns_the_reference_solution():
    # the solver must return exactly what the plain search returns, so the
    # tableau's children, traces and verdicts do not move
    rng = random.Random(59)
    compared = 0
    for _ in range(1200):
        sys_ = random_system(rng, max_width=5, max_bound=10)
        try:
            want = reference_feasible(sys_, max_steps=20_000)
        except SolverLimitError:
            continue
        got = feasible(sys_, max_steps=20_000)
        # equal values, and the same masks in the same ascending order
        assert got == want and list(got or ()) == list(want or ()), sys_
        compared += 1
    assert compared >= 1000


def test_contradictory_rows_refuted_before_search():
    # counting corpus #138: at least 9 and at most 5 successors in A3
    b = frozenset({
        AtMost(6, R, NegAtom("A0")),
        AtMost(3, R, NegAtom("A1")),
        AtLeast(3, R, Atom("A2")),
        AtMost(5, R, Atom("A3")),
        AtLeast(9, R, Atom("A3")),
        AtMost(2, Role("R", inverted=True), NegAtom("A0")),
    })
    assert feasible(build_lii(b, R), max_steps=1) is None


def test_unbounded_atoms_stay_small():
    # counting corpus #219's system; the plain search needs over 30,000
    # steps because it lets every atom reach the sum of the at-least bounds
    b = frozenset({
        AtLeast(10, R, Atom("A0")),
        AtLeast(7, R, Atom("A1")),
        AtMost(3, R, Atom("A2")),
        AtMost(5, R, NegAtom("A3")),
    })
    sol = feasible(build_lii(b, R), max_steps=1_000)
    assert list(sol.items()) == [(3, 2), (7, 3), (11, 5)]


def test_at_least_rows_alone_match_the_reference():
    # no at-most row and nothing zeroed: all on the full atom
    rng = random.Random(61)
    pool = [TOP, A, NegAtom("A"), B, NegAtom("B"), C, conj([A, B])]
    for _ in range(300):
        branch = frozenset(
            AtLeast(rng.randint(0, 10), R, rng.choice(pool)) for _ in range(rng.randint(1, 5))
        )
        sys_ = build_lii(branch, R)
        want = reference_feasible(sys_)
        got = feasible(sys_)
        assert got == want and list(got) == list(want), sys_.describe()


def test_wide_system_needs_no_recursion():
    # ten fillers give 1,023 atoms, deeper than the default recursion limit
    fillers = [Atom(f"F{i}") for i in range(10)]
    b = frozenset({AtMost(0, R, f) for f in fillers[:9]} | {AtLeast(1, R, fillers[9])})
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        sol = feasible(build_lii(b, R))
    finally:
        sys.setrecursionlimit(old_limit)
    assert sol == {512: 1}


def test_large_bounds_solve_instantly():
    def timed(n):
        sys_ = build_lii(frozenset({AtLeast(n, R, C), AtMost(n - 1, R, C)}), R)
        start = time.perf_counter()
        assert feasible(sys_) is None
        return time.perf_counter() - start

    small = timed(10)
    large = timed(1_000_000)
    assert large < 0.05
    assert small < 0.05


def test_describe_is_textual():
    sys_ = build_lii(frozenset({AtLeast(2, R, A), AtMost(1, R, B)}), R)
    text = zero_column(sys_, 1).describe()
    assert ">= 2" in text and "<= 1" in text and "zeroed" in text


def test_full_atom_solution_iff_feasible_puts_most_on_the_full_atom():
    # the engine solves only roles with a positive at-least; on those the
    # rule answers exactly when feasible's solution is {full: most}
    rng = random.Random(20261019)
    letters = [Atom(n) for n in "ABCD"]
    fillers = letters + [negate(a) for a in letters] + [TOP, BOTTOM]
    checked = answered = 0
    for _ in range(6000):
        branch = frozenset(
            rng.choice((AtLeast, AtMost))(rng.randint(0, 10), R, rng.choice(fillers))
            for _ in range(rng.randint(1, 6))
        )
        if any(type(c) is AtLeast and c.bound > 0 for c in branch):
            answered += closed_form_agrees(branch, R) == "full"
            checked += 1
    assert checked > 4000
    assert answered > 1000


def test_closed_form_answers_exactly_where_feasible_is_forced():
    # closed_form refutes exactly when feasible's interval pre-check does,
    # and puts `most` on the highest live atom exactly when feasible does;
    # few letters, so fillers often come with their negations, and at-most
    # 0 and top often, which clash or kill atoms
    rng = random.Random(20261020)
    letters = [A, B, C]
    fillers = letters + [negate(a) for a in letters] + [TOP]
    kinds = {}
    for _ in range(5000):
        branch = set()
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice((AtLeast, AtMost))
            bound = 0 if kind is AtMost and rng.random() < 0.3 else rng.randint(0, 6)
            branch.add(kind(bound, R, rng.choice(fillers)))
        branch.add(AtLeast(rng.randint(1, 6), R, rng.choice(fillers)))
        branch.add(AtMost(rng.randint(0, 3), S, A))  # another role's
        kind = closed_form_agrees(frozenset(branch), R)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["refuted"] > 1000
    assert kinds["full"] > 300
    assert kinds["atom"] > 300
    assert kinds[None] > 300


def same_system(built, scratch):
    """Whether two systems have the same fillers, intervals, zeroed mask
    and dump."""
    return (built.fillers, built.intervals, built.zeroed, built.describe()) == (
        scratch.fillers, scratch.intervals, scratch.zeroed, scratch.describe()
    )


def reading_branches(seed, count):
    """The branches of the test above: restrictions on R over A, B, C,
    their negations and top, at-most 0 often, a positive at-least on R and
    an at-most on S."""
    rng = random.Random(seed)
    letters = [A, B, C]
    fillers = letters + [negate(a) for a in letters] + [TOP]
    for _ in range(count):
        branch = set()
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice((AtLeast, AtMost))
            bound = 0 if kind is AtMost and rng.random() < 0.3 else rng.randint(0, 6)
            branch.add(kind(bound, R, rng.choice(fillers)))
        branch.add(AtLeast(rng.randint(1, 6), R, rng.choice(fillers)))
        branch.add(AtMost(rng.randint(0, 3), S, A))  # another role's
        yield frozenset(branch)


def test_a_declined_reading_builds_the_system_from_scratch():
    # on the branches of the test above, whenever closed_form declines, the
    # system built from what it read (the sorted restrictions, the
    # intervals, the clash mask) equals the one built without it: same
    # fillers, intervals, zeroed mask and dump.  Past the full atom
    # closed_form always fills the reading
    declined = 0
    for branch in reading_branches(20261020, 5000):
        reading = Reading()
        if closed_form(branch, R, None, reading) is not None:
            continue
        declined += 1
        assert reading.bounds is not None and reading.clashed is not None
        assert same_system(engine._system(branch, R, reading), engine._system(branch, R))
    assert declined > 300


def test_an_answered_reading_builds_the_system_of_a_failed_child():
    # when the child of closed_form's answer fails, the engine builds the
    # system from the reading and zeroes the answer's atom: on the full
    # atom the reading holds only the restrictions, on another atom the
    # intervals and the clash mask too; either way the system equals the
    # one built from the branch alone
    kinds = {"full": 0, "atom": 0}
    for branch in reading_branches(20261021, 3000):
        reading = Reading()
        answer = closed_form(branch, R, None, reading)
        if answer is None or answer[1] is None:
            continue
        (mask,) = answer[1]
        full = mask == (1 << answer[0]) - 1
        kinds["full" if full else "atom"] += 1
        assert (reading.bounds is None) == full
        failed = 1 << (mask - 1)
        built = zero_column(engine._system(branch, R, reading), failed)
        assert same_system(built, zero_column(engine._system(branch, R), failed))
    assert kinds["full"] > 300 and kinds["atom"] > 300, kinds


def test_describe_prints_a_row_per_restriction():
    # two restrictions on one filler merge into one interval, but the dump
    # prints a row for each, in canonical order, and the zeroed atoms in
    # ascending order whatever order they were zeroed in
    branch = frozenset({AtLeast(2, R, A), AtLeast(1, R, A), AtMost(3, R, A), AtMost(1, R, B)})
    system = build_lii(branch, R)
    assert system.intervals == ((0b101, 2, 3), (0b110, 0, 1))
    zeroed = zero_column(zero_column(system, 0b100), 0b010)
    assert zeroed.zeroed == 0b110
    assert zeroed.describe() == "\n".join([
        "fillers: ['A', 'B']",
        "v1 + v3 <= 3",
        "v1 + v3 >= 1",
        "v1 + v3 >= 2",
        "v2 + v3 <= 1",
        "zeroed: [2, 3]",
    ])


def test_zero_column_and_feasible_reject_what_is_out_of_range():
    system = build_lii(frozenset({AtLeast(1, R, A), AtMost(2, R, B)}), R)
    assert zero_column(system, 0b111).zeroed == 0b111  # the three atoms
    for atoms in (0b1000, -1):
        with pytest.raises(ValueError):
            zero_column(system, atoms)
    for intervals in (((0b1, -1, None),), ((0b1, 0, -1),)):
        with pytest.raises(ValueError):
            feasible(LiiSystem((A,), intervals))


def test_closed_form_reads_the_highest_live_atom():
    # fillers (A, (not A), B) in build_lii's order: an atom clashes unless
    # exactly one of A and (not A) holds, and at-most 0 on B kills those
    # holding B, so the highest live atom is mask 2, where only (not A)
    # holds: the literal set {(not A), (not B)}
    branch = frozenset({AtLeast(2, R, NegAtom("A")), AtMost(5, R, A), AtMost(0, R, B)})
    assert build_lii(branch, R).fillers == (A, NegAtom("A"), B)
    assert closed_form(branch, R) == (3, {2: 2}, frozenset({NegAtom("A"), NegAtom("B")}))
    # an at-least on A, which mask 2 does not hold, leaves the system to search
    assert closed_form(branch | {AtLeast(1, R, A)}, R) is None
    # contradicting bounds on one filler refute before any atom is read
    assert closed_form(branch | {AtMost(1, R, NegAtom("A"))}, R) == (3, None, None)


def test_closed_form_checks_the_width():
    branch = frozenset(AtLeast(1, R, Atom(f"A{i}")) for i in range(4))
    with pytest.raises(SolverLimitError, match="4 distinct fillers exceed lambda_max=3"):
        closed_form(branch, R, 3)
    full = frozenset(c.filler for c in branch)
    assert closed_form(branch, R, 4) == (4, {15: 1}, full)
    # restrictions on other roles are not read
    assert closed_form(branch | {AtMost(0, S, A)}, R) == closed_form(branch, R)


def chain_system(depth, rows, failed):
    """The system on fillers top, C1..C(depth), Ck being k nested
    (atleast 1 R ...) around top, with the given rows, its clashed atoms
    zeroed (those without top) and the atoms `failed` picks, as the chain
    with an inverse in tests/families.py zeroes atoms whose children
    failed."""
    chain = [TOP]
    for _ in range(depth):
        chain.append(AtLeast(1, R, chain[-1]))
    system = build_lii(frozenset(row(c) for row, c in zip(rows, chain)), R)
    assert system.fillers == tuple(chain)
    dead = sum(1 << (m - 1) for m in system.atom_masks() if failed(m))
    return zero_column(system, clashed_atoms(system.fillers) | dead)


def at_least(bound):
    return lambda filler: AtLeast(bound, R, filler)


def at_most(bound):
    return lambda filler: AtMost(bound, R, filler)


def test_an_at_least_sum_no_live_atom_adds_to_is_refuted_before_any_step():
    # the chain with an inverse, d=9 in tests/families.py, solves this
    # system at one of its nodes: at least one successor in top, none in
    # C1, at least one in each of C2..C7.  Zeroed are the 127 atoms without
    # top (they clash) and the 32 that hold top and C2 but not C1, whose
    # children failed; every other atom holding C2 holds C1, under the
    # at-most 0.  No live atom adds to C2's sum, so no search step is
    # taken: the search alone took 1,335
    system = chain_system(
        7, [at_least(1), at_most(0)] + [at_least(1)] * 6, lambda m: m & 0b111 == 0b101
    )
    assert bin(system.zeroed).count("1") == 159
    assert feasible(system, max_steps=0) is None


def test_the_memo_clamps_at_least_sums():
    # on top and C1..C6: at least one successor in top, at most one in C1,
    # at least two in C2, at least one in each of C3..C6.  Zeroed are the
    # 63 atoms without top and the 16 that hold top and C2 but not C1.  The
    # 16 live atoms holding C2 all hold C1, so together they add at most 1
    # to C2's sum: infeasible, but every at-least sum has a live atom, so
    # the search must try the ways to meet the rows of C3..C6 before it
    # fails.  The memo tells those ways apart only by the sums clamped at
    # their at-least bound: keyed by the raw sums, the search runs past
    # 50,000 steps, against 643
    system = chain_system(
        6, [at_least(1), at_most(1), at_least(2)] + [at_least(1)] * 4,
        lambda m: m & 0b111 == 0b101,
    )
    assert bin(system.zeroed).count("1") == 79
    with pytest.raises(SolverLimitError):
        feasible(system, max_steps=0)  # no pre-check refutes it
    assert feasible(system, max_steps=2_000) is None


def test_an_at_most_sum_holding_every_later_atom_caps_the_room():
    # counting #219's role: at least 10 successors in A0, 7 in A1, at most
    # 3 in A2 and 5 in (not A3).  Past atom 11 every atom holding A0 or A1
    # also holds A2, so together they add at most 3 to either sum, and that
    # room makes atom 11 take the rest.  Bounding the room by the sum of
    # the at-most bounds those atoms lie in, 8, took the search 568 steps
    branch = frozenset({
        AtLeast(10, R, Atom("A0")), AtLeast(7, R, Atom("A1")),
        AtMost(3, R, Atom("A2")), AtMost(5, R, NegAtom("A3")),
    })
    system = build_lii(branch, R)
    assert system.fillers == (Atom("A0"), Atom("A1"), Atom("A2"), NegAtom("A3"))
    assert feasible(system, max_steps=64) == {3: 2, 7: 3, 11: 5}


# fillers over three names, top, bottom and a junction with its negation:
# complementary pairs, lone clashes and fillers primitive_clash reads as
# opaque.  Without the junctions at most eight atoms survive the clash
# zeroing, one per sign of A, B and C, which the brute force can search
READING_FILLERS = [
    A, NegAtom("A"), B, NegAtom("B"), C, NegAtom("C"), TOP, BOTTOM,
    conj([A, B]), negate(conj([A, B])),
]


@st.composite
def role_restrictions(draw):
    """A branch with restrictions on R over one to six distinct fillers,
    some fillers under several (at-most 0 among them), at least one
    positive at-least, and restrictions on S beside them."""
    fillers = draw(st.lists(st.sampled_from(READING_FILLERS), min_size=1, max_size=6, unique=True))
    restriction = st.one_of(
        st.builds(AtLeast, st.integers(1, 2), st.just(R), st.sampled_from(fillers)),
        st.builds(AtMost, st.integers(0, 4), st.just(R), st.sampled_from(fillers)),
    )
    branch = set(draw(st.lists(restriction, min_size=len(fillers), max_size=len(fillers) + 3)))
    for f in fillers:
        if not any(c.filler is f for c in branch):
            branch.add(AtMost(draw(st.integers(0, 4)), R, f))
    branch.add(AtLeast(draw(st.integers(1, 2)), R, draw(st.sampled_from(fillers))))
    other = st.builds(AtMost, st.integers(0, 2), st.just(S), st.sampled_from(READING_FILLERS))
    branch.update(draw(st.lists(other, max_size=2)))
    return frozenset(branch)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(role_restrictions())
def test_the_role_reading_matches_the_brute_force(branch):
    # closed_form's answer, the first solve of the system built from its
    # reading and the reading's clash mask, each against the plain
    # definitions: the brute-force lexicographic search over the full
    # decomposition with the atoms primitive_clash finds zeroed.  The
    # system built from the reading, whether closed_form declined or
    # answered (then the engine builds it when the answer's child fails),
    # equals the one built from the branch alone, dump included
    reading = Reading()
    answer = closed_form(branch, R, None, reading)
    reference = zero_clashed_atoms(build_lii(branch, R))
    atoms = atomic_decomposition(list(reference.fillers))
    clashed = [m for m, atom in enumerate(atoms, 1) if primitive_clash(atom)]
    assert zeroed_masks(reference) == clashed
    assert clashed_atoms(reference.fillers) == reference.zeroed
    if reading.clashed is not None:
        assert clashed_atoms(reference.fillers, reading) == reference.zeroed
    system = engine._system(branch, R, reading)
    assert same_system(system, reference)
    assert same_system(system, engine._system(branch, R))
    assert reading.restrictions is not None
    assert frozenset(reading.restrictions) == frozenset(c for c in branch if c.role is R)
    # no atom of the smallest solution exceeds the largest at-least bound
    most = max(c.bound for c in branch if type(c) is AtLeast and c.role is R)
    if (most + 1) ** (len(atoms) - len(clashed)) > 10_000:
        return  # past what the brute force searches in time
    found = brute_force_feasible(reference, cap=most)
    want = None if found is None else {m: v for m, v in found.items() if v}
    assert feasible(system) == want
    if answer is not None:
        width, solution, atom = answer
        assert (width, solution) == (reference.width, want)
        if solution is not None:
            (mask,) = solution
            assert atom == atoms[mask - 1]
