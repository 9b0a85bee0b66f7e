"""Shared generators and brute-force reference implementations."""

from __future__ import annotations

import importlib.util
import itertools
import random
from pathlib import Path

import alcqisat.engine as engine
from alcqisat import (
    And,
    AtLeast,
    AtMost,
    Atom,
    Interpretation,
    LiiSystem,
    NogoodStore,
    NoneFound,
    Not,
    OracleLimitError,
    Or,
    Problem,
    Role,
    SolverLimitError,
    TOP,
    atomic_decomposition,
    build_lii,
    closed_form,
    conj,
    cut_formula,
    disj,
    feasible,
    zero_column,
)
from alcqisat.lii import clashed_atoms
from alcqisat.syntax import (
    BOTTOM,
    Bottom,
    Concept,
    NegAtom,
    Top,
    concept_key,
    negate,
    signature_of,
    sorted_concepts,
    walk_concepts,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name: str):
    """bench/<name>.py, imported without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_nogoods_are_new(tableau, trace: list[str]) -> None:
    """A run builds one tree and stores each failure once: no restart, one
    NOGOOD line per stored triple, no triple covered by one stored before
    it, and at most one triple per node (its label) and per solve (an
    infeasible system)."""
    stats = tableau.stats
    lines = [line for line in trace if line.startswith("NOGOOD ")]
    assert stats.restarts == 0
    assert stats.nogoods == len(lines) == len(tableau.nogoods)
    position = {line: i for i, line in enumerate(lines)}
    assert len(position) == len(lines), "a NOGOOD line repeats"

    def line_of(t):
        return (f"NOGOOD cut={engine._fmt_cut(t.cut, t.edge)} edge={engine._fmt_edge(t.edge)} "
                f"body={engine._fmt_set(t.body)}")

    earlier = NogoodStore()
    for triple in sorted(tableau.nogoods, key=lambda t: position[line_of(t)]):
        assert earlier.hit(*triple) is None, f"{triple} is covered by an earlier triple"
        earlier.add(triple)
    assert stats.nogoods <= stats.nodes + stats.lii_solves


def random_raw_concept(rng: random.Random, depth: int, atoms=("A", "B", "C"), roles=("R", "S")):
    """Concept with free-form negation, for exercising NNF conversion."""
    if depth <= 0:
        pick = rng.randrange(6)
        if pick == 0:
            return TOP
        name = rng.choice(atoms)
        if pick <= 3:
            return Atom(name)
        return Not(Atom(name))
    pick = rng.randrange(12)
    if pick < 2:
        return random_raw_concept(rng, 0, atoms, roles)
    if pick < 5:
        return conj(random_raw_concept(rng, depth - 1, atoms, roles) for _ in range(2))
    if pick < 8:
        return disj(random_raw_concept(rng, depth - 1, atoms, roles) for _ in range(2))
    if pick < 10:
        return Not(random_raw_concept(rng, depth - 1, atoms, roles))
    role = Role(rng.choice(roles), inverted=rng.random() < 0.3)
    filler = random_raw_concept(rng, depth - 1, atoms, roles)
    if pick == 10:
        return AtLeast(rng.randint(0, 3), role, filler)
    return AtMost(rng.randint(0, 3), role, filler)


def random_interpretation(rng: random.Random, max_domain=3, atoms=("A", "B", "C"), roles=("R", "S")):
    n = rng.randint(1, max_domain)
    concept_ext = {
        name: frozenset(x for x in range(n) if rng.random() < 0.5) for name in atoms
    }
    role_ext = {
        name: frozenset(
            (x, y) for x in range(n) for y in range(n) if rng.random() < 0.4
        )
        for name in roles
    }
    return Interpretation(
        domain_size=n, concept_extensions=concept_ext, role_extensions=role_ext
    )


def brute_force_feasible(system: LiiSystem, cap: int | None = None) -> dict | None:
    """Exhaustive search over all assignments with each variable bounded by
    the sum of the at-least bounds.  Reference for the solver.  Candidates
    run in lexicographic order, the first variable slowest."""
    masks = [m for m in system.atom_masks() if m not in system.zeroed]
    if cap is None:
        cap = sum(r.bound for r in system.rows if not r.is_at_most)
    # per row: the positions of the variables it sums, its bound and kind
    rows = [
        (
            [i for i, m in enumerate(masks) if (row.coeff_mask >> (m - 1)) & 1],
            row.bound,
            row.is_at_most,
        )
        for row in system.rows
    ]
    for values in itertools.product(range(cap + 1), repeat=len(masks)):
        for columns, bound, is_at_most in rows:
            total = sum(values[i] for i in columns)
            if total > bound if is_at_most else total < bound:
                break
        else:
            return dict(zip(masks, values))
    return None


def closed_form_agrees(branch, role) -> str | None:
    """Assert that closed_form answers exactly where feasible's answer, on
    build_lii's system with the clashed atoms zeroed, is forced.  It
    refutes exactly when feasible refutes by its interval pre-check, the
    one answer it gives without a search step.  Otherwise it answers
    exactly when feasible puts the largest at-least bound on the highest
    live atom (not clashed, under no at-most 0), and then with that
    solution and that atom's literal set.  Returns "refuted", "full" (the
    answer is on the full atom), "atom" (on another atom) or None when it
    did not answer.  The branch needs a positive at-least on the role, as
    every role the engine solves has."""
    system = build_lii(branch, role)
    for mask in clashed_atoms(system.fillers):
        system = zero_column(system, mask)
    most = max(c.bound for c in branch if type(c) is AtLeast and c.role is role)
    assert most > 0
    answer = closed_form(branch, role)
    try:
        refuted = feasible(system, max_steps=0) is None
    except SolverLimitError:
        refuted = False
    assert (answer is not None and answer[1] is None) == refuted, system.describe()
    if refuted:
        return "refuted"
    dead = set(system.zeroed)
    for row in system.rows:
        if row.is_at_most and row.bound == 0:
            dead.update(m for m in system.atom_masks() if (row.coeff_mask >> (m - 1)) & 1)
    live = [m for m in system.atom_masks() if m not in dead]
    want = {live[-1]: most} if live else None
    assert (answer is not None) == (want is not None and feasible(system) == want), system.describe()
    if answer is None:
        return None
    atoms = atomic_decomposition(list(system.fillers))
    assert answer == (system.width, want, atoms[live[-1] - 1])
    return "full" if live[-1] == len(atoms) else "atom"


def reference_feasible(system: LiiSystem, max_steps: int = 2_000_000) -> dict[int, int] | None:
    """The plain recursive search `lii.feasible` replaced: every variable
    capped at the sum of the at-least bounds, no interval pre-check, no
    memo.  Reference for the solution `feasible` must return."""
    for row in system.rows:
        if row.bound < 0:
            raise ValueError("negative row bound; clash detection should run first")

    masks = [m for m in system.atom_masks() if m not in system.zeroed]
    cap = sum(row.bound for row in system.rows if not row.is_at_most)
    rows = system.rows
    n_rows = len(rows)
    # max the atoms after position i can still add to each row
    suffix_cap = [[0] * n_rows for _ in range(len(masks) + 1)]
    for i in range(len(masks) - 1, -1, -1):
        bit = 1 << (masks[i] - 1)
        for r in range(n_rows):
            extra = cap if (rows[r].coeff_mask & bit) else 0
            suffix_cap[i][r] = suffix_cap[i + 1][r] + extra

    sums = [0] * n_rows
    chosen: dict[int, int] = {}
    steps = 0

    def assign(i: int) -> bool:
        nonlocal steps
        steps += 1
        if steps > max_steps:
            raise SolverLimitError(f"feasibility search exceeded {max_steps} steps")
        if i == len(masks):
            return all(
                (s <= r.bound) if r.is_at_most else (s >= r.bound)
                for s, r in zip(sums, rows)
            )
        bit = 1 << (masks[i] - 1)
        lo, hi = 0, cap
        for r in range(n_rows):
            row = rows[r]
            if row.is_at_most:
                if row.coeff_mask & bit:
                    hi = min(hi, row.bound - sums[r])
                elif sums[r] > row.bound:
                    return False
            else:
                reachable = sums[r] + suffix_cap[i + 1][r]
                if row.coeff_mask & bit:
                    lo = max(lo, row.bound - reachable)
                elif reachable < row.bound:
                    return False
        if lo > hi:
            return False
        for value in range(lo, hi + 1):
            if value:
                for r in range(n_rows):
                    if rows[r].coeff_mask & bit:
                        sums[r] += value
            chosen[masks[i]] = value
            if assign(i + 1):
                return True
            if value:
                for r in range(n_rows):
                    if rows[r].coeff_mask & bit:
                        sums[r] -= value
        del chosen[masks[i]]
        return False

    if not assign(0):
        return None
    return {m: v for m, v in sorted(chosen.items()) if v > 0}


def reference_primitive_clash(branch) -> bool:
    """`branch.primitive_clash` as it was before it dropped the sort: each
    kind of clash checked in canonical literal order.  Reference for its
    result."""
    ordered = sorted_concepts(branch)
    for lit in ordered:
        if isinstance(lit, Bottom):
            return True
    for lit in ordered:
        if negate(lit) in branch:
            return True
    for lit in ordered:
        if isinstance(lit, AtMost) and lit.bound < 0:
            return True
    return False


def reference_negate(c: Concept) -> Concept:
    """`syntax.negate` recomputed from the structure on every call, never
    reading the negation cached on a node.  Reference for that cache."""
    if isinstance(c, Top):
        return BOTTOM
    if isinstance(c, Bottom):
        return TOP
    if isinstance(c, Atom):
        return NegAtom(c.name)
    if isinstance(c, NegAtom):
        return Atom(c.name)
    if isinstance(c, And):
        return disj(reference_negate(p) for p in c.parts)
    if isinstance(c, Or):
        return conj(reference_negate(p) for p in c.parts)
    if isinstance(c, AtMost):
        return AtLeast(c.bound + 1, c.role, c.filler)
    if isinstance(c, AtLeast):
        return BOTTOM if c.bound == 0 else AtMost(c.bound - 1, c.role, c.filler)
    assert isinstance(c, Not)
    return _reference_nnf(c.sub)


def _reference_nnf(c: Concept) -> Concept:
    if isinstance(c, Not):
        return reference_negate(_reference_nnf(c.sub))
    if isinstance(c, And):
        return conj(_reference_nnf(p) for p in c.parts)
    if isinstance(c, Or):
        return disj(_reference_nnf(p) for p in c.parts)
    if isinstance(c, AtLeast):
        return TOP if c.bound == 0 else AtLeast(c.bound, c.role, _reference_nnf(c.filler))
    if isinstance(c, AtMost):
        return AtMost(c.bound, c.role, _reference_nnf(c.filler))
    return c


def restriction_pairs(*concepts: Concept) -> set:
    """The (role, filler) pair of every number restriction in the concepts,
    whether or not an inverse edge reads it: a cut for each is the
    unfiltered calculus that cut_table's filter is checked against."""
    return {(c.role, c.filler) for c in walk_concepts(*concepts) if isinstance(c, (AtMost, AtLeast))}


def _with_cuts(problem: Problem, pairs: set) -> Problem:
    """The problem with a cut formula for each pair, in cut_table's order."""
    cuts = tuple(sorted(pairs, key=lambda p: (p[0].base, p[0].inverted, concept_key(p[1]))))
    return Problem(problem.goal, problem.axiom, cuts, frozenset(cut_formula(*p) for p in cuts))


def with_every_cut(problem: Problem) -> Problem:
    """The problem with a cut formula for every (role, filler) pair of its
    number restrictions, not only the pairs an inverse edge reads."""
    return _with_cuts(problem, restriction_pairs(problem.goal, problem.axiom))


def with_named_inverse_cuts(problem: Problem) -> Problem:
    """The problem with a cut formula for every pair whose inverse role a
    number restriction names, the pairs that cut_table drops because only
    the root holds them included."""
    pairs = restriction_pairs(problem.goal, problem.axiom)
    named = {role for role, _ in pairs}
    return _with_cuts(problem, {(role, filler) for role, filler in pairs if role.inverse() in named})


def unpruned_branches(label):
    """DNF disjuncts of the label with clashed ones kept, in the order and
    with the set dedup of `enumerate_branches`.  Reference for its pruning."""
    seen = set()

    def walk(work, acc):
        while work:
            head, work = work[0], work[1:]
            if isinstance(head, And):
                work = head.parts + work
            elif isinstance(head, Or):
                for part in head.parts:
                    yield from walk((part,) + work, acc)
                return
            else:
                acc = acc | {head}
        if acc not in seen:
            seen.add(acc)
            yield acc

    return walk(tuple(sorted_concepts(set(label))), frozenset())


def propositional_skeleton(concept):
    """Distinct leaf propositions of a concept, treating number restrictions
    as opaque.  Negated atoms map to their positive atom."""
    leaves = set()

    def walk(c):
        if isinstance(c, (And, Or)):
            for p in c.parts:
                walk(p)
        elif isinstance(c, NegAtom):
            leaves.add(Atom(c.name))
        elif isinstance(c, (Top, Bottom)):
            pass
        else:
            leaves.add(c)

    walk(concept)
    return sorted(leaves, key=lambda x: str(x))


def _collect_nodes(c: Concept, acc: list[Concept]) -> None:
    if c not in acc:
        if isinstance(c, (And, Or)):
            for p in c.parts:
                _collect_nodes(p, acc)
        elif isinstance(c, Not):
            _collect_nodes(c.sub, acc)
        elif isinstance(c, (AtMost, AtLeast)):
            _collect_nodes(c.filler, acc)
        acc.append(c)


def _extension_masks(
    nodes: list[Concept],
    goal: Concept,
    axiom: Concept,
    n: int,
    atom_masks: dict[str, int],
    fwd: dict[str, list[int]],
    bwd: dict[str, list[int]],
) -> tuple[int, int]:
    """Bitmask extensions of goal and axiom over domain {0..n-1}, computed
    bottom-up over the shared sub-term list."""
    full = (1 << n) - 1
    ext: dict[Concept, int] = {}
    for c in nodes:
        if isinstance(c, Top):
            ext[c] = full
        elif isinstance(c, Bottom):
            ext[c] = 0
        elif isinstance(c, Atom):
            ext[c] = atom_masks.get(c.name, 0)
        elif isinstance(c, NegAtom):
            ext[c] = full & ~atom_masks.get(c.name, 0)
        elif isinstance(c, Not):
            ext[c] = full & ~ext[c.sub]
        elif isinstance(c, And):
            m = full
            for p in c.parts:
                m &= ext[p]
            ext[c] = m
        elif isinstance(c, Or):
            m = 0
            for p in c.parts:
                m |= ext[p]
            ext[c] = m
        else:
            neigh = bwd[c.role.base] if c.role.inverted else fwd[c.role.base]
            filler = ext[c.filler]
            m = 0
            for x in range(n):
                count = (neigh[x] & filler).bit_count()
                ok = count <= c.bound if isinstance(c, AtMost) else count >= c.bound
                if ok:
                    m |= 1 << x
            ext[c] = m
    return ext[goal], ext[axiom]


def reference_find_model(
    goal: Concept,
    axiom: Concept = TOP,
    *,
    max_domain: int = 3,
    max_atoms: int = 3,
    max_roles: int = 2,
    budget: int = 2_000_000,
) -> Interpretation | NoneFound:
    """The brute-force search `oracle.find_model` replaced, copied verbatim:
    every candidate of every domain size in order, each subterm evaluated
    afresh per candidate.  Reference for the result `find_model` must return.

    Search for an interpretation where every element satisfies the axiom
    and some element satisfies the goal.

    Domain sizes ascend; within a size, candidates run in lexicographic order
    over the concatenated extension bitmaps (atoms first, then roles, names
    sorted), so the first model found is reproducible.  Returns NoneFound
    with the largest fully searched size when the search space for the next
    size would blow the candidate budget.
    """
    atoms, roles = signature_of(goal, axiom)
    if len(atoms) > max_atoms or len(roles) > max_roles:
        raise OracleLimitError(
            f"signature too large for brute-force search: "
            f"{len(atoms)} atoms, {len(roles)} roles"
        )
    if max_domain > 3:
        raise OracleLimitError(f"max_domain {max_domain} exceeds the search guard of 3")

    atom_list = sorted(atoms)
    role_list = sorted(roles)
    nodes: list[Concept] = []
    _collect_nodes(goal, nodes)
    _collect_nodes(axiom, nodes)
    spent = 0
    searched = 0
    for n in range(1, max_domain + 1):
        space = (1 << (n * len(atom_list))) * (1 << (n * n * len(role_list)))
        if spent + space > budget:
            return NoneFound(searched_max_domain=searched)
        spent += space
        n_atom_combos = 1 << (n * len(atom_list))
        pair_bits = n * n
        n_role_combos = 1 << (pair_bits * len(role_list))
        for atom_bits in range(n_atom_combos):
            atom_masks = {
                name: (atom_bits >> (i * n)) & ((1 << n) - 1)
                for i, name in enumerate(atom_list)
            }
            for role_bits in range(n_role_combos):
                fwd: dict[str, list[int]] = {}
                bwd: dict[str, list[int]] = {}
                for i, name in enumerate(role_list):
                    mask = (role_bits >> (i * pair_bits)) & ((1 << pair_bits) - 1)
                    f = [(mask >> (x * n)) & ((1 << n) - 1) for x in range(n)]
                    b = [0] * n
                    for x in range(n):
                        for y in range(n):
                            if (f[x] >> y) & 1:
                                b[y] |= 1 << x
                    fwd[name] = f
                    bwd[name] = b
                goal_ext, axiom_ext = _extension_masks(
                    nodes, goal, axiom, n, atom_masks, fwd, bwd
                )
                if goal_ext != 0 and axiom_ext == (1 << n) - 1:
                    return _materialize(n, atom_masks, fwd)
        searched = n
    return NoneFound(searched_max_domain=searched)


def _materialize(n: int, atom_masks: dict[str, int], fwd: dict[str, list[int]]) -> Interpretation:
    concept_ext = {
        name: frozenset(x for x in range(n) if (mask >> x) & 1)
        for name, mask in atom_masks.items()
    }
    role_ext = {
        name: frozenset(
            (x, y) for x in range(n) for y in range(n) if (rows[x] >> y) & 1
        )
        for name, rows in fwd.items()
    }
    return Interpretation(
        domain_size=n,
        concept_extensions=concept_ext,
        role_extensions=role_ext,
    )
