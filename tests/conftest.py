"""Shared generators and brute-force reference implementations."""

from __future__ import annotations

import random

from alcqisat import (
    And,
    AtLeast,
    AtMost,
    Atom,
    Interpretation,
    LiiSystem,
    Not,
    Or,
    Role,
    Solution,
    SolverLimitError,
    TOP,
    conj,
    disj,
)
from alcqisat.syntax import sorted_concepts


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
    the sum of the at-least bounds.  Reference for the solver."""
    masks = [m for m in system.atom_masks() if m not in system.zeroed]
    if cap is None:
        cap = sum(r.bound for r in system.rows if not r.is_at_most)

    def rows_ok(values: dict) -> bool:
        for row in system.rows:
            total = sum(v for m, v in values.items() if (row.coeff_mask >> (m - 1)) & 1)
            if row.is_at_most and total > row.bound:
                return False
            if not row.is_at_most and total < row.bound:
                return False
        return True

    def search(i: int, values: dict):
        if i == len(masks):
            return dict(values) if rows_ok(values) else None
        for v in range(cap + 1):
            values[masks[i]] = v
            found = search(i + 1, values)
            if found is not None:
                return found
        del values[masks[i]]
        return None

    return search(0, {})


def reference_feasible(system: LiiSystem, max_steps: int = 2_000_000) -> Solution | None:
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
    return Solution(values=tuple((m, v) for m, v in sorted(chosen.items()) if v > 0))


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
    from alcqisat import Bottom, NegAtom, Top

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
