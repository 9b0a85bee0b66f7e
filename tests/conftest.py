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
