"""Bounded-domain model finder.

Ground-truth semantics for tests: interprets concepts over explicit finite
structures and searches all interpretations up to a small domain size, in a
fixed candidate order.  For each domain size n the search compiles goal and
axiom into bitmask ops, folding every number restriction whose value n
decides (an at-least above n, an at-most of n or more) to a constant; it
evaluates each op at the loop that fixes its value, and skips every
candidate below a loop value that already fails.  A folded op has the value
the restriction has on every size-n candidate, and a skipped candidate
fails a check it cannot change, so the search returns the model a plain
enumeration of the same order returns.  A negative answer is never a proof
of unsatisfiability; the result type says how far the search went.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .syntax import (
    And,
    AtLeast,
    AtMost,
    Atom,
    Bottom,
    Concept,
    NegAtom,
    Not,
    Or,
    Role,
    TOP,
    Top,
    signature_of,
)


class OracleLimitError(RuntimeError):
    """Search-space guard exceeded; the caller asked for a larger signature
    or domain than the bounded search is willing to cover."""


@dataclass(frozen=True)
class Interpretation:
    """Explicit finite structure over domain {0, .., domain_size - 1}.

    Role extensions store the base role only; the inverse is definitional,
    (x, y) in R iff (y, x) in R-inverse.
    """

    domain_size: int
    concept_extensions: Mapping[str, frozenset[int]]
    role_extensions: Mapping[str, frozenset[tuple[int, int]]]

    def neighbors(self, role: Role, x: int) -> list[int]:
        pairs = self.role_extensions.get(role.base, frozenset())
        if role.inverted:
            return [y for (y, z) in pairs if z == x]
        return [y for (z, y) in pairs if z == x]

    def dump(self) -> str:
        lines = [f"domain: {list(range(self.domain_size))}"]
        for name in sorted(self.concept_extensions):
            lines.append(f"concept {name}: {sorted(self.concept_extensions[name])}")
        for name in sorted(self.role_extensions):
            pairs = sorted(self.role_extensions[name])
            lines.append(f"role {name}: {pairs}")
        return "\n".join(lines)


@dataclass(frozen=True)
class NoneFound:
    """No model up to the given domain size.  Not an unsatisfiability proof."""

    searched_max_domain: int


def evaluate(interp: Interpretation, c: Concept, element: int) -> bool:
    """Truth of a concept at an element.  Handles raw negation too; unknown
    atomic names evaluate as empty."""
    if isinstance(c, Top):
        return True
    if isinstance(c, Bottom):
        return False
    if isinstance(c, Atom):
        return element in interp.concept_extensions.get(c.name, frozenset())
    if isinstance(c, NegAtom):
        return element not in interp.concept_extensions.get(c.name, frozenset())
    if isinstance(c, Not):
        return not evaluate(interp, c.sub, element)
    if isinstance(c, And):
        return all(evaluate(interp, p, element) for p in c.parts)
    if isinstance(c, Or):
        return any(evaluate(interp, p, element) for p in c.parts)
    if isinstance(c, (AtMost, AtLeast)):
        count = sum(
            1 for y in interp.neighbors(c.role, element) if evaluate(interp, c.filler, y)
        )
        if isinstance(c, AtMost):
            return count <= c.bound
        return count >= c.bound
    raise TypeError(f"unknown concept node: {c!r}")


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

# opcodes of a compiled subterm
_TOP, _BOTTOM, _ATOM, _NEG_ATOM, _NOT, _AND, _OR, _AT_MOST, _AT_LEAST = range(9)


@dataclass
class _Program:
    """Goal and axiom compiled for one domain size to slot ops, staged by
    the sweep depth at which their value is fixed (see `_compile`)."""

    stages: list[list[tuple]]  # ops per depth, children before parents
    axiom_parts: list[list[int]]  # slots per depth that must be full
    goal_parts: list[list[int]]  # slots per depth whose meet must be non-empty
    n_slots: int


def _compile(
    goal: Concept, axiom: Concept, atom_list: list[str], role_list: list[str], n: int
) -> _Program:
    """One walk over goal and axiom for the candidates over domain {0..n-1}.

    Every subterm becomes an op `(opcode, slot, *args)`; its slot will hold
    the subterm's extension as a bitmask.  Concepts are hash-consed, so
    equal subterms are one object and share the slot of the first visit.
    An op's depth is 0 when it depends on the atoms only, else
    `len(role_list) - k` for the smallest index k of a role it counts over:
    role k's loop sits at that depth of the sweep.

    A subterm whose extension is the same on every size-n candidate folds
    to a `_TOP` or `_BOTTOM` op at depth 0: an at-least above n or an
    at-most of n or more, a restriction over a bottom filler, and the
    junctions and negations these make constant.  A junction keeps its
    other parts, and one left with a single part is that part, so a
    conjunct whose deep parts fold away is checked at a shallower loop.
    """
    atom_index = {name: i for i, name in enumerate(atom_list)}
    role_index = {name: k for k, name in enumerate(role_list)}
    n_roles = len(role_list)
    stages: list[list[tuple]] = [[] for _ in range(n_roles + 1)]
    depths: list[int] = []
    seen: dict[int, int] = {}
    # slot of the folded constant, by truth value
    constant: dict[bool, int] = {}

    def emit(code: int, args: tuple, depth: int) -> int:
        slot = len(depths)
        depths.append(depth)
        stages[depth].append((code, slot) + args)
        return slot

    def fold(value: bool) -> int:
        slot = constant.get(value)
        if slot is None:
            slot = constant[value] = emit(_TOP if value else _BOTTOM, (), 0)
        return slot

    def visit(c: Concept) -> int:
        slot = seen.get(id(c))
        if slot is None:
            seen[id(c)] = slot = build(c)
        return slot

    def build(c: Concept) -> int:
        kind = type(c)
        if kind is AtMost or kind is AtLeast:
            at_most = kind is AtMost
            # bounds first: an at-most -1 is bottom even over a bottom filler
            if c.bound >= n if at_most else c.bound <= 0:
                return fold(True)
            if c.bound < 0 if at_most else c.bound > n:
                return fold(False)
            filler = visit(c.filler)
            if filler == constant.get(False):
                return fold(at_most)
            k = role_index[c.role.base]
            args: tuple = (filler, k, c.role.inverted, c.bound)
            return emit(_AT_MOST if at_most else _AT_LEAST, args, max(depths[filler], n_roles - k))
        if kind is And or kind is Or:
            # the junction's unit drops out, its negation decides it
            unit = kind is And
            parts = []
            for p in c.parts:
                slot = visit(p)
                if slot == constant.get(not unit):
                    return slot
                if slot != constant.get(unit):
                    parts.append(slot)
            if not parts:
                return fold(unit)
            if len(parts) == 1:
                return parts[0]
            return emit(_AND if unit else _OR, (tuple(parts),), max(depths[p] for p in parts))
        if kind is Not:
            sub = visit(c.sub)
            for value in (True, False):
                if sub == constant.get(value):
                    return fold(not value)
            return emit(_NOT, (sub,), depths[sub])
        if kind is Atom or kind is NegAtom:
            return emit(_ATOM if kind is Atom else _NEG_ATOM, (atom_index[c.name],), 0)
        if kind is Top or kind is Bottom:
            return fold(kind is Top)
        raise TypeError(f"unknown concept node: {c!r}")

    def conjuncts(c: Concept) -> list[list[int]]:
        by_depth: list[list[int]] = [[] for _ in range(n_roles + 1)]
        for part in c.parts if isinstance(c, And) else (c,):
            slot = visit(part)
            by_depth[depths[slot]].append(slot)
        return by_depth

    goal_parts = conjuncts(goal)
    return _Program(stages, conjuncts(axiom), goal_parts, len(depths))


def _sweep(program: _Program, n: int, n_atoms: int, n_roles: int) -> tuple[list[int], list[int]] | None:
    """The first candidate over domain {0..n-1} that is a model, as its
    (atom masks, role masks), or None.

    Candidates run in `find_model`'s order: the atom bits outermost, then
    one loop per role, the last sorted role outermost and role 0 innermost.
    Entering a value at a depth evaluates that depth's ops, checks that the
    axiom conjuncts fixed there are full and that the goal conjuncts fixed
    so far still meet; a failed check skips every candidate below, since
    none of them can change the failed values.
    """
    full = (1 << n) - 1
    ext = [0] * program.n_slots
    atom_masks = [0] * n_atoms
    role_masks = [0] * n_roles
    stages, axiom_parts, goal_parts = program.stages, program.axiom_parts, program.goal_parts
    # meet of the goal conjuncts fixed down to each depth
    goal_meet = [full] * (n_roles + 1)
    # number restriction results per (slot, role mask, filler mask), and
    # neighbour rows per (role mask, inverted), built when first asked for
    counted: dict[tuple[int, int, int], int] = {}
    rows_of: dict[tuple[int, bool], list[int]] = {}

    def holds(depth: int) -> bool:
        for op in stages[depth]:
            code = op[0]
            if code >= _AT_MOST:
                _, slot, filler, k, inverted, bound = op
                role, fill = role_masks[k], ext[filler]
                key = (slot, role, fill)
                mask = counted.get(key)
                if mask is None:
                    rows = rows_of.get((role, inverted))
                    if rows is None:
                        rows = rows_of[role, inverted] = _neighbour_rows(n, role, inverted)
                    mask = 0
                    for x, row in enumerate(rows):
                        count = (row & fill).bit_count()
                        if (count <= bound) if code == _AT_MOST else (count >= bound):
                            mask |= 1 << x
                    counted[key] = mask
            elif code == _AND:
                mask = full
                for p in op[2]:
                    mask &= ext[p]
            elif code == _OR:
                mask = 0
                for p in op[2]:
                    mask |= ext[p]
            elif code == _ATOM:
                mask = atom_masks[op[2]]
            elif code == _NEG_ATOM:
                mask = full & ~atom_masks[op[2]]
            elif code == _NOT:
                mask = full & ~ext[op[2]]
            else:
                mask = full if code == _TOP else 0
            ext[op[1]] = mask
        for slot in axiom_parts[depth]:
            if ext[slot] != full:
                return False
        meet = goal_meet[depth - 1] if depth else full
        for slot in goal_parts[depth]:
            meet &= ext[slot]
        goal_meet[depth] = meet
        return meet != 0

    def descend(depth: int) -> bool:
        k = n_roles - depth
        for mask in range(1 << (n * n)):
            role_masks[k] = mask
            if holds(depth) and (k == 0 or descend(depth + 1)):
                return True
        return False

    for atom_bits in range(1 << (n * n_atoms)):
        for i in range(n_atoms):
            atom_masks[i] = (atom_bits >> (i * n)) & full
        if holds(0) and (n_roles == 0 or descend(1)):
            return atom_masks, role_masks
    return None


def _neighbour_rows(n: int, mask: int, inverted: bool) -> list[int]:
    """Row x holds x's neighbours, as a bitmask, under the role whose pairs
    (x, y) are the bits x*n + y of mask, or under its inverse."""
    full = (1 << n) - 1
    rows = [(mask >> (x * n)) & full for x in range(n)]
    if inverted:
        rows = [sum(((rows[x] >> y) & 1) << x for x in range(n)) for y in range(n)]
    return rows


def find_model(
    goal: Concept,
    axiom: Concept = TOP,
    *,
    max_domain: int = 3,
    max_atoms: int = 3,
    max_roles: int = 2,
    budget: int = 2_000_000,
) -> Interpretation | NoneFound:
    """Search for an interpretation where every element satisfies the axiom
    and some element satisfies the goal.

    Domain sizes ascend; within a size, candidates run in lexicographic order
    over the concatenated extension bitmaps (atoms first, then roles, names
    sorted), so the first model found is reproducible.  Returns NoneFound
    with the largest fully searched size when the search space for the next
    size would blow the candidate budget.

    The search is a staged sweep over that same order (`_sweep`): for each
    size n, goal and axiom are compiled into bitmask ops (`_compile`), with
    every subterm that has one value on all size-n candidates folded to a
    constant: at-least bounds above n, at-most bounds of n or more,
    restrictions over a bottom filler, and what these make constant.  Each
    op is evaluated once per value of the innermost loop it depends on, and
    a loop value that empties the goal or leaves an axiom conjunct short of
    the whole domain skips all the candidates nested inside it.  Folding
    changes no op's value on any candidate and skipping drops only
    candidates that fail, so the first model is the one the plain
    enumeration returns.  The budget still counts each size's whole
    candidate space, skipped candidates included.
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
    spent = 0
    searched = 0
    for n in range(1, max_domain + 1):
        space = (1 << (n * len(atom_list))) * (1 << (n * n * len(role_list)))
        if spent + space > budget:
            return NoneFound(searched_max_domain=searched)
        spent += space
        program = _compile(goal, axiom, atom_list, role_list, n)
        found = _sweep(program, n, len(atom_list), len(role_list))
        if found is not None:
            return _materialize(n, dict(zip(atom_list, found[0])), dict(zip(role_list, found[1])))
        searched = n
    return NoneFound(searched_max_domain=searched)


def _materialize(n: int, atom_masks: dict[str, int], role_masks: dict[str, int]) -> Interpretation:
    concept_ext = {
        name: frozenset(x for x in range(n) if (mask >> x) & 1)
        for name, mask in atom_masks.items()
    }
    role_ext = {
        name: frozenset(
            (x, y) for x in range(n) for y in range(n) if (mask >> (x * n + y)) & 1
        )
        for name, mask in role_masks.items()
    }
    return Interpretation(
        domain_size=n,
        concept_extensions=concept_ext,
        role_extensions=role_ext,
    )
