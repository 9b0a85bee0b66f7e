"""Propositional branches of a node label, and their bound adjustment.

A branch is one disjunct of the label's disjunctive normal form, with number
restrictions treated as opaque propositions.  Branches are plain frozensets
of literal concepts, so equality and subset tests are set semantics.

The walk that yields them is DPLL-style: it skips disjunctions the partial
disjunct already satisfies, drops the parts that clash with it before
branching (taking a lone survivor without a choice point), and keeps the
partial disjunct on a trail that choice points rewind.  So not every
clash-free disjunct is yielded, but each contains one that is.  The clash
test on a tuned branch says whether it clashes (bottom, a complementary
pair, an at-most below zero), not how: the engine reads nothing else.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .syntax import (
    And,
    AtLeast,
    AtMost,
    Bottom,
    Concept,
    Or,
    Role,
    Top,
    negate,
    sorted_concepts,
)

Branch = frozenset  # frozenset[Concept]


# the filler decisions a parent's branch hands to a child across one edge:
# each entry (filler, holds), for a pair on the inverse of the edge's role,
# records whether the parent made the filler true or its negation; pairs
# where the parent chose the guard disjunct are absent
CutSet = frozenset  # frozenset[tuple[Concept, bool]]
EMPTY_CUT_SET: CutSet = frozenset()


def choice_literals(cut: CutSet) -> frozenset:
    """The concepts the parent committed to: filler or negated filler per
    entry."""
    return frozenset(f if holds else negate(f) for f, holds in cut)


def enumerate_branches(label: Iterable[Concept]) -> Iterator[Branch]:
    """Lazily yield the DNF disjuncts of the conjunction of the label that
    the walk below does not prove redundant.

    Every yielded set is a clash-free disjunct, and every clash-free
    disjunct contains a yielded set, so the yielded sets cover the same
    models.  Choices run depth-first over or-nodes in canonical child order,
    so the sequence is deterministic; sets equal to an earlier one are not
    yielded again.

    The walk is DPLL-style.  An or-node with a part already in the partial
    disjunct is satisfied and not branched on: every set another part would
    give is a superset of one still yielded.  Parts that are bottom or whose
    negation is in the partial disjunct are dropped before branching; a lone
    surviving part is taken without a choice point, and none left prunes
    the partial disjunct with all its extensions.

    The partial disjunct lives on a trail, a list of the literals added so
    far plus a membership set.  The label, sorted, and each and-node are
    read as a run of parts: the literals that lead it are added on the
    spot, and from its first junction on, the parts go onto the pending
    work, a cons list of (head, rest) pairs.  Canonical order puts an
    and-node's literals before its junctions, so only junctions are pushed.
    An or-node with several live parts pushes one choice point holding
    those parts, the index of the next to try, the pending work and the
    trail length to return to, so building one set of n literals costs
    O(n).  Choice points sit on an explicit stack, so nesting depth is
    bounded by memory, not by the recursion limit.
    """
    if not isinstance(label, (set, frozenset)):
        label = set(label)  # a repeated part would be walked twice
    parts = sorted_concepts(label)  # the label, read like an and-node
    work = None
    trail: list[Concept] = []
    members: set[Concept] = set()
    seen: set[Branch] = set()
    points: list[list] = []  # [live parts, next index, work, trail length]
    while True:
        for part in parts:
            kind = type(part)
            if kind is And or kind is Or:
                # the first junction is the first occurrence of its object
                for later in range(len(parts) - 1, parts.index(part) - 1, -1):
                    work = (parts[later], work)
                break
            # a literal's negation is cached on it once negate has run
            if kind is Bottom or (part._neg or negate(part)) in members:
                parts = None
                break
            if part not in members:
                trail.append(part)
                members.add(part)
        part = None  # set to the part an or-node takes next
        if parts is None:
            pass  # a clash prunes the partial disjunct
        elif work is None:
            # a copy of the set reuses its stored hashes
            branch = frozenset(members)
            if branch not in seen:
                seen.add(branch)
                yield branch
        else:
            head, work = work
            kind = type(head)
            if kind is And:
                parts = head.parts
                continue
            if kind is not Or:
                parts = (head,)  # a literal after a junction
                continue
            parts = ()
            if not members.isdisjoint(head.parts):
                continue  # satisfied
            live = []
            for alt in head.parts:
                kind = type(alt)
                if kind is And or kind is Or or (
                    kind is not Bottom and (alt._neg or negate(alt)) not in members
                ):
                    live.append(alt)
            if len(live) > 1:
                points.append([live, 1, work, len(trail)])
            if live:
                part = live[0]
        if part is None:
            if not points:
                return
            point = points[-1]
            live, index, work, mark = point
            if index + 1 < len(live):
                point[1] = index + 1
            else:
                points.pop()
            while len(trail) > mark:
                members.discard(trail.pop())
            part = live[index]
        # a live part: new to the trail and clash-free when a literal
        kind = type(part)
        if kind is And:
            parts = part.parts
        else:
            parts = ()
            if kind is Or:
                work = (part, work)
            else:
                trail.append(part)
                members.add(part)


def branch_satisfies(branch: Branch, c: Concept) -> bool:
    """Whether the branch's literal set covers one DNF disjunct of c.  Top is
    always covered; other literals by membership."""
    if isinstance(c, Top):
        return True
    if isinstance(c, And):
        return all(branch_satisfies(branch, p) for p in c.parts)
    if isinstance(c, Or):
        return any(branch_satisfies(branch, p) for p in c.parts)
    return c in branch


def cut_set_for_child(
    parent_branch: Branch, edge_role: Role, cuts: tuple[tuple[Role, Concept], ...]
) -> CutSet:
    """Extract the filler decisions relevant to a child reached over
    edge_role, as (filler, holds) entries.

    A cut formula applies when its guard watches exactly this edge, which is
    the case for pairs on the inverse of the edge role, so no entry repeats
    that role.  If the parent's branch covers neither the filler nor its
    negation it chose the guard, and the pair is dropped: the guard's zero
    bound already forbids any child on this edge.
    """
    back = edge_role.inverse()
    choices = set()
    for role, filler in cuts:
        if role is not back:
            continue
        if branch_satisfies(parent_branch, filler):
            choices.add((filler, True))
        elif branch_satisfies(parent_branch, negate(filler)):
            choices.add((filler, False))
    return frozenset(choices)


def fine_tune(branch: Branch, cut: CutSet, edge_role: Role | None) -> Branch:
    """Discount the tree parent from the child's number restrictions.

    For every restriction over the inverse of the incoming edge whose filler
    the parent made true, the bound drops by one: the parent itself is one
    qualifying neighbor, so the children only owe the rest.  An at-most bound
    may reach -1 (a clash); an at-least bound stops at 0.  A branch with no
    bound to lower is returned itself, not an equal copy, so the caller can
    tell by identity that nothing changed.
    """
    if edge_role is None:
        return branch
    back = edge_role.inverse()
    held = {f for f, holds in cut if holds}
    if not held:
        return branch
    tuned = []
    lowered = False
    for lit in branch:
        kind = type(lit)
        if (kind is AtMost or kind is AtLeast) and lit.role is back and lit.filler in held:
            if kind is AtMost:
                lit = AtMost(lit.bound - 1, back, lit.filler)
                lowered = True
            elif lit.bound > 0:
                lit = AtLeast(lit.bound - 1, back, lit.filler)
                lowered = True
        tuned.append(lit)
    return frozenset(tuned) if lowered else branch


def primitive_clash(branch: Branch) -> bool:
    """Whether the literals clash: bottom among them, a complementary pair,
    or an at-most with a negative bound."""
    for lit in branch:
        kind = type(lit)
        if kind is Bottom or negate(lit) in branch or (kind is AtMost and lit.bound < 0):
            return True
    return False

