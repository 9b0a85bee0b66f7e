"""Successor arithmetic for one (node, role) pair.

The distinct fillers of the role's number restrictions split the possible
successors into 2^n - 1 sign-complete combinations, the atoms (the
all-negative one is irrelevant, no restriction counts it).  An atom is a
bit mask over the filler list: bit k set means filler k holds, clear means
its negation does.  Each atom is an unknown non-negative integer
multiplicity; each restriction becomes a subset-sum inequality over the
atoms containing its filler positively.  Feasibility of the system decides
local consistency of the restrictions.  Atoms, zeroed columns and solutions
are plain values: a list of literal sets indexed by mask - 1, a frozenset of
masks and a {mask: multiplicity} dict.

`feasible` decides it by an iterative depth-first search that returns the
lexicographically smallest solution.  Rows bounding the same sum are merged
into one interval first, so contradictory bounds are refuted before any
search step; each atom is capped by the bounds of the rows covering it; and
failed search states are memoized, so a subtree already proven empty is
entered once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (
    AtLeast,
    AtMost,
    Concept,
    Role,
    negate,
    sorted_concepts,
)


class SolverLimitError(RuntimeError):
    """The feasibility search exceeded its step budget.  Raised out of
    Tableau.decide, it carries the run's partial RunStats as `stats`."""


@dataclass(frozen=True)
class Row:
    """One inequality: sum of the variables whose atom contains the filler
    positively, compared against the bound."""

    coeff_mask: int          # bit j set means atom with mask j+1 participates
    is_at_most: bool
    bound: int
    source: Concept          # the restriction this row came from


@dataclass(frozen=True)
class LiiSystem:
    fillers: tuple[Concept, ...]
    rows: tuple[Row, ...]
    zeroed: frozenset = field(default_factory=frozenset)  # frozenset[int], atom masks

    @property
    def width(self) -> int:
        return len(self.fillers)

    def atom_masks(self) -> range:
        return range(1, 1 << self.width)

    def describe(self) -> str:
        lines = [f"fillers: {[str(f) for f in self.fillers]}"]
        for row in self.rows:
            terms = [
                f"v{m}" for m in self.atom_masks() if (row.coeff_mask >> (m - 1)) & 1
            ]
            op = "<=" if row.is_at_most else ">="
            lines.append(f"{' + '.join(terms) or '0'} {op} {row.bound}")
        if self.zeroed:
            lines.append(f"zeroed: {sorted(self.zeroed)}")
        return "\n".join(lines)


def _restrictions(branch: frozenset, role: Role) -> list[Concept]:
    """The restrictions on role in the branch, in canonical order."""
    return sorted_concepts(
        lit for lit in branch if isinstance(lit, (AtMost, AtLeast)) and lit.role == role
    )


def collect_fillers(branch: frozenset, role: Role) -> list[Concept]:
    """Distinct fillers of the restrictions on role in the branch, in first
    occurrence order under the canonical branch ordering."""
    return list(dict.fromkeys(lit.filler for lit in _restrictions(branch, role)))


def atomic_decomposition(fillers: list[Concept], lambda_max: int = 10) -> list[frozenset]:
    """The literal sets of all 2^n - 1 atoms, ascending by mask: entry
    mask - 1 holds filler k where bit k of mask is set and its negation
    where it is clear.  Each filler is negated once."""
    n = len(fillers)
    if n < 1:
        raise ValueError("need at least one filler")
    if n > lambda_max:
        raise SolverLimitError(
            f"{n} distinct fillers exceed the decomposition limit of {lambda_max}"
        )
    signs = [(f, negate(f)) for f in fillers]
    return [
        frozenset(pos if (mask >> k) & 1 else neg for k, (pos, neg) in enumerate(signs))
        for mask in range(1, 1 << n)
    ]


def build_lii(branch: frozenset, role: Role) -> LiiSystem:
    """One row per restriction on the role; coefficients select the atoms
    containing the row's filler positively.  Nothing zeroed yet.  Fillers
    are indexed on first occurrence, as collect_fillers lists them."""
    restrictions = _restrictions(branch, role)
    index: dict[Concept, int] = {}
    for lit in restrictions:
        index.setdefault(lit.filler, len(index))
    # one coefficient mask per filler, shared by the rows over it
    masks = range(1, 1 << len(index))
    coeffs = [sum(1 << (m - 1) for m in masks if (m >> k) & 1) for k in range(len(index))]
    rows = tuple(
        Row(
            coeff_mask=coeffs[index[lit.filler]],
            is_at_most=type(lit) is AtMost,
            bound=lit.bound,
            source=lit,
        )
        for lit in restrictions
    )
    return LiiSystem(fillers=tuple(index), rows=rows)


def zero_column(system: LiiSystem, atom_mask: int) -> LiiSystem:
    """Force the atom's multiplicity to zero; returns a new system."""
    if not 1 <= atom_mask < (1 << system.width):
        raise ValueError(f"atom mask {atom_mask} out of range")
    return LiiSystem(
        fillers=system.fillers,
        rows=system.rows,
        zeroed=system.zeroed | {atom_mask},
    )


def feasible(system: LiiSystem, max_steps: int = 2_000_000) -> dict[int, int] | None:
    """Find a non-negative integer solution, or None when infeasible.  The
    solution maps each atom mask with a positive multiplicity to it, in
    ascending mask order; zeroed and zero-valued atoms are absent.

    Depth-first over atoms in ascending mask order, smallest value first,
    so the solution returned is the lexicographically smallest one: every
    pruning below only skips subtrees that hold no solution or only
    solutions after it.  Per-variable value ranges come from the rows,
    arithmetic on bounds rather than unary counting, which keeps large
    bounds cheap.

    - Interval pre-check: rows with the same coefficients bound one sum, so
      they merge into one interval [largest at-least, smallest at-most]; an
      empty interval refutes the system before any search step.
    - Per-atom cap: each atom is capped at the smallest at-most bound
      covering it, and at the largest at-least bound covering it (0 when
      none does): a value above the latter could be lowered to it without
      breaking a row, giving a smaller solution.  The caps bound what later
      atoms can still add to each at-least sum.
    - Memo: a state is a position and the sums so far, with each at-least
      sum clamped at its bound since no later check tells larger sums
      apart.  A state whose subtree failed is stored and skipped on entry;
      the memo holds at most one state per step.
    - Explicit stack: no recursion, whatever the number of atoms.

    One step is one search node entered, so the search takes no more steps
    than it would without these prunings; more than max_steps raises
    SolverLimitError.
    """
    bounds: dict[int, list] = {}  # coeff_mask -> [at-least, at-most or None]
    for row in system.rows:
        if row.bound < 0:
            raise ValueError("negative row bound; clash detection should run first")
        interval = bounds.setdefault(row.coeff_mask, [0, None])
        if not row.is_at_most:
            if row.bound > interval[0]:
                interval[0] = row.bound
        elif interval[1] is None or row.bound < interval[1]:
            interval[1] = row.bound
    intervals = []
    for coeff, (lo, hi) in bounds.items():
        if hi is not None and lo > hi:
            return None
        intervals.append((coeff, lo, hi))

    masks = [m for m in system.atom_masks() if m not in system.zeroed]
    n = len(masks)
    # per position, built back to front: the atom's cap; the at-least sums
    # it adds to, each with its bound less what later atoms can still add;
    # the at-most sums it adds to, with their bound; the other at-least
    # sums that can still fall short, with that shortfall; and the sums its
    # value goes to, with their clamp (an at-most sum never passes its bound)
    caps = [0] * n
    raising, limiting, short, adding = [()] * n, [()] * n, [()] * n, [()] * n
    reach = [0] * len(intervals)
    for i in range(n - 1, -1, -1):
        bit = 1 << (masks[i] - 1)
        cap, limit = 0, None
        raise_, limit_, short_, add_ = [], [], [], []
        for g, (coeff, lo, hi) in enumerate(intervals):
            if coeff & bit:
                if lo > cap:
                    cap = lo
                if lo > reach[g]:
                    raise_.append((g, lo - reach[g]))
                if hi is None:
                    add_.append((g, lo))
                else:
                    if limit is None or hi < limit:
                        limit = hi
                    limit_.append((g, hi))
                    add_.append((g, hi))
            elif lo > reach[g]:
                short_.append((g, lo - reach[g]))
        if limit is not None and limit < cap:
            cap = limit
        caps[i], raising[i], limiting[i], short[i], adding[i] = cap, raise_, limit_, short_, add_
        for g, _ in add_:
            reach[g] += cap

    failed: dict[int, set] = {}  # position -> states whose subtree failed
    entered: list = [None] * n   # state on entry, per position on the stack
    chosen = [0] * n
    highest = [0] * n
    state = (0,) * len(intervals)
    steps = 0
    i = 0
    while True:
        steps += 1
        if steps > max_steps:
            raise SolverLimitError(f"feasibility search exceeded {max_steps} steps")
        if i == n:
            if all(s >= lo for s, (_, lo, _) in zip(state, intervals)):
                break
        elif state not in failed.get(i, ()) and (
            not short[i] or all(state[g] >= need for g, need in short[i])
        ):
            lo, hi = 0, caps[i]
            for g, need in raising[i]:
                if need - state[g] > lo:
                    lo = need - state[g]
            for g, top in limiting[i]:
                if top - state[g] < hi:
                    hi = top - state[g]
            if lo <= hi:
                entered[i], chosen[i], highest[i] = state, lo, hi
                if lo:
                    state = _add(state, adding[i], lo)
                i += 1
                continue
        # backtrack to the deepest position with a value left to try
        while True:
            i -= 1
            if i < 0:
                return None
            if chosen[i] < highest[i]:
                chosen[i] += 1
                state = _add(entered[i], adding[i], chosen[i])
                i += 1
                break
            failed.setdefault(i, set()).add(entered[i])

    solution = {m: v for m, v in zip(masks, chosen) if v}
    _validate(system, solution)
    return solution


def _add(state: tuple, updates: tuple, value: int) -> tuple:
    """The state after adding value to the sums in updates, each clamped."""
    out = list(state)
    for g, clamp in updates:
        total = out[g] + value
        out[g] = total if total < clamp else clamp
    return tuple(out)


def _validate(system: LiiSystem, solution: dict[int, int]) -> None:
    if not system.zeroed.isdisjoint(solution):
        raise AssertionError("solution assigns a zeroed atom")
    for row in system.rows:
        total = sum(
            v for m, v in solution.items() if (row.coeff_mask >> (m - 1)) & 1
        )
        ok = total <= row.bound if row.is_at_most else total >= row.bound
        if not ok:
            raise AssertionError(f"solution violates row {row}")
