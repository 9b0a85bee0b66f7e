"""Tableau engine: depth-first construction, nogood caching, restarts.

The procedure builds a labeled tree top-down.  Each node picks one
propositional branch of its label, adjusts bounds against its parent, and
turns each role's number restrictions into an integer feasibility system
whose solution spawns the children.  The branch walk prunes clashed
disjuncts and never branches on a satisfied disjunction, and a branch that
clashes only after the bound adjustment is skipped; such local clashes are
never cached.  Failures are cached as nogood triples (context cut-set,
incoming role, concept set); every newly learned triple aborts the current
tree, clears the blocking store, and restarts.  A node whose definite
literals (those every branch of its label holds) a stored triple already
covers would skip every branch, so it fails without walking its label.
The run answers unsatisfiable when a triple subsumes the root label,
satisfiable when a tree completes without learning anything new.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Iterable

from .branch import (
    Branch,
    CutSet,
    EMPTY_CUT_SET,
    cut_set_for_child,
    definite_literals,
    enumerate_branches,
    fine_tune,
    primitive_clash,
)
from .lii import (
    SolverLimitError,
    atomic_decomposition,
    build_lii,
    collect_fillers,
    feasible,
    zero_column,
)
from .syntax import (
    AtLeast,
    AtMost,
    Concept,
    Problem,
    Role,
    TOP,
    concept_key,
    sorted_concepts,
)


class ResourceLimitError(RuntimeError):
    """A configured budget was exceeded; never a verdict.  Raised out of
    Tableau.decide, it carries the run's partial RunStats as `stats`."""


@dataclass(frozen=True)
class Limits:
    lambda_max: int = 10
    node_budget: int = 1_000_000          # expansions per tree
    nogood_capacity: int = 100_000
    solver_max_steps: int = 2_000_000


@dataclass
class RunStats:
    restarts: int = 0
    nodes: int = 0
    nogoods: int = 0
    lii_solves: int = 0
    max_lambda: int = 0


@dataclass(frozen=True)
class Verdict:
    satisfiable: bool
    stats: RunStats


@dataclass(frozen=True)
class NogoodTriple:
    """A cached inconsistency: body is unsatisfiable for nodes whose context
    matches (cut, edge); the empty context is unconditional."""

    cut: CutSet
    edge: Role | None
    body: frozenset

    def is_wildcard(self) -> bool:
        return not self.cut and self.edge is None


class NogoodStore:
    """Monotone store of nogood triples with subset-closure queries: a query
    body hits when a stored body is a subset of it and the stored context is
    unconditional or equals the query context."""

    def __init__(self, capacity: int = 100_000):
        self.capacity = capacity
        self._all: set[NogoodTriple] = set()
        self._wildcard: list[frozenset] = []
        self._keyed: dict[tuple[CutSet, Role | None], list[frozenset]] = {}

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self):
        return iter(self._all)

    def add(self, triple: NogoodTriple) -> bool:
        """Insert; True when newly added."""
        if triple in self._all:
            return False
        if len(self._all) >= self.capacity:
            raise ResourceLimitError(f"nogood store exceeded {self.capacity} triples")
        self._all.add(triple)
        if triple.is_wildcard():
            self._wildcard.append(triple.body)
        else:
            self._keyed.setdefault((triple.cut, triple.edge), []).append(triple.body)
        return True

    def hit_wildcard(self, body: frozenset) -> NogoodTriple | None:
        for stored in self._wildcard:
            if stored <= body:
                return NogoodTriple(EMPTY_CUT_SET, None, stored)
        return None

    def hit_exact(self, cut: CutSet, edge: Role | None, body: frozenset) -> NogoodTriple | None:
        for stored in self._keyed.get((cut, edge), ()):
            if stored <= body:
                return NogoodTriple(cut, edge, stored)
        return None

    def hit(self, cut: CutSet, edge: Role | None, body: frozenset) -> NogoodTriple | None:
        found = self.hit_wildcard(body)
        if found is not None:
            return found
        if cut or edge is not None:
            return self.hit_exact(cut, edge, body)
        return None


class _RestartRequested(Exception):
    pass


def _fmt_set(concepts: Iterable[Concept]) -> str:
    return "{" + ", ".join(str(c) for c in sorted_concepts(concepts)) + "}"


def _fmt_cut(cut: CutSet) -> str:
    entries = sorted(
        cut.choices,
        key=lambda e: (e[0].base, e[0].inverted, concept_key(e[1]), e[2]),
    )
    return "{" + ", ".join(
        f"({role} {filler} {'+' if holds else '-'})" for role, filler, holds in entries
    ) + "}"


def _fmt_edge(edge: Role | None) -> str:
    return "eps" if edge is None else str(edge)


class Tableau:
    """One satisfiability run.  State is confined to the instance; distinct
    runs never share anything."""

    def __init__(
        self,
        problem: Problem,
        limits: Limits | None = None,
        *,
        strict_blocking: bool = False,
        trace: Callable[[str], None] | None = None,
        dump_systems: Callable[[str], None] | None = None,
    ):
        self.problem = problem
        self.limits = limits or Limits()
        self.strict_blocking = strict_blocking
        self.trace = trace
        self.dump_systems = dump_systems
        self.nogoods = NogoodStore(self.limits.nogood_capacity)
        self.witnesses: dict = {}
        self.stats = RunStats()
        core = set(problem.cut_concepts)
        if problem.axiom != TOP:
            core.add(problem.axiom)
        # the axiom and the cut formulas label every node; bodies keep them
        # implicit so the store stays small and reusable
        self._core_label = frozenset(core)
        self._next_id = 0
        self._tree_nodes = 0

    # -- helpers ----------------------------------------------------------

    def _say(self, line: str) -> None:
        if self.trace is not None:
            self.trace(line)

    def _strip(self, body: frozenset) -> frozenset:
        return body - self._core_label

    def _record(self, cut: CutSet, edge: Role | None, body: frozenset) -> None:
        """Store a triple; any genuinely new inconsistency aborts the tree."""
        triple = NogoodTriple(cut, edge, self._strip(body))
        if self.nogoods.add(triple):
            self.stats.nogoods = len(self.nogoods)
            self._say(
                f"NOGOOD cut={_fmt_cut(triple.cut)} edge={_fmt_edge(triple.edge)} "
                f"body={_fmt_set(triple.body)}"
            )
            raise _RestartRequested()

    def _witness_key(self, branch: Branch, tuned: Branch, cut: CutSet, edge: Role | None):
        if self.strict_blocking:
            return (branch, tuned, cut, edge)
        return (branch, tuned)

    # -- main loop ---------------------------------------------------------

    def decide(self) -> Verdict:
        root_label = frozenset({self.problem.goal}) | self._core_label
        root_body = self._strip(root_label)
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 20_000))
        try:
            for _ in range(self.limits.nogood_capacity + 2):
                if self.nogoods.hit(EMPTY_CUT_SET, None, root_body):
                    return Verdict(satisfiable=False, stats=self.stats)
                self.witnesses.clear()
                self._tree_nodes = 0
                before = len(self.nogoods)
                try:
                    blocking = self._expand(root_label, EMPTY_CUT_SET, None)
                except _RestartRequested:
                    if len(self.nogoods) <= before:
                        raise AssertionError("restart without a new nogood")
                    self.stats.restarts += 1
                    self._say(f"RESTART {self.stats.restarts}")
                    continue
                if blocking is None:
                    return Verdict(satisfiable=True, stats=self.stats)
                # the root label itself is cached as dead; the next pass
                # check turns this into the unsatisfiable verdict
            raise ResourceLimitError("pass count exceeded the nogood capacity")
        except (ResourceLimitError, SolverLimitError) as exc:
            exc.stats = self.stats
            raise
        finally:
            sys.setrecursionlimit(old_limit)

    # -- expansion ---------------------------------------------------------

    def _expand(self, label: frozenset, cut: CutSet, edge: Role | None) -> NogoodTriple | None:
        """Expand a new node with the label, reached over edge with the
        parent's filler decisions cut; ids follow expansion order across the
        whole run.  None when its subtree completed, otherwise the stored
        triple that already rules its label out."""
        node_id = self._next_id
        self._next_id += 1
        self.stats.nodes += 1
        self._tree_nodes += 1
        if self._tree_nodes > self.limits.node_budget:
            raise ResourceLimitError(
                f"node budget of {self.limits.node_budget} exceeded in one tree"
            )
        label_body = self._strip(label)
        hit = self.nogoods.hit(cut, edge, label_body)
        if hit is not None:
            return hit
        # every branch holds the definite literals; when a stored triple
        # covers them, the checks below would skip every branch
        if self.nogoods and self.nogoods.hit(cut, edge, definite_literals(label)) is not None:
            self._record(cut, edge, label)
            raise AssertionError("dead label's triple was already stored but missed the label test")

        for index, branch in enumerate(enumerate_branches(label)):
            tuned = fine_tune(branch, cut, edge)
            if (
                primitive_clash(tuned)
                or self.nogoods.hit_wildcard(branch)
                or self.nogoods.hit_wildcard(tuned)
                or self.nogoods.hit_exact(cut, edge, branch)
            ):
                continue
            self._say(f"PB node={node_id} branch={index}")

            key = self._witness_key(branch, tuned, cut, edge)
            blocker = self.witnesses.get(key)
            if blocker is not None:
                self._say(f"BLOCKED node={node_id} by={blocker}")
                return None
            self.witnesses[key] = node_id

            roles = sorted(
                {
                    lit.role
                    for lit in tuned
                    if isinstance(lit, (AtMost, AtLeast))
                },
                key=lambda r: (r.base, r.inverted),
            )
            for role in roles:
                if not self._apply_lii(node_id, branch, tuned, role):
                    break
            else:
                return None
            del self.witnesses[key]

        # the label test above missed and a triple added during the walk
        # restarts the tree, so this triple is new and `_record` raises
        self._record(cut, edge, label)
        raise AssertionError("failed label's triple was already stored but missed the label test")

    def _apply_lii(self, node_id: int, branch: Branch, tuned: Branch, role: Role) -> bool:
        """Decompose the role's restrictions, solve, expand the children.

        A child that hits a cached nogood zeroes its column and the system is
        re-solved; a fresh child failure aborts the tree through the restart
        machinery before this returns.  True when the role completed, False
        when the restrictions are infeasible (branch fails)."""
        fillers = collect_fillers(tuned, role)
        width = len(fillers)
        if width > self.limits.lambda_max:
            raise ResourceLimitError(
                f"node {node_id} role {role}: {width} distinct fillers exceed "
                f"lambda_max={self.limits.lambda_max}"
            )
        self.stats.max_lambda = max(self.stats.max_lambda, width)
        atoms = atomic_decomposition(fillers, self.limits.lambda_max)
        system = build_lii(tuned, role)
        restrictions = frozenset(row.source for row in system.rows)
        for mask, literals in enumerate(atoms, 1):
            if primitive_clash(literals):
                system = zero_column(system, mask)
        child_cut = cut_set_for_child(branch, role, self.problem.cuts)

        completed: set[int] = set()
        context_zeroing = False
        while True:
            if self.dump_systems is not None:
                self.dump_systems(
                    f"lii node={node_id} role={role}\n{system.describe()}"
                )
            self.stats.lii_solves += 1
            solution = feasible(system, self.limits.solver_max_steps)
            self._say(
                f"LII node={node_id} role={role} atoms={len(atoms)} "
                f"verdict={'feasible' if solution is not None else 'infeasible'}"
            )
            if solution is None:
                body = restrictions
                if context_zeroing:
                    # zeroing relied on context-keyed child failures, so the
                    # cached set must carry the branch's filler commitments
                    body = restrictions | child_cut.choice_literals()
                self._record(EMPTY_CUT_SET, None, body)
                return False

            for mask in solution:
                if mask in completed:
                    continue
                blocking = self._expand(atoms[mask - 1] | self._core_label, child_cut, role)
                if blocking is None:
                    completed.add(mask)
                    continue
                system = zero_column(system, mask)
                if not blocking.is_wildcard():
                    context_zeroing = True
                break
            else:
                return True


def decide(
    problem: Problem,
    limits: Limits | None = None,
    *,
    strict_blocking: bool = False,
    trace: Callable[[str], None] | None = None,
    dump_systems: Callable[[str], None] | None = None,
) -> Verdict:
    """Decide satisfiability of the problem's goal against its axiom."""
    return Tableau(
        problem,
        limits,
        strict_blocking=strict_blocking,
        trace=trace,
        dump_systems=dump_systems,
    ).decide()
