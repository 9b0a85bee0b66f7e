"""Tableau engine: depth-first construction, nogood caching, backtracking.

The procedure builds a labeled tree top-down.  Each node picks one
propositional branch of its label, adjusts bounds against its parent, and
turns the number restrictions of each role with a positive at-least into an
integer feasibility system whose solution spawns the children.  A role with
no positive at-least spawns no child and builds no system: the all-zero
vector meets its rows and is their smallest solution.  Most other roles
build none either: where the restrictions force the system's answer,
`closed_form` reads it off them (everything on the full atom or on the
highest live atom, or a refutation).  That answer is the first solve of the
role's one solve loop, and the system is built only if its child fails;
where `closed_form` declines, the system is built from the sorted
restrictions and clash mask it read (`Reading`).  Cut formulas exist only
for the pairs a node other than the root can hold (`cut_table`), and a
problem without them hands its successors no filler decisions.  A child
none of whose literals, nor the axiom, can force a successor is a leaf: no
successor reads its filler decisions, so its label leaves the cut formulas
out (`_leaf_core`); the root and every other child keep them.  A child
whose label holds only atoms and negated atoms, none complementary, has
one branch, the label, and no role to solve, so it is settled with its
bookkeeping alone (`_settle`), without a walk.  The branch walk prunes
clashed disjuncts and never branches on a satisfied disjunction, and a
branch that clashes only after the bound adjustment is skipped; such local
clashes are never cached.

Failures are cached as nogood triples (context cut-set, incoming role,
concept set) in one place, `_record`, and every failure takes one path: a
child whose walk finds no branch records its label and returns the triple
to its parent's solve loop, which zeroes the child's atom and re-solves,
as it does for a child whose label a stored triple already covers; a
system that turns out infeasible records its restrictions and fails only
its branch, and the node goes on to its next branch.  A stored body leaves
out the axiom and the cut formulas, which label every node but those
leaves, so a label is queried as it is.  The store is monotone and an
empty store is never asked.  The run builds one tree: it answers
unsatisfiable when a triple subsumes the root label or the root's walk
finds no branch, and satisfiable when the root completes.

Why this is sound.  Every stored triple is a failure of the same kind as
when each failure restarted the tree: a label none of whose branches
survives, or a system with no solution, under context-keyed zeroing only
when its body carries the branch's filler decisions.  A completed subtree
is a complete fragment for its label whatever is stored later, since the
store only prunes.  Blocking reads the witness trail: a branch registers
its key before it solves its roles, and when one of them fails the branch
drops its key and every witness registered since.  The tree grows depth
first, so every node registered or blocked after that mark lies in the
failed branch's subtree, which is discarded with it; a witness therefore
always belongs to a node whose branch still holds.  Runs raise the
interpreter's recursion limit while any of them is active.
"""
from __future__ import annotations

import _thread
import sys
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple

from .branch import (
    Branch,
    CutSet,
    EMPTY_CUT_SET,
    choice_literals,
    cut_set_for_child,
    enumerate_branches,
    fine_tune,
    primitive_clash,
)
from .lii import (
    LiiSystem,
    Reading,
    SolverLimitError,
    atomic_decomposition,
    build_lii,
    clashed_atoms,
    closed_form,
    collect_fillers,  # noqa: F401 - unused here; bench/tracing.py wraps it
    feasible,
    zero_column,
)
from .syntax import (
    AtLeast,
    AtMost,
    Atom,
    Concept,
    NegAtom,
    Problem,
    Role,
    TOP,
    concept_key,
    negate,
    sorted_concepts,
)


class ResourceLimitError(RuntimeError):
    """A configured budget was exceeded; never a verdict.  Raised out of
    Tableau.decide, it carries the run's partial RunStats as `stats`."""


class Limits(NamedTuple):
    lambda_max: int = 10
    node_budget: int = 1_000_000          # node expansions per run, its one tree
    nogood_capacity: int = 100_000
    solver_max_steps: int = 2_000_000


class RunStats:
    """Counters of one run, updated in place while it runs.  `restarts` is
    always 0, since a run builds one tree; it stays because the benchmark
    (`bench/workload.py`) and `--stats` read it."""

    __slots__ = ("restarts", "nodes", "nogoods", "lii_solves", "max_lambda")

    def __init__(self, restarts: int = 0, nodes: int = 0, nogoods: int = 0,
                 lii_solves: int = 0, max_lambda: int = 0):
        self.restarts = restarts
        self.nodes = nodes
        self.nogoods = nogoods
        self.lii_solves = lii_solves
        self.max_lambda = max_lambda

    def items(self) -> list[tuple[str, int]]:
        """(name, value) of every counter, in declaration order."""
        return [(name, getattr(self, name)) for name in self.__slots__]

    def __eq__(self, other):
        if type(other) is not RunStats:
            return NotImplemented
        return self.items() == other.items()

    def __repr__(self) -> str:
        return "RunStats(" + ", ".join(f"{name}={value!r}" for name, value in self.items()) + ")"


class Verdict(NamedTuple):
    satisfiable: bool
    stats: RunStats


class NogoodTriple(NamedTuple):
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
    unconditional or equals the query context.

    Bodies are kept per context (cut, edge), in insertion order; the
    unconditional triples are those of the empty context."""

    def __init__(self, capacity: int = 100_000):
        self.capacity = capacity
        # every query reads the empty context's bodies, so keep them at hand
        self._wildcard: dict[frozenset, None] = {}
        self._bodies: dict[tuple[CutSet, Role | None], dict[frozenset, None]] = {
            (EMPTY_CUT_SET, None): self._wildcard
        }
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        for (cut, edge), bodies in self._bodies.items():
            for body in bodies:
                yield NogoodTriple(cut, edge, body)

    def add(self, triple: NogoodTriple) -> bool:
        """Insert; True when newly added."""
        bodies = self._bodies.setdefault((triple.cut, triple.edge), {})
        if triple.body in bodies:
            return False
        if self._size >= self.capacity:
            raise ResourceLimitError(f"nogood store exceeded {self.capacity} triples")
        bodies[triple.body] = None
        self._size += 1
        return True

    def hit_wildcard(self, body: frozenset) -> NogoodTriple | None:
        for stored in self._wildcard:
            if stored <= body:
                return NogoodTriple(EMPTY_CUT_SET, None, stored)
        return None

    def hit_exact(self, cut: CutSet, edge: Role | None, body: frozenset) -> NogoodTriple | None:
        for stored in self._bodies.get((cut, edge), ()):
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


class _RecursionLimit:
    """Holds the interpreter's recursion limit at `limit` or more while any
    run is active.  The limit is process-wide and runs in other threads
    overlap, so the first run to enter raises it, when it finds it below
    `limit`, and the last to leave restores what the first found.  A limit
    already at `limit` or more is neither set nor restored, so then a run
    costs a lock round trip and a counter update on entry and on exit."""

    def __init__(self, limit: int):
        self._limit = limit
        self._lock = _thread.allocate_lock()
        self._active = 0
        self._saved = 0  # the limit to restore, 0 when the first run left it

    def __enter__(self) -> None:
        lock = self._lock
        lock.acquire()
        if not self._active:
            saved = sys.getrecursionlimit()
            if saved < self._limit:
                sys.setrecursionlimit(self._limit)
                self._saved = saved
        self._active += 1
        lock.release()

    def __exit__(self, *exc_info) -> None:
        lock = self._lock
        lock.acquire()
        self._active -= 1
        if not self._active and self._saved:
            sys.setrecursionlimit(self._saved)
            self._saved = 0
        lock.release()


_RECURSION_LIMIT = _RecursionLimit(20_000)


_ROLE_KEY = attrgetter("base", "inverted")


def _leaf_core(problem: Problem) -> frozenset | None:
    """What labels a child, beside its atom's literals, when none of them
    can force a successor (`Concept._forces`): the axiom alone, without the
    cut formulas.  None when such a child keeps the cut formulas too: the
    axiom can force a successor, or there is no cut formula to leave out,
    as when only the root holds restrictions on inverse-named roles
    (`cut_table`).

    Such a child has no successor, since only a positive at-least forces
    one and no branch of its label holds one.  Only a successor reads a
    node's filler decisions (`cut_set_for_child`), and each cut formula
    holds `F or not F`, so leaving them out of that label loses no model."""
    if not problem.cut_concepts or problem.axiom._forces:
        return None
    return frozenset() if problem.axiom is TOP else frozenset({problem.axiom})


def _plain(label: frozenset) -> bool:
    """Whether the label holds only atoms and negated atoms, no two of them
    complementary.  Its one branch is then the label itself: nothing to
    lower against a parent, no role to solve."""
    for lit in label:
        kind = type(lit)
        if kind is not Atom and kind is not NegAtom or (lit._neg or negate(lit)) in label:
            return False
    return True


def _system(tuned: Branch, role: Role, reading: Reading | None = None) -> LiiSystem:
    """The role's system with its clashed atoms zeroed; the caller has
    checked its width, and takes its atoms only to expand children.  A
    reading closed_form filled gives the restrictions and the clash mask."""
    system = build_lii(tuned, role, None, reading)
    for mask in clashed_atoms(system.fillers, reading):
        system = zero_column(system, mask)
    return system


def _fmt_set(concepts: Iterable[Concept]) -> str:
    return "{" + ", ".join(str(c) for c in sorted_concepts(concepts)) + "}"


def _fmt_cut(cut: CutSet, edge: Role | None) -> str:
    # every entry is a pair on the inverse of the edge's role
    entries = sorted(cut, key=lambda e: (concept_key(e[0]), e[1]))
    return "{" + ", ".join(
        f"({edge.inverse()} {filler} {'+' if holds else '-'})" for filler, holds in entries
    ) + "}"


def _fmt_edge(edge: Role | None) -> str:
    return "eps" if edge is None else str(edge)


class Tableau:
    """One satisfiability run.  State is confined to the instance, apart
    from the process-wide recursion limit, which every active run holds
    raised (`_RecursionLimit`)."""

    def __init__(
        self,
        problem: Problem,
        limits: Limits | None = None,
        *,
        trace: Callable[[str], None] | None = None,
        dump_systems: Callable[[str], None] | None = None,
    ):
        self.problem = problem
        self.limits = limits or Limits()
        self.trace = trace
        self.dump_systems = dump_systems
        self.nogoods = NogoodStore(self.limits.nogood_capacity)
        self.witnesses: dict = {}
        self.stats = RunStats()
        core = set(problem.cut_concepts)
        if problem.axiom != TOP:
            core.add(problem.axiom)
        # the axiom and the cut formulas label every node but the leaves
        # below; stored bodies leave them out, so a stored body is a subset
        # of a label exactly when it is one of the label without them
        self._core_label = frozenset(core)
        self._leaf_core = _leaf_core(problem)

    # -- helpers ----------------------------------------------------------

    def _record(self, cut: CutSet, edge: Role | None, body: frozenset) -> NogoodTriple:
        """Store a failure, without the axiom and the cut formulas, and
        return its triple.  The store grows while a node is open, so a
        triple stored since the caller's own tests may already cover the
        failure: then that triple is returned and nothing is stored, and
        every stored triple is new."""
        body -= self._core_label
        nogoods = self.nogoods
        if nogoods:
            hit = nogoods.hit(cut, edge, body)
            if hit is not None:
                return hit
        triple = NogoodTriple(cut, edge, body)
        if not nogoods.add(triple):
            raise AssertionError(f"nogood already stored: {triple}")
        self.stats.nogoods = len(nogoods)
        if self.trace is not None:
            self.trace(
                f"NOGOOD cut={_fmt_cut(cut, edge)} edge={_fmt_edge(edge)} body={_fmt_set(body)}"
            )
        return triple

    # -- main loop ---------------------------------------------------------

    def decide(self) -> Verdict:
        root_label = frozenset({self.problem.goal}) | self._core_label
        with _RECURSION_LIMIT:
            try:
                # the root's own label test is this one; a store seeded
                # before the run may cover the root label
                nogoods = self.nogoods
                if nogoods and nogoods.hit(EMPTY_CUT_SET, None, root_label):
                    return Verdict(satisfiable=False, stats=self.stats)
                failed = self._expand(root_label, EMPTY_CUT_SET, None)
                return Verdict(satisfiable=failed is None, stats=self.stats)
            except (ResourceLimitError, SolverLimitError) as exc:
                exc.stats = self.stats
                raise

    # -- expansion ---------------------------------------------------------

    def _new_node(self) -> int:
        """Count a new node against the run's budget; its id is the number
        of nodes the run expanded before it."""
        node_id = self.stats.nodes
        self.stats.nodes += 1
        if node_id >= self.limits.node_budget:
            raise ResourceLimitError(
                f"node budget of {self.limits.node_budget} exceeded in one tree"
            )
        return node_id

    def _expand(self, label: frozenset, cut: CutSet, edge: Role | None) -> NogoodTriple | None:
        """Expand a new node with the label, reached over edge with the
        parent's filler decisions cut.  None when its subtree completed,
        otherwise the triple that rules its label out: a stored one that
        covers it, or, when the walk finds no branch, the one `_record`
        returns for the label.  The parent's solve loop zeroes the node's
        atom either way.

        A branch registers its key as a witness before it solves its roles.
        When a role fails the branch, the key goes, and so does every
        witness registered since: a subtree of an earlier role may have
        completed only because the branch blocked one of its nodes.  A
        node that fails has dropped every witness it registered."""
        node_id = self._new_node()
        nogoods = self.nogoods
        if edge is not None and nogoods:  # decide's entry test is the root's
            hit = nogoods.hit(cut, edge, label)
            if hit is not None:
                return hit

        witnesses = self.witnesses
        for index, branch in enumerate(enumerate_branches(label)):
            tuned = fine_tune(branch, cut, edge)
            # the walk yields clash-free sets, fine_tune returns the branch
            # itself when it changes nothing, and hit reads the wildcards
            # on the branch: only a changed set is tested on its own.  The
            # store grows during the walk, so it is asked whenever it holds
            # a triple
            if tuned is not branch and (
                primitive_clash(tuned) or nogoods and nogoods.hit_wildcard(tuned)
            ) or nogoods and nogoods.hit(cut, edge, branch):
                continue
            if self.trace is not None:
                self.trace(f"PB node={node_id} branch={index}")

            # past the checks above the subtree reads only the tuned branch
            # (fillers, rows, atoms) and the branch (its children's cut
            # sets), never (cut, edge): one key, one subtree
            key = (branch, tuned)
            blocker = witnesses.get(key)
            if blocker is not None:
                if self.trace is not None:
                    self.trace(f"BLOCKED node={node_id} by={blocker}")
                return None
            mark = len(witnesses)
            witnesses[key] = node_id

            # only an at-least with a positive bound forces a successor; on
            # any other role the all-zero vector is the smallest solution
            roles = {lit.role for lit in tuned if type(lit) is AtLeast and lit.bound > 0}
            if len(roles) > 1:
                roles = sorted(roles, key=_ROLE_KEY)
            for role in roles:
                if not self._apply_lii(node_id, branch, tuned, role):
                    break
            else:
                return None
            # the table is a stack: each failed branch pops what it pushed,
            # and a dict pops its last-inserted item first
            while len(witnesses) > mark:
                witnesses.popitem()

        return self._record(cut, edge, label)

    def _settle(self, label: frozenset, cut: CutSet, edge: Role) -> NogoodTriple | None:
        """_expand for a successor with a plain label (`_plain`), at the cost
        of its bookkeeping alone.  Its one branch is the label, no bound of
        it is lowered and no role of it is solved, so _expand's later
        label tests would repeat the first: the node asks a non-empty store
        about its label once, then prints its branch 0 and is blocked by, or
        registered as, the witness with key (label, label)."""
        node_id = self._new_node()
        if self.nogoods:
            hit = self.nogoods.hit(cut, edge, label)
            if hit is not None:
                return hit
        if self.trace is not None:
            self.trace(f"PB node={node_id} branch=0")
        key = (label, label)
        blocker = self.witnesses.get(key)
        if blocker is None:
            self.witnesses[key] = node_id
        elif self.trace is not None:
            self.trace(f"BLOCKED node={node_id} by={blocker}")
        return None

    def _apply_lii(self, node_id: int, branch: Branch, tuned: Branch, role: Role) -> bool:
        """Decompose the role's restrictions, solve, expand the children.

        When closed_form reads the first solve off the restrictions, its
        answer stands in for feasible's and no system is built until a
        child fails.  Otherwise the role's system is built with its clashed
        atoms zeroed, from the restrictions and the clash mask closed_form
        read before it declined, and solved.  Under dump_systems each solve
        prints the system first, built for the purpose when the answer
        stands in for it.  A child none of whose literals can force a
        successor is labelled without the cut formulas (`_leaf_core`); a
        child with a plain label is settled without a walk (`_settle`).

        A problem without cut formulas hands no filler decisions to a
        child, so then the child's cut set is empty and no wildcard is
        tested against the decisions.  A child that fails, whether its
        label hits a stored triple or its walk finds no branch and stores
        one, zeroes its column and the system is re-solved; a child that
        completed stays completed.  True when the role completed, False
        when the branch fails: a stored unconditional triple already covers
        the restrictions with the branch's filler decisions, or the system
        turns out infeasible, and then its restrictions are recorded (with
        the decisions, when a context-keyed failure zeroed a column)."""
        if self.problem.cuts:
            child_cut = cut_set_for_child(branch, role, self.problem.cuts)
            # the branch satisfies every choice literal (that is how
            # cut_set_for_child reads them off it) and holds every literal
            # of tuned, so a stored wildcard covered by the two together
            # rules the branch out; the walk's checks only saw the literals
            choices = choice_literals(child_cut)
            if (
                self.nogoods
                and not choices <= tuned
                and self.nogoods.hit_wildcard(tuned | choices) is not None
            ):
                return False
        else:
            child_cut = choices = EMPTY_CUT_SET
        reading = Reading()
        try:
            answer = closed_form(tuned, role, self.limits.lambda_max, reading)
        except SolverLimitError as exc:
            raise ResourceLimitError(f"node {node_id} role {role}: {exc}") from None
        if answer is None:
            system = _system(tuned, role, reading)
            atoms = atomic_decomposition(system.fillers, self.limits.lambda_max)
            width = len(system.fillers)
        else:
            system = atoms = None
            width, solution, atom = answer
        self.stats.max_lambda = max(self.stats.max_lambda, width)
        leaf_core = self._leaf_core
        context_zeroing = False
        completed: set[int] = set()
        while True:
            if self.dump_systems is not None:
                shown = system if system is not None else _system(tuned, role, reading)
                self.dump_systems(f"lii node={node_id} role={role}\n{shown.describe()}")
            self.stats.lii_solves += 1
            if system is not None:
                solution = feasible(system, self.limits.solver_max_steps)
            if self.trace is not None:
                self.trace(
                    f"LII node={node_id} role={role} atoms={(1 << width) - 1} "
                    f"verdict={'feasible' if solution is not None else 'infeasible'}"
                )
            if solution is None:
                # every restriction on the role, a row each
                body = frozenset(
                    lit for lit in tuned
                    if (type(lit) is AtLeast or type(lit) is AtMost) and lit.role is role
                )
                if context_zeroing:
                    # zeroing relied on context-keyed child failures, so the
                    # cached set must carry the branch's filler commitments
                    body |= choices
                self._record(EMPTY_CUT_SET, None, body)
                return False

            for mask in solution:
                if mask in completed:
                    continue
                child = atom if atoms is None else atoms[mask - 1]
                if leaf_core is not None and not any(lit._forces for lit in child):
                    core = leaf_core
                else:
                    core = self._core_label
                label = child | core if core else child
                if _plain(label):
                    blocking = self._settle(label, child_cut, role)
                else:
                    blocking = self._expand(label, child_cut, role)
                if blocking is None:
                    completed.add(mask)
                    continue
                if system is None:
                    system = _system(tuned, role, reading)
                    atoms = atomic_decomposition(system.fillers, self.limits.lambda_max)
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
    trace: Callable[[str], None] | None = None,
    dump_systems: Callable[[str], None] | None = None,
) -> Verdict:
    """Decide satisfiability of the problem's goal against its axiom."""
    return Tableau(problem, limits, trace=trace, dump_systems=dump_systems).decide()
