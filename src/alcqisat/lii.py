"""Successor arithmetic for one (node, role) pair.

The distinct fillers of the role's number restrictions split the possible
successors into 2^n - 1 sign-complete combinations, the atoms (the
all-negative one is irrelevant, no restriction counts it).  An atom is a
bit mask over the filler list: bit k set means filler k holds, clear means
its negation does.  Each atom is an unknown non-negative integer
multiplicity, and each filler bounds the sum over the atoms holding it
positively: one interval, from the largest at-least bound on it to the
smallest at-most bound, when there is one.  Feasibility of the system
decides local consistency of the restrictions.  Atoms, zeroed atoms and
solutions are plain values: literal sets, one int with bit m - 1 set for
each zeroed atom m, and a {mask: multiplicity} dict.

Building a system is cheap in the width: the coefficient masks come from a
table cached per width, the width is checked against the limit before that
table is built, the clashing atoms are read off the filler list as one bit
mask (`clashed_atoms`) rather than tested one literal set at a time, and
`zero_column` ORs a mask into the zeroed atoms.  No atom gets a literal
set until a solution expands it: `atomic_decomposition` builds the sets of
the masks it is given, and negates a filler only when one of them holds its
negation.  No literal set holds `top`: it holds in every node, and labels
that differ only in it should block each other.  The clash mask negates
no filler: it reads the negation held on each (`Concept._neg`), and one
never built clashes with nothing.

Most roles the engine solves need no search: `closed_form` reads the
restrictions off the branch and gives what `feasible` would answer on the
clash-zeroed system wherever that answer is forced.  It reads the branch
once, for the role's restrictions, their fillers and the largest at-least
and smallest at-most bound.  When the full atom does not clash and no
at-most bound is below the largest at-least bound, the answer is
everything on the full atom.  Otherwise it reads each filler's interval,
and when one is empty the system is infeasible; and when the highest atom
that is neither clashed nor under an at-most 0 holds every at-least
filler and no at-most bound below the largest at-least bound, the answer
is everything on that atom.  It leaves what it read in a `Reading` (the
restrictions, the intervals, the clash mask), and the system solved after
it declines, or after the child of its answer fails, is built from that:
neither the branch nor the fillers are read again.

`feasible` returns the lexicographically smallest solution, found by an
iterative depth-first search laid out from the intervals and the zeroed
mask.  An empty interval is refuted before any search step, as is an
at-least sum that no live atom (neither zeroed nor under an at-most 0)
adds to; each atom is capped by the intervals covering it, and one under
an at-most 0 gets no search position; what later atoms can add to a sum
is bounded by any at-most sum that holds them all; and failed search
states are memoized, so a subtree already proven empty is entered once.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, NamedTuple

from .branch import primitive_clash
from .syntax import (
    AtLeast,
    AtMost,
    BOTTOM,
    Bottom,
    Concept,
    Role,
    TOP,
    negate,
    sorted_concepts,
)


class SolverLimitError(RuntimeError):
    """The feasibility search exceeded its step budget, or a role has more
    distinct fillers than a decomposition may take.  Raised out of
    Tableau.decide, it carries the run's partial RunStats as `stats`."""


class LiiSystem(NamedTuple):
    """A role's system: its fillers in build_lii's order; one (coefficient
    mask, largest at-least bound, smallest at-most bound or None) interval
    per sum, bit m - 1 of the mask set when atom m adds to the sum, and in
    build_lii's systems one sum per filler, that of the atoms holding it;
    the zeroed atoms, bit m - 1 set for atom m; and the restrictions in
    canonical order, which `describe` prints one row each."""

    fillers: tuple[Concept, ...]
    intervals: tuple[tuple[int, int, int | None], ...]
    zeroed: int = 0
    restrictions: tuple[Concept, ...] = ()

    @property
    def width(self) -> int:
        return len(self.fillers)

    def atom_masks(self) -> range:
        return range(1, 1 << self.width)

    def describe(self) -> str:
        """The fillers, one row per restriction over the atoms holding its
        filler, and the zeroed atoms in ascending order."""
        columns = dict(zip(self.fillers, _coefficients(self.width)))
        lines = [f"fillers: {[str(f) for f in self.fillers]}"]
        for lit in self.restrictions:
            coeff = columns[lit.filler]
            terms = [f"v{m}" for m in self.atom_masks() if (coeff >> (m - 1)) & 1]
            op = "<=" if type(lit) is AtMost else ">="
            lines.append(f"{' + '.join(terms)} {op} {lit.bound}")
        if self.zeroed:
            zeroed = [m for m in self.atom_masks() if (self.zeroed >> (m - 1)) & 1]
            lines.append(f"zeroed: {zeroed}")
        return "\n".join(lines)


class Reading:
    """What closed_form read of one role, for build_lii, clashed_atoms and
    the engine to take instead of reading the branch again.  closed_form
    fills `restrictions`, the role's restrictions, on every call, in branch
    order; once it gets past the full atom, it puts them in canonical order
    and fills `bounds`, each filler's interval in build_lii's order
    (`_bounds`); and once it gets past the interval refutation, `clashed`,
    the clash mask of those fillers.  Whatever it has not filled is None."""

    __slots__ = ("restrictions", "bounds", "clashed")

    def __init__(self):
        self.restrictions: list[Concept] | None = None
        self.bounds: dict[Concept, list] | None = None
        self.clashed: int | None = None


def _restrictions(branch: frozenset, role: Role) -> list[Concept]:
    """The restrictions on role in the branch, in canonical order."""
    return sorted_concepts(
        lit for lit in branch if isinstance(lit, (AtMost, AtLeast)) and lit.role == role
    )


def collect_fillers(branch: frozenset, role: Role) -> list[Concept]:
    """Distinct fillers of the restrictions on role in the branch, in first
    occurrence order under the canonical branch ordering."""
    return list(dict.fromkeys(lit.filler for lit in _restrictions(branch, role)))


def _check_width(width: int, lambda_max: int | None) -> None:
    if lambda_max is not None and width > lambda_max:
        raise SolverLimitError(f"{width} distinct fillers exceed lambda_max={lambda_max}")


@cache
def _coefficients(width: int) -> tuple[int, ...]:
    """Per filler k, the atoms holding it as a coefficient mask: bit m - 1
    for every mask m with bit k set.  Built once per width, by doubling."""
    size = 1 << width
    out = []
    for k in range(width):
        run = 1 << k
        pattern = ((1 << run) - 1) << run  # the masks below 2^(k+1) with bit k
        period = run << 1
        while period < size:
            pattern |= pattern << period
            period <<= 1
        out.append(pattern >> 1)
    return tuple(out)


def atomic_decomposition(
    fillers: list[Concept], lambda_max: int = 10, masks: Iterable[int] | None = None
) -> list[frozenset]:
    """The literal sets of the atoms with the masks given, in their order,
    every atom's by default, ascending from mask 1, so that entry mask - 1
    is the atom's: filler k where bit k of the mask is set, its negation
    where it is clear, but for `top`, which holds in every node and is
    left out: a top filler's literal, and a bottom filler's negation.  The
    engine gives the masks a solution expands, a few where the full list
    has 2^n - 1.  Each filler is negated once, and only when an atom given
    holds its negation."""
    n = len(fillers)
    if n < 1:
        raise ValueError("need at least one filler")
    _check_width(n, lambda_max)
    masks = range(1, 1 << n) if masks is None else list(masks)
    full = (1 << n) - 1
    clear = 0  # bit k set when an atom given holds the negation of filler k
    for mask in masks:
        clear |= full ^ mask
    signed = [(f, negate(f) if (clear >> k) & 1 else None) for k, f in enumerate(fillers)]
    atoms = [
        frozenset([pos if (mask >> k) & 1 else neg for k, (pos, neg) in enumerate(signed)])
        for mask in masks
    ]
    return [atom - {TOP} if TOP in atom else atom for atom in atoms]


def clashed_atoms(fillers: tuple[Concept, ...], reading: Reading | None = None) -> int:
    """The atoms whose literal set clashes, as a mask: bit m - 1 set for
    each mask m for which primitive_clash(atomic_decomposition(fillers)[m -
    1]) holds, found without building a literal set.  A reading of the
    same fillers that holds their clash mask gives it without a second
    test.

    An atom holds one literal per filler, the filler or its negation, so it
    clashes through a literal that clashes alone (bottom, an at-most below
    0; in practice the negation of a top filler or a bottom filler) or
    through two literals of different fillers that negate each other.  Each
    literal maps to the coefficient mask of the atoms holding it, OR-ed over
    the fillers that give it, since a filler can be another's negation.
    The clashing atoms are then the masks of the lone clashes joined with
    each literal's atoms met with its negation's.  A filler's own negation
    is held by the complementary atoms, so that meet is empty unless
    another filler gives it too: O(n) set operations, no 2^n walk.

    No filler is negated: a negation never built (a filler's `_neg` is
    None) is left out of the literals, since no atom clashes through it.
    It is no lone clash, as bottom and an at-most below 0 are built nodes;
    and the one literal it clashes with is its filler, which no atom
    holding it holds, as long as negate is its own inverse on the fillers,
    so that a built negation holds its filler in turn.  It is on every
    filler a label holds: NNF, with no at-least 0 inside."""
    if reading is not None and reading.clashed is not None:
        return reading.clashed
    coeffs = _coefficients(len(fillers))
    every = (1 << ((1 << len(fillers)) - 1)) - 1
    holding: dict[Concept, int] = {}
    for f, coeff in zip(fillers, coeffs):
        holding[f] = holding.get(f, 0) | coeff
        neg = f._neg
        if neg is not None:
            holding[neg] = holding.get(neg, 0) | (every ^ coeff)
    clashed = 0
    for lit, atoms in holding.items():
        kind = type(lit)
        if kind is Bottom or kind is AtMost and lit.bound < 0:
            clashed |= atoms
        else:
            clashed |= atoms & holding.get(lit._neg, 0)
    return clashed


def _bounds(restrictions: list[Concept]) -> dict[Concept, list]:
    """Per filler of the restrictions, given in canonical order, and in
    first occurrence order: [its largest at-least bound, its smallest
    at-most bound or None], the interval of the sum of the atoms holding
    it."""
    bounds: dict[Concept, list] = {}
    for lit in restrictions:
        interval = bounds.setdefault(lit.filler, [0, None])
        if type(lit) is AtLeast:
            if lit.bound > interval[0]:
                interval[0] = lit.bound
        elif interval[1] is None or lit.bound < interval[1]:
            interval[1] = lit.bound
    return bounds


def build_lii(branch: frozenset, role: Role, reading: Reading | None = None) -> LiiSystem:
    """The role's system: its fillers, indexed on first occurrence as
    collect_fillers lists them; one interval per filler, from the largest
    at-least bound on it to the smallest at-most bound, over the atoms
    holding it; nothing zeroed yet; and the restrictions in canonical
    order.  A reading of the same branch and role gives the intervals
    closed_form read, or, when it stopped at the full atom, the
    restrictions, so the branch is not read again.  Each coefficient mask
    has 2^width bits, so the caller has checked the width: the engine's
    closed_form has."""
    if reading is not None and reading.bounds is not None:
        restrictions, bounds = reading.restrictions, reading.bounds
    else:
        if reading is None or reading.restrictions is None:
            restrictions = _restrictions(branch, role)
        else:
            restrictions = sorted_concepts(reading.restrictions)
        bounds = _bounds(restrictions)
    width = len(bounds)
    intervals = tuple(
        (coeff, lo, hi) for coeff, (lo, hi) in zip(_coefficients(width), bounds.values())
    )
    return LiiSystem(tuple(bounds), intervals, 0, tuple(restrictions))


def closed_form(
    branch: frozenset, role: Role, lambda_max: int | None = None, reading: Reading | None = None
) -> tuple[int, dict[int, int] | None, frozenset | None] | None:
    """The role's first solve read straight off its restrictions in the
    branch, without a search, or None when it is not forced.  The answer
    is (width, solution, atom): the number of distinct fillers, what
    feasible returns on build_lii's system with the clashed atoms zeroed,
    and the literal set of the solution's one atom, as atomic_decomposition
    gives it, without `top`; (width, None, None) when that system is
    infeasible.  The role needs a positive at-least, as every role the
    engine solves has; `most` below is the largest at-least bound.

    - Full atom.  When the full atom, every filler positive, does not clash
      (so the clash zeroing leaves it live) and no at-most bound is below
      `most`, the solution is {full: most}.  Every interval of build_lii
      counts the full atom, so {full: most} meets every at-least bound,
      and every at-most bound since it is at least `most`.  The full atom
      comes last in feasible's order, so a smaller solution would hold
      every earlier atom at 0 and the full atom below `most`, which misses
      the at-least bound `most`.  This case is tried first.
    - Refutation.  When some filler's largest at-least bound exceeds its
      smallest at-most bound, its interval is empty and no solution
      exists: feasible's interval pre-check.
    - Highest live atom.  An atom is live when it does not clash and holds
      no filler under an at-most 0 (feasible gives it no search position).
      Take the highest live mask M.  When M holds every filler of a
      positive at-least and no at-most bound below `most` is on a filler
      M holds, {M: most} meets every interval, and the full-atom argument
      carries over with M last: every later atom is dead or zeroed.
      Conversely, a solution {M: most} needs exactly that, so the rule
      answers exactly when feasible returns {M: most}.
    - Live-atom refutation.  When the rule above declines and a filler of
      a positive at-least is held by no live atom, its sum stays 0 and no
      solution exists: feasible's live-atom pre-check.  Where the rule
      answers, M holds every such filler, so the check is made only where
      it declines.

    The branch is read once, for the restrictions, their fillers, `most`
    and the smallest at-most bound; the later cases read the restrictions
    alone, for each filler's interval.  The width is counted as build_lii
    counts it: more than lambda_max raise SolverLimitError before any case
    is read.  Past the full atom, the
    restrictions are sorted, which puts the fillers and their intervals in
    build_lii's order (`_bounds`), and past the interval refutation the
    clash mask of the fillers is taken (`clashed_atoms`); a reading, when
    given, keeps the restrictions, the intervals and the clash mask
    (`Reading`), so a caller that builds the system after a decline reads
    none of them again."""
    restrictions = []
    fillers = set()
    most, fewest = 0, None
    for lit in branch:
        kind = type(lit)
        if (kind is AtLeast or kind is AtMost) and lit.role is role:
            restrictions.append(lit)
            fillers.add(lit.filler)
            if kind is AtLeast:
                if lit.bound > most:
                    most = lit.bound
            elif fewest is None or lit.bound < fewest:
                fewest = lit.bound
    width = len(fillers)
    _check_width(width, lambda_max)
    if reading is not None:
        reading.restrictions = restrictions
    if fewest is None or most <= fewest:
        fillers.discard(TOP)
        full = frozenset(fillers)
        if not primitive_clash(full):
            return width, {(1 << width) - 1: most}, full
    restrictions = sorted_concepts(restrictions)
    bounds = _bounds(restrictions)
    if reading is not None:
        reading.restrictions, reading.bounds = restrictions, bounds
    intervals = list(bounds.values())
    for lo, hi in intervals:
        if hi is not None and lo > hi:
            return width, None, None
    # the atoms that are not live: clashed, or holding a filler under at-most 0
    dead = clashed_atoms(tuple(bounds))
    if reading is not None:
        reading.clashed = dead
    coeffs = _coefficients(width)
    for coeff, (_, hi) in zip(coeffs, intervals):
        if hi == 0:
            dead |= coeff
    live = ((1 << ((1 << width) - 1)) - 1) & ~dead  # bit m - 1 is atom m
    mask = live.bit_length()
    for k, (lo, hi) in enumerate(intervals):
        if (mask >> k) & 1:
            if hi is not None and hi < most:
                break  # {mask: most} breaks this filler's at-most
        elif lo:
            break  # and misses this one's at-least
    else:
        if mask:
            # a live atom holds a top filler and negates a bottom one, and
            # either literal is top, which it leaves out
            atom = frozenset(
                f if (mask >> k) & 1 else negate(f)
                for k, f in enumerate(bounds)
                if f is not TOP and f is not BOTTOM
            )
            return width, {mask: most}, atom
    for coeff, (lo, _) in zip(coeffs, intervals):
        if lo and not coeff & live:
            return width, None, None  # an at-least sum no live atom adds to
    return None


def zero_column(system: LiiSystem, atoms: int) -> LiiSystem:
    """Force the multiplicity of each atom in the mask to zero, bit m - 1
    for atom m; returns a new system, one however many atoms are given, so
    a system's clashed atoms are zeroed in one copy.  A bit outside the
    system's 2^width - 1 atoms raises ValueError."""
    if atoms < 0 or atoms >> ((1 << system.width) - 1):
        raise ValueError(f"atom mask {atoms:#x} out of range")
    return LiiSystem(system.fillers, system.intervals, system.zeroed | atoms, system.restrictions)


def feasible(system: LiiSystem, max_steps: int = 2_000_000) -> dict[int, int] | None:
    """Find a non-negative integer solution, or None when infeasible.  The
    solution maps each atom mask with a positive multiplicity to it, in
    ascending mask order; zeroed and zero-valued atoms are absent.  Any
    coefficient masks will do, and two intervals may bound one sum.

    Depth-first over atoms in ascending mask order, smallest value
    first, so the solution returned is the lexicographically smallest one:
    every pruning below only skips subtrees that hold no solution or only
    solutions after it.  Per-variable value ranges come from the intervals,
    arithmetic on bounds rather than unary counting, which keeps large
    bounds cheap.

    - Interval pre-check: an empty interval refutes the system before any
      search step.
    - Live-atom pre-check: an at-least sum with a positive bound that no
      live atom (neither zeroed nor dead, below) adds to stays at 0, so it
      refutes the system before any search step, as in `closed_form`.
    - Dead atoms: an atom in a sum bounded by at-most 0 can only be 0, so
      like a zeroed atom it gets no search position.
    - Per-atom cap: each atom is capped at the smallest at-most bound
      covering it, and at the largest at-least bound covering it (0 when
      none does): a value above the latter could be lowered to it without
      breaking a bound, giving a smaller solution.
    - Room: what the atoms after a position can still add to an at-least
      sum is at most the bound of any at-most sum that holds all of them,
      which they add to in full.  The smallest such bound sets how much
      the atom at the position must add; with no such sum, the room is
      unbounded and sets nothing.
    - Memo: a state is a position and the sums so far, with each at-least
      sum clamped at its bound since no later check tells larger sums
      apart.  A state whose subtree failed is stored and skipped on entry;
      the memo holds at most one state per step.
    - Explicit stack: no recursion, whatever the number of atoms.

    One step is one search node entered, so the search takes no more steps
    than it would without these prunings; more than max_steps raises
    SolverLimitError.  The pre-checks take no step, so they answer at any
    max_steps.  A negative bound raises ValueError: clash detection zeroes
    what an at-most below 0 forbids.  Every solution is checked against
    every interval and the zeroed mask before it is returned.
    """
    intervals = system.intervals
    for _, lo, hi in intervals:
        if lo < 0 or hi is not None and hi < 0:
            raise ValueError("negative bound; clash detection should run first")
    dead = system.zeroed  # and the atoms in a sum bounded by at-most 0
    for coeff, lo, hi in intervals:
        if hi is not None:
            if lo > hi:
                return None
            if hi == 0:
                dead |= coeff

    live = ((1 << ((1 << system.width) - 1)) - 1) & ~dead
    for coeff, lo, _ in intervals:
        if lo and not coeff & live:
            return None  # an at-least sum no live atom adds to
    # bit m - 1 of live is atom m, so the reversed binary digits run from
    # atom 1 up: one conversion, where a shift per atom costs 2^width bits
    masks = [m for m, bit in enumerate(bin(live)[:1:-1], 1) if bit == "1"]
    n = len(masks)
    # per position, built back to front: the atom's cap; the at-least sums
    # it adds to, each with its bound less what later atoms can still add;
    # the at-most sums it adds to, with their bound; and the sums its value
    # goes to, with their clamp (an at-most sum never passes its bound)
    caps = [0] * n
    raising, limiting, adding = [()] * n, [()] * n, [()] * n
    # per sum, over the atoms after the position: the at-most sums that
    # hold every one of them, and the room, what they can still add: 0
    # with no such atom, the smallest bound of those sums, or None when
    # there is none
    every = [-1] * len(intervals)
    room: list = [0] * len(intervals)
    for i in range(n - 1, -1, -1):
        bit = 1 << (masks[i] - 1)
        cap, limit, within = 0, None, 0  # within: the at-most sums it lies in
        raise_, limit_, add_ = [], [], []
        for g, (coeff, lo, hi) in enumerate(intervals):
            if coeff & bit:
                if lo > cap:
                    cap = lo
                if room[g] is not None and lo > room[g]:
                    raise_.append((g, lo - room[g]))
                if hi is None:
                    add_.append((g, lo))
                else:
                    if limit is None or hi < limit:
                        limit = hi
                    limit_.append((g, hi))
                    within |= 1 << g
                    add_.append((g, hi))
        if limit is not None and limit < cap:
            cap = limit
        caps[i], raising[i], limiting[i], adding[i] = cap, raise_, limit_, add_
        for g, _ in add_:
            holding = every[g] = every[g] & within
            least = None
            for h, hi in limit_:  # every sum in holding is one of this atom's
                if (holding >> h) & 1 and (least is None or hi < least):
                    least = hi
            room[g] = least

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
        elif state not in failed.get(i, ()):
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
    for m in solution:
        if (system.zeroed >> (m - 1)) & 1:
            raise AssertionError(f"solution assigns zeroed atom {m}")
    for coeff, lo, hi in system.intervals:
        total = sum(v for m, v in solution.items() if (coeff >> (m - 1)) & 1)
        if total < lo or hi is not None and total > hi:
            raise AssertionError(f"solution violates interval {(coeff, lo, hi)}")
