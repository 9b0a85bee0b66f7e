"""Bounded-domain model finder.

Ground-truth semantics for tests: interprets concepts over explicit finite
structures and searches all interpretations up to a small domain size, in a
fixed candidate order.  The atom and role names to interpret are the sorted
names of goal and axiom (`sorted_signature`), kept per pair of hash-consed
concepts, and `build_problem` has read a built problem's.  Size 1 is
one recursive pass over goal and axiom, memoized per hash-consed node,
that gives each subterm its extension over every size-1 candidate as one
int; there a number restriction counts the element's self-loop alone, so
the first model is the lowest candidate whose bit goal and axiom both
set.  For sizes 2 and 3 the search compiles goal and axiom into bitmask
ops in one recursive pass, folding every number restriction whose value
n decides (an at-least above n, an at-most of n or more) to a constant;
equal subterms are one hash-consed node and get one slot.  Both passes
read NNF only: `find_model` reads the names off its arguments as given
and then hands the passes their NNF, which has the same extension, so a
raw negation never reaches them.  The candidate loops are grouped into
blocks of at most SLICE_BITS bits, and a block evaluates each op once for
all its candidates, bit-sliced: an extension is one int whose bit
c*n + x holds element x under the block's candidate c, so a junction or
a negated atom is one bitwise operation.  A block's passing candidates are entered in
ascending order, and every candidate below one that already fails is
skipped.  A folded op has the value the restriction has on every size-n
candidate, a skipped candidate fails a check it cannot change, and a
block's candidates ascend in the plain order, so the search returns the
model a plain enumeration returns.  A negative answer is never a proof of
unsatisfiability; the result type says how far it went.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Mapping, NamedTuple

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
    sorted_signature,
    to_nnf,
)


class OracleLimitError(RuntimeError):
    """Search-space guard exceeded; the caller asked for a larger signature
    or domain, or a deeper nesting, than the bounded search will cover."""


class Interpretation(NamedTuple):
    """Explicit finite structure over domain {0, .., domain_size - 1}.

    Role extensions store the base role only; the inverse is definitional,
    (x, y) in R iff (y, x) in R-inverse.
    """

    domain_size: int
    concept_extensions: Mapping[str, frozenset[int]]
    role_extensions: Mapping[str, frozenset[tuple[int, int]]]

    def neighbors(self, role: Role, x: int) -> list[int]:
        pairs = self.role_extensions.get(role.base, ())
        if role.inverted:
            return [y for (y, z) in pairs if z == x]
        return [y for (z, y) in pairs if z == x]

    def dump(self) -> str:
        lines = [f"domain: {list(range(self.domain_size))}"]
        for name in sorted(self.concept_extensions):
            lines.append(f"concept {name}: {sorted(self.concept_extensions[name])}")
        for name in sorted(self.role_extensions):
            lines.append(f"role {name}: {sorted(self.role_extensions[name])}")
        return "\n".join(lines)


class NoneFound(NamedTuple):
    """No model up to the given domain size.  Not an unsatisfiability proof."""

    searched_max_domain: int


def evaluate(interp: Interpretation, c: Concept, element: int) -> bool:
    """Truth of a concept at an element.  Handles raw negation too; unknown
    atomic names evaluate as empty.  The reference semantics: a plain
    recursion, so nesting past the recursion limit raises RecursionError."""
    if isinstance(c, Top):
        return True
    if isinstance(c, Bottom):
        return False
    if isinstance(c, Atom):
        return element in interp.concept_extensions.get(c.name, ())
    if isinstance(c, NegAtom):
        return element not in interp.concept_extensions.get(c.name, ())
    if isinstance(c, Not):
        return not evaluate(interp, c.sub, element)
    if isinstance(c, And):  # plain loops: one frame per level of nesting
        for p in c.parts:
            if not evaluate(interp, p, element):
                return False
        return True
    if isinstance(c, Or):
        for p in c.parts:
            if evaluate(interp, p, element):
                return True
        return False
    if isinstance(c, (AtMost, AtLeast)):
        count = 0
        for y in interp.neighbors(c.role, element):
            if evaluate(interp, c.filler, y):
                count += 1
        return count <= c.bound if isinstance(c, AtMost) else count >= c.bound
    raise TypeError(f"unknown concept node: {c!r}")


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

# opcodes of a compiled subterm; slots 0 and 1 hold bottom and top
_ATOM, _NEG_ATOM, _AND, _OR, _AT_MOST, _AT_LEAST = range(6)

# A block of loops takes at most this many candidate bits, unless one loop
# alone has more (a role loop at size 3 has 9).  Blocks serve sizes 2 and 3
# only.  On the `oracle` bench workload, 10 alternating pairs of 10 s runs
# against 8: 6 reads 24% fewer decided/s (0/10 pairs won); 10 reads 4.3%
# more (10/10) but a 5.9% higher p90 latency (0/10), so neither wins
SLICE_BITS = 8


@cache
def _layout(n: int, n_atoms: int, n_roles: int) -> tuple[list[int], list[tuple]]:
    """The sweep's loops over domain {0..n-1} grouped into blocks, each
    evaluated in one pass over all its candidates: from role 0 outwards,
    then the atom loop, each block takes the longest run of loops whose
    bits add up to at most SLICE_BITS, and at least one loop.  Returns the
    block of each depth and, outermost first, each block's
    (offset, rep, full, atom planes, role planes).

    A candidate's index in `find_model`'s order holds role k's mask at bits
    k*n*n.., pair (x, y) at bit k*n*n + x*n + y, and above the roles each
    atom's n bits.  A block's candidate c is the run of index bits from
    its offset that its loops fix, and bit c*n + x of an extension over the
    block is element x under c.  rep has bit c*n set for every c and full
    every bit.  Atom plane i is atom i's extension, and role plane
    [k][inverted][y] has bit c*n + x set when y is a neighbour of x over
    role k (inverted), for the block's own roles.
    """
    widths = [n * n_atoms] + [n * n] * n_roles
    block_of, shapes = [0] * (n_roles + 1), []
    hi = n_roles
    while hi >= 0:
        lo = hi
        while lo and sum(widths[lo - 1 : hi + 1]) <= SLICE_BITS:
            lo -= 1
        bits, offset = sum(widths[lo : hi + 1]), n * n * (n_roles - hi)
        full = (1 << (n << bits)) - 1
        rep = full // ((1 << n) - 1)
        # plane g has bit c*n set when candidate c sets index bit g: from
        # the offset on, plane b repeats 2**b clear candidates, then 2**b set
        bit = [None] * offset + [
            ((rep >> ((n << bits) - (n << b))) << (n << b)) * (full // ((1 << (n << (b + 1))) - 1))
            for b in range(bits)
        ]
        atoms = [sum(bit[n * n * n_roles + n * i + x] << x for x in range(n)) for i in range(n_atoms if lo == 0 else 0)]
        planes = [_role_planes(bit, k, n) if offset <= n * n * k < offset + bits else None for k in range(n_roles)]
        shapes.insert(0, (offset, rep, full, atoms, planes))
        # numbered from the innermost block until the count is known
        block_of[lo : hi + 1] = [len(shapes)] * (hi + 1 - lo)
        hi = lo - 1
    return [len(shapes) - b for b in block_of], shapes


def _role_planes(bit: list[int], k: int, n: int) -> list[list[int]]:
    """[forward, inverse] neighbour planes of role k, given the plane of
    each index bit."""
    base = n * n * k
    return [
        [sum(bit[base + x * n + y] << x for x in range(n)) for y in range(n)],
        [sum(bit[base + y * n + x] << x for x in range(n)) for y in range(n)],
    ]


class _Program(NamedTuple):
    """Goal and axiom compiled for one domain size to slot ops, staged by
    the block of loops that fixes their value (see `_compile`)."""

    shapes: list[tuple]  # per block, see `_layout`
    stages: list[list[tuple]]  # ops per block, children before parents
    axiom_parts: list[list[int]]  # slots per block that must be full
    goal_parts: list[list[int]]  # slots per block whose meet must be non-empty
    depths: list[int]  # per slot, the depth of the loop that fixes its value


def _compile(goal: Concept, axiom: Concept, atom_list: list[str], role_list: list[str], n: int) -> _Program:
    """One walk over goal and axiom for the candidates over domain {0..n-1}.

    Every subterm becomes an op `(opcode, slot, *args)`; its slot will hold
    the subterm's extension as a bitmask.  An op's depth is 0 when it
    depends on the atoms only, else `len(role_list) - k` for the smallest
    index k of a role it counts over: role k's loop sits at that depth of
    the sweep.  The op is staged in the block of that depth (`_layout`).
    `_fold` walks the subterms, one call per visit.
    """
    block_of, shapes = _layout(n, len(atom_list), len(role_list))
    stages, goal_parts, axiom_parts = [], [], []
    for _ in shapes:
        stages.append([])
        goal_parts.append([])
        axiom_parts.append([])
    depths: list[int] = [0, 0]  # of bottom and top
    seen: dict[Concept, int] = {}
    # goal first: slots are numbered in visit order
    for c, by_block in (goal, goal_parts), (axiom, axiom_parts):
        for part in c.parts if type(c) is And else (c,):
            slot = _fold(part, n, atom_list, role_list, block_of, stages, depths, seen)
            by_block[block_of[depths[slot]]].append(slot)
    return _Program(shapes, stages, axiom_parts, goal_parts, depths)


def _fold(c: Concept, n: int, atom_list: list[str], role_list: list[str], block_of: list[int],
          stages: list[list[tuple]], depths: list[int], seen: dict[Concept, int]) -> int:
    """The slot of c, emitting its op and depth on the first visit (see
    `_compile`); `seen` is keyed by the hash-consed node, so equal subterms
    share one slot.  c is in NNF.

    A subterm whose extension is the same on every size-n candidate folds
    to slot 1 (top) or slot 0 (bottom), at depth 0: an at-least above n or
    an at-most of n or more, a restriction over a bottom filler, and the
    junctions these make constant.  A junction keeps its other parts, and
    one left with a single part is that part, so a conjunct whose deep
    parts fold away is checked at a shallower loop.
    """
    slot = seen.get(c)
    if slot is not None:
        return slot
    kind = type(c)
    if kind is And or kind is Or:
        # the junction's unit drops out, its negation decides it
        unit = 1 if kind is And else 0
        kept: list[int] = []
        depth = 0
        for p in c.parts:
            slot = _fold(p, n, atom_list, role_list, block_of, stages, depths, seen)
            if slot == 1 - unit:
                break
            if slot != unit:
                kept.append(slot)
                if depths[slot] > depth:
                    depth = depths[slot]
        else:
            if len(kept) > 1:
                slot = len(depths)
                depths.append(depth)
                stages[block_of[depth]].append((_AND if unit else _OR, slot, tuple(kept)))
            else:
                slot = kept[0] if kept else unit
    elif kind is AtMost or kind is AtLeast:
        at_most = kind is AtMost
        bound = c.bound
        # bounds first: an at-most -1 is bottom even over a bottom filler
        if bound >= n if at_most else bound <= 0:
            slot = 1
        elif bound < 0 if at_most else bound > n:
            slot = 0
        else:
            filler = _fold(c.filler, n, atom_list, role_list, block_of, stages, depths, seen)
            if filler == 0:
                slot = 1 if at_most else 0
            else:
                role = c.role
                k = role_list.index(role.base)
                depth = max(depths[filler], len(role_list) - k)
                slot = len(depths)
                depths.append(depth)
                stages[block_of[depth]].append((_AT_MOST if at_most else _AT_LEAST, slot, filler, k, role.inverted, bound))
    elif kind is Atom or kind is NegAtom:
        slot = len(depths)
        depths.append(0)
        stages[block_of[0]].append((_ATOM if kind is Atom else _NEG_ATOM, slot, atom_list.index(c.name)))
    elif kind is Top or kind is Bottom:
        slot = 1 if kind is Top else 0
    else:
        raise TypeError(f"unknown concept node: {c!r}")
    seen[c] = slot
    return slot


@cache  # one entry per (atom count, role count); the guards bound the table
def _planes(n_atoms: int, n_roles: int) -> tuple[int, list[int], list[int]]:
    """The full mask, the atom planes and the loop planes over the size-1
    candidates: bit c of plane g is bit g of index c, so role k's loop is
    plane k and atom i's plane is `n_roles + i`, as `_layout` lays them
    out at n = 1."""
    bits = n_atoms + n_roles
    full = (1 << (1 << bits)) - 1
    # plane g repeats 2**g clear candidates, then 2**g set
    planes = [(((1 << (1 << g)) - 1) << (1 << g)) * (full // ((1 << (2 << g)) - 1)) for g in range(bits)]
    return full, planes[n_roles:], planes[:n_roles]


def _one_element(atom_list: list[str], role_list: list[str]) -> Callable[[Concept], int]:
    """A function giving a concept's extension over every size-1 candidate
    as one int, memoized per hash-consed node: bit c is set when the
    concept holds at element 0 under candidate c (see `_planes`).  A number
    restriction counts the element's self-loop alone, so it holds wherever
    its bound, the loop and the filler say, and a junction stops at a part
    that decides it.  The concepts given are in NNF."""
    full, atoms, loops = _planes(len(atom_list), len(role_list))
    seen: dict[Concept, int] = {}

    def extension(c: Concept) -> int:
        ext = seen.get(c)
        if ext is not None:
            return ext
        kind = type(c)
        if kind is And:
            ext = full
            for p in c.parts:
                ext &= extension(p)
                if not ext:
                    break
        elif kind is Or:
            ext = 0
            for p in c.parts:
                ext |= extension(p)
                if ext == full:
                    break
        elif kind is AtLeast or kind is AtMost:
            # an at-most b is the complement of the at-least b + 1
            bound = c.bound + (kind is AtMost)
            if bound == 1:
                ext = loops[role_list.index(c.role.base)] & extension(c.filler)
            else:
                ext = full if bound <= 0 else 0
            if kind is AtMost:
                ext ^= full
        elif kind is Atom:
            ext = atoms[atom_list.index(c.name)]
        elif kind is NegAtom:
            ext = full ^ atoms[atom_list.index(c.name)]
        elif kind is Top or kind is Bottom:
            ext = full if kind is Top else 0
        else:
            raise TypeError(f"unknown concept node: {c!r}")
        seen[c] = ext
        return ext

    return extension


def _passing(program: _Program, b: int, n: int, ext: list[int], index: int, meet: int) -> tuple[int, int, list[int]]:
    """Evaluate block b's ops, children before parents, over all its
    candidates, given the extensions (in ext), index bits and goal meet that
    the outer blocks fixed.  Returns (ok, goal meet, extensions): bit c*n
    of ok is set when candidate c makes the block's axiom conjuncts full
    and the goal conjuncts so far meet.  A number restriction counts each
    element's neighbours y in the filler one y at a time, keeping for
    every j up to its bound the elements with at least j so far."""
    _, rep, full, atoms, planes = program.shapes[b]
    chunk = (1 << n) - 1
    wide = ext[:]
    wide[1] = full  # top; bottom, slot 0, is 0 in ext too
    for stage in program.stages[:b]:
        for op in stage:
            wide[op[1]] *= rep
    for op in program.stages[b]:
        code = op[0]
        if code >= _AT_MOST:
            _, slot, filler, k, inverted, bound = op
            # no planes: an outer block fixed role k's mask
            sides = planes[k] or _role_planes([rep * (index >> g & 1) for g in range(n * n * (k + 1))], k, n)
            fill = wide[filler]
            top = bound + 1 if code == _AT_MOST else bound
            at_least = [full] + [0] * top
            for y, plane in enumerate(sides[inverted]):
                t = plane & ((fill >> y) & rep) * chunk
                for j in range(top, 0, -1):
                    at_least[j] |= at_least[j - 1] & t
            mask = full ^ at_least[top] if code == _AT_MOST else at_least[top]
        elif code == _AND:
            mask = full
            for p in op[2]:
                mask &= wide[p]
        elif code == _OR:
            mask = 0
            for p in op[2]:
                mask |= wide[p]
        elif code == _ATOM:
            mask = atoms[op[2]]
        else:
            mask = full ^ atoms[op[2]]
        wide[op[1]] = mask
    short = 0
    for slot in program.axiom_parts[b]:
        short |= full ^ wide[slot]
    meet *= rep
    for slot in program.goal_parts[b]:
        meet &= wide[slot]
    some_meet, some_short = meet, short
    for x in range(1, n):
        some_meet |= meet >> x
        some_short |= short >> x
    return some_meet & ~some_short & rep, meet, wide


def _descend(program: _Program, n: int, ext: list[int], b: int, meet: int, index: int) -> int | None:
    """The index of the first model among block b's candidates over domain
    {0..n-1}, under the outer blocks' extensions (in ext), index bits and
    goal meet, or None.

    Candidates run in `find_model`'s order: the atom bits outermost, then
    one loop per role, the last sorted role outermost and role 0 innermost.
    `_passing` evaluates the block's ops over all its candidates at once
    and checks that the axiom conjuncts fixed there are full and that the
    goal conjuncts fixed so far still meet.  The passing candidates are
    entered in ascending order, one call each; a failing one skips every
    candidate below, since none of them can change the failed values.  The
    innermost block's lowest passing candidate completes the first model.
    """
    chunk = (1 << n) - 1
    ok, meet, wide = _passing(program, b, n, ext, index, meet)
    while ok:
        low = ok & -ok
        shift = low.bit_length() - 1
        found = index | shift // n << program.shapes[b][0]
        if b + 1 == len(program.shapes):
            return found
        for op in program.stages[b]:
            ext[op[1]] = wide[op[1]] >> shift & chunk
        found = _descend(program, n, ext, b + 1, meet >> shift & chunk, found)
        if found is not None:
            return found
        ok ^= low
    return None


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

    The signature is the union of the goal's and the axiom's, read by one
    walk the first time the pair is searched (`sorted_signature`); on a
    problem's goal and axiom `build_problem` has read it.  It is read off
    the arguments as given, so a name that only their NNF drops, as in
    `(atleast 0 R A)`, is still interpreted; the passes then read the NNF
    of each (`to_nnf`), the same object on a built problem.  Size 1 is one
    pass of `_one_element` over goal and axiom, and the lowest candidate
    whose bit both extensions set is the first model.  For sizes 2 and 3,
    one pass of `_compile` turns goal and axiom into bitmask ops, with
    every subterm that has one value on all size-n candidates folded to a
    constant, and `_descend` walks the candidates in that same order, block
    of loops by block (`_layout`), skipping every candidate nested in a
    block candidate that fails.  Folding changes no op's value on any
    candidate and skipping drops only candidates that fail, so the first
    model is the one the plain enumeration returns; `_materialize` builds
    it.  The budget still counts each size's whole candidate space, skipped
    candidates included.
    """
    atom_list, role_list = sorted_signature(goal, axiom)
    if len(atom_list) > max_atoms or len(role_list) > max_roles:
        raise OracleLimitError(
            f"signature too large for brute-force search: {len(atom_list)} atoms, {len(role_list)} roles"
        )
    if max_domain > 3:
        raise OracleLimitError(f"max_domain {max_domain} exceeds the search guard of 3")

    goal, axiom = to_nnf(goal), to_nnf(axiom)
    spent = 0
    for n in range(1, max_domain + 1):
        spent += 1 << (n * len(atom_list) + n * n * len(role_list))
        if spent > budget:
            return NoneFound(n - 1)
        try:  # both passes take one frame per nesting level
            if n == 1:
                extension = _one_element(atom_list, role_list)
                models = extension(goal) & extension(axiom)
                index = (models & -models).bit_length() - 1 if models else None
            else:
                program = _compile(goal, axiom, atom_list, role_list, n)
                index = _descend(program, n, [0] * len(program.depths), 0, (1 << n) - 1, 0)
        except RecursionError:
            raise OracleLimitError("concept nesting too deep for the model search") from None
        if index is not None:
            return _materialize(n, atom_list, role_list, index)
    return NoneFound(max(max_domain, 0))


def _materialize(n: int, atom_list: list[str], role_list: list[str], index: int) -> Interpretation:
    """The candidate over domain {0..n-1} with the given index (see
    `_layout`): each role's mask from the lowest bits up, then each atom's,
    looked up in `_members`."""
    chunk, square = (1 << n) - 1, (1 << n * n) - 1
    concepts, roles = {}, {}
    for name in role_list:
        roles[name] = _members(n, index & square, True)
        index >>= n * n
    for name in atom_list:
        concepts[name] = _members(n, index & chunk, False)
        index >>= n
    return Interpretation(n, concepts, roles)


@cache  # one entry per mask, built on first use; n <= 3 bounds the table
def _members(n: int, bits: int, pairs: bool) -> frozenset:
    """Element x at bit x of the mask, or pair (x, y) at bit x*n + y."""
    if pairs:
        return frozenset([divmod(b, n) for b in range(n * n) if bits >> b & 1])
    return frozenset([x for x in range(n) if bits >> x & 1])
