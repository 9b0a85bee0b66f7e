"""Concept syntax for ALCQI: AST, parsing, NNF, negation, axiom internalization.

Concepts are hash-consed: constructing a node looks up its class and fields
in one table and returns the node already there, so equal concepts are one
object and compare and hash by identity, also where threads build them at
once.  Each node computes its order key once, from its children's, so it
never recurses; the same goes for its NNF and for `_splits`, whether an
or-node is reachable through and-nodes alone, that is, whether a label
holding it can have more than one branch.  A node keeps no names:
`signature_of` reads them in one walk, and `build_problem` reads a
problem's once, for the model search.  And/Or nodes keep their children
flattened, deduplicated and sorted under a fixed total order, so a set of
concepts behaves like a set in every cache and comparison downstream.
The node classes are frozen slotted classes whose `_fields` name their
fields in constructor order; `Problem` is a named tuple.

The parser reads the tokens of a text, taken from one regular-expression
`findall`; it works out a token's character offset only when it raises a
ConceptSyntaxError.  `to_nnf` reads the NNF a node was built with, so a
concept already in NNF comes back as the same object.  `walk_concepts`
visits each distinct node once, so a subterm shared by many parents costs
one visit, not one per occurrence.  The parser, `walk_concepts`, `negate`
and `str` are loops over an explicit stack, and the parser reads nested
`inv` in a loop, so nesting depth is bounded by memory in all of them.
Only comparing two order keys recurses, in C, once per level the keys
share: `conj` and `disj` sort their parts by key.

A node's negation is built by `negate`, where a negation enters a label,
and is linked to the node when the later of the two is built: building a
node looks its negation up under one key (`_dual_key`) and, where it is
there, each is stored on the other, as a role's two directions are.  So a
node holds its negation once both are built and None before, and linking
builds no node.  A Not node's negation is its sub's NNF, built before it,
so a Not node holds it from the start.  Clash tests read that slot: a
label holds only built nodes, so a negation never built clashes with
nothing in it.
"""

from __future__ import annotations

import re
import threading
from itertools import islice
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple


class ConceptSyntaxError(ValueError):
    """Raised on malformed concept text; carries message and offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


# the forward direction of every role built, keyed by its base
_ROLES: dict[str, "Role"] = {}
# held while a new role or node is checked against its table and inserted
_INTERN = threading.Lock()


class Role:
    """A role name with an inversion marker.  inverse() is an involution.

    Roles are interned like concepts: constructing one returns the object
    already built for its base and marker, so equal roles are one object
    and compare and hash by identity, also where threads build them at
    once.  A role's two directions are built together, each holding the
    other, so inverse() reads a slot.  Roles are frozen: assigning or
    deleting an attribute raises AttributeError."""

    __slots__ = ("base", "inverted", "_inv")

    def __new__(cls, base: str, inverted: bool = False):
        role = _ROLES.get(base)
        if role is None:
            forward, backward = object.__new__(cls), object.__new__(cls)
            for this, other, marker in ((forward, backward, False), (backward, forward, True)):
                object.__setattr__(this, "base", base)
                object.__setattr__(this, "inverted", marker)
                object.__setattr__(this, "_inv", other)
            with _INTERN:  # another thread may have built the pair meanwhile
                role = _ROLES.setdefault(base, forward)
        return role._inv if inverted else role

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def inverse(self) -> "Role":
        return self._inv

    def __repr__(self) -> str:
        return f"Role(base={self.base!r}, inverted={self.inverted!r})"

    def __str__(self) -> str:
        return f"(inv {self.base})" if self.inverted else self.base


# every concept node ever built, keyed by (class, *fields)
_NODES: dict[tuple, "Concept"] = {}


class Concept:
    """Base class for all concept nodes.  Fields are given positionally, in
    the order of the class's `_fields`, which are also its slots.  Nodes are
    frozen: assigning or deleting an attribute raises AttributeError.

    Beside the fields, a node holds its order key (`_key`), its negation
    (`_neg`), its NNF (`_nnf`) and `_splits`: whether an or-node is
    reachable from it through and-nodes alone.  A label none of whose
    concepts has `_splits` has one branch at most, the literals reachable
    through and-nodes.  All but `_neg` are set from the children's when
    the node is built, outside the table's lock, since `_nnf` may build
    other nodes; the table is then checked again under the lock, so two
    threads building one key get one node.

    `_neg` is the node negate returns, once it is built, and None before.
    A node built after its negation finds it under `_dual_key` and stores
    it; the negation stores the node back only where negating it gives the
    node again, since negation is no involution on at-least 0 (bottom's
    negation is top) nor on a Not node (the negation of its sub's NNF is
    no Not node)."""

    __slots__ = ("_key", "_neg", "_nnf", "_splits")
    _fields: tuple[str, ...] = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            names = cls._fields
            if len(fields) != len(names):
                raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(fields)}")
            new = object.__new__(cls)
            for name, value in zip(names, fields):
                object.__setattr__(new, name, value)
            object.__setattr__(new, "_key", _order_key(new))
            object.__setattr__(new, "_neg", None)
            object.__setattr__(
                new, "_splits", cls is Or or cls is And and any(p._splits for p in fields[0])
            )
            object.__setattr__(new, "_nnf", _nnf(new))
            with _INTERN:
                node = _NODES.get(key)
                if node is None:
                    dual = _dual_key(new)
                    neg = None if dual is None else _NODES.get(dual)
                    if neg is not None:
                        object.__setattr__(new, "_neg", neg)
                        if _dual_key(neg) == key:  # at-least 0 and bottom are not
                            object.__setattr__(neg, "_neg", new)
                    node = _NODES[key] = new
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __str__(self) -> str:
        """The concept's text, written in one loop: the stack holds the
        nodes still to write and the text between them, so nesting depth
        is bounded by memory only."""
        out: list[str] = []
        stack: list = [self]
        while stack:
            c = stack.pop()
            kind = type(c)
            if kind is str:
                out.append(c)
            elif kind is Atom:
                out.append(c.name)
            elif kind is NegAtom:
                out.append(f"(not {c.name})")
            elif kind is Top or kind is Bottom:
                out.append("top" if kind is Top else "bottom")
            elif kind is And or kind is Or:
                out.append("(and" if kind is And else "(or")
                stack.append(")")
                for part in reversed(c.parts):
                    stack += (part, " ")
            elif kind is Not:
                out.append("(not ")
                stack += (")", c.sub)
            else:
                out.append(f"({'atleast' if kind is AtLeast else 'atmost'} {c.bound} {c.role} ")
                stack += (")", c.filler)
        return "".join(out)


class Top(Concept):
    __slots__ = ()


class Bottom(Concept):
    """The negation of top; the only non-atomic negation kept in NNF."""

    __slots__ = ()


class Atom(Concept):
    __slots__ = _fields = ("name",)
    name: str


class NegAtom(Concept):
    __slots__ = _fields = ("name",)
    name: str


class Not(Concept):
    """Unrestricted negation; appears only before NNF conversion."""

    __slots__ = _fields = ("sub",)
    sub: Concept


class And(Concept):
    __slots__ = _fields = ("parts",)
    parts: tuple[Concept, ...]


class Or(Concept):
    __slots__ = _fields = ("parts",)
    parts: tuple[Concept, ...]


class AtMost(Concept):
    """Upper cardinality bound on role neighbors satisfying the filler.

    bound -1 is constructible internally (bound adjustment against the tree
    parent) and is trivially unsatisfiable; the parser rejects it.
    """

    __slots__ = _fields = ("bound", "role", "filler")
    bound: int
    role: Role
    filler: Concept


class AtLeast(Concept):
    __slots__ = _fields = ("bound", "role", "filler")
    bound: int
    role: Role
    filler: Concept


def _order_key(c: Concept) -> tuple:
    if isinstance(c, Top):
        return (0,)
    if isinstance(c, Bottom):
        return (1,)
    if isinstance(c, Atom):
        return (2, c.name, 0)
    if isinstance(c, NegAtom):
        return (2, c.name, 1)
    if isinstance(c, AtMost):
        return (3, c.role.base, c.role.inverted, c.filler._key, 0, c.bound)
    if isinstance(c, AtLeast):
        return (3, c.role.base, c.role.inverted, c.filler._key, 1, c.bound)
    if isinstance(c, And):
        return (4, tuple(p._key for p in c.parts))
    if isinstance(c, Or):
        return (5, tuple(p._key for p in c.parts))
    if isinstance(c, Not):
        return (6, c.sub._key)
    raise TypeError(f"unknown concept node: {c!r}")


def _dual_key(c: Concept) -> tuple | None:
    """The `_NODES` key of c's negation, or None when c is a junction one
    of whose parts has no negation built.  A literal's is read off it:
    at-most b against at-least b+1, atom against negated atom; the
    negation of at-least 0 is bottom; a Not node's is its sub's NNF.  A
    junction's is the dual junction over its parts' negations, flattened,
    deduplicated and sorted as conj and disj build it, so it is the key of
    the node they return."""
    kind = type(c)
    if kind is Atom:
        return (NegAtom, c.name)
    if kind is NegAtom:
        return (Atom, c.name)
    if kind is AtMost:
        return (AtLeast, c.bound + 1, c.role, c.filler)
    if kind is AtLeast:
        return (Bottom,) if c.bound == 0 else (AtMost, c.bound - 1, c.role, c.filler)
    if kind is And or kind is Or:
        negs = [p._neg for p in c.parts]
        if None in negs:
            return None
        dual = Or if kind is And else And
        flat = _flat(negs, dual)
        if len(flat) > 1:
            return (dual, tuple(flat))
        lone = flat[0]  # parts whose negations coincide or flatten
    elif kind is Not:
        lone = c.sub._nnf
    else:
        return (Bottom,) if kind is Top else (Top,)
    return (type(lone), *(getattr(lone, name) for name in lone._fields))


def _nnf(c: Concept) -> Concept:
    """c's NNF, from its children's: a Not node's is the negation of its
    sub's, at-least 0's is top, a junction or restriction is rebuilt only
    when some child's differs from the child, and any other node is its
    own."""
    kind = type(c)
    if kind is Not:
        return negate(c.sub._nnf)
    if kind is AtLeast and c.bound == 0:
        return TOP
    if kind is And or kind is Or:
        parts = [p._nnf for p in c.parts]
        if any(new is not old for new, old in zip(parts, c.parts)):
            return conj(parts) if kind is And else disj(parts)
    elif (kind is AtLeast or kind is AtMost) and c.filler._nnf is not c.filler:
        return kind(c.bound, c.role, c.filler._nnf)
    return c


def concept_key(c: Concept) -> tuple:
    """Total order key.  Atoms and negated atoms interleave by name so that
    A < (not A) < B; quantified constraints order by role, filler, sense
    (at-most first), then bound.  Computed once, when the node is built."""
    return c._key


TOP = Top()
BOTTOM = Bottom()


# concept_key, called from C
_KEY = attrgetter("_key")


def sorted_concepts(concepts: Iterable[Concept]) -> list[Concept]:
    return sorted(concepts, key=_KEY)


def _flat(parts: Iterable[Concept], cls: type) -> list[Concept]:
    """The parts of a cls-node over parts: flattened, deduplicated and in
    canonical order."""
    out: list[Concept] = []
    for p in parts:
        if isinstance(p, cls):
            out.extend(p.parts)  # type: ignore[attr-defined]
        else:
            out.append(p)
    return sorted_concepts(set(out))


def _junction(parts: Iterable[Concept], cls: type, unit: Concept) -> Concept:
    flat = _flat(parts, cls)
    if not flat:
        return unit
    return flat[0] if len(flat) == 1 else cls(tuple(flat))


def conj(parts: Iterable[Concept]) -> Concept:
    """Conjunction with flattening, deduplication and canonical ordering.
    Empty conjunction is top; a singleton collapses to its element."""
    return _junction(parts, And, TOP)


def disj(parts: Iterable[Concept]) -> Concept:
    """Disjunction, same normalization as conj.  Empty disjunction is bottom."""
    return _junction(parts, Or, BOTTOM)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_KEYWORDS = {"top", "bottom", "not", "and", "or", "atleast", "atmost", "inv"}


class _TokenStream:
    """The tokens of a text, read front to back.  A token's character offset
    is worked out only for an error message, by scanning the text again."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect: str | None = None) -> str:
        if self.pos >= len(self.tokens):
            raise self.error("unexpected end of input", self.pos)
        tok = self.tokens[self.pos]
        if expect is not None and tok != expect:
            raise self.error(f"expected '{expect}', found '{tok}'", self.pos)
        self.pos += 1
        return tok

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def offset(self, index: int) -> int:
        """Character offset of token `index`; past the last token, the
        text's length."""
        match = next(islice(_TOKEN_RE.finditer(self.text), index, None), None)
        return len(self.text) if match is None else match.start()

    def error(self, message: str, index: int | None = None) -> ConceptSyntaxError:
        """The error at token `index`, by default the token last read."""
        return ConceptSyntaxError(message, self.offset(self.pos - 1 if index is None else index))


def _parse_role(ts: _TokenStream) -> Role:
    # nested (inv (inv R)) normalizes through Role.inverse, read in one
    # loop, so nesting depth is bounded by memory
    depth = 0
    tok = ts.next()
    while tok == "(":
        tok = ts.next()
        if tok != "inv":
            raise ts.error(f"expected 'inv', found '{tok}'")
        depth += 1
        tok = ts.next()
    if not _NAME_RE.match(tok):
        raise ts.error(f"invalid role name '{tok}'")
    role = Role(tok)
    for _ in range(depth):
        ts.next(")")
        role = role.inverse()
    return role


def _parse_bound(ts: _TokenStream) -> int:
    tok = ts.next()
    if tok.isascii() and tok.isdigit():
        return int(tok)
    if tok[0] == "-" and tok[1:].isascii() and tok[1:].isdigit():
        raise ts.error("number restriction bound must be non-negative")
    raise ts.error(f"expected a non-negative integer, found '{tok}'")


def _parse_expr(ts: _TokenStream) -> Concept:
    """One concept, read in a loop: `stack` holds the concepts whose closing
    parenthesis is still to come, innermost last, each as its head, the
    index of its keyword (not, and, or) or its bound (a restriction), its
    role and the arguments read so far."""
    stack: list[tuple] = []
    while True:
        tok = ts.next()
        if tok == "(":
            head = ts.next()
            if head == "atleast" or head == "atmost":
                stack.append((head, _parse_bound(ts), _parse_role(ts), []))
            elif head == "not" or head == "and" or head == "or":
                stack.append((head, ts.pos - 1, None, []))
            else:
                raise ts.error(f"unknown keyword '{head}'")
            c = None
        elif tok == ")":
            raise ts.error("unexpected ')'")
        elif tok == "top" or tok == "bottom":
            c = TOP if tok == "top" else BOTTOM
        elif tok in _KEYWORDS:
            raise ts.error(f"keyword '{tok}' needs parentheses")
        elif not _NAME_RE.match(tok):
            raise ts.error(f"invalid concept name '{tok}'")
        else:
            c = Atom(tok)
        # c is the argument just read, or None after an opening; close
        # each open concept whose arguments are all read
        while stack:
            head, at, role, parts = stack[-1]
            if c is not None:
                parts.append(c)
            if head == "and" or head == "or":
                if ts.peek() not in (")", None):
                    break
                ts.next(")")  # at the end of input: "unexpected end of input"
                if len(parts) < 2:
                    raise ts.error(f"'{head}' needs at least two arguments", at)
                c = conj(parts) if head == "and" else disj(parts)
            elif not parts:
                break
            else:
                ts.next(")")
                if head == "not":
                    c = NegAtom(parts[0].name) if type(parts[0]) is Atom else Not(parts[0])
                else:
                    c = (AtLeast if head == "atleast" else AtMost)(at, role, parts[0])
            stack.pop()
        else:
            return c


def parse_concept(text: str) -> Concept:
    """Parse a concept from s-expression text.  Echoes structure: negation is
    kept as written, not pushed to NNF."""
    ts = _TokenStream(text)
    c = _parse_expr(ts)
    if not ts.at_end():
        raise ts.error(f"trailing input '{ts.peek()}'", ts.pos)
    return c


# ---------------------------------------------------------------------------
# NNF and negation
# ---------------------------------------------------------------------------


def negate(c: Concept) -> Concept:
    """Negation of an NNF concept, in NNF.  Structural dual: top/bottom swap,
    atom polarity flips, De Morgan on and/or, bounds shift on at-most/at-least.
    Built from the key `_dual_key` gives, so a junction's negation is
    flattened as conj and disj flatten it, and cached on the node; later
    calls read the cache.  A junction's parts are negated before it,
    innermost first, from an explicit stack, so nesting depth is bounded
    by memory only."""
    neg = c._neg
    if neg is not None:
        return neg
    stack = [c]
    while stack:
        node = stack.pop()
        if node._neg is not None:  # a shared part, negated since it was pushed
            continue
        kind = type(node)
        if kind is And or kind is Or:
            pending = [p for p in node.parts if p._neg is None]
            if pending:
                stack += (node, *pending)
                continue
        dual = _dual_key(node)  # a junction's parts are negated by now
        neg = dual[0](*dual[1:])
        object.__setattr__(node, "_neg", neg)
    return c._neg


def to_nnf(c: Concept) -> Concept:
    """Push negation down to concept names.  Also rewrites the tautology
    at-least-0 to top, so every bound in NNF output is meaningful.  A node
    none of whose children changes is returned itself: an And/Or node is
    already flat, deduplicated and sorted, so rebuilding it would give back
    the same object.  Each node's NNF is built with the node, from its
    children's (`_nnf`), so this reads a slot, whatever the depth."""
    return c._nnf


def internalize(axioms: list[tuple[Concept, Concept]]) -> Concept:
    """Fold inclusion axioms lhs => rhs into one conjunction of clausal forms
    (not lhs or rhs), each in NNF.  Empty input gives top; a bottom/top
    disjunct from a top-shaped lhs is simplified away."""
    clauses: list[Concept] = []
    for lhs, rhs in axioms:
        clause = to_nnf(disj((Not(lhs), rhs)))
        if isinstance(clause, Or):
            clause = disj(p for p in clause.parts if not isinstance(p, Bottom))
        if isinstance(clause, Top):
            continue
        clauses.append(clause)
    return conj(clauses)


# ---------------------------------------------------------------------------
# subterms and cut formulas
# ---------------------------------------------------------------------------


def walk_concepts(*concepts: Concept) -> Iterator[Concept]:
    """Yield each distinct node of the concepts' ASTs once, in preorder:
    parents before children, children left to right, a repeated subterm
    (one hash-consed node) only where it first occurs.  So a walk is linear
    in the distinct subterms, also on a shared DAG whose occurrences double
    with each level.  Iterative, so depth is bounded by memory only."""
    seen: set[Concept] = set()
    stack = list(reversed(concepts))
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        yield c
        kind = type(c)
        if kind is And or kind is Or:
            stack.extend(reversed(c.parts))
        elif kind is AtMost or kind is AtLeast:
            stack.append(c.filler)
        elif kind is Not:
            stack.append(c.sub)


def cut_table(goal: Concept, axiom: Concept) -> tuple[tuple[Role, Concept], ...]:
    """The (role, filler) pairs that get a cut formula, in canonical order.
    A pair (R, F) of a number restriction of goal or axiom is kept when
    goal or axiom names inverse(R) and a node other than the root can hold
    a restriction on R with filler F: one occurs in the axiom or inside the
    filler of a number restriction, or (R, F) is (inverse(S), top) for a
    kept pair (S, G), whose guard `(atmost 0 (inv S) top)` is such a
    restriction.  An input without inverse roles (ALCQ) gets none, and so
    does one whose restrictions on inverse-named roles sit only in the
    goal's own and/or nodes.

    The other pairs cannot change a verdict.  A node's decision on (R, F)
    is read only by its child over inverse(R) (`cut_set_for_child`), and
    only against a restriction on R with filler F in that child's label
    (`fine_tune`); the child is never the root.  A child over a role exists
    only when its parent's tuned branch has a positive at-least on that
    role.  Every restriction in any label but the root's is one of these,
    each with the role and filler of the restriction it comes from:

    - a subterm of the axiom or of a restriction's filler, since a child's
      label is its atom's fillers and negated fillers, the axiom and the
      cut formulas, whose disjuncts are fillers, negated fillers and guards;
    - the negation of one (a negated filler);
    - a copy with its bound adjusted (`fine_tune`);
    - the guard of a kept pair, which is an at-most and forces no child.

    So no node ever has an inverse(R)-child unless goal or axiom names
    inverse(R), and no child over inverse(R) holds a restriction on R with
    filler F unless (R, F) is kept.  The formula of a dropped pair holds
    `F or not F`, so it is a tautology whose removal loses no model.  The
    guard closure takes at most two rounds: the first can add
    (inverse(S), top), whose guard is on S with filler top, the second
    (S, top), whose guard is on inverse(S) with filler top again.

    Every node, the root and every child, carries the formulas of the
    kept pairs, as in the calculus, so every label holds them, even that
    of a child whose decisions no successor reads."""
    restrictions = [c for c in walk_concepts(goal, axiom) if type(c) is AtMost or type(c) is AtLeast]
    named = {c.role for c in restrictions}
    pairs = {(c.role, c.filler) for c in restrictions if c.role.inverse() in named}
    if not pairs:
        return ()
    inner = walk_concepts(axiom, *(c.filler for c in restrictions))
    kept = pairs & {(c.role, c.filler) for c in inner if type(c) is AtMost or type(c) is AtLeast}
    while True:
        guarded = pairs & {(role.inverse(), TOP) for role, _ in kept}
        if guarded <= kept:
            break
        kept |= guarded
    return tuple(sorted(kept, key=lambda p: (p[0].base, p[0].inverted, concept_key(p[1]))))


def cut_formula(role: Role, filler: Concept) -> Concept:
    """The filler-decision formula of a (role, filler) pair: every node
    either has no inverse(role)-successor (the guard) or decides the filler
    one way or the other."""
    return disj((AtMost(0, role.inverse(), TOP), filler, negate(filler)))


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------


def signature_of(*concepts: Concept) -> tuple[frozenset[str], frozenset[str]]:
    """Atomic concept names and role base names occurring in the concepts,
    read in one walk over their distinct subterms."""
    atoms: set[str] = set()
    roles: set[str] = set()
    for c in walk_concepts(*concepts):
        kind = type(c)
        if kind is Atom or kind is NegAtom:
            atoms.add(c.name)
        elif kind is AtMost or kind is AtLeast:
            roles.add(c.role.base)
    return frozenset(atoms), frozenset(roles)


# the sorted names of each tuple of concepts `sorted_signature` has read;
# _NODES keeps every concept alive anyway
_SORTED: dict[tuple, tuple] = {}


def sorted_signature(*concepts: Concept) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The names of `signature_of`, each kind sorted.  Kept per tuple of
    hash-consed concepts, so a repeated tuple costs one lookup:
    `build_problem` reads its goal's and axiom's, so a model search on a
    built problem walks nothing."""
    names = _SORTED.get(concepts)
    if names is None:
        atoms, roles = signature_of(*concepts)
        names = _SORTED[concepts] = (tuple(sorted(atoms)), tuple(sorted(roles)))
    return names


class Problem(NamedTuple):
    """A satisfiability problem: goal concept, internalized axiom, the
    (role, filler) pairs of its cut formulas (those whose inverse role a
    number restriction names and which a node other than the root can
    hold, see `cut_table`) and the formulas themselves (all in NNF), but
    for the pairs with filler top, whose formula is a tautology."""

    goal: Concept
    axiom: Concept
    cuts: tuple[tuple[Role, Concept], ...]
    cut_concepts: frozenset[Concept]


def build_problem(goal: Concept, axioms: Iterable[tuple[Concept, Concept]] = ()) -> Problem:
    """The problem of the goal under the axioms: both in NNF, the axioms
    internalized into one concept, and a cut formula for each pair of
    `cut_table`: none for an ALCQ input, nor for one whose restrictions
    only the root holds.  A pair (R, top) stays in `cuts`, since a node's
    decision on it is read off any branch (`cut_set_for_child`) and
    `fine_tune` reads it, but gets no formula: `(or top bottom (atmost 0
    (inv R) top))` holds in every node, so a label gains nothing by it,
    and a walk that tried its guard disjunct after top failed would only
    forbid more.  The sorted names of goal and axiom are read here, once
    (`sorted_signature`)."""
    e = to_nnf(goal)
    g = internalize(list(axioms))
    sorted_signature(e, g)
    cuts = cut_table(e, g)
    return Problem(e, g, cuts, frozenset(cut_formula(r, f) for r, f in cuts if f is not TOP))
