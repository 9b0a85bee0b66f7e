"""Concept syntax for ALCQI: AST, parsing, NNF, negation, axiom internalization.

Concepts are hash-consed: constructing a node looks up its class and fields
in one table and returns the node already there, so equal concepts are one
object and compare and hash by identity.  Each node computes its order key
once, from its children's, so it never recurses.  And/Or nodes keep their
children flattened, deduplicated and sorted under a fixed total order, so a
set of concepts behaves like a set in every cache and comparison downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator


class ConceptSyntaxError(ValueError):
    """Raised on malformed concept text; carries a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# every role ever built, keyed by (base, inverted)
_ROLES: dict[tuple, "Role"] = {}


class Role:
    """A role name with an inversion marker.  inverse() is an involution.

    Roles are interned like concepts: constructing one returns the object
    already built for its base and marker, so equal roles are one object
    and compare and hash by identity."""

    __slots__ = ("base", "inverted")

    def __new__(cls, base: str, inverted: bool = False):
        key = (base, bool(inverted))
        role = _ROLES.get(key)
        if role is None:
            role = object.__new__(cls)
            object.__setattr__(role, "base", key[0])
            object.__setattr__(role, "inverted", key[1])
            _ROLES[key] = role
        return role

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def inverse(self) -> "Role":
        return Role(self.base, not self.inverted)

    def __repr__(self) -> str:
        return f"Role(base={self.base!r}, inverted={self.inverted!r})"

    def __str__(self) -> str:
        return f"(inv {self.base})" if self.inverted else self.base


# every concept node ever built, keyed by (class, *fields)
_NODES: dict[tuple, "Concept"] = {}


class Concept:
    """Base class for all concept nodes.  Fields are given positionally."""

    __slots__ = ("_key", "_neg")

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            names = cls.__dataclass_fields__
            if len(fields) != len(names):
                raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(fields)}")
            node = object.__new__(cls)
            for name, value in zip(names, fields):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "_key", _order_key(node))
            object.__setattr__(node, "_neg", None)  # filled in by negate
            _NODES[key] = node
        return node


def _node(cls):
    # fields are set once, in Concept.__new__; equality stays identity
    return dataclass(frozen=True, eq=False, init=False, slots=True)(cls)


@_node
class Top(Concept):
    def __str__(self) -> str:
        return "top"


@_node
class Bottom(Concept):
    """The negation of top; the only non-atomic negation kept in NNF."""

    def __str__(self) -> str:
        return "bottom"


@_node
class Atom(Concept):
    name: str

    def __str__(self) -> str:
        return self.name


@_node
class NegAtom(Concept):
    name: str

    def __str__(self) -> str:
        return f"(not {self.name})"


@_node
class Not(Concept):
    """Unrestricted negation; appears only before NNF conversion."""

    sub: Concept

    def __str__(self) -> str:
        return f"(not {self.sub})"


@_node
class And(Concept):
    parts: tuple[Concept, ...]

    def __str__(self) -> str:
        return "(and " + " ".join(str(p) for p in self.parts) + ")"


@_node
class Or(Concept):
    parts: tuple[Concept, ...]

    def __str__(self) -> str:
        return "(or " + " ".join(str(p) for p in self.parts) + ")"


@_node
class AtMost(Concept):
    """Upper cardinality bound on role neighbors satisfying the filler.

    bound -1 is constructible internally (bound adjustment against the tree
    parent) and is trivially unsatisfiable; the parser rejects it.
    """

    bound: int
    role: Role
    filler: Concept

    def __str__(self) -> str:
        return f"(atmost {self.bound} {self.role} {self.filler})"


@_node
class AtLeast(Concept):
    bound: int
    role: Role
    filler: Concept

    def __str__(self) -> str:
        return f"(atleast {self.bound} {self.role} {self.filler})"


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


def concept_key(c: Concept) -> tuple:
    """Total order key.  Atoms and negated atoms interleave by name so that
    A < (not A) < B; quantified constraints order by role, sense, bound,
    then filler.  Computed once, when the node is built."""
    return c._key


TOP = Top()
BOTTOM = Bottom()


def sorted_concepts(concepts: Iterable[Concept]) -> list[Concept]:
    return sorted(concepts, key=concept_key)


def _junction(parts: Iterable[Concept], cls: type, unit: Concept) -> Concept:
    out: list[Concept] = []
    for p in parts:
        if isinstance(p, cls):
            out.extend(p.parts)  # type: ignore[attr-defined]
        else:
            out.append(p)
    # dedupe, then canonical order
    flat = sorted_concepts(set(out))
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
    def __init__(self, text: str):
        self.text = text
        self.tokens = [(m.group(0), m.start()) for m in _TOKEN_RE.finditer(text)]
        self.pos = 0

    def peek(self) -> tuple[str, int] | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def next(self, expect: str | None = None) -> tuple[str, int]:
        tok = self.peek()
        if tok is None:
            raise ConceptSyntaxError("unexpected end of input", len(self.text))
        if expect is not None and tok[0] != expect:
            raise ConceptSyntaxError(f"expected '{expect}', found '{tok[0]}'", tok[1])
        self.pos += 1
        return tok

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)


def _parse_role(ts: _TokenStream) -> Role:
    # nested (inv (inv R)) normalizes through Role.inverse
    tok, at = ts.next()
    if tok != "(":
        if not _NAME_RE.match(tok):
            raise ConceptSyntaxError(f"invalid role name '{tok}'", at)
        return Role(tok)
    tok, at = ts.next()
    if tok != "inv":
        raise ConceptSyntaxError(f"expected 'inv', found '{tok}'", at)
    inner = _parse_role(ts)
    ts.next(")")
    return inner.inverse()


def _parse_bound(ts: _TokenStream) -> int:
    tok, at = ts.next()
    if tok.isascii() and tok.isdigit():
        return int(tok)
    if tok[0] == "-" and tok[1:].isascii() and tok[1:].isdigit():
        raise ConceptSyntaxError("number restriction bound must be non-negative", at)
    raise ConceptSyntaxError(f"expected a non-negative integer, found '{tok}'", at)


def _parse_expr(ts: _TokenStream) -> Concept:
    tok, at = ts.next()
    if tok == ")":
        raise ConceptSyntaxError("unexpected ')'", at)
    if tok != "(":
        if tok == "top":
            return TOP
        if tok == "bottom":
            return BOTTOM
        if tok in _KEYWORDS:
            raise ConceptSyntaxError(f"keyword '{tok}' needs parentheses", at)
        if not _NAME_RE.match(tok):
            raise ConceptSyntaxError(f"invalid concept name '{tok}'", at)
        return Atom(tok)
    head, hat = ts.next()
    if head == "not":
        sub = _parse_expr(ts)
        ts.next(")")
        if isinstance(sub, Atom):
            return NegAtom(sub.name)
        return Not(sub)
    if head in ("and", "or"):
        parts = []
        while (nxt := ts.peek()) is not None and nxt[0] != ")":
            parts.append(_parse_expr(ts))
        ts.next(")")  # at the end of input: "unexpected end of input"
        if len(parts) < 2:
            raise ConceptSyntaxError(f"'{head}' needs at least two arguments", hat)
        return conj(parts) if head == "and" else disj(parts)
    if head in ("atleast", "atmost"):
        bound = _parse_bound(ts)
        role = _parse_role(ts)
        filler = _parse_expr(ts)
        ts.next(")")
        node = AtLeast if head == "atleast" else AtMost
        return node(bound, role, filler)
    raise ConceptSyntaxError(f"unknown keyword '{head}'", hat)


def parse_concept(text: str) -> Concept:
    """Parse a concept from s-expression text.  Echoes structure: negation is
    kept as written, not pushed to NNF."""
    ts = _TokenStream(text)
    c = _parse_expr(ts)
    if not ts.at_end():
        tok, at = ts.tokens[ts.pos]
        raise ConceptSyntaxError(f"trailing input '{tok}'", at)
    return c


# ---------------------------------------------------------------------------
# NNF and negation
# ---------------------------------------------------------------------------


def negate(c: Concept) -> Concept:
    """Negation of an NNF concept, in NNF.  Structural dual: top/bottom swap,
    atom polarity flips, De Morgan on and/or, bounds shift on at-most/at-least.
    Computed once per node and cached on it; later calls read the cache."""
    neg = c._neg
    if neg is None:
        neg = _negate(c)
        object.__setattr__(c, "_neg", neg)
    return neg


def _negate(c: Concept) -> Concept:
    if isinstance(c, Top):
        return BOTTOM
    if isinstance(c, Bottom):
        return TOP
    if isinstance(c, Atom):
        return NegAtom(c.name)
    if isinstance(c, NegAtom):
        return Atom(c.name)
    if isinstance(c, And):
        return disj(negate(p) for p in c.parts)
    if isinstance(c, Or):
        return conj(negate(p) for p in c.parts)
    if isinstance(c, AtMost):
        return AtLeast(c.bound + 1, c.role, c.filler)
    if isinstance(c, AtLeast):
        if c.bound == 0:
            # at-least 0 is a tautology, so its negation is bottom
            return BOTTOM
        return AtMost(c.bound - 1, c.role, c.filler)
    if isinstance(c, Not):
        return to_nnf(c.sub)
    raise TypeError(f"unknown concept node: {c!r}")


def to_nnf(c: Concept) -> Concept:
    """Push negation down to concept names.  Also rewrites the tautology
    at-least-0 to top, so every bound in NNF output is meaningful."""
    if isinstance(c, (Top, Bottom, Atom, NegAtom)):
        return c
    if isinstance(c, Not):
        return negate(to_nnf(c.sub))
    if isinstance(c, And):
        return conj(to_nnf(p) for p in c.parts)
    if isinstance(c, Or):
        return disj(to_nnf(p) for p in c.parts)
    if isinstance(c, AtLeast):
        if c.bound == 0:
            return TOP
        return AtLeast(c.bound, c.role, to_nnf(c.filler))
    if isinstance(c, AtMost):
        return AtMost(c.bound, c.role, to_nnf(c.filler))
    raise TypeError(f"unknown concept node: {c!r}")


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
# modal closure and cut formulas
# ---------------------------------------------------------------------------


def walk_concepts(*concepts: Concept) -> Iterator[Concept]:
    """Yield every node of the concepts' ASTs in preorder: parents before
    children, children left to right, a repeated subterm once per
    occurrence.  Iterative, so depth is bounded by memory only."""
    stack = list(reversed(concepts))
    while stack:
        c = stack.pop()
        yield c
        kind = type(c)
        if kind is And or kind is Or:
            stack.extend(reversed(c.parts))
        elif kind is AtMost or kind is AtLeast:
            stack.append(c.filler)
        elif kind is Not:
            stack.append(c.sub)


def modal_subformulae(*concepts: Concept) -> frozenset[tuple[Role, Concept, str, int]]:
    """Every at-most/at-least subterm, recursively including those nested in
    fillers.  Entries are (role, filler, sense, bound) with sense 'atmost' or
    'atleast'."""
    return frozenset(
        (c.role, c.filler, "atmost" if isinstance(c, AtMost) else "atleast", c.bound)
        for c in walk_concepts(*concepts)
        if isinstance(c, (AtMost, AtLeast))
    )


def cut_table(goal: Concept, axiom: Concept) -> tuple[tuple[Role, Concept], ...]:
    """The distinct (role, filler) pairs among the number restrictions of
    goal and axiom, in canonical order: one cut formula each."""
    pairs = {(role, filler) for role, filler, _, _ in modal_subformulae(goal, axiom)}
    return tuple(sorted(pairs, key=lambda p: (p[0].base, p[0].inverted, concept_key(p[1]))))


def cut_formula(role: Role, filler: Concept) -> Concept:
    """The filler-decision formula of a (role, filler) pair: every node
    either has no inverse(role)-successor (the guard) or decides the filler
    one way or the other."""
    return disj((AtMost(0, role.inverse(), TOP), filler, negate(filler)))


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------


def signature_of(*concepts: Concept) -> tuple[frozenset[str], frozenset[str]]:
    """Atomic concept names and role base names occurring in the concepts."""
    atoms: set[str] = set()
    roles: set[str] = set()
    for c in walk_concepts(*concepts):
        if isinstance(c, (Atom, NegAtom)):
            atoms.add(c.name)
        elif isinstance(c, (AtMost, AtLeast)):
            roles.add(c.role.base)
    return frozenset(atoms), frozenset(roles)


@dataclass(frozen=True)
class Problem:
    """A satisfiability problem: goal concept, internalized axiom, the
    (role, filler) pairs of its cut formulas and the formulas themselves
    (all in NNF)."""

    goal: Concept
    axiom: Concept
    cuts: tuple[tuple[Role, Concept], ...]
    cut_concepts: frozenset[Concept]


def build_problem(goal: Concept, axioms: Iterable[tuple[Concept, Concept]] = ()) -> Problem:
    e = to_nnf(goal)
    g = internalize(list(axioms))
    cuts = cut_table(e, g)
    return Problem(e, g, cuts, frozenset(cut_formula(r, f) for r, f in cuts))
