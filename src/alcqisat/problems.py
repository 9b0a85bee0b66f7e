"""Problem files and the random instance generator.

Line-oriented format, diff friendly:

    # comment
    gci <concept> <concept>     inclusion: first implies second
    axiom <concept>             shorthand for: gci top <concept>
    sat <concept>               the query; exactly one per file
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .syntax import (
    AtLeast,
    AtMost,
    Atom,
    Concept,
    ConceptSyntaxError,
    NegAtom,
    Not,
    Role,
    TOP,
    _TokenStream,
    _parse_expr,
    conj,
    disj,
)


class ProblemFileError(ValueError):
    """Malformed problem file; carries message, line and column (1-based)."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class ProblemFile(NamedTuple):
    """A query concept plus inclusion axioms, as read from one file."""

    tbox: tuple[tuple[Concept, Concept], ...]
    query: Concept

    def to_text(self) -> str:
        lines = [f"gci {lhs} {rhs}" for lhs, rhs in self.tbox]
        lines.append(f"sat {self.query}")
        return "\n".join(lines) + "\n"


def _parse_concepts_on_line(rest: str, count: int, line_no: int, offset: int) -> list[Concept]:
    ts = _TokenStream(rest)
    out = []
    for _ in range(count):
        try:
            out.append(_parse_expr(ts))
        except ConceptSyntaxError as exc:
            raise ProblemFileError(exc.message, line_no, offset + exc.position + 1) from exc
    if not ts.at_end():
        at = ts.offset(ts.pos)
        raise ProblemFileError(f"unexpected extra term '{ts.peek()}'", line_no, offset + at + 1)
    return out


def _lines(text: str) -> list[str]:
    """The lines of a problem file.  They end at \r\n, \r or \n only:
    str.splitlines would also end them at characters the concept tokenizer
    reads as spaces, such as a form feed or U+2028."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _read(text: str, with_query: bool) -> tuple[tuple[tuple[Concept, Concept], ...], Concept | None]:
    """The axioms and the query of a problem file, line by line.  Without
    with_query, a sat line is an error."""
    tbox: list[tuple[Concept, Concept]] = []
    query: Concept | None = None
    for line_no, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head = line.split(None, 1)[0]  # ends at a space or a tab
        offset = line.index(head) + len(head)
        rest = line[offset:]
        if head == "gci":
            lhs, rhs = _parse_concepts_on_line(rest, 2, line_no, offset)
            tbox.append((lhs, rhs))
        elif head == "axiom":
            (rhs,) = _parse_concepts_on_line(rest, 1, line_no, offset)
            tbox.append((TOP, rhs))
        elif head == "sat" and not with_query:
            raise ProblemFileError("sat line not allowed in an axioms-only file", line_no, 1)
        elif head == "sat":
            if query is not None:
                raise ProblemFileError("more than one sat line", line_no, 1)
            (query,) = _parse_concepts_on_line(rest, 1, line_no, offset)
        else:
            raise ProblemFileError(f"unknown directive '{head}'", line_no, 1)
    return tuple(tbox), query


def parse_problem_text(text: str) -> ProblemFile:
    tbox, query = _read(text, with_query=True)
    if query is None:
        raise ProblemFileError("missing sat line", len(_lines(text)), 1)
    return ProblemFile(tbox=tbox, query=query)


def parse_tbox_text(text: str) -> tuple[tuple[Concept, Concept], ...]:
    """Axiom-only file: gci and axiom lines, no sat line."""
    return _read(text, with_query=False)[0]


# ---------------------------------------------------------------------------
# random corpus
# ---------------------------------------------------------------------------


class CorpusProfile(NamedTuple):
    """Bounds for generated instances.  Kept small on purpose: the agreement
    suite cross-checks every instance against the brute-force model search."""

    max_depth: int = 3
    max_bound: int = 3
    max_roles: int = 2
    max_atoms: int = 3
    max_gcis: int = 2


def _negated(c: Concept) -> Concept:
    # negated atoms print as (not A), which parses back to the literal form;
    # keeping the literal here preserves the round-trip identity
    if isinstance(c, Atom):
        return NegAtom(c.name)
    return Not(c)


def _random_concept(rng: random.Random, profile: CorpusProfile, depth: int) -> Concept:
    atoms = [f"A{i}" for i in range(profile.max_atoms)]
    roles = [f"R{i}" for i in range(profile.max_roles)]
    if depth <= 0:
        pick = rng.randrange(8)
        if pick == 0:
            return TOP
        name = rng.choice(atoms)
        if pick <= 4:
            return Atom(name)
        return NegAtom(name)
    pick = rng.randrange(10)
    if pick < 2:
        return _random_concept(rng, profile, 0)
    if pick < 4:
        return conj(
            _random_concept(rng, profile, depth - 1) for _ in range(rng.randint(2, 3))
        )
    if pick < 6:
        return disj(
            _random_concept(rng, profile, depth - 1) for _ in range(rng.randint(2, 3))
        )
    if pick < 7:
        return _negated(_random_concept(rng, profile, depth - 1))
    role = Role(rng.choice(roles), inverted=rng.random() < 0.25)
    filler = _random_concept(rng, profile, depth - 1)
    if pick < 9:
        return AtLeast(rng.randint(1, profile.max_bound), role, filler)
    return AtMost(rng.randint(0, profile.max_bound), role, filler)


def generate_corpus(
    seed: int, count: int, profile: CorpusProfile | None = None
) -> list[ProblemFile]:
    """Deterministic pseudo-random instances for the agreement suite."""
    profile = profile or CorpusProfile()
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        depth = rng.randint(0, profile.max_depth)
        query = _random_concept(rng, profile, depth)
        tbox = []
        if profile.max_gcis > 0 and rng.random() < 0.4:
            for _ in range(rng.randint(1, profile.max_gcis)):
                lhs = _random_concept(rng, profile, min(1, profile.max_depth))
                rhs = _random_concept(rng, profile, min(1, profile.max_depth))
                tbox.append((lhs, rhs))
        out.append(ProblemFile(tbox=tuple(tbox), query=query))
    return out
