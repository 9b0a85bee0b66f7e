"""Metamorphic and differential verdict checks: rewrites of a problem that
the calculus must decide the same way.

    PYTHONPATH=src python tests/metamorphic.py              # the full sweep
    PYTHONPATH=src python tests/metamorphic.py --seeds 10   # fewer seeds

The inputs are the three bench corpora (acceptance, `deep`, `counting`),
`generate_corpus` seeds 1 to --seeds (40 by default), 150 instances each,
in the default and the `deep` profile, and a few hand-made ones
(`HAND_MADE`) whose verdicts hang on the filler decisions of an inner
node, which no random input above does.  Each input is decided as it is
and under every relation:

- every cut: a cut formula for every (role, filler) pair (`with_every_cut`);
- named cuts: a cut formula for every pair whose inverse role is named,
  those only the root holds included (`with_named_inverse_cuts`);
- mirror: every role replaced by its inverse, which reads each role as its
  converse;
- rename: atoms and roles renamed so that their order flips;
- tautology: `gci X X` and `gci (and top X) (and top X)` added for the
  first atom and for the first number restriction, in canonical order.
  `internalize` drops the clause `(or (not X) X)` of the first, a
  disjunct beside its negation, before the engine sees it; it keeps the
  second's, `(or (not X) (and top X))`, so every label carries a
  tautology and the walk's clash tests meet restrictions;
- split: each `gci C (and D E ...)` written as one GCI per conjunct,
  `gci C D`, `gci C E`, ..., so the axiom holds one clause per conjunct
  where it held one clause over their conjunction.

A relation's verdict must equal the input's wherever both decide.  Two
more relations hold in one direction only, and each input is checked
under the one its verdict implies, with D the next input's goal (the
first input's after the last) under the input's own TBox:

- and next: an UNSAT goal C keeps `(and C D)` UNSAT;
- or next: a SAT goal C keeps `(or C D)` SAT.

A run stopped by a limit is counted apart.  The sweep prints one line per
relation and exits 1 when any verdict differs, listing those inputs.

The full sweep also pins the inputs' own outcomes: it prints the sha256 of
one character per input, in input order (S, U, or L when a limit stopped
the run), and exits 1 when it differs from `VERDICTS_DIGEST`, so no change
to the engine flips a verdict unnoticed.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

from alcqisat import (
    And,
    AtLeast,
    AtMost,
    Atom,
    CorpusProfile,
    Limits,
    NegAtom,
    Not,
    Or,
    ProblemFile,
    ResourceLimitError,
    Role,
    SolverLimitError,
    TOP,
    Tableau,
    build_problem,
    conj,
    disj,
    generate_corpus,
    parse_problem_text,
)
from alcqisat.syntax import concept_key, signature_of, walk_concepts
from conftest import bench_module, with_every_cut, with_named_inverse_cuts

LIMITS = Limits(nogood_capacity=250)  # the bench's engine limits
DEEP_PROFILE = CorpusProfile(max_depth=5, max_bound=5, max_roles=3, max_atoms=4, max_gcis=3)
RELATIONS = ("every cut", "named cuts", "mirror", "rename", "tautology", "split")
# the relations an input's own verdict implies: name, that verdict, and
# the junction of the input's goal with the next input's
IMPLIED = (("and next", "UNSAT", conj), ("or next", "SAT", disj))
# sha256 of the full sweep's outcome letters (11,827 S, 828 U, no L); a
# change that flips a verdict or runs into a limit must explain itself
VERDICTS_DIGEST = "406874a4f926cd8ec7b1a932248364ffdd03b1f7d804340057924d4e358989a9"
LETTERS = {"SAT": "S", "UNSAT": "U", "limit": "L"}

# problem texts: an R-successor's decision on B is read by its own
# R-successor, which counts it under an (inv R) bound; dropping the cut
# formulas from that inner node turns the first UNSAT into SAT
HAND_MADE = (
    "sat (atleast 1 R (atleast 1 R (and (atmost 0 (inv R) B) (atmost 0 (inv R) (not B)))))\n",
    "sat (atleast 1 R (atleast 1 R (or (atmost 0 (inv R) B) (atmost 0 (inv R) (not B)))))\n",
    "sat (atleast 1 R (and A (atleast 2 R (atmost 0 (inv R) A))))\n",
    "sat (and (atleast 1 R (atleast 1 R (atleast 1 R top))) (atleast 1 (inv R) B))\n",
    "gci top (or A (atleast 1 S top))\n"
    "sat (atleast 1 R (atleast 1 R (and (atmost 0 (inv R) B) (atmost 1 (inv R) (not B)))))\n",
)


def outcome(problem) -> str:
    """SAT, UNSAT, or limit when a budget stopped the run."""
    try:
        return "SAT" if Tableau(problem, LIMITS).decide().satisfiable else "UNSAT"
    except (ResourceLimitError, SolverLimitError):
        return "limit"


def rewrite(pf: ProblemFile, atom, role) -> ProblemFile:
    """The problem file with each atom name mapped by atom and each role by
    role; every distinct subterm is rewritten once."""
    done: dict = {}

    def walk(c):
        out = done.get(c)
        if out is None:
            kind = type(c)
            if kind is Atom or kind is NegAtom:
                out = kind(atom(c.name))
            elif kind is And or kind is Or:
                out = (conj if kind is And else disj)(walk(p) for p in c.parts)
            elif kind is AtLeast or kind is AtMost:
                out = kind(c.bound, role(c.role), walk(c.filler))
            elif kind is Not:
                out = Not(walk(c.sub))
            else:
                out = c  # top, bottom
            done[c] = out
        return out

    return ProblemFile(tuple((walk(l), walk(r)) for l, r in pf.tbox), walk(pf.query))


def mirrored(pf: ProblemFile) -> ProblemFile:
    return rewrite(pf, lambda name: name, lambda r: r.inverse())


def renamed(pf: ProblemFile) -> ProblemFile:
    """Atoms and role names renamed in reverse order: the first name in
    sorted order gets the last new name."""
    atoms, roles = (sorted(names) for names in signature_of(pf.query, *(c for g in pf.tbox for c in g)))
    atom_map = {a: f"X{len(atoms) - i:03d}" for i, a in enumerate(atoms)}
    role_map = {r: f"Q{len(roles) - i:03d}" for i, r in enumerate(roles)}
    return rewrite(pf, atom_map.__getitem__, lambda r: Role(role_map[r.base], r.inverted))


def with_tautologies(pf: ProblemFile) -> ProblemFile:
    """The problem file with `gci X X` and `gci (and top X) (and top X)`
    added for X its first atom and its first number restriction in NNF,
    in canonical order, where it has them."""
    problem = build_problem(pf.query, pf.tbox)
    concepts = list(walk_concepts(problem.goal, problem.axiom))
    atoms = [c for c in concepts if type(c) is Atom or type(c) is NegAtom]
    restrictions = [c for c in concepts if type(c) is AtLeast or type(c) is AtMost]
    firsts = [Atom(min(atoms, key=concept_key).name)] if atoms else []
    if restrictions:
        firsts.append(min(restrictions, key=concept_key))
    wrapped = [conj((TOP, x)) for x in firsts]
    return ProblemFile(pf.tbox + tuple((x, x) for x in firsts + wrapped), pf.query)


def split(pf: ProblemFile) -> ProblemFile:
    """The problem file with each GCI whose right-hand side is an and-node
    written as one GCI per conjunct, with the same left-hand side."""
    tbox = tuple((lhs, part) for lhs, rhs in pf.tbox for part in (rhs.parts if type(rhs) is And else (rhs,)))
    return ProblemFile(tbox, pf.query)


def outcomes(pf: ProblemFile) -> dict[str, str]:
    """The input's outcome, under "default", and each relation's."""
    problem = build_problem(pf.query, pf.tbox)
    out = {"default": outcome(problem)}
    out["every cut"] = outcome(with_every_cut(problem))
    out["named cuts"] = outcome(with_named_inverse_cuts(problem))
    changes = (("mirror", mirrored), ("rename", renamed), ("tautology", with_tautologies), ("split", split))
    for name, change in changes:
        changed = change(pf)
        out[name] = outcome(build_problem(changed.query, changed.tbox))
    return out


def inputs(seeds: range) -> list[tuple[str, ProblemFile]]:
    """(name, input) for the bench corpora, the generated ones and the
    hand-made ones."""
    corpora = bench_module("corpora")
    out = [(f"hand-made#{i}", parse_problem_text(text)) for i, text in enumerate(HAND_MADE)]
    for workload in ("oracle", "deep", "counting"):  # oracle: the acceptance corpus
        out += [(f"{workload}#{i}", pf) for i, pf in enumerate(corpora.generate(workload))]
    for seed in seeds:
        for profile, label in ((None, "default"), (DEEP_PROFILE, "deep")):
            corpus = generate_corpus(seed=seed, count=150, profile=profile)
            out += [(f"seed {seed} {label}#{i}", pf) for i, pf in enumerate(corpus)]
    return out


def implied(pf: ProblemFile, default: str, following: ProblemFile) -> tuple[str, ProblemFile] | None:
    """The implied relation the input's outcome default carries, and the
    input it is checked on: its goal joined with following's, under its
    own TBox.  None when a limit stopped the input."""
    for relation, verdict, join in IMPLIED:
        if default == verdict:
            return relation, ProblemFile(pf.tbox, join((pf.query, following.query)))
    return None


def sweep(named: list[tuple[str, ProblemFile]], letters: list | None = None) -> tuple[dict, list]:
    """Per relation, how many inputs it decided as it must, how many a
    limit stopped on one side, and the mismatches: (name, relation,
    default outcome, relation's outcome, text of the input checked).  Each
    input's own outcome letter is appended to letters, when given."""
    counts = {name: {"agree": 0, "limit": 0} for name in RELATIONS + tuple(r for r, _, _ in IMPLIED)}
    mismatches = []
    for index, (name, pf) in enumerate(named):
        got = outcomes(pf)
        default = got["default"]
        if letters is not None:
            letters.append(LETTERS[default])
        checks = [(relation, got[relation], pf) for relation in RELATIONS]
        found = implied(pf, default, named[(index + 1) % len(named)][1])
        if found is not None:
            relation, joined = found
            checks.append((relation, outcome(build_problem(joined.query, joined.tbox)), joined))
        for relation, changed, checked in checks:
            if "limit" in (default, changed):
                counts[relation]["limit"] += 1
            elif default == changed:
                counts[relation]["agree"] += 1
            else:
                mismatches.append((name, relation, default, changed, checked.to_text()))
    return counts, mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=40, help="generated seeds 1..N (default 40)")
    args = parser.parse_args(argv)
    named = inputs(range(1, args.seeds + 1))
    start = time.perf_counter()
    letters: list[str] = []
    counts, mismatches = sweep(named, letters)
    elapsed = time.perf_counter() - start
    checks = sum(c["agree"] + c["limit"] for c in counts.values()) + len(mismatches)
    print(f"{len(named)} inputs, {checks} checks in {elapsed:.1f} s")
    digest = hashlib.sha256("".join(letters).encode()).hexdigest()
    # only the full sweep's outcomes are pinned
    flipped = args.seeds == 40 and digest != VERDICTS_DIGEST
    print(f"verdicts sha256 {digest}"
          + (f", pinned {VERDICTS_DIGEST}: FLIPPED" if flipped else ""))
    for relation in counts:
        wrong = sum(1 for m in mismatches if m[1] == relation)
        print(f"{relation:10} agree {counts[relation]['agree']:6}  "
              f"limit {counts[relation]['limit']:4}  mismatch {wrong}")
    for name, relation, default, changed, text in mismatches:
        print(f"MISMATCH {name} {relation}: {default} became {changed}\n{text}")
    return 1 if mismatches or flipped else 0


if __name__ == "__main__":
    sys.exit(main())
