"""Hard input families whose answers are known by construction, and a
report of how the engine's work grows with their size.

    PYTHONPATH=src python tests/families.py     # nodes, nogoods, solves, ms per size

Every family is a function from a size to a problem text:

- `counter(n)`: an n-bit binary counter along R over bits B0..B(n-1).  An
  axiom gives every element an R-successor; for each bit i, with L the
  bits below it, `(and L Bi)` and `(and L (not Bi))` flip bit i in every
  R-successor, and `(and (not Bj) Bi)` and `(and (not Bj) (not Bi))`, for
  each j < i, keep it.  The query is all bits clear.  With `unsat`, the
  axiom `(and B0 ... B(n-1)) -> bottom` forbids the last count, which every
  model reaches after 2^n - 1 steps; without it the counter wraps round.
  With `inverse`, every R is `(inv R)`.
- `pigeonhole(m, h)`: m pairwise disjoint R-successors A0..A(m-1) and at
  most h R-successors in all: unsatisfiable for h < m.
- `chain_with_inverse(d)`: a chain of d nested `(atleast 1 R ...)` and an
  `(inv R)`-predecessor B at the root; satisfiable.
- `INFINITE_MODEL`: R total and injective, and an element without an
  R-predecessor; satisfiable, but in no finite model.

`FAMILIES` names each family with its answer, the sizes `test_families.py`
pins and the sizes the report runs.  The report prints one line per
instance with the run's counts and wall time under `LIMITS`, and the
factor by which the node count grew over the family's previous size.  It
exits 1 when an instance gets the wrong answer or a limit stops its run:
every reported size decides under `LIMITS`, so a limit is a regression.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, NamedTuple

from alcqisat import (
    Limits,
    ResourceLimitError,
    SolverLimitError,
    Tableau,
    build_problem,
    parse_problem_text,
)

# the pigeonhole's at-most on top adds a filler to the m at-least fillers,
# so m = 10 needs a lambda_max above the default 10; the node budget is
# fixed, so a run that stops stops at the same count on every machine
LIMITS = Limits(lambda_max=16, node_budget=200_000)


def _and(parts: list[str]) -> str:
    return parts[0] if len(parts) == 1 else f"(and {' '.join(parts)})"


def counter(n: int, unsat: bool = True, inverse: bool = False) -> str:
    r = "(inv R)" if inverse else "R"
    bits = [f"B{i}" for i in range(n)]
    lines = [f"axiom (atleast 1 {r} top)"]
    for i, bit in enumerate(bits):
        low = bits[:i]
        lines.append(f"gci {_and(low + [bit])} (atmost 0 {r} {bit})")
        lines.append(f"gci {_and(low + [f'(not {bit})'])} (atmost 0 {r} (not {bit}))")
        for j in range(i):
            lines.append(f"gci (and (not {bits[j]}) {bit}) (atmost 0 {r} (not {bit}))")
            lines.append(f"gci (and (not {bits[j]}) (not {bit})) (atmost 0 {r} {bit})")
    if unsat:
        lines.append(f"gci {_and(bits)} bottom")
    lines.append(f"sat {_and([f'(not {bit})' for bit in bits])}")
    return "\n".join(lines) + "\n"


def pigeonhole(m: int, h: int) -> str:
    lines = [f"gci (and A{i} A{j}) bottom" for i in range(m) for j in range(i + 1, m)]
    pigeons = " ".join(f"(atleast 1 R A{i})" for i in range(m))
    lines.append(f"sat (and {pigeons} (atmost {h} R top))")
    return "\n".join(lines) + "\n"


def chain_with_inverse(d: int) -> str:
    chain = "top"
    for _ in range(d):
        chain = f"(atleast 1 R {chain})"
    return f"sat (and {chain} (atleast 1 (inv R) B))\n"


INFINITE_MODEL = (
    "axiom (atleast 1 R top)\n"
    "axiom (atmost 1 (inv R) top)\n"
    "sat (and A (atmost 0 (inv R) top))\n"
)


class Family(NamedTuple):
    make: Callable[[int], str]
    satisfiable: bool
    tested: range      # sizes test_families.py pins, each decided in well under 0.5 s
    reported: range    # sizes the report runs


FAMILIES: dict[str, Family] = {
    "counter UNSAT": Family(counter, False, range(1, 8), range(1, 10)),
    "counter SAT": Family(lambda n: counter(n, unsat=False), True, range(1, 8), range(1, 10)),
    "mirrored counter UNSAT": Family(
        lambda n: counter(n, inverse=True), False, range(1, 8), range(1, 10)
    ),
    "mirrored counter SAT": Family(
        lambda n: counter(n, unsat=False, inverse=True), True, range(1, 8), range(1, 10)
    ),
    "pigeonhole h=m-1": Family(lambda m: pigeonhole(m, m - 1), False, range(1, 9), range(1, 11)),
    "pigeonhole h=m": Family(lambda m: pigeonhole(m, m), True, range(1, 9), range(1, 11)),
    "chain with inverse": Family(chain_with_inverse, True, range(1, 8), range(1, 11)),
    "infinite model": Family(lambda _: INFINITE_MODEL, True, range(1, 2), range(1, 2)),
}


def run(text: str, limits: Limits = LIMITS):
    """The run's verdict, or None when a limit stopped it, with its stats."""
    pf = parse_problem_text(text)
    tableau = Tableau(build_problem(pf.query, pf.tbox), limits)
    try:
        return tableau.decide().satisfiable, tableau.stats
    except (ResourceLimitError, SolverLimitError):
        return None, tableau.stats


def main() -> int:
    print(f"limits: lambda_max={LIMITS.lambda_max} node_budget={LIMITS.node_budget}")
    print(f"{'family':24} {'size':>4} {'answer':>6} {'nodes':>8} {'growth':>7} "
          f"{'nogoods':>8} {'solves':>8} {'ms':>9}")
    wrong, stopped = [], []
    for name, family in FAMILIES.items():
        previous = None
        for size in family.reported:
            started = time.perf_counter()
            verdict, stats = run(family.make(size))
            ms = (time.perf_counter() - started) * 1000
            answer = "limit" if verdict is None else "SAT" if verdict else "UNSAT"
            growth = f"x{stats.nodes / previous:.1f}" if previous else "-"
            print(f"{name:24} {size:>4} {answer:>6} {stats.nodes:>8} {growth:>7} "
                  f"{stats.nogoods:>8} {stats.lii_solves:>8} {ms:>9.1f}", flush=True)
            if verdict is None:
                stopped.append(f"{name} {size}")
            elif verdict != family.satisfiable:
                wrong.append(f"{name} {size}")
            previous = stats.nodes
    if wrong:
        print("WRONG ANSWER: " + ", ".join(wrong))
    if stopped:
        print("STOPPED BY A LIMIT: " + ", ".join(stopped))
    return 1 if wrong or stopped else 0


if __name__ == "__main__":
    sys.exit(main())
