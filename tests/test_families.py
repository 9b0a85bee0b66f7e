"""The hard families of `families.py` at the sizes that decide quickly: each
instance's answer, known by construction, and the run's counts.  A change
to the search that moves a count must update it on purpose, and say why;
`python tests/families.py` reports the larger sizes."""

import pytest

from alcqisat import Interpretation, RunStats, build_problem, find_model, parse_problem_text
from families import FAMILIES, INFINITE_MODEL, counter, run

# per family, (nodes, nogoods, lii_solves, max_lambda) for each tested size
# in order; the counters and the pigeonholes grow by about x2 per size, the
# chain with an inverse by about x3.5
PINNED = {
    "counter UNSAT": [
        (2, 3, 2, 2), (4, 7, 6, 3), (8, 15, 14, 4), (16, 31, 30, 5), (32, 63, 62, 6),
        (64, 127, 126, 7), (128, 255, 254, 8),
    ],
    "counter SAT": [
        (3, 0, 2, 2), (5, 0, 4, 3), (9, 0, 8, 4), (17, 0, 16, 5), (33, 0, 32, 6),
        (65, 0, 64, 7), (129, 0, 128, 8),
    ],
    "pigeonhole h=m-1": [
        (1, 2, 1, 2), (2, 3, 2, 3), (6, 6, 5, 4), (14, 13, 12, 5), (30, 28, 27, 6),
        (62, 59, 58, 7), (126, 122, 121, 8), (254, 249, 248, 9),
    ],
    "pigeonhole h=m": [
        (2, 0, 1, 2), (4, 1, 2, 3), (8, 4, 5, 4), (16, 11, 12, 5), (32, 26, 27, 6),
        (64, 57, 58, 7), (128, 120, 121, 8), (256, 247, 248, 9),
    ],
    "chain with inverse": [
        (3, 0, 2, 1), (4, 0, 3, 1), (5, 2, 6, 2), (8, 9, 16, 3), (24, 31, 52, 4),
        (92, 87, 169, 5), (345, 216, 529, 6),
    ],
    "infinite model": [(3, 0, 2, 1)],
}
# a counter along (inv R) does the same work as along R
PINNED["mirrored counter UNSAT"] = PINNED["counter UNSAT"]
PINNED["mirrored counter SAT"] = PINNED["counter SAT"]


@pytest.mark.parametrize("name", FAMILIES)
def test_family_answers_and_counts_are_pinned(name):
    family = FAMILIES[name]
    got = []
    for size in family.tested:
        verdict, stats = run(family.make(size))
        assert verdict is family.satisfiable, (name, size)
        got.append(stats)
    assert got == [RunStats(0, *counts) for counts in PINNED[name]]


def test_the_counter_text():
    assert counter(2) == (
        "axiom (atleast 1 R top)\n"
        "gci B0 (atmost 0 R B0)\n"
        "gci (not B0) (atmost 0 R (not B0))\n"
        "gci (and B0 B1) (atmost 0 R B1)\n"
        "gci (and B0 (not B1)) (atmost 0 R (not B1))\n"
        "gci (and (not B0) B1) (atmost 0 R (not B1))\n"
        "gci (and (not B0) (not B1)) (atmost 0 R B1)\n"
        "gci (and B0 B1) bottom\n"
        "sat (and (not B0) (not B1))\n"
    )


def test_the_infinite_model_input_has_no_small_model():
    # SAT only through an infinite model: R is total and injective, and the
    # query element has no R-predecessor
    pf = parse_problem_text(INFINITE_MODEL)
    problem = build_problem(pf.query, pf.tbox)
    assert not isinstance(find_model(problem.goal, problem.axiom, max_domain=3), Interpretation)
