"""Property tests over generated ALCQI inputs: small concepts with inverse
roles, nested number restrictions and general inclusion axioms.

The examples are drawn with `derandomize=True` and a fixed `max_examples`,
so every run checks the same inputs, and no example database is kept."""

from hypothesis import assume, given, settings, strategies as st

from alcqisat import (
    AtLeast,
    AtMost,
    Atom,
    Limits,
    NegAtom,
    Not,
    ResourceLimitError,
    Role,
    SolverLimitError,
    TOP,
    Tableau,
    build_problem,
    conj,
    disj,
)
from conftest import with_every_cut

ROLES = st.sampled_from([Role("R"), Role("R", True), Role("S"), Role("S", True)])
LITERALS = st.sampled_from([Atom("A"), NegAtom("A"), Atom("B"), TOP])
# flat restrictions among the leaves, so that restrictions nest often
LEAVES = st.one_of(
    LITERALS,
    st.builds(AtLeast, st.integers(1, 2), ROLES, LITERALS),
    st.builds(AtMost, st.integers(0, 2), ROLES, LITERALS),
)


def _compound(parts):
    return st.one_of(
        st.lists(parts, min_size=2, max_size=3).map(conj),
        st.lists(parts, min_size=2, max_size=3).map(disj),
        st.builds(AtLeast, st.integers(0, 2), ROLES, parts),
        st.builds(AtMost, st.integers(0, 2), ROLES, parts),
        st.builds(Not, parts),
    )


CONCEPTS = st.recursive(LEAVES, _compound, max_leaves=6)
GCIS = st.lists(st.tuples(CONCEPTS, CONCEPTS), max_size=2)


def outcome(problem) -> bool | None:
    """The verdict, or None when a budget stopped the run."""
    try:
        return Tableau(problem, Limits(nogood_capacity=250, node_budget=20_000)).decide().satisfiable
    except (ResourceLimitError, SolverLimitError):
        return None


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(CONCEPTS, GCIS)
def test_the_cut_table_decides_as_a_cut_for_every_pair(goal, gcis):
    # cut_table keeps only the pairs a successor can read; the formula of
    # every other pair is a tautology, so adding them all back changes no
    # verdict
    problem = build_problem(goal, gcis)
    verdict = outcome(problem)
    assume(verdict is not None)
    assert outcome(with_every_cut(problem)) == verdict
