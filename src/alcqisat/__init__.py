"""Satisfiability reasoning for the description logic ALCQI with axioms."""

from .branch import (
    Branch,
    CutSet,
    EMPTY_CUT_SET,
    branch_satisfies,
    cut_set_for_child,
    enumerate_branches,
    fine_tune,
    primitive_clash,
)
from .engine import (
    Limits,
    NogoodStore,
    NogoodTriple,
    ResourceLimitError,
    RunStats,
    Tableau,
    Verdict,
    decide,
)
from .lii import (
    LiiSystem,
    SolverLimitError,
    atomic_decomposition,
    build_lii,
    closed_form,
    collect_fillers,
    feasible,
    zero_column,
)
from .oracle import (
    Interpretation,
    NoneFound,
    OracleLimitError,
    evaluate,
    find_model,
)
from .problems import (
    CorpusProfile,
    ProblemFile,
    ProblemFileError,
    generate_corpus,
    parse_problem_text,
    parse_tbox_text,
)
from .syntax import (
    And,
    AtLeast,
    AtMost,
    Atom,
    BOTTOM,
    Bottom,
    Concept,
    ConceptSyntaxError,
    NegAtom,
    Not,
    Or,
    Problem,
    Role,
    TOP,
    Top,
    build_problem,
    conj,
    cut_formula,
    cut_table,
    disj,
    internalize,
    negate,
    parse_concept,
    to_nnf,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
