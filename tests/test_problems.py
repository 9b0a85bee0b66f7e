import pytest

from alcqisat import (
    AtLeast,
    AtMost,
    Atom,
    CorpusProfile,
    ProblemFile,
    ProblemFileError,
    Role,
    TOP,
    generate_corpus,
    parse_problem_text,
    parse_tbox_text,
)
from alcqisat.syntax import walk_concepts

A, B = Atom("A"), Atom("B")


def test_parse_full_file():
    text = """\
# regression instance
gci A (atleast 1 R B)

axiom (or (not B) A)   # trailing comment
sat (and A B)
"""
    pf = parse_problem_text(text)
    assert pf.tbox == (
        (A, AtLeast(1, Role("R"), B)),
        (TOP, parse_problem_text("sat (or (not B) A)").query),
    )
    assert pf.query == parse_problem_text("sat (and A B)").query


def test_round_trip():
    pf = parse_problem_text("gci A B\nsat (atmost 2 (inv R) (or A B))\n")
    assert parse_problem_text(pf.to_text()) == pf


def test_missing_sat_line():
    with pytest.raises(ProblemFileError):
        parse_problem_text("gci A B\n")


def test_two_sat_lines():
    with pytest.raises(ProblemFileError) as err:
        parse_problem_text("sat A\nsat B\n")
    assert err.value.line == 2


def test_gci_arity_checked():
    with pytest.raises(ProblemFileError):
        parse_problem_text("gci A\nsat B\n")
    with pytest.raises(ProblemFileError):
        parse_problem_text("gci A B C\nsat B\n")


def test_error_location():
    for text in ("sat A\ngci (and A) B\n", "sat A\ngci\t(and A) B\n"):
        with pytest.raises(ProblemFileError) as err:
            parse_problem_text(text)
        assert err.value.line == 2
        assert err.value.column == 6


def test_extra_term_location():
    with pytest.raises(ProblemFileError) as err:
        parse_problem_text("sat A\n  gci  A (or B C)   (and C D)\n")
    assert str(err.value) == "line 2, column 21: unexpected extra term '('"
    assert (err.value.line, err.value.column) == (2, 21)
    with pytest.raises(ProblemFileError) as err:
        parse_problem_text("sat A\n\tgci \tA (or B C)\t(and C D)\n")
    assert str(err.value) == "line 2, column 18: unexpected extra term '('"


# problem-file errors, each with the line and column it carries: the
# column of a concept error is the offset the concept parser gives, read
# from the start of the line
PROBLEM_ERRORS = {
    "sat (and A": "line 1, column 11: unexpected end of input",
    "gci A\nsat A\n": "line 1, column 6: unexpected end of input",
    "sat A B\n": "line 1, column 7: unexpected extra term 'B'",
    "# c\n  axiom (foo A)\nsat A\n": "line 2, column 10: unknown keyword 'foo'",
    "gci A (and B)\nsat A": "line 1, column 8: 'and' needs at least two arguments",
    "gci\tA )\nsat A": "line 1, column 7: unexpected ')'",
    "sat (not A) )": "line 1, column 13: unexpected extra term ')'",
    "sat (atleast -2 R A)\n": "line 1, column 14: number restriction bound must be non-negative",
    "sat (and A\r\nsat B": "line 1, column 11: unexpected end of input",
    "gci (or A (not B)) (and (atleast 1 R B) (not))\nsat A": "line 1, column 45: unexpected ')'",
    "sat (and A (not B C))": "line 1, column 19: expected ')', found 'C'",
}


@pytest.mark.parametrize("text", list(PROBLEM_ERRORS))
def test_each_problem_error_keeps_its_line_and_column(text):
    with pytest.raises(ProblemFileError) as err:
        parse_problem_text(text)
    assert str(err.value) == PROBLEM_ERRORS[text]


def test_tab_after_directive():
    pf = parse_problem_text("gci\tA B\nsat\tA\n")
    assert pf.tbox == ((A, B),)
    assert pf.query == A


def test_lines_end_only_at_line_breaks():
    # the tokenizer reads a form feed, a vertical tab, \x1c-\x1e, NEL,
    # U+2028 and U+2029 as spaces; none of them ends a line
    plain = "gci A  B\nsat (and A (not B))\n"
    broken = "sat A\ngci (and A) B\n"
    for space in ("\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        assert parse_problem_text(plain.replace("  ", space + " ")) == parse_problem_text(plain)
        with pytest.raises(ProblemFileError) as err:
            parse_problem_text(broken.replace("sat A", "sat A" + space))
        assert (err.value.line, err.value.column) == (2, 6)
    for newline in ("\r\n", "\r"):
        assert parse_problem_text(plain.replace("\n", newline)) == parse_problem_text(plain)
        with pytest.raises(ProblemFileError) as err:
            parse_problem_text(broken.replace("\n", newline))
        assert (err.value.line, err.value.column) == (2, 6)
        with pytest.raises(ProblemFileError) as err:
            parse_problem_text("gci A B" + newline + "gci B A" + newline)
        assert (err.value.message, err.value.line) == ("missing sat line", 3)
    assert parse_tbox_text("gci A\fB\r\naxiom B\r\n") == ((A, B), (TOP, B))


def test_unknown_directive():
    with pytest.raises(ProblemFileError):
        parse_problem_text("check A\nsat B\n")


def test_tbox_file_rejects_sat():
    assert parse_tbox_text("gci A B\n") == ((A, B),)
    with pytest.raises(ProblemFileError):
        parse_tbox_text("sat A\n")


def test_corpus_deterministic():
    one = generate_corpus(seed=1, count=5)
    two = generate_corpus(seed=1, count=5)
    assert one == two
    assert generate_corpus(seed=2, count=5) != one


def test_corpus_single_instance_is_stable():
    (pf,) = generate_corpus(seed=1, count=1)
    assert parse_problem_text(pf.to_text()) == pf


def test_corpus_empty():
    assert generate_corpus(seed=1, count=0) == []


def test_corpus_depth_zero_is_propositional():
    for pf in generate_corpus(seed=4, count=30, profile=CorpusProfile(max_depth=0)):
        for lhs, rhs in pf.tbox + ((TOP, pf.query),):
            for node in list(walk_concepts(lhs)) + list(walk_concepts(rhs)):
                assert not isinstance(node, (AtLeast, AtMost))


def test_corpus_respects_profile_bounds():
    profile = CorpusProfile(max_depth=3, max_bound=3, max_roles=2, max_atoms=3)
    for pf in generate_corpus(seed=6, count=50, profile=profile):
        names = set()
        roles = set()
        for lhs, rhs in pf.tbox + ((TOP, pf.query),):
            for node in list(walk_concepts(lhs)) + list(walk_concepts(rhs)):
                if isinstance(node, Atom):
                    names.add(node.name)
                if isinstance(node, (AtLeast, AtMost)):
                    roles.add(node.role.base)
                    assert node.bound <= 3
        assert len(names) <= 3
        assert len(roles) <= 2


def test_problem_file_to_text_shape():
    pf = ProblemFile(tbox=((A, B),), query=A)
    assert pf.to_text() == "gci A B\nsat A\n"
