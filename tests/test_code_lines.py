"""tests/code_lines.py: code lines without comments, docstrings or blanks."""

from code_lines import code_lines, main

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment leaves the line code


class A:
    """Class docstring."""

    # a comment line
    def f(self):
        """Function docstring."""
        text = """a string that is no docstring
        counts on each of its lines"""
        return (text,
                os.sep)
'''


def test_comments_docstrings_and_blank_lines_are_not_code():
    # the import, the class and def lines, the string's two lines and the
    # return's two lines
    assert code_lines(SOURCE) == 7


def test_the_report_totals_the_modules(capsys):
    assert main() == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in lines]
    counts = [int(line.split()[1]) for line in lines]
    assert names[-1] == "total" and counts[-1] == sum(counts[:-1])
    assert {"engine", "lii", "syntax"} <= set(names)
