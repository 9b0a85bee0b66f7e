import os
import re
import subprocess
import sys
from pathlib import Path

import alcqisat
from alcqisat import AtLeast, Atom, Problem, Role, RunStats, TOP, Verdict, cli
from alcqisat.cli import EXIT_INTERNAL, EXIT_RESOURCE, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_unsat_file(tmp_path, capsys):
    path = write(tmp_path, "p.dl", "sat (and A (not A))\n")
    code, out, err = run_cli(capsys, path)
    assert code == 1
    assert out.splitlines()[0] == "UNSAT"


def test_sat_file(tmp_path, capsys):
    path = write(tmp_path, "p.dl", "sat A\n")
    code, out, err = run_cli(capsys, path)
    assert code == 0
    assert out.splitlines()[0] == "SAT"


def test_cyclic_axiom_file(tmp_path, capsys):
    path = write(tmp_path, "p.dl", "gci top (atleast 1 R top)\nsat A\n")
    code, out, err = run_cli(capsys, path)
    assert code == 0
    assert out.splitlines()[0] == "SAT"


def test_concept_flag_with_tbox(tmp_path, capsys):
    tbox = write(tmp_path, "t.dl", "gci A B\n")
    code, out, _ = run_cli(capsys, "--concept", "(and A (not B))", "--tbox", tbox)
    assert code == 1
    assert out.splitlines()[0] == "UNSAT"


def test_usage_errors(tmp_path, capsys):
    assert run_cli(capsys)[0] == 2
    path = write(tmp_path, "p.dl", "sat A\n")
    assert run_cli(capsys, path, "--concept", "A")[0] == 2
    assert run_cli(capsys, path, "--tbox", path)[0] == 2
    assert run_cli(capsys, str(tmp_path / "missing.dl"))[0] == 2


def test_parse_error_names_line_and_column(tmp_path, capsys):
    path = write(tmp_path, "p.dl", "sat A\ngci (and A) B\n")
    code, out, err = run_cli(capsys, path)
    assert code == 2
    # the place once: no offset into the concept text after line:column
    assert err == f"error: {path}:2:6: 'and' needs at least two arguments\n"


def test_tbox_parse_error_names_line_and_column(tmp_path, capsys):
    tbox = write(tmp_path, "t.dl", "gci A B\ngci (and A) B\n")
    code, out, err = run_cli(capsys, "--concept", "A", "--tbox", tbox)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {tbox}:2:6: ")


def test_undecodable_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "p.dl"
    path.write_bytes(b"sat \xff\xfe A\n")
    code, out, err = run_cli(capsys, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode")


def test_undecodable_tbox_is_a_usage_error(tmp_path, capsys):
    tbox = tmp_path / "t.dl"
    tbox.write_bytes(b"gci A \xff\n")
    code, out, err = run_cli(capsys, "--concept", "A", "--tbox", str(tbox))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {tbox}: 'utf-8' codec can't decode")


def test_byte_order_mark_is_not_part_of_the_text(tmp_path, capsys):
    # a byte-order mark used to reach the parser: unknown directive '\ufeffsat'
    for name, text in (("p.dl", "gci A B\nsat (and A (not B))\n"), ("t.dl", "gci A B\n")):
        (tmp_path / ("bom-" + name)).write_bytes(b"\xef\xbb\xbf" + text.encode())
        write(tmp_path, name, text)
    plain = run_cli(capsys, str(tmp_path / "p.dl"))
    assert plain == (1, "UNSAT\n", "")
    assert run_cli(capsys, str(tmp_path / "bom-p.dl")) == plain
    concept = ("--concept", "(and A (not B))")
    plain = run_cli(capsys, *concept, "--tbox", str(tmp_path / "t.dl"))
    assert plain == (1, "UNSAT\n", "")
    assert run_cli(capsys, *concept, "--tbox", str(tmp_path / "bom-t.dl")) == plain


def test_concept_parse_error(capsys):
    code, _, err = run_cli(capsys, "--concept", "(atleast -2 R A)")
    assert code == 2
    assert "non-negative" in err


def test_malformed_bound_is_a_parse_error(capsys):
    # neither is an ASCII digit string, so neither may reach int()
    for bound in ("--1", "\u00b2"):
        code, out, err = run_cli(capsys, "--concept", f"(atleast {bound} R A)")
        assert code == 2
        assert out == ""
        assert err == (
            f"error: --concept: expected a non-negative integer, found '{bound}' (at position 9)\n"
        )


def test_malformed_bound_in_file_names_line_and_column(tmp_path, capsys):
    for bound in ("--1", "\u00b2"):
        path = write(tmp_path, "p.dl", f"sat A\ngci A (atleast {bound} R B)\n")
        code, out, err = run_cli(capsys, path)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}:2:16: ")


def test_stats_block(tmp_path, capsys):
    path = write(tmp_path, "p.dl", "sat A\n")
    code, out, _ = run_cli(capsys, path, "--stats")
    lines = out.splitlines()
    assert lines[0] == "SAT"
    keys = [line.split("=")[0] for line in lines[1:]]
    assert keys == ["restarts", "nodes", "nogoods", "lii_solves", "max_lambda", "wall_ms"]


def test_trace_goes_to_stderr(tmp_path, capsys):
    path = write(tmp_path, "p.dl", "sat (and (atleast 1 R A) (atmost 2 R top))\n")
    code, out, err = run_cli(capsys, path, "--trace")
    assert out.splitlines()[0] == "SAT"
    assert any(line.startswith("PB ") for line in err.splitlines())
    assert any(line.startswith("LII ") for line in err.splitlines())


def test_oracle_check_agreement(tmp_path, capsys):
    path = write(tmp_path, "p.dl", "sat (and A B)\n")
    code, out, _ = run_cli(capsys, path, "--oracle-check", "3")
    assert "oracle: model found (domain size 1)" in out
    assert "oracle: agreement ok" in out

    path = write(tmp_path, "q.dl", "sat (and A (not A))\n")
    code, out, _ = run_cli(capsys, path, "--oracle-check", "3")
    assert code == 1
    assert "oracle: no model up to domain size 3" in out
    assert "oracle: agreement ok" in out


def test_oracle_check_refused(capsys):
    # four atoms are more than the model search's default signature cap
    code, out, _ = run_cli(capsys, "--concept", "(and A B C D)", "--oracle-check", "2")
    assert code == 0
    assert out.splitlines() == [
        "SAT",
        "oracle: refused (signature too large for brute-force search: 4 atoms, 0 roles)",
    ]


def test_oracle_check_refuses_deep_nesting(capsys):
    # the check reads only goal and axiom; a chain this deep is far too
    # slow for the engine, so the problem is built by hand
    chain = Atom("A")
    for _ in range(5000):
        chain = AtLeast(1, Role("R"), chain)
    assert cli._report_oracle(Problem(chain, TOP, (), frozenset()), True, 1)
    assert capsys.readouterr().out == (
        "oracle: refused (concept nesting too deep for the model search)\n"
    )


def test_oracle_check_inconclusive_on_sat(capsys):
    # two R-neighbours need a domain of two: size 1 finds no model
    code, out, _ = run_cli(capsys, "--concept", "(atleast 2 R A)", "--oracle-check", "1")
    assert code == 0
    assert out.splitlines() == [
        "SAT",
        "oracle: no model up to domain size 1",
        "oracle: inconclusive (bounded search cannot confirm SAT)",
    ]


def test_oracle_check_needs_a_positive_domain(capsys):
    # a search up to size 0 or below checks nothing, so it cannot agree
    for size in ("0", "-1"):
        code, out, err = run_cli(capsys, "--concept", "(and A (not A))", "--oracle-check", size)
        assert code == 2
        assert out == ""
        assert err == "error: --oracle-check needs a domain size of at least 1\n"


def test_dump_lii_flag(tmp_path, capsys):
    path = write(tmp_path, "p.dl", "sat (and (atleast 2 R A) (atmost 3 R top))\n")
    code, out, err = run_cli(capsys, path, "--dump-lii")
    assert code == 0
    assert "fillers:" in err
    assert ">= 2" in err


def test_roles_without_an_at_least_are_not_solved(capsys):
    # eleven fillers on R would exceed lambda_max=10, but only S is solved
    atmosts = " ".join(f"(atmost 0 R A{i})" for i in range(11))
    code, out, err = run_cli(capsys, "--concept", f"(and {atmosts} (atleast 1 S B))", "--stats")
    lines = out.splitlines()
    assert code == 0, err
    assert lines[0] == "SAT"
    assert "lii_solves=1" in lines and "max_lambda=1" in lines


def test_resource_limit_exit_code(tmp_path, capsys):
    path = write(tmp_path, "p.dl", "gci top (atleast 1 R (atleast 1 S top))\nsat A\n")
    code, _, err = run_cli(capsys, path, "--node-budget", "1")
    assert code == 3
    assert "resource limit" in err


def test_node_budget_below_one_is_a_usage_error(capsys):
    # no run fits in fewer than one node, so it is not a resource limit
    for budget in ("0", "-5"):
        code, out, err = run_cli(capsys, "--concept", "(atleast 1 R A)", "--node-budget", budget)
        assert code == 2
        assert out == ""
        assert err == "error: --node-budget needs a budget of at least 1\n"


def test_negative_lambda_max_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "--concept", "(atleast 1 R A)", "--lambda-max", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --lambda-max needs a filler count of at least 0\n"
    # zero fillers still decides a concept without number restrictions
    code, out, _ = run_cli(capsys, "--concept", "(and A B)", "--lambda-max", "0")
    assert (code, out) == (0, "SAT\n")


def test_stats_on_resource_limit_go_to_stderr(capsys):
    code, out, err = run_cli(capsys, "--concept", "(atleast 1 R A)", "--node-budget", "1", "--stats")
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert lines[0] == "error: resource limit: node budget of 1 exceeded in one tree"
    assert lines[1:-1] == ["restarts=0", "nodes=2", "nogoods=0", "lii_solves=1", "max_lambda=1"]
    assert lines[-1].startswith("wall_ms=")
    # without --stats the error line stands alone
    code, out, err = run_cli(capsys, "--concept", "(atleast 1 R A)", "--node-budget", "1")
    assert (code, out) == (3, "")
    assert err == "error: resource limit: node budget of 1 exceeded in one tree\n"


def test_deep_concept_is_resource_limit_not_verdict(capsys):
    # the parser reads any depth, but `and` sorts its parts by order key,
    # and the keys of two chains that differ only in their leaf share
    # every level: comparing them recurses in C past the recursion limit.
    # From Python 3.12 that recursion is checked against a limit of its
    # own, not the one sys.setrecursionlimit sets, hence 12,000 levels
    chains = ["(atleast 1 R " * 12_000 + leaf + ")" * 12_000 for leaf in "AB"]
    code, out, err = run_cli(capsys, "--concept", f"(and {chains[0]} {chains[1]})")
    assert code == EXIT_RESOURCE == 3
    assert out == ""
    assert err.startswith("error: resource limit: ")
    assert "nesting" in err


def test_a_deep_chain_in_a_file_decides(tmp_path, capsys):
    # the parser reads a concept on one explicit stack and each node is
    # built with its NNF: 5,000 levels decide under the default limit
    path = write(tmp_path, "deep.dl", "sat " + "(atleast 1 R " * 5000 + "A" + ")" * 5000 + "\n")
    code, out, err = run_cli(capsys, path)
    assert (code, out, err) == (0, "SAT\n", "")


def test_deeply_nested_inverses_decide(capsys):
    # roles are read in a loop: 3,000 levels of inv are the role R itself
    concept = "(atleast 1 " + "(inv " * 3000 + "R" + ")" * 3000 + " A)"
    code, out, err = run_cli(capsys, "--concept", concept)
    assert (code, err) == (0, ""), err
    assert out.splitlines()[0] == "SAT"


def test_internal_error_keeps_stdout_empty(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "find_model", broken)
    path = write(tmp_path, "p.dl", "sat A\n")
    code, out, err = run_cli(capsys, path, "--oracle-check", "2")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "error: internal: KeyError: 'boom'\n"


def test_oracle_mismatch_is_an_internal_error(capsys, monkeypatch):
    # a model of an UNSAT verdict means the engine is wrong: no verdict
    def wrong(problem, *args, **kwargs):
        return Verdict(satisfiable=False, stats=RunStats())

    monkeypatch.setattr(cli, "decide", wrong)
    code, out, err = run_cli(capsys, "--concept", "A", "--oracle-check", "2", "--stats")
    assert code == EXIT_INTERNAL
    assert out == ""
    lines = err.splitlines()
    assert lines[0] == (
        "error: internal: oracle mismatch: the engine said UNSAT but a "
        "model of domain size 1 exists:"
    )
    assert lines[1:] == ["domain: [0]", "concept A: [0]"]


def test_byte_identical_output(tmp_path, capsys):
    path = write(tmp_path, "p.dl", "gci A (atleast 2 R B)\nsat (and A (atmost 1 R top))\n")
    first = run_cli(capsys, path, "--trace")
    second = run_cli(capsys, path, "--trace")
    assert first == second


def test_module_entry_point(tmp_path):
    # run the package this test imported, not whatever PYTHONPATH finds
    path = write(tmp_path, "p.dl", "sat A\n")
    src = Path(alcqisat.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "alcqisat", path],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "SAT"


def test_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast and dis: a fifth of the start-up time
    src = Path(alcqisat.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, alcqisat.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_empty_concept_with_file_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "p.dl", "sat A\n")
    code, out, err = run_cli(capsys, path, "--concept", "")
    assert (code, out) == (2, "")
    assert err == "error: give either a problem file or --concept, not both\n"


def test_empty_tbox_with_concept_is_read(capsys):
    code, out, err = run_cli(capsys, "--concept", "A", "--tbox", "")
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: ''\n"


def test_empty_tbox_with_file_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "p.dl", "sat A\n")
    code, out, err = run_cli(capsys, path, "--tbox", "")
    assert (code, out) == (2, "")
    assert err == "error: --tbox only combines with --concept\n"


def test_empty_concept_is_parsed(capsys):
    code, out, err = run_cli(capsys, "--concept", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: --concept: ")


def test_readme_flag_table_lists_every_option():
    # a removed or renamed flag must not leave a stale row behind
    rows = re.findall(r"^\| `(-[^` ]+)", README.read_text(), flags=re.M)
    defined = [
        option
        for action in cli._build_arg_parser()._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    ]
    assert sorted(rows) == sorted(defined)
