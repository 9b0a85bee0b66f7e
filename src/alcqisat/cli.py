"""Command-line front door.

Exit codes: 0 satisfiable, 1 unsatisfiable, 2 usage or parse error,
3 resource limit (which includes two concepts whose order keys share more
levels than the recursion limit allows: Python compares them in C, once per
level, the one step of parsing or a run left that recurses per level),
4 internal error (nothing on standard output), which includes an UNSAT
verdict that the --oracle-check model search contradicts.
The verdict is the first line on standard output; diagnostics, including the
rule trace, the partial --stats of a run stopped by a resource limit and the
model behind an oracle mismatch, go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import time

from .engine import Limits, ResourceLimitError, RunStats, decide
from .lii import SolverLimitError
from .oracle import Interpretation, NoneFound, OracleLimitError, find_model
from .problems import ProblemFileError, parse_problem_text, parse_tbox_text
from .syntax import ConceptSyntaxError, build_problem, parse_concept

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _build_arg_parser() -> argparse.ArgumentParser:
    defaults = Limits._field_defaults
    parser = argparse.ArgumentParser(
        prog="alcqisat",
        description="Decide concept satisfiability in ALCQI with general axioms.",
    )
    parser.add_argument("file", nargs="?", help="problem file with gci/axiom lines and one sat line")
    parser.add_argument("--concept", help="query concept text, instead of a problem file")
    parser.add_argument("--tbox", help="axioms-only file, used together with --concept")
    parser.add_argument("--trace", action="store_true", help="print one line per rule application to stderr")
    parser.add_argument("--dump-lii", action="store_true",
                        help="print every inequality system in matrix form to stderr")
    parser.add_argument("--stats", action="store_true", help="print run statistics")
    parser.add_argument(
        "--oracle-check",
        type=int,
        metavar="N",
        help="also run the bounded model search up to domain size N and report agreement",
    )
    parser.add_argument("--lambda-max", type=int, default=defaults["lambda_max"], metavar="K",
                        help="most distinct fillers per solved role, one with a positive at-least, "
                             "before giving up (default %(default)s)")
    parser.add_argument("--node-budget", type=int, default=defaults["node_budget"], metavar="N",
                        help="most node expansions per run (default %(default)s)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = _run(args)
    except RecursionError:  # two deep order keys compared: a limit, never a verdict
        print("error: resource limit: concept nesting too deep for the recursion limit",
              file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:  # a bug, never a verdict: keep stdout empty
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if code == EXIT_INTERNAL:  # a verdict the oracle refutes is no verdict
        return code
    sys.stdout.write(out.getvalue())
    return code


def _run(args: argparse.Namespace) -> int:
    # an option given as '' is present: test for None, never truthiness
    if args.file is not None and args.concept is not None:
        print("error: give either a problem file or --concept, not both", file=sys.stderr)
        return EXIT_USAGE
    if args.file is None and args.concept is None:
        print("error: a problem file or --concept is required", file=sys.stderr)
        return EXIT_USAGE
    if args.file is not None and args.tbox is not None:
        print("error: --tbox only combines with --concept", file=sys.stderr)
        return EXIT_USAGE
    if args.oracle_check is not None and args.oracle_check < 1:
        print("error: --oracle-check needs a domain size of at least 1", file=sys.stderr)
        return EXIT_USAGE
    # a limit no run can meet is a usage error, not a resource limit; 0
    # fillers still decides every concept without number restrictions
    if args.lambda_max < 0:
        print("error: --lambda-max needs a filler count of at least 0", file=sys.stderr)
        return EXIT_USAGE
    if args.node_budget < 1:
        print("error: --node-budget needs a budget of at least 1", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.file is not None:
            pf = _read_parsed(args.file, parse_problem_text)
            if pf is None:
                return EXIT_USAGE
            tbox, query = pf.tbox, pf.query
        else:
            try:
                query = parse_concept(args.concept)
            except ConceptSyntaxError as exc:
                print(f"error: --concept: {exc}", file=sys.stderr)
                return EXIT_USAGE
            tbox = ()
            if args.tbox is not None:
                tbox = _read_parsed(args.tbox, parse_tbox_text)
                if tbox is None:
                    return EXIT_USAGE

        problem = build_problem(query, tbox)
        limits = Limits(lambda_max=args.lambda_max, node_budget=args.node_budget)
        to_stderr = lambda line: print(line, file=sys.stderr)  # noqa: E731
        trace = to_stderr if args.trace else None
        dump = to_stderr if args.dump_lii else None

        started = time.perf_counter()
        verdict = decide(problem, limits, trace=trace, dump_systems=dump)
        wall_ms = int((time.perf_counter() - started) * 1000)
    except (ResourceLimitError, SolverLimitError) as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        # decide raised it: the aborted run's partial stats, off the verdict stream
        if args.stats:
            wall_ms = int((time.perf_counter() - started) * 1000)
            _print_stats(exc.stats, wall_ms, sys.stderr)
        return EXIT_RESOURCE

    print("SAT" if verdict.satisfiable else "UNSAT")
    if args.stats:
        _print_stats(verdict.stats, wall_ms, sys.stdout)

    if args.oracle_check is not None:
        if not _report_oracle(problem, verdict.satisfiable, args.oracle_check):
            return EXIT_INTERNAL

    return EXIT_SAT if verdict.satisfiable else EXIT_UNSAT


def _read_parsed(path: str, parse):
    """Read the file and parse its text; None once a read or parse error
    has gone to stderr.  A leading UTF-8 byte-order mark is dropped, not
    read as part of the first directive."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    except UnicodeDecodeError as exc:  # bad input, not a bug
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None
    try:
        return parse(text)
    except ProblemFileError as exc:
        print(f"error: {path}:{exc.line}:{exc.column}: {exc.message}", file=sys.stderr)
        return None


def _print_stats(stats: RunStats, wall_ms: int, file) -> None:
    for name, value in [*stats.items(), ("wall_ms", wall_ms)]:
        print(f"{name}={value}", file=file)


def _report_oracle(problem, engine_sat: bool, max_domain: int) -> bool:
    """Print the model search's report; False when it found a model of an
    UNSAT verdict, after the error line and the model went to stderr."""
    try:
        result = find_model(problem.goal, problem.axiom, max_domain=max_domain)
    except OracleLimitError as exc:
        print(f"oracle: refused ({exc})")
        return True
    if isinstance(result, Interpretation):
        if not engine_sat:
            print(
                "error: internal: oracle mismatch: the engine said UNSAT but a "
                f"model of domain size {result.domain_size} exists:",
                file=sys.stderr,
            )
            print(result.dump(), file=sys.stderr)
            return False
        print(f"oracle: model found (domain size {result.domain_size})")
        print("oracle: agreement ok")
    else:
        assert isinstance(result, NoneFound)
        print(f"oracle: no model up to domain size {result.searched_max_domain}")
        print("oracle: agreement ok" if not engine_sat else
              "oracle: inconclusive (bounded search cannot confirm SAT)")
    return True


if __name__ == "__main__":
    sys.exit(main())
