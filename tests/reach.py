"""Which statements of src/alcqisat no routine input runs.

    PYTHONPATH=src python tests/reach.py

Traces, with `sys.settrace`, the inputs the repository runs every day: the
three bench corpora, decided or searched as a bench pass does
(`bench/workload.py`: set-up, then `decide_instance` under its engine
limits, or `search_instance` to its domain and `model_checks` on each model
found), the families of `tests/families.py` at the sizes `test_families.py`
pins, and `tests/metamorphic.py --seeds 2`.  Tracing starts before the
package is imported, so module-level statements count as run.

For each module it prints how many of its statements never ran, then one
line per such statement: its line number and its first line of text.  A
statement is one of the AST (an `except` clause counts as one), and it ran
when any line of its own (its header, for a compound one) that holds
bytecode ran.  The report only reports: error, trace and dump paths are
expected in it, and the script exits 0.  About 15 s on a 2-core VM.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "alcqisat"
MODULES = {str(path): path for path in sorted(SRC.glob("*.py"))}
RAN: dict[str, set[int]] = {name: set() for name in MODULES}
# each code file name seen, and the line set of its module or None
_LINES: dict[str, set[int] | None] = {}


def _on_line(frame, event, arg):
    if event == "line":
        _LINES[frame.f_code.co_filename].add(frame.f_lineno)
    return _on_line


def _on_call(frame, event, arg):
    # only frames of the package's modules get a line tracer
    name = frame.f_code.co_filename
    if name not in _LINES:
        _LINES[name] = RAN.get(str(Path(name).resolve()))
    return None if _LINES[name] is None else _on_line


def run_inputs() -> None:
    """The bench corpora, the tested family sizes and the short sweep."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]
    import families
    import metamorphic
    import workload

    for name in ("deep", "counting", "oracle"):
        problems = workload.setup(name)["problems"]
        for problem in problems:
            if name == "oracle":
                _, _, model = workload.search_instance(problem, 60.0, workload.ORACLE_MAX_DOMAIN)
                if model is not None:
                    workload.model_checks(model, problem)
            else:
                workload.decide_instance(problem, 60.0, None, workload.ENGINE_LIMITS)
    for family in families.FAMILIES.values():
        for size in family.tested:
            families.run(family.make(size))
    with contextlib.redirect_stdout(io.StringIO()):
        metamorphic.main(["--seeds", "2"])


def _code_lines(code: CodeType) -> set[int]:
    """The lines that hold bytecode in code and in the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def _children(node: ast.AST) -> list[ast.AST]:
    return [
        child
        for field in ("body", "orelse", "finalbody", "handlers")
        for child in getattr(node, field, ())
        if isinstance(child, (ast.stmt, ast.excepthandler))
    ]


def never_run(source: str, filename: str, ran: set[int]) -> tuple[int, list[int]]:
    """The number of statements with bytecode, and the first lines of those
    none of whose own lines ran."""
    tree = ast.parse(source)
    executable = _code_lines(compile(source, filename, "exec"))
    total, missed = 0, []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        own = set(range(start, node.end_lineno + 1))
        for child in _children(node):
            own -= set(range(child.lineno, child.end_lineno + 1))
        own &= executable
        if own:
            total += 1
            if not own & ran:
                missed.append(node.lineno)
    return total, sorted(missed)


def main() -> int:
    sys.settrace(_on_call)
    try:
        run_inputs()
    finally:
        sys.settrace(None)
    for filename, path in MODULES.items():
        source = path.read_text()
        total, missed = never_run(source, filename, RAN[filename])
        print(f"{path.stem}: {len(missed)} of {total} statements never run")
        if len(missed) == total:
            continue  # not imported: nothing to list
        text = source.splitlines()
        for line in missed:
            print(f"  {line:4} {text[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
