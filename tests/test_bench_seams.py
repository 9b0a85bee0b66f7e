"""bench/tracing.py times the library by replacing the names the engine
imports and calls.  Renaming or no longer calling one of them breaks the
traced benchmark without failing any library test; these tests do."""

import json
import os
import subprocess
import sys
from pathlib import Path

import alcqisat
from conftest import BENCH

# installs the wrappers in a process of its own, since they replace
# module and class attributes for the life of the process
SCRIPT = r"""
import json

import alcqisat
import alcqisat.engine as engine
import corpora
from alcqisat import Limits, OracleLimitError, Tableau, build_problem, parse_problem_text
from tracing import Layers


class Sampler:
    total = 0.0


def run(problems):
    out = []
    for problem in problems:
        verdict = Tableau(problem, Limits(nogood_capacity=250)).decide()
        out.append(f"{'SAT' if verdict.satisfiable else 'UNSAT'} {verdict.stats}")
    return out


def search(problems):
    # through the package attribute, which the wrapper replaces
    out = []
    for problem in problems:
        try:
            out.append(repr(alcqisat.find_model(problem.goal, problem.axiom, max_domain=2)))
        except OracleLimitError as exc:
            out.append(f"refused: {exc}")
    return out


texts = [pf.to_text() for w in ("deep", "counting") for pf in corpora.generate(w)[:20]]
problems = [build_problem(pf.query, pf.tbox) for pf in map(parse_problem_text, texts)]
untraced = run(problems)
oracle_texts = [pf.to_text() for pf in corpora.generate("oracle")[:20]]
searches = [build_problem(pf.query, pf.tbox) for pf in map(parse_problem_text, oracle_texts)]
untraced_searches = search(searches)

store = engine.NogoodStore
seams = {
    **{name: (engine, name) for name in (
        "fine_tune", "primitive_clash", "cut_set_for_child", "enumerate_branches",
        "collect_fillers", "atomic_decomposition", "build_lii", "zero_column", "feasible",
    )},
    **{"NogoodStore." + name: (store, name) for name in ("hit", "hit_wildcard", "hit_exact", "add")},
    "Tableau.decide": (engine.Tableau, "decide"),
    "find_model": (alcqisat, "find_model"),
}
before = {key: getattr(owner, name) for key, (owner, name) in seams.items()}
layers = Layers(Sampler())
layers.install()
unwrapped = [key for key, (owner, name) in seams.items() if getattr(owner, name) is before[key]]
traced = run(problems)
traced_searches = search(searches)
print(json.dumps({
    "unwrapped": unwrapped,
    "untraced": untraced,
    "traced": traced,
    "untraced_searches": untraced_searches,
    "traced_searches": traced_searches,
    "counts": dict(layers.counts),
}))
"""


def run_traced() -> dict:
    src = Path(alcqisat.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(BENCH)]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracing_wraps_every_seam_and_keeps_verdicts():
    result = run_traced()
    assert result["unwrapped"] == []
    assert len(result["traced"]) == 40
    assert result["traced"] == result["untraced"]
    assert len(result["traced_searches"]) == 20
    assert result["traced_searches"] == result["untraced_searches"]
    counts = result["counts"]
    for key in (
        "lii.builds",
        "lii.atoms",
        "lii.zeroed_columns",
        "lii.solves",
        "engine.nogood_lookups",
        "branch.enumerate_calls",
        "oracle.searches",
    ):
        assert counts.get(key, 0) > 0, key
