"""Freeze a workload's inputs and known answers into bench/answers/<name>.json.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 bench/freeze.py deep counting

Run once, at the commit whose verdicts become the reference; the benchmark
never recomputes these.  Each answer is two parts: the engine's verdict
(S, U, or F when it did not decide within FREEZE_CAP_S) and the model search
to the largest domain its budget and FREEZE_CAP_S allow ('m<size>' for the
first model found, 'n<size>' when none exists up to that size).  A model
means SAT.
Nothing is dropped or re-seeded: every generated instance gets an answer.
"""

from __future__ import annotations

import json
import sys

import corpora
from workload import ANSWERS, decide_instance, search_instance
from alcqisat import build_problem

FREEZE_CAP_S = 60.0
# largest signature any workload uses: deep has 4 atoms and 3 roles
SIGNATURE = {"max_atoms": 4, "max_roles": 3}


def known_answer(problem) -> str:
    verdict, _, _ = decide_instance(problem, FREEZE_CAP_S)
    verdict = verdict if verdict in ("S", "U") else "F"
    answer = "n0"
    for max_domain in (1, 2, 3):
        found, _, _ = search_instance(problem, FREEZE_CAP_S, max_domain, **SIGNATURE)
        if found[0] not in "mn":
            break  # capped: the last complete search stands
        answer = found
        if found[0] == "m" or int(found[1:]) < max_domain:
            break  # a model, or the budget stopped the search
    return verdict + answer


def freeze(workload: str) -> None:
    files = corpora.generate(workload)
    texts = [pf.to_text() for pf in files]
    answers = []
    for i, pf in enumerate(files):
        answers.append(known_answer(build_problem(pf.query, pf.tbox)))
        print(f"{workload} #{i}: {answers[-1]}", file=sys.stderr, flush=True)
    entry = {"digest": corpora.digest(texts), "answers": answers}
    ANSWERS.mkdir(exist_ok=True)
    (ANSWERS / f"{workload}.json").write_text(json.dumps(entry, indent=0) + "\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(corpora.COUNTS):
        freeze(name)
