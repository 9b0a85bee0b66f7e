"""The benchmark's frozen inputs: one problem-text corpus per workload.

- deep: a deeply nested profile.  It is bound by restarts, nogood lookups
  and the DNF walk; instances #64 and #106 never finish and stay in.
- counting: flat number restrictions with large bounds.  The LII solver does
  nearly all the work while branches and nogoods idle, which tests the claim
  that verdicts do not degrade with large numbers.
- oracle: the bounded model search over the test-suite corpus.  It shares
  no code with the engine.

Every corpus is a fixed list of problem texts.  bench/answers/<name>.json
holds a digest of the list and the known answer for every text; a run
refuses to time when a digest differs, so an edit to the generator or a
profile cannot silently change a workload.
"""

from __future__ import annotations

import hashlib
import random

from alcqisat import (
    AtLeast,
    AtMost,
    Atom,
    CorpusProfile,
    NegAtom,
    ProblemFile,
    Role,
    conj,
    generate_corpus,
)

TEST_SUITE_SEED = 20260809  # the acceptance tests' corpus seed
DEEP_SEED = 7
DEEP_PROFILE = CorpusProfile(max_depth=5, max_bound=5, max_roles=3, max_atoms=4, max_gcis=3)
COUNTING_SEED = 20261017
COUNTING_MAX_BOUND = 10

# instance counts: oracle and counting passes take about four and eight
# seconds on a 2-core x86 VM; deep keeps the profile's historical 150; the
# oracle's 200 are exactly the acceptance tests' corpus
COUNTS = {"counting": 300, "deep": 150, "oracle": 200}


def counting_corpus(seed: int, count: int, max_bound: int) -> list[ProblemFile]:
    """One conjunction of 3-6 number restrictions on R and (inv R) per
    instance, over 2-4 distinct propositional fillers with bounds up to
    max_bound.  No axioms and no nesting, so the successor arithmetic does
    nearly all the work."""
    rng = random.Random(seed)
    names = ("A0", "A1", "A2", "A3")
    literals = [Atom(n) for n in names] + [NegAtom(n) for n in names]
    out = []
    for _ in range(count):
        pool = rng.sample(literals, rng.randint(2, 4))
        parts = []
        for k in range(rng.randint(max(3, len(pool)), 6)):
            filler = pool[k] if k < len(pool) else rng.choice(pool)
            role = Role("R", inverted=rng.random() < 0.5)
            if rng.random() < 0.5:
                parts.append(AtLeast(rng.randint(1, max_bound), role, filler))
            else:
                parts.append(AtMost(rng.randint(0, max_bound), role, filler))
        out.append(ProblemFile(tbox=(), query=conj(parts)))
    return out


def generate(workload: str) -> list[ProblemFile]:
    count = COUNTS[workload]
    if workload == "oracle":
        return generate_corpus(seed=TEST_SUITE_SEED, count=count)
    if workload == "deep":
        return generate_corpus(seed=DEEP_SEED, count=count, profile=DEEP_PROFILE)
    if workload == "counting":
        return counting_corpus(COUNTING_SEED, count, COUNTING_MAX_BOUND)
    raise ValueError(f"unknown workload {workload!r}")


def digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()
