"""Per-layer self time and counts, measured from outside the library.

`Layers.install()` replaces the names `alcqisat.engine` imports from the
other modules, the `NogoodStore`/`Tableau` methods and the public
`alcqisat.find_model` with wrappers that time each call.  A wrapper's self
time is its duration minus the time its wrapped callees took and the time
the workload's reference sampler interrupted it.  Calls are
aggregated into per-layer totals, never kept one span each, so memory stays
bounded however many calls a run makes.  Only the traced workload process
installs them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

import alcqisat
import alcqisat.engine as engine
from alcqisat import Interpretation, OracleLimitError, SolverLimitError


class Layers:
    def __init__(self, sampler):
        self.sampler = sampler  # its `total` counts seconds spent sampling
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.max_lambda = 0
        self._stack = [0.0]  # wrapped-callee time of each open call

    def snapshot(self) -> tuple:
        return dict(self.seconds), Counter(self.counts), self.max_lambda

    def restore(self, snap: tuple) -> None:
        """Drop everything recorded since snapshot()."""
        seconds, counts, self.max_lambda = snap
        self.seconds = defaultdict(float, seconds)
        self.counts.clear()
        self.counts.update(counts)

    def reset_stack(self) -> None:
        """Drop open calls; a timeout can leave some unclosed."""
        self._stack = [0.0]

    def _timed(self, bucket: str, fn, *args, **kwargs):
        stack = self._stack
        stack.append(0.0)
        sampler = self.sampler
        sampled = sampler.total
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start - (sampler.total - sampled)
            self.seconds[bucket] += elapsed - stack.pop()
            stack[-1] += elapsed

    def _wrap(self, bucket: str, fn, count: str | None = None):
        def wrapper(*args):
            if count is not None:
                self.counts[count] += 1
            return self._timed(bucket, fn, *args)

        return wrapper

    def install(self) -> None:
        wrap = self._wrap
        engine.fine_tune = wrap("branch.support", engine.fine_tune)
        engine.primitive_clash = wrap("branch.support", engine.primitive_clash)
        engine.cut_set_for_child = wrap("branch.support", engine.cut_set_for_child)
        engine.enumerate_branches = self._branches(engine.enumerate_branches)
        engine.collect_fillers = wrap("lii.build", engine.collect_fillers)
        engine.atomic_decomposition = self._atoms(engine.atomic_decomposition)
        engine.build_lii = wrap("lii.build", engine.build_lii, "lii.builds")
        engine.zero_column = wrap("lii.solve", engine.zero_column, "lii.zeroed_columns")
        engine.feasible = self._feasible(engine.feasible)
        store = engine.NogoodStore
        store.hit = wrap("engine.nogood", store.hit)
        store.hit_wildcard = self._lookup(store.hit_wildcard)
        store.hit_exact = self._lookup(store.hit_exact)
        store.add = self._add(store.add)
        engine.Tableau.decide = wrap("engine.decide", engine.Tableau.decide)
        alcqisat.find_model = self._find_model(alcqisat.find_model)

    # -- wrappers that also count outcomes -----------------------------------

    def _branches(self, fn):
        def wrapper(label):
            self.counts["branch.enumerate_calls"] += 1
            return self._walk(self._timed("branch.enumerate", fn, label))

        return wrapper

    def _walk(self, branches):
        # each next() is the DNF walk itself; time it as the enumerator's
        while True:
            try:
                branch = self._timed("branch.enumerate", next, branches)
            except StopIteration:
                return
            self.counts["branch.branches_yielded"] += 1
            yield branch

    def _atoms(self, fn):
        def wrapper(fillers, *rest):
            atoms = self._timed("lii.build", fn, fillers, *rest)
            self.counts["lii.atoms"] += len(atoms)
            self.max_lambda = max(self.max_lambda, len(fillers))
            return atoms

        return wrapper

    def _feasible(self, fn):
        def wrapper(*args):
            self.counts["lii.solves"] += 1
            try:
                solution = self._timed("lii.solve", fn, *args)
            except SolverLimitError:
                self.counts["lii.solver_limit_hits"] += 1
                raise
            if solution is None:
                self.counts["lii.infeasible"] += 1
            return solution

        return wrapper

    def _lookup(self, fn):
        def wrapper(*args):
            self.counts["engine.nogood_lookups"] += 1
            found = self._timed("engine.nogood", fn, *args)
            if found is not None:
                self.counts["engine.nogood_hits"] += 1
            return found

        return wrapper

    def _add(self, fn):
        def wrapper(*args):
            added = self._timed("engine.decide", fn, *args)
            if added:
                self.counts["engine.nogood_adds"] += 1
            return added

        return wrapper

    def _find_model(self, fn):
        def wrapper(*args, **kwargs):
            self.counts["oracle.searches"] += 1
            try:
                result = self._timed("oracle.search", fn, *args, **kwargs)
            except OracleLimitError:
                self.counts["oracle.refusals"] += 1
                raise
            if isinstance(result, Interpretation):
                self.counts["oracle.models_found"] += 1
            return result

        return wrapper
