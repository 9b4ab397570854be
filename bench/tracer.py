"""Span recorder for the traced benchmark run, installed from outside posmdp.

Each wrapper replaces the attribute that a caller looks up at call time (for
example ``posmdp.solver.backup``, which ``perseus_update`` and the
verification sweep both call through the ``solver`` module's globals), so no
file of the package changes. A span records its name, its start and end on
the tracer's clock and the span that was open when it started. Spans are
kept in memory as flat columns and written out when the run ends.

Some wrappers run a hook after their call (to count useful backups, say).
The tracer's clock is ``time.perf_counter`` stopped while a hook runs, so a
hook's work is charged to no span: not to the wrapped name, not to the spans
still open around it, and not to the root span.

The verification sweep is private to ``solve`` and is not wrapped: a sweep
backup is therefore a ``solver.backup`` span whose parent is ``solver.solve``,
while a backup made by a randomized pass has ``solver.perseus_update`` as its
parent.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

# Span names of the layers that are not the solver; their self time is the
# filter and sampling work a solve or rollout pays outside the backups.
FILTER_LAYERS = ("sampler.", "belief.", "model.", "distributions.")


class Tracer:
    """In-memory span store; records only inside :meth:`root`."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.useful = {}  # backup span id -> did the backup improve its belief
        self._epsilon = {}  # id(model) -> solve's default convergence threshold
        self.cache_groups = []  # sample groups per BackupCache build
        self.collected = 0  # beliefs returned by collect
        self.unaccounted = []  # per solve: wall time minus the summed trace
        self._stack = []
        self._hook_s = 0.0  # seconds spent in hooks, taken off the clock
        self._patches = []
        self.active = False

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _now(self) -> float:
        return time.perf_counter() - self._hook_s

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(self._now())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = self._now()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """Record spans only while this block runs, under one root span."""
        self.active = True
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)
            self.active = False

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(sid, args, kwargs, result, hidden_s)``
        runs once the span has closed, with the clock stopped. ``hidden_s`` is
        the hook time that ran inside the call and is missing from its span."""
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            hooks_before = self._hook_s
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                hook_start = time.perf_counter()
                after(sid, args, kwargs, result, self._hook_s - hooks_before)
                self._hook_s += time.perf_counter() - hook_start
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    # -- hooks that read a call's arguments and result ------------------------

    def _after_backup(self, sid, args, kwargs, alpha, hidden_s):
        """A backup is useful when it raises its belief's value by more than
        the threshold ``solve`` uses by default to call a change an improvement."""
        from posmdp.model import compute_stage_reward

        model, vf = args[0], args[1]
        belief = np.asarray(args[3] if len(args) > 3 else kwargs["belief"], dtype=float)
        if id(model) not in self._epsilon:
            largest = np.abs(compute_stage_reward(model).values).max()
            self._epsilon[id(model)] = 1e-4 * max(largest, 1.0)
        gain = float(belief @ alpha.values) - vf.value_at(belief)
        self.useful[sid] = gain > self._epsilon[id(model)]

    def _after_cache(self, sid, args, kwargs, result, hidden_s):
        self.cache_groups.append(sum(k.size for k in args[0].kappa))

    def _after_collect(self, sid, args, kwargs, bank, hidden_s):
        self.collected += len(bank.beliefs)

    def _after_solve(self, sid, args, kwargs, result, hidden_s):
        # The solve's own trace was timed on a clock that ran during hooks.
        wall = self.end[sid] - self.start[sid] + hidden_s
        self.unaccounted.append(wall - sum(rec.wall_time for rec in result.trace))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        from posmdp import model, sampler, simulator, solver

        self._patch(model, "mixed_density", "distributions.mixed_density")
        self._patch(model.PosmdpModel, "sojourn_density_matrix", "model.sojourn_density_matrix")
        self._patch(model.PosmdpModel, "sojourn_density_samples", "model.sojourn_density_samples")
        self._patch(sampler, "update_with_time", "belief.update_with_time")
        self._patch(simulator, "update_with_time", "belief.update_with_time")
        self._patch(sampler, "observation_time_likelihood", "belief.observation_time_likelihood")
        self._patch(sampler, "collect", "sampler.collect", self._after_collect)
        self._patch(solver, "mixture_density", "sampler.mixture_density")
        self._patch(solver, "backup", "solver.backup", self._after_backup)
        self._patch(solver, "perseus_update", "solver.perseus_update")
        self._patch(solver, "solve", "solver.solve", self._after_solve)
        self._patch(solver, "initial_value_function", "solver.initial_value_function")
        self._patch(solver, "conservative_value_function", "solver.conservative_value_function")
        self._patch(solver, "save_policy", "solver.save_policy")
        self._patch(solver.BackupCache, "__init__", "solver.BackupCache", self._after_cache)
        self._patch(solver.ValueFunction, "action_at", "solver.ValueFunction.action_at")
        self._patch(simulator, "step", "simulator.step")
        self._patch(simulator, "rollout", "simulator.rollout")
        self._patch(simulator, "evaluate", "simulator.evaluate")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def columns(self):
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        return name, parent, start, end

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children. Also returns the sweep backups (``solver.backup`` spans
        directly under ``solver.solve``) as ``solver.sweep``.
        """
        name, parent, start, end = self.columns()
        n = name.size
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=n)
        self_time = duration - children
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=duration, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        out = {
            label: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, label in enumerate(self.names)
        }
        parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
        sweep = (name == self._ids["solver.backup"]) & (parent_name == self._ids["solver.solve"])
        out["solver.sweep"] = {"calls": int(sweep.sum()), "s": float(duration[sweep].sum()),
                               "self_s": float(self_time[sweep].sum())}
        out["filter_layers"] = {
            "s": float(sum(v["self_s"] for key, v in out.items() if key.startswith(FILTER_LAYERS)))
        }
        return out

    def write(self, path) -> None:
        name, parent, start, end = self.columns()
        useful_ids = np.fromiter(self.useful.keys(), dtype=np.int64, count=len(self.useful))
        useful = np.fromiter(self.useful.values(), dtype=bool, count=len(self.useful))
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, end=end, backup_span=useful_ids, backup_useful=useful)
