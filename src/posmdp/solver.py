"""Randomized point-based value iteration with importance-sampled backups.

The value function is a finite set of alpha vectors, each an |S|-dimensional
hyperplane tagged with the action whose backup produced it. A backup at one
belief replaces the sojourn-time integral in the Bellman operator with a
Monte Carlo sum over the collected time samples, reweighted by
``exp(-beta * tau_n) / D(tau_n)`` against the collection mixture ``D``. The
solver sees the sojourn laws only through their densities at the sampled
times. One fold rule shrinks the sum (see :class:`BackupCache`): rows that are
equal once each is divided by its largest entry share one, and all-zero rows
go. Applied to the ``[s, s']`` density rows of an action's sampled times, it
leaves one group per action on models with one sojourn law per action;
applied to the (group, observation) terms of the operator, it lets
proportional terms share one, even across actions.

The outer loop backs up a shrinking random subset of the collected beliefs
until every one of them is improved, and repeats until the sup-norm change
over the belief set falls below a threshold. That randomized pass is
sequential, since each pick depends on the vectors found before it, but its
value function is fixed for the whole pass. So, as in Perseus and PBVI, the
cache back-projects every alpha vector through every sample group and
observation once per value function (:meth:`BackupCache.projection`) and
keeps that tensor with the value function's values on the belief set. A
backup is two stages: :func:`_score` gives every action's value from
``xi @ proj``, and :func:`_assemble` builds only the winner's vector from its
maximizing projections. A single backup runs them on its one row. The
verification sweep first rules out the collected beliefs that a one-step
upper bound (Hauskrecht's fast informed bound, read from the same tensor)
shows cannot improve by more than epsilon, runs the two stages over the rest
in chunks, and assembles only rows whose stage-1 value beats the old value by
more than epsilon.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from itertools import compress

import numpy as np

from .model import (ModelFormatError, _check_keys, _number, _read_json, compute_stage_reward,
                    model_hash)
from .sampler import SampleBank, mixture_blocks
# Kept as a name of this module: bench/tracer.py wraps it here.
from .sampler import mixture_density  # noqa: F401

__all__ = [
    "AlphaVector",
    "ValueFunction",
    "BackupCache",
    "InitialValueError",
    "initial_value_function",
    "constant_value_function",
    "conservative_value_function",
    "backup",
    "backup_beliefs",
    "perseus_update",
    "solve",
    "SolveResult",
    "IterationRecord",
    "PolicyMismatchError",
    "save_policy",
    "load_policy",
]

DUPLICATE_TOL = 1e-9


class InitialValueError(ValueError):
    """No finite uniform lower bound exists: an expected per-stage discount reaches 1."""


@dataclass(frozen=True)
class AlphaVector:
    values: np.ndarray  # [s]
    action: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if not np.isfinite(self.values).all():
            raise ValueError("alpha vector entries must be finite")


class ValueFunction:
    """Nonempty set of alpha vectors, held as ``matrix [v, s]`` and ``actions [v]``
    (iterating yields them as :class:`AlphaVector` rows); value is the max inner product."""

    def __init__(self, vectors):
        vectors = list(vectors)
        if not vectors:
            raise ValueError("value function needs at least one alpha vector")
        self.matrix = np.stack([v.values for v in vectors])
        self.actions = np.array([v.action for v in vectors])

    def __len__(self):
        return len(self.matrix)

    def __iter__(self):
        return (AlphaVector(row, int(a)) for row, a in zip(self.matrix, self.actions))

    def value_at(self, belief) -> float:
        return float(np.max(self.matrix @ np.asarray(belief, dtype=float)))

    def action_at(self, belief):
        """Greedy action at one belief, or per row of an [n, s] block; ties go to
        the lowest vector index (argmax returns the first max)."""
        return self.actions[np.argmax(np.asarray(belief, dtype=float) @ self.matrix.T, axis=-1)]

    def values_at(self, belief_matrix: np.ndarray) -> np.ndarray:
        # The max over v runs faster down the [v, b] rows of a contiguous copy.
        return np.ascontiguousarray((np.asarray(belief_matrix) @ self.matrix.T).T).max(axis=0)


def constant_value_function(model, value: float, action: int = 0) -> ValueFunction:
    """Single constant alpha vector, e.g. a hand-picked pessimistic bound."""
    return ValueFunction([AlphaVector(np.full(model.n_states, float(value)), action)])


def initial_value_function(model, bank: SampleBank) -> ValueFunction:
    """The start of :func:`solve` when no ``v0`` is given: :func:`conservative_value_function`.

    ``bank`` is unused: the start depends on the model alone. The name and
    signature stay because the benchmark (``bench/workloads.py``) starts its
    solves through it and ``bench/tracer.py`` wraps it.
    """
    return conservative_value_function(model)


def conservative_value_function(model) -> ValueFunction:
    """Uniform lower bound M / (1 - lambda) from the worst stage reward M.

    ``lambda`` is the true expected per-stage discount ``E[exp(-beta tau)]``,
    the smallest over the sojourn laws when M > 0 and the largest when M < 0,
    so the bound errs downward; it is 0 when M = 0, without reading any
    discount. Raises :class:`InitialValueError` when that discount reaches 1.
    """
    m_min = float(compute_stage_reward(model).values.min())
    if m_min == 0.0:
        return constant_value_function(model, 0.0)
    discounts = [d.expected_discount(model.beta) for d in set(model.sojourn.values())]
    lam = float(np.min(discounts) if m_min > 0 else np.max(discounts))
    if lam >= 1.0:
        raise InitialValueError(
            f"expected per-stage discount {lam:.6g} >= 1 (beta = 0 with nonzero rewards), "
            "so no finite uniform lower bound exists; give an explicit start with "
            "--initial-alpha or constant_value_function")
    return constant_value_function(model, m_min / (1.0 - lam))


def _fold(rows: np.ndarray, weights: np.ndarray):
    """Fold [n, m] nonnegative ``rows`` carrying [n, c] ``weights`` by the rule of
    :class:`BackupCache`: return the [g, m] shared rows, in the order of their
    bytes, and their [g, c] summed weights."""
    level = rows.max(axis=1)
    live = level != 0  # not > 0: a NaN row must reach the backup and fail it
    scaled = rows[live] / level[live, None]
    # Each row as one byte string, compared whole where np.unique(axis=0)
    # would compare it cell by cell.
    _, first, which = np.unique(scaled.view(f"V{scaled.itemsize * rows.shape[1]}").ravel(),
                                return_index=True, return_inverse=True)
    carried = weights[live] * level[live, None]
    return scaled[first], np.stack([np.bincount(which, w, first.size) for w in carried.T], 1)


class BackupCache:
    """Per-(model, bank) precomputation shared by every backup.

    Stores the bank's [b, s] belief matrix ``beliefs``, the stage rewards
    ``stage_reward`` and, per action, the importance weights ``kappa_a[g]`` of
    its sample *groups*, each group having an [s, s'] slice of
    ``P(s'|s,a) f(tau|s,a,s')``.

    One fold rule (:func:`_fold`), applied twice, shrinks the operator: each
    row is divided by its largest entry, its level; rows at level 0 go, and
    rows whose scaled bytes are equal share one, carrying the sum of level
    times weight. This is exact: a backup takes, per term, the argmax over
    alpha vectors of a linear score, which positive scaling leaves unchanged,
    and its contribution is linear in the term. It needs nonnegative entries,
    which densities, P and G have.

    The density depends on a sample only through tau, so the bank's equal
    times come first, with summed factors ``exp(-beta tau_n) / D(tau_n) / |C|``,
    D being summed from one ``[tau, s, a, s']`` density block, evaluated once
    at those times. The first fold takes the density rows of its ``[tau, s, s']``
    slice under ``a`` and their factors: each shared row is a group, with slice
    ``P_a`` times the row and weight ``kappa``. Every time at which one sojourn
    law, or one value on one support, is active thus folds into one group per
    support; other times keep a group each.

    The groups of all actions, concatenated, index ``k``; group ``k`` has the
    operator block ``M_k[s, s'] G_a(k)[o, s']``. The second fold takes its
    ``[s, s']`` matrices, one per (group, observation), each carrying
    ``kappa_k`` in its action's column. Its shared rows are the *terms*, indexed
    ``j``: the cache stores them as ``back[j s, s']`` and their weights as
    ``weights[j, a]``, so one product with it sums each action's terms. Terms
    proportional within an action (e.g. the observations of an action that
    leads to one state) or across actions (e.g. two actions with one P, G and
    atom law) share one. The cache also keeps, for the last value function it was asked
    about, that function's back-projection (see :meth:`projection`) and its
    values on the beliefs (:meth:`values`), which every backup and pass
    against it read.
    """

    def __init__(self, model, bank: SampleBank):
        self.beliefs = bank.beliefs  # [b, s]
        self.stage_reward = compute_stage_reward(model).values  # [s, a]
        taus, inverse, block, density = mixture_blocks(bank, model, bank.times)
        kappa_all = np.exp(-model.beta * bank.times) / density[inverse] / max(bank.n_samples, 1)
        kappa_tau = np.bincount(inverse, kappa_all, taus.size)[:, None]
        n_s, n_a = model.n_states, model.n_actions
        shapes, kappa = zip(*(_fold(block[:, :, a].reshape(taus.size, n_s * n_s), kappa_tau)
                              for a in range(n_a)))
        self.kappa = [k[:, 0] for k in kappa]
        group_action = np.repeat(np.arange(n_a), [k.size for k in self.kappa])
        rows = np.concatenate(shapes).reshape(-1, n_s, n_s)
        slices = model.transition.transpose(1, 0, 2)[group_action] * rows  # [k, s, s']
        obs = model.observation_kernel.transpose(0, 2, 1)[group_action]  # [k, o, s']
        op = np.multiply(slices[:, None], obs[:, :, None], order="C")  # [k, o, s, s']
        # Term (k, o) carries kappa_k in the column of group k's action.
        carried = np.concatenate(self.kappa)[:, None] * (group_action[:, None] == np.arange(n_a))
        back, self.weights = _fold(op.reshape(-1, n_s * n_s),
                                   np.repeat(carried, model.n_observations, axis=0))
        self.back = back.reshape(-1, n_s)  # [j s, s']
        self.terms = np.arange(len(self.weights))
        self._kept = (None,)

    def projection(self, vf: ValueFunction) -> np.ndarray:
        """``proj[v, j, s] = sum_s' back[j s, s'] alpha_v[s']``, C-contiguous."""
        # One slot, keyed by ``vf`` itself (held, so its id cannot pass to another).
        if self._kept[0] is not vf:
            proj = (vf.matrix @ self.back.T).reshape(len(vf), len(self.terms), self.back.shape[1])
            self._kept = (vf, proj, vf.values_at(self.beliefs))
        return self._kept[1]

    def values(self, vf: ValueFunction) -> np.ndarray:
        """``vf.values_at(beliefs)``, kept with :meth:`projection`."""
        self.projection(vf)
        return self._kept[2]


# Elements of the largest block one chunk of a batched backup materializes:
# the [b, v, j] scores and the [b, j, s] gathered projections (1 MB of
# float64). Larger blocks were no faster on the built-in models; at 4 MB the
# maintenance solve used 1.6x its wall time in CPU, as BLAS split the products
# over threads, and its peak memory grew by 4 MB.
BACKUP_CHUNK_ELEMENTS = 1 << 17

def _inadmissible(model, xi: np.ndarray) -> np.ndarray:
    """[r, a] mask of the actions inadmissible somewhere on each belief's support;
    raises when it leaves a belief no action."""
    inadmissible = (xi > 0) @ ~model.admissible
    if inadmissible.all(axis=1).any():
        raise ValueError("a belief's support has no commonly admissible action")
    return inadmissible


def _score(model, xi: np.ndarray, proj: np.ndarray, cache: BackupCache):
    """Stage 1 for [r, s] beliefs: ``scores[r, v, j] = xi . proj[v, j]`` and action
    values ``q[r, a] = xi . R_a + sum_j weights[j, a] max_v scores`` (-inf if inadmissible)."""
    inadmissible = _inadmissible(model, xi)  # [r, a]
    scores = (xi @ proj.reshape(-1, proj.shape[2]).T).reshape(len(xi), *proj.shape[:2])
    q = xi @ cache.stage_reward + scores.max(axis=1) @ cache.weights
    q[inadmissible] = -np.inf
    return scores, q


def _assemble(proj: np.ndarray, scores: np.ndarray, best: np.ndarray, cache: BackupCache):
    """Stage 2: the [r, s] alpha vectors of actions ``best[r]``, gathered from the
    ``proj[v, j]`` that win each row's ``scores[r, v, j]``."""
    gathered = proj.reshape(-1, proj.shape[2]).take(  # [r, j, s]
        scores.argmax(axis=1) * len(cache.terms) + cache.terms, axis=0)
    return cache.stage_reward[:, best].T + np.einsum("rk,rks->rs", cache.weights[:, best].T,
                                                     gathered)


def _backup_stages(model, vf: ValueFunction, beliefs: np.ndarray, cache: BackupCache,
                   floor: np.ndarray):
    """Return ``(value, action, rows, vectors)``: each row's best admissible action
    and its value, then the [r, s] alpha vectors of the rows whose value exceeds ``floor``."""
    beliefs = np.asarray(beliefs, dtype=float)
    proj = cache.projection(vf)  # [v, j, s]
    n_v, n_terms, n_states = proj.shape
    value, action = np.empty(len(beliefs)), np.empty(len(beliefs), dtype=int)
    rows, vectors = [np.empty(0, dtype=int)], [np.empty((0, n_states))]
    chunk = max(1, BACKUP_CHUNK_ELEMENTS // max(n_terms * max(n_v, n_states), 1))
    for lo in range(0, len(beliefs), chunk):
        scores, q = _score(model, beliefs[lo:lo + chunk], proj, cache)
        action[lo:lo + chunk] = best = q.argmax(axis=1)  # ties go to the lowest action
        value[lo:lo + chunk] = q[np.arange(len(q)), best]
        if (nan := np.isnan(value[lo:lo + chunk])).any():
            raise ValueError(f"the backup value of belief row {lo + nan.argmax()} is NaN")
        need = np.flatnonzero(value[lo:lo + chunk] > floor[lo:lo + chunk])
        vectors.append(_assemble(proj, scores[need], best[need], cache))
        rows.append(lo + need)
    return value, action, np.concatenate(rows), np.concatenate(vectors)


def backup_beliefs(model, vf: ValueFunction, beliefs: np.ndarray, cache: BackupCache):
    """Bellman backups at every row of an [n, s] belief matrix.

    Returns ``(values, actions)``: the [n, s] backed-up alpha vectors and the
    [n] actions that produced them. Each row maximizes over the actions
    admissible in every state of its support, with ties going to the lowest
    action. Beliefs are processed in chunks so the score tensor stays small."""
    _, actions, _, values = _backup_stages(model, vf, beliefs, cache,
                                           np.full(len(beliefs), -np.inf))
    return values, actions


def backup(model, vf: ValueFunction, cache: BackupCache, belief):
    """One Bellman backup at ``belief``: the one-row case of :func:`backup_beliefs`."""
    xi = np.asarray(belief, dtype=float)[None]
    proj = cache.projection(vf)
    scores, q = _score(model, xi, proj, cache)
    best = q.argmax(axis=1)
    if math.isnan(q[0, best[0]]):
        raise ValueError("the backup value of belief row 0 is NaN")
    return AlphaVector(_assemble(proj, scores, best, cache)[0], int(best[0]))


def _distinct(vectors: np.ndarray) -> np.ndarray:
    """Keep mask over the rows of [n, s] ``vectors``: a row is kept unless it lies
    within DUPLICATE_TOL of an earlier kept row."""
    near = np.ones((len(vectors), len(vectors)), dtype=bool)
    for column in vectors.T:  # [n, n] at a time, not [n, n, s]
        near &= np.abs(column[:, None] - column) <= DUPLICATE_TOL
    keep = []
    for row in near.tolist():
        keep.append(not any(compress(row, keep)))
    return np.array(keep, dtype=bool)


def perseus_update(model, vf: ValueFunction, cache: BackupCache,
                   rng: np.random.Generator) -> ValueFunction:
    """One randomized improvement pass over the collected beliefs.

    Repeatedly backs up a random not-yet-improved belief; if the backup does
    not improve that belief, the best old vector there is kept instead. The
    result improves (weakly) at every collected belief.
    """
    belief_mat = cache.beliefs
    old_values = cache.values(vf)
    remaining = np.arange(len(belief_mat))
    picks = []  # (vector, action)

    while remaining.size:
        j = rng.integers(remaining.size)
        xi = belief_mat[remaining[j]]
        alpha = backup(model, vf, cache, xi)
        pick = alpha.values, alpha.action
        if float(xi @ alpha.values) < old_values[remaining[j]]:
            best = int(np.argmax(vf.matrix @ xi))
            pick = vf.matrix[best], int(vf.actions[best])
        improved = belief_mat.take(remaining, axis=0) @ pick[0] >= old_values.take(remaining)
        # The picked belief is always settled (the guard above keeps its best
        # old vector), even if float summation order makes the sweep miss it.
        improved[j] = True
        remaining = remaining[~improved]
        picks.append(pick)
    keep = _distinct(np.array([vector for vector, _ in picks]))
    return ValueFunction([AlphaVector(*picks[i]) for i in np.flatnonzero(keep)])


@dataclass
class IterationRecord:
    iteration: int
    n_vectors: int
    residual: float
    min_improvement: float
    wall_time: float


@dataclass
class SolveResult:
    value_function: ValueFunction
    trace: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.trace)


# Relative rounding margin of the sweep's screen. Stage 1 and the one-step
# bound sum the same products in different orders, and about half of all
# sweep rows have a tight bound (stage 1 equals it to rounding). Over the
# sweeps of 36 maintenance solves (|B| = 700) and 8 bus solves (|B| = 1000),
# stage 1 exceeded the bound by at most 3.1e-16 and 1.1e-15 of the bound's
# magnitude; with this margin every sweep kept the decisions it makes unscreened.
SCREEN_MARGIN = 1e-12


def _bellman_sweep(model, vf: ValueFunction, cache: BackupCache, epsilon: float):
    """Back up every collected belief once; return vectors improving > epsilon.

    A randomized pass can terminate with a tiny sup-norm change while large
    improvements are still available: one early backup may weakly cover every
    belief, ending the pass before the improvable ones are picked. The sweep
    certifies (or refutes) stability under backups at all of B.

    Most beliefs do not improve, so a one-step upper bound screens them first
    (the fast informed bound, Hauskrecht 2000): taking each term's max over
    vectors entrywise, ``U[s, a] = R[s, a] + sum_j weights[j, a] max_v proj[v, j, s]``
    bounds every stage-1 value, ``q[r, a] <= xi_r . U[:, a]``, because weights
    and beliefs are nonnegative. Only rows whose bound is not below the floor
    by more than rounding go on to stage 1.
    """
    inadmissible = _inadmissible(model, cache.beliefs)
    floor = cache.values(vf) + epsilon
    bound = cache.stage_reward + cache.projection(vf).max(axis=0).T @ cache.weights  # [s, a]
    upper = cache.beliefs @ bound
    upper[inadmissible] = -np.inf
    # Not `>`: a NaN bound must reach stage 1, which names its row.
    kept = np.flatnonzero(~(upper.max(axis=1) <= floor - SCREEN_MARGIN * np.abs(floor)))
    _, actions, rows, values = _backup_stages(model, vf, cache.beliefs[kept], cache, floor[kept])
    keep = _distinct(values)
    return [AlphaVector(vec, int(a)) for vec, a in zip(values[keep], actions[rows[keep]])]


def solve(model, bank: SampleBank, v0: ValueFunction = None, epsilon: float = None,
          max_iters: int = 500, seed: int = 0) -> SolveResult:
    """Iterate randomized updates until the value is stable on B.

    Convergence requires both a sup-norm change below ``epsilon`` across one
    randomized pass and a verification sweep showing no single backup at any
    collected belief improves it by more than ``epsilon``; improving vectors
    found by the sweep are folded in and iteration continues. Non-convergence
    within ``max_iters`` is reported on the result, not raised. The default
    ``v0`` is :func:`conservative_value_function`, and the default epsilon
    scales with the largest stage-reward magnitude.
    """
    start = time.perf_counter()
    cache = BackupCache(model, bank)
    if epsilon is None:
        epsilon = 1e-4 * max(np.abs(cache.stage_reward).max(), 1.0)
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    rng = np.random.default_rng(seed)
    vf = v0 if v0 is not None else conservative_value_function(model)
    values = cache.values(vf)

    result = SolveResult(value_function=vf)
    for iteration in range(1, max_iters + 1):
        vf = perseus_update(model, vf, cache, rng)
        new_values = cache.values(vf)
        diffs = new_values - values
        record = IterationRecord(
            iteration=iteration,
            n_vectors=len(vf),
            residual=float(np.max(np.abs(diffs))),
            min_improvement=float(diffs.min()),
            wall_time=0.0,
        )
        values = new_values
        if record.residual < epsilon:
            improving = _bellman_sweep(model, vf, cache, epsilon)
            if improving:
                vf = ValueFunction([*vf, *improving])
                values = cache.values(vf)
                record.residual = float(np.max(values - new_values))
                record.n_vectors = len(vf)
            else:
                result.converged = True
        result.value_function = vf
        # Records tile the solve's time; the first one also carries the set-up.
        now = time.perf_counter()
        record.wall_time, start = now - start, now
        result.trace.append(record)
        if result.converged:
            break
    return result


# ---------------------------------------------------------------------------
# Policy files
# ---------------------------------------------------------------------------

class PolicyMismatchError(ValueError):
    """The policy file was solved against a different model."""


_POLICY_KEYS = {"model_hash", "converged", "vectors", "trace"}
_TRACE_KEYS = {f.name for f in fields(IterationRecord)}
_TRACE_COUNTS = {"iteration", "n_vectors"}


def save_policy(result: SolveResult, model, path) -> None:
    doc = {
        "model_hash": model_hash(model),
        "converged": result.converged,
        "vectors": [{"action": model.actions[a], "values": row} for a, row in zip(
            result.value_function.actions.tolist(), result.value_function.matrix.tolist())],
        "trace": [dict(vars(rec)) for rec in result.trace],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_policy(path, model) -> SolveResult:
    """Read a policy file written by :func:`save_policy` for ``model``.

    Raises :class:`PolicyMismatchError` when it was solved against another
    model, and :class:`~posmdp.model.ModelFormatError`, naming the field, when
    the file is malformed.
    """
    doc = _read_json(path, "policy file")
    _check_keys(doc, _POLICY_KEYS, "policy file")
    if doc["model_hash"] != model_hash(model):
        raise PolicyMismatchError(
            "policy file model hash does not match the supplied model"
        )
    if not isinstance(doc["vectors"], list) or not doc["vectors"]:
        raise ModelFormatError("policy field 'vectors' must be a nonempty list")
    vectors = [_alpha_from_dict(rec, f"vectors[{i}]", model)
               for i, rec in enumerate(doc["vectors"])]
    if not isinstance(doc["trace"], list):
        raise ModelFormatError("policy field 'trace' must be a list")
    for i, rec in enumerate(doc["trace"]):
        _check_keys(rec, _TRACE_KEYS, f"policy field 'trace[{i}]'")
        for name, value in rec.items():
            _number(value, f"policy field 'trace[{i}].{name}'", integer=name in _TRACE_COUNTS)
    if not isinstance(doc["converged"], bool):
        raise ModelFormatError("policy field 'converged' must be true or false")
    return SolveResult(
        value_function=ValueFunction(vectors),
        trace=[IterationRecord(**rec) for rec in doc["trace"]],
        converged=doc["converged"],
    )


def _alpha_from_dict(rec, name: str, model) -> AlphaVector:
    _check_keys(rec, {"action", "values"}, f"policy field '{name}'")
    if rec["action"] not in model.actions:
        raise ModelFormatError(f"policy field '{name}.action': unknown action {rec['action']!r}")
    values = rec["values"]
    if not (isinstance(values, list) and len(values) == model.n_states):
        raise ModelFormatError(f"policy field '{name}.values' must be a list of "
                               f"{model.n_states} numbers")
    values = [_number(v, f"policy field '{name}.values[{i}]'") for i, v in enumerate(values)]
    return AlphaVector(values, model.actions.index(rec["action"]))
