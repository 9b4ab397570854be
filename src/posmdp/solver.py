"""Randomized point-based value iteration with importance-sampled backups.

The value function is a finite set of alpha vectors, each an |S|-dimensional
hyperplane tagged with the action whose backup produced it. A backup at one
belief replaces the sojourn-time integral in the Bellman operator with a
Monte Carlo sum over the collected time samples, reweighted by
``exp(-beta * tau_n) / D(tau_n)`` against the collection mixture ``D``. The
solver sees the sojourn laws only through their densities at the sampled
times: equal times share one term, and so do times whose ``[s, s']`` density
rows under an action are equal once each is divided by its largest entry (see
:class:`BackupCache`), which on models with one sojourn law per action leaves
one term per action.

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
maximizing projections. A single backup runs them on its one row; the
verification sweep runs them over every collected belief in chunks, and
assembles only rows whose score could beat the old value by epsilon (within
:data:`SCREEN_SLACK`) before applying the exact test.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from itertools import compress

import numpy as np

from .model import ModelFormatError, compute_stage_reward, model_hash
from .sampler import SampleBank, _mixture_from_blocks
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
        return (np.asarray(belief_matrix) @ self.matrix.T).max(axis=1)


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


class BackupCache:
    """Per-(model, bank) precomputation shared by every backup.

    Stores the bank's [b, s] belief matrix ``beliefs``, the stage rewards
    ``stage_reward`` and, per action, the importance weights ``kappa_a[g]`` of
    its sample *groups*, each group having an [s, s'] slice of
    ``P(s'|s,a) f(tau|s,a,s')``.

    One rule forms the groups. The density depends on a sample only through
    tau, so the bank's equal times come first, with summed factors
    ``exp(-beta tau_n) / D(tau_n) / |C|``, D being summed from the per-action
    ``[tau, s, s']`` density blocks, evaluated once at those times. Each such
    time's ``[s, s']`` density row under ``a`` is then divided by its largest entry,
    ``level(tau)``, and times whose scaled rows are equal share one group: its
    slice is ``P_a`` times that row and its weight ``sum kappa level(tau)``
    (groups in the order of their rows' bytes). This is exact: a backup takes,
    per group and observation, the argmax over alpha vectors of a linear
    score, which positive scaling leaves unchanged, and its contribution is
    linear in the slice. Every time at which one sojourn law, or one value on
    one support, is active thus folds into one group per support; other times
    keep a group each. Times with no density under ``a`` are dropped.

    The groups of all actions, concatenated, index ``k``. The cache stores the
    back-projection operator ``back[k o s, s'] = M_k[s, s'] G_a(k)[o, s']``,
    and ``weights[k o, a]``, which holds ``kappa_k`` where group ``k`` belongs
    to action ``a`` and 0 elsewhere, so one product with it sums each action's
    terms. It also keeps, for the last value function it was asked about, that
    function's back-projection (see :meth:`projection`) and its values on the
    beliefs (:meth:`values`), which every backup and pass against it read.
    """

    def __init__(self, model, bank: SampleBank):
        self.beliefs = bank.beliefs  # [b, s]
        self.stage_reward = compute_stage_reward(model).values  # [s, a]
        taus, inverse = np.unique(bank.times, return_inverse=True)
        blocks = [model.sojourn_density_samples(a, taus) for a in range(model.n_actions)]
        density = _mixture_from_blocks(bank.weights, blocks)[inverse]
        kappa_all = np.exp(-model.beta * bank.times) / density / max(bank.n_samples, 1)
        kappa_tau = np.bincount(inverse, kappa_all, taus.size)
        n_s = model.n_states
        shapes, self.kappa = [], []  # per action: [g, s s'] scaled rows, [g] weights
        for a in range(model.n_actions):
            f_vals = blocks[a].reshape(taus.size, n_s * n_s)
            level = f_vals.max(axis=1)
            live = level != 0  # not > 0: a NaN density must reach the backup and fail it
            rows = f_vals[live] / level[live, None]
            # Each row as one byte string, compared whole where np.unique(axis=0)
            # would compare it cell by cell.
            _, first, which = np.unique(rows.view(f"V{rows.itemsize * n_s * n_s}").ravel(),
                                        return_index=True, return_inverse=True)
            shapes.append(rows[first])
            self.kappa.append(np.bincount(which, kappa_tau[live] * level[live], first.size))
        group_action = np.repeat(np.arange(model.n_actions), [k.size for k in self.kappa])
        rows = np.concatenate(shapes).reshape(-1, n_s, n_s)
        # Gathered from [a, ...] views, so both are C-contiguous and so is back.
        slices = model.transition.transpose(1, 0, 2)[group_action] * rows  # [k, s, s']
        obs = model.observation_kernel.transpose(0, 2, 1)[group_action]  # [k, o, s']
        self.back = (slices[:, None] * obs[:, :, None]).reshape(-1, n_s)  # [k o s, s']
        # weights[k o, a]: kappa_k on the columns of action a's groups, else 0.
        self.weights = np.repeat(np.concatenate(self.kappa)[:, None] * (
            group_action[:, None] == np.arange(model.n_actions)), model.n_observations, axis=0)
        self.ko = np.arange(len(self.weights))
        self._kept = (None,)

    def projection(self, vf: ValueFunction) -> np.ndarray:
        """``proj[v, k o, s] = sum_s' back[k o s, s'] alpha_v[s']``, C-contiguous."""
        # One slot, keyed by ``vf`` itself (held, so its id cannot pass to another).
        if self._kept[0] is not vf:
            proj = (vf.matrix @ self.back.T).reshape(len(vf), len(self.ko), self.back.shape[1])
            self._kept = (vf, proj, vf.values_at(self.beliefs))
        return self._kept[1]

    def values(self, vf: ValueFunction) -> np.ndarray:
        """``vf.values_at(beliefs)``, kept with :meth:`projection`."""
        self.projection(vf)
        return self._kept[2]


# Elements of the largest block one chunk of a batched backup materializes:
# the [b, v, k o] scores and the [b, k o, s] gathered projections (1 MB of
# float64). Larger blocks were no faster on the built-in models; at 4 MB the
# maintenance solve used 1.6x its wall time in CPU, as BLAS split the products
# over threads, and its peak memory grew by 4 MB.
BACKUP_CHUNK_ELEMENTS = 1 << 17

# The sweep assembles a row only when its stage-1 value exceeds old + epsilon
# - slack, the slack being this share of max |R| + max |alpha|. Stage 1 and
# the assembled xi . alpha sum the same products in another order, and differ
# by about 2e-16 of that scale on the built-in models.
SCREEN_SLACK = 1e-9


def _score(model, xi: np.ndarray, proj: np.ndarray, cache: BackupCache):
    """Stage 1 for [r, s] beliefs: ``scores[r, v, k o] = xi . proj[v, k o]`` and action
    values ``q[r, a] = xi . R_a + sum_k kappa_k sum_o max_v scores`` (-inf if inadmissible)."""
    inadmissible = (xi > 0) @ ~model.admissible  # [r, a]
    if inadmissible.all(axis=1).any():
        raise ValueError("a belief's support has no commonly admissible action")
    scores = (xi @ proj.reshape(-1, proj.shape[2]).T).reshape(len(xi), *proj.shape[:2])
    q = xi @ cache.stage_reward + scores.max(axis=1) @ cache.weights
    q[inadmissible] = -np.inf
    return scores, q


def _assemble(proj: np.ndarray, scores: np.ndarray, best: np.ndarray, cache: BackupCache):
    """Stage 2: the [r, s] alpha vectors of actions ``best[r]``, gathered from the
    ``proj[v, k o]`` that win each row's ``scores[r, v, k o]``."""
    gathered = proj.reshape(-1, proj.shape[2]).take(  # [r, k o, s]
        scores.argmax(axis=1) * len(cache.ko) + cache.ko, axis=0)
    return cache.stage_reward[:, best].T + np.einsum("rk,rks->rs", cache.weights[:, best].T,
                                                     gathered)


def _backup_stages(model, vf: ValueFunction, beliefs: np.ndarray, cache: BackupCache,
                   floor: np.ndarray):
    """Return ``(value, action, rows, vectors)``: each row's best admissible action
    and its value, then the [r, s] alpha vectors of the rows whose value exceeds ``floor``."""
    beliefs = np.asarray(beliefs, dtype=float)
    proj = cache.projection(vf)  # [v, k o, s]
    n_v, n_ko, n_states = proj.shape
    value, action = np.empty(len(beliefs)), np.empty(len(beliefs), dtype=int)
    rows, vectors = [np.empty(0, dtype=int)], [np.empty((0, n_states))]
    chunk = max(1, BACKUP_CHUNK_ELEMENTS // max(n_ko * max(n_v, n_states), 1))
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


def _bellman_sweep(model, vf: ValueFunction, cache: BackupCache, epsilon: float):
    """Back up every collected belief once; return vectors improving > epsilon.

    A randomized pass can terminate with a tiny sup-norm change while large
    improvements are still available: one early backup may weakly cover every
    belief, ending the pass before the improvable ones are picked. The sweep
    certifies (or refutes) stability under backups at all of B.
    """
    belief_mat = cache.beliefs
    old = cache.values(vf)
    slack = SCREEN_SLACK * (np.abs(cache.stage_reward).max() + np.abs(vf.matrix).max())
    _, actions, rows, values = _backup_stages(model, vf, belief_mat, cache,
                                              old + epsilon - slack)
    improved = np.einsum("bs,bs->b", belief_mat[rows], values) > old[rows] + epsilon
    candidates, actions = values[improved], actions[rows[improved]]
    keep = _distinct(candidates)
    return [AlphaVector(vec, int(a)) for vec, a in zip(candidates[keep], actions[keep])]


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
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"policy file is not valid JSON: {exc}") from exc
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
            number = type(value) is int or (type(value) is float and math.isfinite(value))
            if not (type(value) is int if name in _TRACE_COUNTS else number):
                kind = "an integer" if name in _TRACE_COUNTS else "a finite number"
                raise ModelFormatError(f"policy field 'trace[{i}].{name}' must be {kind}, "
                                       f"got {value!r}")
    if not isinstance(doc["converged"], bool):
        raise ModelFormatError("policy field 'converged' must be true or false")
    return SolveResult(
        value_function=ValueFunction(vectors),
        trace=[IterationRecord(**rec) for rec in doc["trace"]],
        converged=doc["converged"],
    )


def _check_keys(obj, keys: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where} must be a JSON object")
    missing, unknown = sorted(keys - set(obj)), sorted(set(obj) - keys)
    if missing or unknown:
        raise ModelFormatError(f"{where}: missing keys {missing}, unknown keys {unknown}")


def _alpha_from_dict(rec, name: str, model) -> AlphaVector:
    _check_keys(rec, {"action", "values"}, f"policy field '{name}'")
    if rec["action"] not in model.actions:
        raise ModelFormatError(f"policy field '{name}.action': unknown action {rec['action']!r}")
    try:
        values = np.asarray(rec["values"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"policy field '{name}.values' is not a list of numbers") from exc
    if values.shape != (model.n_states,) or not np.all(np.isfinite(values)):
        raise ModelFormatError(f"policy field '{name}.values' must hold {model.n_states} "
                               f"finite numbers, got shape {values.shape}")
    return AlphaVector(values, model.actions.index(rec["action"]))
