"""Randomized point-based value iteration with importance-sampled backups.

The value function is a finite set of alpha vectors, each an |S|-dimensional
hyperplane tagged with the action whose backup produced it. A backup at one
belief replaces the sojourn-time integral in the Bellman operator with a
Monte Carlo sum over the collected time samples, reweighted by
``exp(-beta * tau_n) / D(tau_n)`` against the collection mixture ``D``. Sampled
times whose density slices are proportional share one term (see
:class:`BackupCache`), which on models with one sojourn law per action leaves
one term per action.

The outer loop backs up a shrinking random subset of the collected beliefs
until every one of them is improved, and repeats until the sup-norm change
over the belief set falls below a threshold. That randomized pass is
sequential, since each pick depends on the vectors found before it. The
verification sweep that certifies convergence backs up every collected belief
at once, as one batched contraction over the belief matrix
(:func:`backup_beliefs`); a single backup is the one-row case of the same
kernel.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import compute_stage_reward, model_hash
from .sampler import SampleBank, mixture_density

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


class InitialValueError(RuntimeError):
    """The Theorem-style initial bound does not apply (discount ratio >= 1)."""


@dataclass(frozen=True)
class AlphaVector:
    values: np.ndarray  # [s]
    action: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("alpha vector entries must be finite")


class ValueFunction:
    """Nonempty set of alpha vectors; value is the max inner product."""

    def __init__(self, vectors):
        self.vectors = list(vectors)
        if not self.vectors:
            raise ValueError("value function needs at least one alpha vector")
        self._matrix = np.stack([v.values for v in self.vectors])
        self._actions = np.array([v.action for v in self.vectors])

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def actions(self) -> np.ndarray:
        return self._actions

    def value_at(self, belief) -> float:
        return float(np.max(self._matrix @ np.asarray(belief, dtype=float)))

    def action_at(self, belief) -> int:
        # Ties break to the lowest vector index (argmax returns the first max).
        return int(self._actions[np.argmax(self._matrix @ np.asarray(belief, dtype=float))])

    def values_at(self, belief_matrix: np.ndarray) -> np.ndarray:
        return (np.asarray(belief_matrix) @ self._matrix.T).max(axis=1)


def constant_value_function(model, value: float, action: int = 0) -> ValueFunction:
    """Single constant alpha vector, e.g. a hand-picked pessimistic bound."""
    return ValueFunction([AlphaVector(np.full(model.n_states, float(value)), action)])


def initial_value_function(model, bank: SampleBank) -> ValueFunction:
    """Uniform lower bound M / (1 - lambda) from the worst stage reward M.

    ``lambda`` is the extreme importance ratio over the collected samples
    (minimum when M >= 0, maximum when M < 0, so the bound errs downward).
    Raises :class:`InitialValueError` when that ratio reaches 1, in which
    case callers should supply an explicit pessimistic bound via
    :func:`constant_value_function` instead.
    """
    m_min = compute_stage_reward(model).minimum()
    if m_min == 0.0:
        return constant_value_function(model, 0.0)
    if bank.n_samples > 0:
        ratios = np.exp(-model.beta * bank.times) / mixture_density(bank, model, bank.times)
        lam = float(ratios.min() if m_min > 0 else ratios.max())
    else:
        discounts = [d.expected_discount(model.beta) for d in model.sojourn.values()]
        lam = min(discounts) if m_min > 0 else max(discounts)
    if lam >= 1.0:
        raise InitialValueError(
            f"extreme importance ratio {lam:.6g} >= 1; the closed-form initial bound "
            "does not apply. Pass an explicit pessimistic constant_value_function instead."
        )
    return constant_value_function(model, m_min / (1.0 - lam))


def conservative_value_function(model) -> ValueFunction:
    """Uniform bound M / (1 - lambda) using true expected per-stage discounts.

    Always applicable (every sojourn law has ``E[exp(-beta tau)] < 1`` when
    beta > 0), at the cost of being looser than the sample-based bound of
    :func:`initial_value_function`.
    """
    m_min = compute_stage_reward(model).minimum()
    if m_min == 0.0:
        return constant_value_function(model, 0.0)
    discounts = [d.expected_discount(model.beta) for d in model.sojourn.values()]
    lam = min(discounts) if m_min > 0 else max(discounts)
    if lam >= 1.0:
        raise InitialValueError(
            "expected per-stage discount reaches 1 (beta = 0 with nonzero rewards); "
            "no finite uniform bound exists."
        )
    return constant_value_function(model, m_min / (1.0 - lam))


class BackupCache:
    """Per-(model, bank) precomputation shared by every backup.

    Stores, per action, sample *groups*: [s, s'] slices ``M_a[g]`` of
    ``P(s'|s,a) f(tau|s,a,s')``, laid out as one [s, g, s'] array, with
    importance weights ``kappa_a[g]``, the factors
    ``exp(-beta tau_n) / D(tau_n) / |C|`` summed over the group.

    Samples with equal tau share one group: the density depends on a sample
    only through tau, so the thousands of repeats that atom-valued sojourn
    laws produce collapse exactly. Within an action, the triples are then
    split by sojourn law (dataclass equality). At a time where exactly one
    law ``d`` has nonzero density the slice is ``f_d(tau) P_a`` masked to
    ``d``'s cells, so all such times fold into one group per law, with slice
    ``P_a`` masked to ``d``'s cells and weight ``sum_g kappa_g f_d(tau_g)``.
    This is exact: a backup takes, per group and observation, the argmax over
    alpha vectors of a linear score, which positive scaling leaves unchanged,
    and its contribution is linear in the slice. Times at which two or more
    laws are active keep their own group.
    """

    def __init__(self, model, bank: SampleBank):
        self.model = model
        self.bank = bank
        self.stage_reward = compute_stage_reward(model).values  # [s, a]
        density = mixture_density(bank, model, bank.times)
        kappa_all = np.exp(-model.beta * bank.times) / density / max(bank.n_samples, 1)
        unique_taus, inverse = np.unique(bank.times, return_inverse=True)
        kappa_grouped = np.zeros(unique_taus.size)
        np.add.at(kappa_grouped, inverse, kappa_all)
        self.trans_sojourn = []  # per action: [s, g, s']
        self.kappa = []  # per action: [g]
        for a in range(model.n_actions):
            transition = model.transition[:, a, :]
            f_vals = model.sojourn_density_samples(a, unique_taus)  # [n, s, s']
            masks = _law_masks(model, a)  # [d, s, s']
            # f_d(tau) of each law, read at one of its cells: [d, n].
            cells = masks.reshape(len(masks), -1).argmax(axis=1)
            law_density = f_vals.reshape(unique_taus.size, -1)[:, cells].T
            active = law_density > 0
            n_active = active.sum(axis=0)
            slices, weights = [], []
            for mask, f_d, on in zip(masks, law_density, active):
                merge = on & (n_active == 1)
                if merge.any():
                    slices.append(transition * mask)
                    weights.append(kappa_grouped[merge] @ f_d[merge])
            keep = np.flatnonzero(n_active > 1)
            groups = np.concatenate([np.array(slices).reshape(-1, *transition.shape),
                                     transition[None] * f_vals[keep]])
            self.trans_sojourn.append(np.ascontiguousarray(groups.transpose(1, 0, 2)))
            self.kappa.append(np.concatenate([weights, kappa_grouped[keep]]))
        # G as [o, s'] per action for mixing with alpha vectors.
        self.obs = [model.observation_kernel[a].T.copy() for a in range(model.n_actions)]


def _law_masks(model, action: int) -> np.ndarray:
    """[d, s, s'] boolean cells of each distinct sojourn law under ``action``."""
    laws = {}
    for (s, a, s2), dist in model.sojourn.items():
        if a == action:
            laws.setdefault(dist, []).append((s, s2))
    masks = np.zeros((len(laws), model.n_states, model.n_states), dtype=bool)
    for mask, cells in zip(masks, laws.values()):
        mask[tuple(np.array(cells).T)] = True
    return masks


# Elements of the largest block one chunk of a batched backup materializes:
# the [b, g, o, v] scores and the [b, g, o, s'] chosen vectors (1 MB of
# float64). Larger blocks were no faster on the built-in models; at 4 MB the
# maintenance solve used 1.6x its wall time in CPU, as BLAS split the products
# over threads, and its peak memory grew by 4 MB.
BACKUP_CHUNK_ELEMENTS = 1 << 17


def backup_beliefs(model, vf: ValueFunction, beliefs: np.ndarray, cache: BackupCache):
    """Bellman backups at every row of an [n, s] belief matrix.

    Returns ``(values, actions)``: the [n, s] backed-up alpha vectors and the
    [n] actions that produced them. Each row maximizes over the actions
    admissible in every state of its support, with ties going to the lowest
    action. Beliefs are processed in chunks so the score tensor stays small.
    """
    beliefs = np.asarray(beliefs, dtype=float)
    n_beliefs, n_states = beliefs.shape
    # inadmissible[b, a]: some state in belief b's support forbids action a.
    inadmissible = ((beliefs > 0)[:, :, None] & ~model.admissible[None]).any(axis=1)
    if inadmissible.all(axis=1).any():
        raise ValueError("a belief's support has no commonly admissible action")
    alpha_mat = vf.matrix  # [v, s']
    n_v = alpha_mat.shape[0]
    n_obs = model.n_observations
    best_values = np.empty((n_beliefs, n_states))
    best_actions = np.empty(n_beliefs, dtype=int)
    best_score = np.full(n_beliefs, -np.inf)
    for a in range(model.n_actions):
        n_g = cache.kappa[a].size
        g_a = cache.obs[a]  # [o, s']
        mixed = g_a[:, None, :] * alpha_mat[None, :, :]  # [o, v, s']
        mixed_flat = mixed.reshape(n_obs * n_v, n_states)
        m_flat = cache.trans_sojourn[a].reshape(n_states, -1)  # [s, g s']
        chunk = max(1, BACKUP_CHUNK_ELEMENTS // max(n_g * n_obs * max(n_v, n_states), 1))
        for lo in range(0, n_beliefs, chunk):
            rows = slice(lo, lo + chunk)
            allowed = ~inadmissible[rows, a]
            if not allowed.any():
                continue
            xi = beliefs[rows]
            n_b = xi.shape[0]
            predicted = (xi @ m_flat).reshape(n_b * n_g, n_states)  # [b g, s']
            # score[b, g, o, v] = sum_s' predicted[b,g,s'] G[o,s'] alpha[v,s']
            scores = (predicted @ mixed_flat.T).reshape(n_b, n_g, n_obs, n_v)
            winners = scores.argmax(axis=3)  # [b, g, o]
            chosen = mixed[np.arange(n_obs), winners]  # [b, g, o, s']
            future = cache.kappa[a][:, None] * chosen.sum(axis=2)  # [b, g, s']
            alpha_a = cache.stage_reward[:, a] + future.reshape(n_b, n_g * n_states) @ m_flat.T
            score = np.einsum("bs,bs->b", xi, alpha_a)
            # Basic slices are views: these assignments write through. The
            # strict comparison keeps the lowest action on ties.
            better = allowed & (score > best_score[rows])
            best_score[rows][better] = score[better]
            best_values[rows][better] = alpha_a[better]
            best_actions[rows][better] = a
    return best_values, best_actions


def backup(model, vf: ValueFunction, bank: SampleBank, belief, cache: BackupCache = None):
    """One Bellman backup at ``belief`` using the sampled-time estimator."""
    if cache is None:
        cache = BackupCache(model, bank)
    values, actions = backup_beliefs(model, vf, np.asarray(belief, dtype=float)[None], cache)
    return AlphaVector(values[0], int(actions[0]))


def _is_duplicate(values: np.ndarray, collected: list) -> bool:
    return any(np.max(np.abs(values - other.values)) <= DUPLICATE_TOL for other in collected)


def perseus_update(model, vf: ValueFunction, bank: SampleBank,
                   rng: np.random.Generator, cache: BackupCache = None) -> ValueFunction:
    """One randomized improvement pass over the collected beliefs.

    Repeatedly backs up a random not-yet-improved belief; if the backup does
    not improve that belief, the best old vector there is kept instead. The
    result improves (weakly) at every collected belief.
    """
    if cache is None:
        cache = BackupCache(model, bank)
    belief_mat = bank.belief_matrix()
    old_values = vf.values_at(belief_mat)
    remaining = np.arange(len(belief_mat))
    new_vectors = []

    while remaining.size:
        pick = remaining[rng.integers(remaining.size)]
        xi = belief_mat[pick]
        alpha = backup(model, vf, bank, xi, cache)
        if float(xi @ alpha.values) < old_values[pick]:
            alpha = vf.vectors[int(np.argmax(vf.matrix @ xi))]
        improved = belief_mat[remaining] @ alpha.values >= old_values[remaining]
        # The picked belief is always settled (the guard above keeps its best
        # old vector), even if float summation order makes the sweep miss it.
        improved |= remaining == pick
        remaining = remaining[~improved]
        if not _is_duplicate(alpha.values, new_vectors):
            new_vectors.append(alpha)
    return ValueFunction(new_vectors)


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


def _bellman_sweep(model, vf: ValueFunction, bank: SampleBank,
                   cache: BackupCache, epsilon: float):
    """Back up every collected belief once; return vectors improving > epsilon.

    A randomized pass can terminate with a tiny sup-norm change while large
    improvements are still available: one early backup may weakly cover every
    belief, ending the pass before the improvable ones are picked. The sweep
    certifies (or refutes) stability under backups at all of B.
    """
    belief_mat = bank.belief_matrix()
    values, actions = backup_beliefs(model, vf, belief_mat, cache)
    improved = np.einsum("bs,bs->b", belief_mat, values) > vf.values_at(belief_mat) + epsilon
    improving = []
    for b in np.flatnonzero(improved):
        if not _is_duplicate(values[b], improving):
            improving.append(AlphaVector(values[b], int(actions[b])))
    return improving


def solve(model, bank: SampleBank, v0: ValueFunction = None, epsilon: float = None,
          max_iters: int = 500, seed: int = 0) -> SolveResult:
    """Iterate randomized updates until the value is stable on B.

    Convergence requires both a sup-norm change below ``epsilon`` across one
    randomized pass and a verification sweep showing no single backup at any
    collected belief improves it by more than ``epsilon``; improving vectors
    found by the sweep are folded in and iteration continues. Non-convergence
    within ``max_iters`` is reported on the result, not raised. The default
    epsilon scales with the largest stage-reward magnitude.
    """
    start = time.perf_counter()
    if epsilon is None:
        epsilon = 1e-4 * max(np.abs(compute_stage_reward(model).values).max(), 1.0)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    rng = np.random.default_rng(seed)
    cache = BackupCache(model, bank)
    vf = v0 if v0 is not None else initial_value_function(model, bank)
    belief_mat = bank.belief_matrix()
    values = vf.values_at(belief_mat)

    result = SolveResult(value_function=vf)
    for iteration in range(1, max_iters + 1):
        vf = perseus_update(model, vf, bank, rng, cache)
        new_values = vf.values_at(belief_mat)
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
            improving = _bellman_sweep(model, vf, bank, cache, epsilon)
            if improving:
                vf = ValueFunction(vf.vectors + improving)
                values = vf.values_at(belief_mat)
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


def save_policy(result: SolveResult, model, path) -> None:
    doc = {
        "model_hash": model_hash(model),
        "converged": result.converged,
        "vectors": [
            {"action": model.actions[v.action], "values": v.values.tolist()}
            for v in result.value_function
        ],
        "trace": [asdict(rec) for rec in result.trace],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_policy(path, model) -> SolveResult:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["model_hash"] != model_hash(model):
        raise PolicyMismatchError(
            "policy file model hash does not match the supplied model"
        )
    vectors = [
        AlphaVector(np.asarray(rec["values"], dtype=float), model.actions.index(rec["action"]))
        for rec in doc["vectors"]
    ]
    result = SolveResult(
        value_function=ValueFunction(vectors),
        trace=[IterationRecord(**rec) for rec in doc["trace"]],
        converged=doc["converged"],
    )
    return result
