"""Exploration-phase sample collection and the importance-sampling mixture.

One collection pass produces the frozen inputs to value iteration: a belief
set ``B`` grown by simulating random transitions from already-collected
beliefs, the sojourn-time samples ``C`` observed along the way, and mixture
weights ``w(s, a, s')`` recording which transition produced each time. ``B``
grows in generations, and is still Perseus's random exploration from ``xi_0``
(Spaan & Vlassis, JAIR 2005): the order in which its tree grows is not part
of the method. The mixture density ``D`` built from those weights is the
proposal shared by every transition in the importance-sampled backup; it is
summed from the per-action density blocks that the solver's cache also groups.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .belief import condition, predict_with_time
from .distributions import draw_rows
# Kept as names of this module: bench/tracer.py wraps the filter here.
from .belief import observation_time_likelihood, update_with_time  # noqa: F401

__all__ = ["SampleBank", "collect", "mixture_density", "bank_to_dict", "save_bank"]


@dataclass(frozen=True)
class SampleBank:
    beliefs: np.ndarray  # [b, s]; the multiset B (duplicates kept)
    times: np.ndarray  # sojourn-time samples C, in collection order
    origins: np.ndarray  # [len(C), 3] int (s, a, s') per sample
    weights: np.ndarray  # [s, a, s'] empirical origin distribution
    seed: int

    @property
    def n_samples(self) -> int:
        return len(self.times)


def collect(model, n: int, seed: int) -> SampleBank:
    """Grow a belief set of size ``n`` by random exploration from xi_0.

    Each generation picks ``m = min(|B|, n - |B|)`` beliefs uniformly from B
    as it stood when the generation began, and draws for all of them at once,
    in order: picks, states, actions uniform among the admissible, successors,
    times (``sample(rng, count)`` per distinct ``(s, a, s')``, sorted) and one
    uniform per pick for its observation. Each action's rows are filtered as
    one block; results are appended in pick order.
    """
    if n < 1:
        raise ValueError(f"belief count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    beliefs = np.tile(model.initial_belief, (n, 1))
    times, origins = np.empty(n - 1), np.empty((n - 1, 3), dtype=int)
    for size in 2 ** np.arange(int(n - 1).bit_length()):  # |B| = 1, 2, 4, ...
        m = min(size, n - size)
        xi = beliefs[rng.integers(size, size=m)]
        s = draw_rows(np.cumsum(xi, axis=1), rng.random(m))
        adm = model.admissible[s]  # the action is the k-th admissible one, k uniform
        a = (np.cumsum(adm, axis=1) <= rng.integers(adm.sum(axis=1))[:, None]).sum(axis=1)
        s2 = draw_rows(model.transition_cdf[s, a], rng.random(m))
        origins[size - 1:size - 1 + m] = key = np.stack([s, a, s2], axis=1)
        laws, which, counts = np.unique(key, axis=0, return_inverse=True, return_counts=True)
        tau = times[size - 1:size - 1 + m]  # a view: the draws land in times
        tau[np.argsort(which.ravel(), kind="stable")] = np.concatenate(
            [model.sojourn[tuple(law)].sample(rng, c) for law, c in zip(laws.tolist(), counts)])
        u = rng.random(m)
        for act in np.unique(a):
            rows = np.flatnonzero(a == act)
            predicted = predict_with_time(model, xi[rows], act, tau[rows])
            masses = predicted @ model.observation_kernel[act]
            o = draw_rows(np.cumsum(masses / masses.sum(axis=1, keepdims=True), axis=1), u[rows])
            beliefs[size + rows] = condition(model, predicted, act, o, tau[rows])
    counts = np.zeros(model.transition.shape)
    np.add.at(counts, tuple(origins.T), 1)
    return SampleBank(beliefs, times, origins, counts / max(n - 1, 1), seed)


def mixture_density(bank: SampleBank, model, tau):
    """Proposal density D(tau) = sum over transitions of w * f.

    ``f`` is the mixed-measure density of
    :meth:`~posmdp.model.PosmdpModel.sojourn_density_samples`, so at an atom
    point only atom components contribute and elsewhere only continuous ones;
    scalar or array ``tau``, each distinct time evaluated once.
    """
    taus, inverse = np.unique(np.atleast_1d(np.asarray(tau, dtype=float)), return_inverse=True)
    blocks = [model.sojourn_density_samples(a, taus) for a in range(model.n_actions)]
    out = _mixture_from_blocks(bank.weights, blocks)[inverse]
    return out if np.ndim(tau) else float(out[0])


def _mixture_from_blocks(weights, blocks):
    """D at the times of per-action ``[tau, s, s']`` density ``blocks``: the terms
    ``w f`` of the cells with ``w != 0``, summed from zero left to right in ``(s,
    a, s')`` order (``np.sum`` would pair them and change D in its last bits)."""
    f = np.stack(blocks, axis=2).reshape(len(blocks[0]), weights.size)  # [tau, s a s']
    live = weights.ravel() != 0.0
    terms = np.hstack([np.zeros((len(f), 1)), f[:, live] * weights.ravel()[live]])
    return np.cumsum(terms, axis=1)[:, -1]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def bank_to_dict(bank: SampleBank) -> dict:
    return {
        "seed": bank.seed,
        "beliefs": bank.beliefs.tolist(),
        "times": bank.times.tolist(),
        "origins": bank.origins.tolist(),
        "weights": bank.weights.tolist(),
    }


def save_bank(bank: SampleBank, path) -> None:
    """Write ``bank`` as JSON, for inspection: the package does not read it back."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bank_to_dict(bank), fh)
        fh.write("\n")
