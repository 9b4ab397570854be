"""Exploration-phase sample collection and the importance-sampling mixture.

One collection pass produces the frozen inputs to value iteration: a belief
set ``B`` grown by random transitions from already-collected beliefs (drawn
and filtered as in rollouts), the sojourn-time samples ``C`` observed along
the way, and mixture weights ``w(s, a, s')`` recording which transition
produced each time. ``B`` grows in generations, and is still Perseus's random
exploration from ``xi_0`` (Spaan & Vlassis, JAIR 2005): the order in which its
tree grows is not part of the method. The mixture density ``D`` of ``w``, the
proposal every transition shares in the importance-sampled backup, is summed
from the per-action density blocks that the solver's cache also groups.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .distributions import draw_rows
from .belief import update_with_time
# Kept as a name of this module: bench/tracer.py wraps it here.
from .belief import observation_time_likelihood  # noqa: F401

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
    as it stood when the generation began, then ``rng.random((m, 6))``: per
    pick, its hidden state ``s ~ xi``, its action (the ``floor(u * count)``-th
    admissible in ``s``) and the kernel's four. Given ``(xi, a, tau)``, ``s'``
    has the law of ``xi(s) P(s' | s, a) f(tau | s, a, s')`` summed over ``s``,
    so ``o ~ G(. | a, s')`` has the predictive law ``P(o | xi, a, tau)``.
    """
    if n < 1:
        raise ValueError(f"belief count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    beliefs = np.tile(model.initial_belief, (n, 1))
    times, origins = np.empty(n - 1), np.empty((n - 1, 3), dtype=int)
    for size in 2 ** np.arange(int(n - 1).bit_length()):  # |B| = 1, 2, 4, ...
        m = min(size, n - size)
        xi = beliefs[rng.integers(size, size=m)]
        u = rng.random((m, 6))
        s = draw_rows(np.cumsum(xi, axis=1), u[:, 0])
        adm = model.admissible[s]  # the action is the k-th admissible, k = floor(u * count)
        a = (np.cumsum(adm, axis=1) <= u[:, 1:2] * adm.sum(axis=1, keepdims=True)).sum(axis=1)
        s2, tau, o = model.draw_transitions(s, a, u[:, 2:])
        rows = slice(size - 1, size - 1 + m)
        times[rows], origins[rows] = tau, np.stack([s, a, s2], axis=1)
        beliefs[size:size + m] = update_with_time(model, xi, a, tau, o)
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
    _, inverse, _, density = mixture_blocks(bank, model, np.atleast_1d(tau))
    out = density[inverse]
    return out if np.ndim(tau) else float(out[0])


def mixture_blocks(bank: SampleBank, model, tau):
    """The distinct times ``taus`` of the array ``tau`` and its ``inverse`` map onto
    them, the per-action ``[tau, s, s']`` density blocks at ``taus`` and D there.

    D sums the terms ``w f`` of the cells with ``w != 0`` from zero left to
    right in ``(s, a, s')`` order (``np.sum`` would pair them and change D in
    its last bits).
    """
    taus, inverse = np.unique(np.asarray(tau, dtype=float), return_inverse=True)
    blocks = [model.sojourn_density_samples(a, taus) for a in range(model.n_actions)]
    f = np.stack(blocks, axis=2).reshape(taus.size, bank.weights.size)  # [tau, s a s']
    live = bank.weights.ravel() != 0.0
    terms = np.hstack([np.zeros((taus.size, 1)), f[:, live] * bank.weights.ravel()[live]])
    return taus, inverse, blocks, np.cumsum(terms, axis=1)[:, -1]


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
