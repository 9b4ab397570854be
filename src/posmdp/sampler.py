"""Exploration-phase sample collection and the importance-sampling mixture.

One collection pass produces the frozen inputs to value iteration: a belief
set ``B`` grown by simulating random transitions from already-collected
beliefs, the sojourn-time samples ``C`` observed along the way, and mixture
weights ``w(s, a, s')`` recording which transition produced each time. The
mixture density ``D`` built from those weights is the proposal shared by
every transition in the importance-sampled backup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .belief import condition, predict_with_time
# Kept as names of this module: bench/tracer.py wraps the filter here.
from .belief import observation_time_likelihood, update_with_time  # noqa: F401

__all__ = ["SampleBank", "collect", "mixture_density", "importance_ratio",
           "bank_to_dict", "bank_from_dict", "save_bank", "load_bank"]


@dataclass(frozen=True)
class SampleBank:
    beliefs: tuple  # tuple of 1-D arrays; the multiset B (duplicates kept)
    times: np.ndarray  # sojourn-time samples C, in collection order
    origins: np.ndarray  # [len(C), 3] int (s, a, s') per sample
    weights: np.ndarray  # [s, a, s'] empirical origin distribution
    seed: int

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def belief_matrix(self) -> np.ndarray:
        return np.stack(self.beliefs)

    def with_extra_beliefs(self, extra) -> "SampleBank":
        """Bank with additional belief points appended to B (C, w unchanged)."""
        extra = tuple(np.asarray(b, dtype=float) for b in extra)
        return replace(self, beliefs=self.beliefs + extra)


def _sample_index(rng: np.random.Generator, probabilities: np.ndarray) -> int:
    idx = int(np.searchsorted(np.cumsum(probabilities), rng.random()))
    return min(idx, len(probabilities) - 1)


def collect(model, n: int, seed: int) -> SampleBank:
    """Grow a belief set of size ``n`` by random exploration from xi_0.

    Each step picks a collected belief uniformly, simulates one transition
    (state from the belief, action uniform among admissible, successor from
    P, sojourn time from its law), records the time and its origin, draws an
    observation from the exact predictive distribution, and adds the updated
    belief to the set.
    """
    if n < 1:
        raise ValueError(f"belief count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    beliefs = [np.array(model.initial_belief, dtype=float)]
    times = []
    origins = []
    counts = np.zeros((model.n_states, model.n_actions, model.n_states))

    while len(beliefs) < n:
        xi = beliefs[rng.integers(len(beliefs))]
        s = _sample_index(rng, xi)
        admissible = np.flatnonzero(model.admissible[s])
        a = int(admissible[rng.integers(admissible.size)])
        s2 = _sample_index(rng, model.transition[s, a])
        tau = float(model.sojourn[(s, a, s2)].sample(rng))
        times.append(tau)
        origins.append((s, a, s2))
        counts[s, a, s2] += 1
        predicted = predict_with_time(model, xi, a, tau)
        masses = model.observation_kernel[a].T @ predicted
        o = _sample_index(rng, masses / float(masses.sum()))
        beliefs.append(condition(model, predicted, a, o, tau))

    total = counts.sum()
    weights = counts / total if total > 0 else counts
    return SampleBank(
        beliefs=tuple(beliefs),
        times=np.asarray(times, dtype=float),
        origins=np.asarray(origins, dtype=int).reshape(len(times), 3),
        weights=weights,
        seed=seed,
    )


def mixture_density(bank: SampleBank, model, tau):
    """Proposal density D(tau) = sum over transitions of w * f.

    Under the mixed base measure only atom components contribute at an atom
    point and only continuous components contribute elsewhere; scalar or
    array ``tau``.
    """
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    out = np.zeros_like(tau_arr)
    atom_mass = {}
    for (s, a, s2), w in np.ndenumerate(bank.weights):
        if w == 0.0:
            continue
        dist = model.sojourn[(s, a, s2)]
        if dist.atom is not None:
            atom_mass[dist.atom] = atom_mass.get(dist.atom, 0.0) + w
        else:
            out += w * dist.pdf(tau_arr)
    if model.atom_values:
        at_atom = np.isin(tau_arr, np.fromiter(model.atom_values, dtype=float))
        out[at_atom] = 0.0
        for value, mass in atom_mass.items():
            out[tau_arr == value] += mass
    return out if np.ndim(tau) else float(out[0])


def importance_ratio(bank: SampleBank, model, tau, beta: float):
    """exp(-beta * tau) / D(tau); finite at every collected sample."""
    return np.exp(-beta * np.asarray(tau, dtype=float)) / mixture_density(bank, model, tau)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def bank_to_dict(bank: SampleBank) -> dict:
    return {
        "seed": bank.seed,
        "beliefs": [b.tolist() for b in bank.beliefs],
        "times": bank.times.tolist(),
        "origins": bank.origins.tolist(),
        "weights": bank.weights.tolist(),
    }


def bank_from_dict(doc: dict) -> SampleBank:
    return SampleBank(
        beliefs=tuple(np.asarray(b, dtype=float) for b in doc["beliefs"]),
        times=np.asarray(doc["times"], dtype=float),
        origins=np.asarray(doc["origins"], dtype=int).reshape(len(doc["times"]), 3),
        weights=np.asarray(doc["weights"], dtype=float),
        seed=doc["seed"],
    )


def save_bank(bank: SampleBank, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bank_to_dict(bank), fh)
        fh.write("\n")


def load_bank(path) -> SampleBank:
    with open(path, "r", encoding="utf-8") as fh:
        return bank_from_dict(json.load(fh))
