"""Belief states and the sojourn-time-aware Bayesian update.

Beliefs are plain 1-D numpy probability vectors over the model's states.
The time-aware update conditions on the action taken, the observed sojourn
time, and the observation; the time-free variant marginalizes the sojourn
time out and reduces to the classic partially-observed update.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ImpossibleEvidenceError",
    "validate_belief",
    "predict_with_time",
    "condition",
    "update_with_time",
    "update_without_time",
    "observation_time_likelihood",
]

UNDERFLOW_THRESHOLD = 1e-300


class ImpossibleEvidenceError(ValueError):
    """The observed (action, time, observation) triple has zero likelihood."""

    def __init__(self, action, tau, observation):
        self.action = action
        self.tau = tau
        self.observation = observation
        super().__init__(
            f"evidence (a={action}, tau={tau}, o={observation}) has zero likelihood "
            "under the model; the trace does not match the model"
        )


def validate_belief(belief, n_states: int) -> np.ndarray:
    belief = np.asarray(belief, dtype=float)
    if belief.shape != (n_states,):
        raise ValueError(f"belief must have shape ({n_states},), got {belief.shape}")
    if np.any(belief < 0) or abs(belief.sum() - 1.0) > 1e-12:
        raise ValueError("belief must be a probability vector summing to 1")
    return belief


def predict_with_time(model, belief, action: int, tau: float) -> np.ndarray:
    """Unnormalized successor weights after acting and waiting ``tau``.

    Returns the [s'] vector ``sum_s xi(s) P(s' | s, a) f(tau | s, a, s')``,
    the one sojourn-density evaluation that both the observation likelihood
    and the posterior are built from.
    """
    f = model.sojourn_density_matrix(action, tau)
    return belief @ (model.transition[:, action, :] * f)


def condition(model, predicted, action: int, observation: int, tau=None) -> np.ndarray:
    """Posterior from predicted successor weights and one observation.

    Raises :class:`ImpossibleEvidenceError` when the evidence has (numerically)
    zero likelihood; ``tau`` only labels that error.
    """
    numerator = model.observation_kernel[action, :, observation] * predicted
    normalizer = numerator.sum()
    if normalizer < UNDERFLOW_THRESHOLD:
        raise ImpossibleEvidenceError(action, tau, observation)
    return numerator / normalizer


def update_with_time(model, belief, action: int, tau: float, observation: int) -> np.ndarray:
    """Posterior over states after acting, waiting ``tau``, and observing.

    The posterior is proportional to
    ``G(o | a, s') * sum_s P(s' | s, a) f(tau | s, a, s') xi(s)``.
    """
    return condition(model, predict_with_time(model, belief, action, tau), action,
                     observation, tau)


def update_without_time(model, belief, action: int, observation: int) -> np.ndarray:
    """Posterior ignoring the sojourn time (the time-free ablation)."""
    return condition(model, belief @ model.transition[:, action, :], action, observation)


def observation_time_likelihood(model, belief, action: int, tau: float):
    """Unnormalized mass of each observation given (belief, action, tau).

    Returns ``(masses, total)`` where ``masses[o] = P(o | xi, a, tau)`` up to
    the common factor ``total``; ``masses[o]`` equals the normalizer of
    :func:`update_with_time` for the same arguments.
    """
    masses = model.observation_kernel[action].T @ predict_with_time(model, belief, action, tau)
    return masses, float(masses.sum())
