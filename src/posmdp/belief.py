"""Belief states and the sojourn-time-aware Bayesian update.

Beliefs are plain 1-D numpy probability vectors over the model's states.
The time-aware update conditions on the action taken, the observed sojourn
time, and the observation; the time-free variant marginalizes the sojourn
time out and reduces to the classic partially-observed update.

:func:`predict_with_time`, :func:`condition` and :func:`update_with_time`
also take an ``[n, s]`` block of beliefs that took the same action, with one
sojourn time and one observation per row; a 1-D belief is the one-row case.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ImpossibleEvidenceError",
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


def predict_with_time(model, belief, action: int, tau) -> np.ndarray:
    """Unnormalized successor weights after acting and waiting ``tau``.

    Returns the [s'] vector ``sum_s xi(s) P(s' | s, a) f(tau | s, a, s')``,
    the one sojourn-density evaluation that both the observation likelihood
    and the posterior are built from; for an [n, s] block and [n] times, the
    [n, s'] rows.
    """
    transition = model.transition[:, action, :]
    f = model.sojourn_density_samples(action, tau).reshape(np.shape(tau) + transition.shape)
    return (belief[..., None, :] @ (transition * f))[..., 0, :]


def condition(model, predicted, action: int, observation, tau=None) -> np.ndarray:
    """Posterior from predicted successor weights and one observation per row.

    Raises :class:`ImpossibleEvidenceError`, naming the first offending row's
    evidence, when some row has (numerically) zero likelihood; ``tau`` only
    labels that error.
    """
    numerator = model.observation_kernel[action][:, observation].T * predicted
    normalizer = numerator.sum(axis=-1, keepdims=True)
    impossible = np.flatnonzero(normalizer < UNDERFLOW_THRESHOLD)
    if impossible.size:
        row = impossible[0]
        raise ImpossibleEvidenceError(action, _row(tau, row), _row(observation, row))
    return numerator / normalizer


def _row(value, row):
    return value if value is None or np.ndim(value) == 0 else value[row]


def update_with_time(model, belief, action: int, tau, observation) -> np.ndarray:
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
