"""Rollout harness: execute the model dynamics and score policies.

A rollout alternates the policy's greedy action, one sampled transition,
and the time-aware belief update, accumulating rewards discounted by the
elapsed continuous time. "Episodes" are independent restarts from the
initial belief; any episodic structure (such as a reset transition) lives
in the model itself, not here.

Episodes run in lockstep (:func:`run_episodes`): their beliefs form one
``[E, s]`` block, the greedy actions of all episodes come from one product
with the alpha-vector matrix, and each epoch makes one time-aware update per
action over the episodes that took it. Each episode still draws its initial
state, then ``(s', tau, o)`` per epoch, from its own generator in that order,
so its random stream does not depend on how many episodes run beside it.
:func:`rollout` is the one-episode case, with its history recorded.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .belief import update_with_time
from .distributions import draw_index

__all__ = [
    "HistoryRecord",
    "step",
    "run_episodes",
    "rollout",
    "evaluate",
    "write_trajectory",
]


@dataclass
class HistoryRecord:
    """Observable history of one rollout: (action, tau, observation) triples."""

    entries: list = field(default_factory=list)  # (action, tau, observation)
    beliefs: list = field(default_factory=list)  # belief after each entry
    rewards: list = field(default_factory=list)  # discounted contribution per entry
    cumulative_time: float = 0.0
    cumulative_discounted_reward: float = 0.0

    def append(self, action: int, tau: float, observation: int,
               belief: np.ndarray, discounted_reward: float) -> None:
        self.entries.append((action, tau, observation))
        self.beliefs.append(np.asarray(belief, dtype=float))
        self.rewards.append(discounted_reward)
        self.cumulative_time += tau
        self.cumulative_discounted_reward += discounted_reward

    def __len__(self) -> int:
        return len(self.entries)


def step(model, s: int, a: int, rng: np.random.Generator):
    """One transition: draw (s', tau, o) and the realized stage reward.

    The reward is the lump sum plus the rate component integrated over the
    realized sojourn, ``r1(s,a) + r2(s,a,s') (1 - exp(-beta tau)) / beta``
    (``r2 * tau`` when undiscounted), discounted to the start of the stage.
    """
    if not model.admissible[s, a]:
        raise ValueError(f"action {a} is not admissible in state {s}")
    s2 = draw_index(model.transition_cdf[s, a], rng)
    tau = float(model.sojourn[(s, a, s2)].sample(rng))
    o = draw_index(model.observation_cdf[a, s2], rng)
    rate = model.rate_reward[s, a, s2]
    if model.beta > 0:
        accrued = rate * (1.0 - math.exp(-model.beta * tau)) / model.beta
    else:
        accrued = rate * tau
    reward = float(model.lump_reward[s, a] + accrued)
    return s2, tau, o, reward


def run_episodes(model, value_function, xi0, epochs: int, rngs, histories=None) -> np.ndarray:
    """Run one episode per generator in ``rngs``, all in lockstep.

    Every episode starts from ``xi0``, with its hidden state drawn from it,
    and acts greedily under ``value_function`` (ties to the lowest vector
    index) for ``epochs`` stages; its belief is filtered from the (a, tau, o)
    stream it observes. Returns the [E] discounted returns. With
    ``histories``, one :class:`HistoryRecord` per episode, each stage is also
    recorded there.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    xi0 = np.asarray(xi0, dtype=float)
    start_cdf = np.cumsum(xi0)
    n = len(rngs)
    states = [draw_index(start_cdf, rng) for rng in rngs]
    xi = np.tile(xi0, (n, 1))
    returns = np.zeros(n)
    discount = np.ones(n)
    taus, rewards, decay = np.empty(n), np.empty(n), np.empty(n)
    observations = np.empty(n, dtype=int)
    for _ in range(epochs):
        actions = value_function.actions[np.argmax(xi @ value_function.matrix.T, axis=1)]
        for e, rng in enumerate(rngs):
            states[e], taus[e], observations[e], rewards[e] = step(
                model, states[e], int(actions[e]), rng)
            decay[e] = math.exp(-model.beta * taus[e])
        for a in np.unique(actions):
            rows = np.flatnonzero(actions == a)
            xi[rows] = update_with_time(model, xi[rows], int(a), taus[rows], observations[rows])
        gained = discount * rewards
        returns += gained
        discount *= decay
        for e, history in enumerate(histories or ()):
            history.append(int(actions[e]), float(taus[e]), int(observations[e]),
                           xi[e].copy(), float(gained[e]))
    return returns


def rollout(model, value_function, xi0, epochs: int, rng: np.random.Generator) -> HistoryRecord:
    """Run ``epochs`` decision stages greedily under ``value_function``.

    The one-episode case of :func:`run_episodes`. Returns the history; its
    cumulative discounted reward is the return estimate.
    """
    history = HistoryRecord()
    run_episodes(model, value_function, xi0, epochs, [rng], [history])
    return history


def evaluate(model, value_function, episodes: int, epochs: int, seed: int):
    """Mean discounted return and its standard error over independent rollouts.

    Episode generators are spawned from one seed sequence, so results are
    reproducible and independent of evaluation order. SE is ``None`` for a
    single episode.
    """
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    rngs = [np.random.default_rng(stream)
            for stream in np.random.SeedSequence(seed).spawn(episodes)]
    returns = run_episodes(model, value_function, model.initial_belief, epochs, rngs)
    mean = float(returns.mean())
    if episodes == 1:
        return mean, None
    se = float(returns.std(ddof=1) / math.sqrt(episodes))
    return mean, se


def write_trajectory(history: HistoryRecord, path, model) -> None:
    """Dump one rollout as CSV: epoch, action, tau, observation, belief, return."""
    header = ["epoch", "action", "tau", "observation"]
    header += [f"belief_{i + 1}" for i in range(model.n_states)]
    header += ["discounted_reward_so_far"]
    running = 0.0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for epoch, ((a, tau, o), belief, reward) in enumerate(
            zip(history.entries, history.beliefs, history.rewards), start=1
        ):
            running += reward
            row = [epoch, model.actions[a], repr(float(tau)), model.observations[o]]
            row += [repr(float(b)) for b in belief]
            row += [repr(float(running))]
            writer.writerow(row)
