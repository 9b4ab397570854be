"""Rollout harness: execute the model dynamics and score policies.

A rollout alternates the policy's greedy action, one transition from the
model's kernel (:meth:`~posmdp.model.PosmdpModel.draw_transitions`) and the
time-aware belief update, accumulating rewards discounted by the elapsed
continuous time. "Episodes" are independent restarts from the initial belief;
any episodic structure (such as a reset transition) lives in the model itself.

Episodes run in lockstep (:func:`run_episodes`) as one ``[E, s]`` belief
block: greedy actions, transitions, rewards and the belief update, each row
under its own action, are array operations. Each episode has a fixed budget
of uniforms from its own generator: one for its initial state, then the
kernel's four per epoch, drawn with one ``rng.random`` call per block of whole
epochs (at most ``DRAW_BLOCK`` uniforms over all episodes). A generator yields
its stream in order whatever the block, so an episode's path depends neither
on how many run beside it nor on epoch count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .belief import update_with_time
from .distributions import draw_rows

__all__ = [
    "HistoryRecord",
    "step",
    "run_episodes",
    "rollout",
    "evaluate",
    "write_trajectory",
]

DRAW_BLOCK = 1 << 20  # uniforms per block of epochs over all episodes (8 MB)


@dataclass
class HistoryRecord:
    """Observable history of one rollout: (action, tau, observation) triples."""

    entries: list = field(default_factory=list)  # (action, tau, observation)
    beliefs: list = field(default_factory=list)  # belief after each entry
    rewards: list = field(default_factory=list)  # discounted contribution per entry

    def append(self, action: int, tau: float, observation: int,
               belief: np.ndarray, discounted_reward: float) -> None:
        self.entries.append((action, tau, observation))
        self.beliefs.append(np.asarray(belief, dtype=float))
        self.rewards.append(discounted_reward)

    def __len__(self) -> int:
        return len(self.entries)


def _stage(model, s, a, s2, tau):
    """Per row, the stage reward (see :func:`step`) and discount ``exp(-beta tau)``."""
    decay = np.exp(-model.beta * tau)
    rate = model.rate_reward[s, a, s2]
    accrued = rate * (1.0 - decay) / model.beta if model.beta > 0 else rate * tau
    return model.lump_reward[s, a] + accrued, decay


def step(model, s: int, a: int, rng: np.random.Generator):
    """One transition from ``rng.random(4)``, as one row of a rollout epoch:
    (s', tau, o) and the stage reward ``r1(s,a) + r2(s,a,s') (1 - exp(-beta
    tau)) / beta`` (the rate integrated over the sojourn; ``r2 tau`` if beta = 0)."""
    s2, tau, o = model.draw_transitions(np.array([s]), np.array([a]), rng.random((1, 4)))
    reward, _ = _stage(model, s, a, s2, tau)
    return int(s2[0]), float(tau[0]), int(o[0]), float(reward[0])


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
    n = len(rngs)
    if n < 1:
        raise ValueError("run_episodes needs at least one generator, got none")
    states = draw_rows(np.cumsum(xi0), np.array([rng.random() for rng in rngs]))
    xi = np.tile(np.asarray(xi0, dtype=float), (n, 1))
    returns, discount = np.zeros(n), np.ones(n)
    block = max(1, DRAW_BLOCK // (4 * n))
    for first in range(0, epochs, block):
        draws = np.stack([rng.random((min(block, epochs - first), 4)) for rng in rngs], axis=1)
        for u in draws:  # one epoch: [E, 4]
            actions = value_function.action_at(xi)
            successors, taus, observations = model.draw_transitions(states, actions, u)
            rewards, decay = _stage(model, states, actions, successors, taus)
            states, xi = successors, update_with_time(model, xi, actions, taus, observations)
            gained = discount * rewards
            returns += gained
            discount *= decay
            for e, history in enumerate(histories or ()):
                history.append(int(actions[e]), float(taus[e]), int(observations[e]),
                               xi[e].copy(), float(gained[e]))
    return returns


def rollout(model, value_function, xi0, epochs: int, rng: np.random.Generator) -> HistoryRecord:
    """Run ``epochs`` decision stages greedily under ``value_function``.

    The one-episode case of :func:`run_episodes`. Returns the history; the
    sum of its ``rewards`` is the return estimate.
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
