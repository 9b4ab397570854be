"""Independent straight-line oracles used by unit and acceptance tests.

Everything here is written with explicit Python loops and no shared code
paths with the package internals beyond raw model data access, so agreement
with the package is evidence of correctness rather than tautology.
"""

import math

import numpy as np

from posmdp.belief import update_with_time


def brute_force_backup(model, vf, bank, belief):
    """Loop-by-loop evaluation of the importance-sampled Bellman backup.

    Returns ``(values, action)`` for the maximizing action at ``belief``.
    """
    xi = np.asarray(belief, dtype=float)
    n_states = model.n_states
    n_c = bank.n_samples
    best_value, best_values, best_action = -np.inf, None, None
    stage = stage_reward_table(model)

    for a in range(model.n_actions):
        if not all(model.admissible[s, a] for s in range(n_states)
                   if xi[s] > 0):
            continue
        alpha_a = np.zeros(n_states)
        for s in range(n_states):
            alpha_a[s] = stage[s][a]
        for n in range(n_c):
            tau = float(bank.times[n])
            kappa = np.exp(-model.beta * tau) / mixture_density(bank, model, tau)
            for o in range(model.n_observations):
                # Pick the alpha vector maximizing the projected value at xi.
                best_proj, best_vec = -np.inf, None
                for vec in vf:
                    proj = 0.0
                    for s in range(n_states):
                        for s2 in range(n_states):
                            proj += (
                                xi[s]
                                * model.observation_kernel[a, s2, o]
                                * model.transition[s, a, s2]
                                * _density(model, s, a, s2, tau)
                                * vec.values[s2]
                            )
                    if proj > best_proj:
                        best_proj, best_vec = proj, vec
                for s in range(n_states):
                    for s2 in range(n_states):
                        alpha_a[s] += (
                            kappa
                            / n_c
                            * model.observation_kernel[a, s2, o]
                            * model.transition[s, a, s2]
                            * _density(model, s, a, s2, tau)
                            * best_vec.values[s2]
                        )
        value = float(np.dot(xi, alpha_a))
        if value > best_value:
            best_value, best_values, best_action = value, alpha_a, a
    return best_values, best_action


def alpha_given_a_tau_o(model, vf, action, tau, observation):
    """Project every alpha vector through one (action, time, observation).

    Returns an [len(vf), s] array whose rows are
    ``sum_s' G(o|a,s') P(s'|s,a) f(tau|s,a,s') alpha(s')``.
    """
    f = model.sojourn_density_matrix(action, tau)
    weighted = model.transition[:, action, :] * f  # [s, s']
    g_col = model.observation_kernel[action, :, observation]  # [s']
    return vf.matrix @ (weighted * g_col[None, :]).T


def _density(model, s, a, s2, tau):
    """Mixed-measure sojourn density for one transition, scalar form."""
    if model.transition[s, a, s2] == 0.0:
        return 0.0
    dist = model.sojourn[(s, a, s2)]
    if dist.atom is not None:
        return 1.0 if tau == dist.atom else 0.0
    if tau in model.atom_values:
        return 0.0
    return float(dist.pdf(tau))


def _density_at_times(model, s, a, s2, taus):
    """Vector form of :func:`_density`: one law's pdf over an array of times."""
    taus = np.asarray(taus, dtype=float)
    if model.transition[s, a, s2] == 0.0:
        return np.zeros_like(taus)
    dist = model.sojourn[(s, a, s2)]
    if dist.atom is not None:
        return (taus == dist.atom).astype(float)
    at_atom = np.array([t in model.atom_values for t in taus.tolist()], dtype=bool)
    return np.where(at_atom, 0.0, dist.pdf(taus))


def stage_reward_table(model):
    """R(s, a) by direct quadrature-free evaluation of the closed form."""
    table = [[0.0] * model.n_actions for _ in range(model.n_states)]
    for s in range(model.n_states):
        for a in range(model.n_actions):
            total = model.lump_reward[s, a]
            for s2 in range(model.n_states):
                p = model.transition[s, a, s2]
                if p == 0.0:
                    continue
                gamma = model.sojourn[(s, a, s2)].expected_discount(model.beta)
                if model.beta > 0:
                    total += p * model.rate_reward[s, a, s2] * (1.0 - gamma) / model.beta
                else:
                    total += p * model.rate_reward[s, a, s2] * model.sojourn[(s, a, s2)].mean()
            table[s][a] = float(total)
    return table


def mixture_density(bank, model, tau):
    """D(tau) = sum of w * f over transitions, with the atom rule spelled out.

    Continuous components are summed, then zeroed at every atom point of the
    model, where each atom instead contributes its total weight.
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


def sequential_episodes(model, value_function, episodes, epochs, seed):
    """Episodes run one after another, each with its own 1-D belief.

    Each generator draws one uniform for the initial state, then per epoch
    one uniform for s', two for its law's own ``time`` map and one for o; each
    index is a ``searchsorted`` over freshly summed rows. The greedy action is
    ``value_function.action_at``. The 1-D filter and ``action_at`` come from
    the package; test_belief and test_solver check them on their own. Returns, per episode, the list of
    (a, tau, o) and the discounted return.
    """
    out = []
    for stream in np.random.SeedSequence(seed).spawn(episodes):
        rng = np.random.default_rng(stream)
        xi = np.asarray(model.initial_belief, dtype=float)
        s = _sample_index(rng.random(), xi)
        entries, total, discount = [], 0.0, 1.0
        for _ in range(epochs):
            a = value_function.action_at(xi)
            s2 = _sample_index(rng.random(), model.transition[s, a])
            law = model.sojourn[(s, a, s2)]
            tau = float(law.time(rng.random(), rng.random(), *law.params))
            o = _sample_index(rng.random(), model.observation_kernel[a, s2])
            rate = model.rate_reward[s, a, s2]
            if model.beta > 0:
                accrued = rate * (1.0 - math.exp(-model.beta * tau)) / model.beta
            else:
                accrued = rate * tau
            total += discount * float(model.lump_reward[s, a] + accrued)
            xi = update_with_time(model, xi, a, tau, o)
            entries.append((a, tau, o))
            discount *= math.exp(-model.beta * tau)
            s = s2
        out.append((entries, total))
    return out


def _sample_index(u, probabilities):
    """The first index whose cumulative probability exceeds ``u``."""
    idx = int(np.searchsorted(np.cumsum(probabilities), u, side="right"))
    return min(idx, len(probabilities) - 1)


def generation_collect(model, n, seed):
    """Generation-wise collection, one belief at a time within a generation.

    Each generation takes ``min(|B|, n - |B|)`` picks from the set as it stood
    when the generation began, then draws ``rng.random((m, 6))``, with the
    package's use of each row: the pick's state, its action's rank among the
    admissible ones as ``floor(u * count)``, its successor, two uniforms for
    its law's time map and its observation from ``G(. | a, s')``. Each index
    is a ``searchsorted`` over freshly summed rows, and each belief is filtered
    on its own with the public one-row update. Returns the beliefs and the
    (s, a, s') origins, in order.
    """
    rng = np.random.default_rng(seed)
    beliefs = [np.array(model.initial_belief, dtype=float)]
    origins = []
    while len(beliefs) < n:
        m = min(len(beliefs), n - len(beliefs))
        picks = [beliefs[i] for i in rng.integers(len(beliefs), size=m)]
        for xi, u in zip(picks, rng.random((m, 6)).tolist()):
            s = _sample_index(u[0], xi)
            choices = np.flatnonzero(model.admissible[s])
            a = int(choices[int(u[1] * choices.size)])
            s2 = _sample_index(u[2], model.transition[s, a])
            law = model.sojourn[(s, a, s2)]
            tau = float(law.time(u[3], u[4], *law.params))
            o = _sample_index(u[5], model.observation_kernel[a, s2])
            beliefs.append(update_with_time(model, xi, a, tau, o))
            origins.append((s, a, s2))
    return beliefs, origins


def reference_perseus_update(model, vf, cache, rng):
    """The randomized pass with one full batched backup per pick.

    Each pick is backed up as a one-row ``backup_beliefs`` call, kept as an
    ``AlphaVector`` (the best old vector where the backup does not improve its
    belief), and the picks are deduplicated one row at a time against the
    rows kept before it. The draws, tests and tie rules are those of
    ``perseus_update``, which must return the same matrix and actions.
    """
    from posmdp.solver import DUPLICATE_TOL, AlphaVector, ValueFunction, backup_beliefs

    belief_mat = cache.beliefs
    old_values = vf.values_at(belief_mat)
    remaining = np.arange(len(belief_mat))
    picks = []
    while remaining.size:
        pick = remaining[rng.integers(remaining.size)]
        xi = belief_mat[pick]
        values, actions = backup_beliefs(model, vf, xi[None], cache)
        alpha = AlphaVector(values[0], int(actions[0]))
        if float(xi @ alpha.values) < old_values[pick]:
            best = int(np.argmax(vf.matrix @ xi))
            alpha = AlphaVector(vf.matrix[best], int(vf.actions[best]))
        improved = belief_mat[remaining] @ alpha.values >= old_values[remaining]
        improved |= remaining == pick
        remaining = remaining[~improved]
        picks.append(alpha)
    kept = []
    for alpha in picks:
        if not any(np.abs(k.values - alpha.values).max() <= DUPLICATE_TOL for k in kept):
            kept.append(alpha)
    return ValueFunction(kept)
