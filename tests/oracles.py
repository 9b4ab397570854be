"""Independent straight-line oracles used by unit and acceptance tests.

Everything here is written with explicit Python loops and no shared code
paths with the package internals beyond raw model data access, so agreement
with the package is evidence of correctness rather than tautology.
"""

import numpy as np

from posmdp.sampler import mixture_density


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
                for vec in vf.vectors:
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
