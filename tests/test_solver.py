"""Solver checks: initial bounds, backups vs a brute-force oracle, the
randomized update pass, the outer loop, and policy files."""

import dataclasses
import math
import time

import numpy as np
import pytest
from oracles import alpha_given_a_tau_o, brute_force_backup

import posmdp
from posmdp.sampler import SampleBank, collect
from posmdp.solver import (
    AlphaVector,
    BackupCache,
    InitialValueError,
    PolicyMismatchError,
    ValueFunction,
    _bellman_sweep,
    backup,
    backup_beliefs,
    conservative_value_function,
    constant_value_function,
    initial_value_function,
    load_policy,
    perseus_update,
    save_policy,
    solve,
)


def make_flat_cost_model(beta=0.05, lump=-100.0):
    """Two-state model with every sojourn a fixed ln(2)/beta delay, so each
    stage discounts value by exactly 1/2 and R(s, a) = lump everywhere."""
    tau = math.log(2.0) / beta if beta > 0 else 10.0
    transition = np.full((2, 1, 2), 0.5)
    sojourn = {
        (s, 0, s2): posmdp.DeterministicAtom(tau) for s in range(2) for s2 in range(2)
    }
    return posmdp.PosmdpModel(
        states=("u", "v"),
        actions=("go",),
        observations=("o0", "o1"),
        transition=transition,
        sojourn=sojourn,
        observation_kernel=np.full((1, 2, 2), 0.5),
        lump_reward=np.full((2, 1), lump),
        rate_reward=np.zeros((2, 1, 2)),
        beta=beta,
        initial_belief=np.array([0.5, 0.5]),
    )


class TestInitialValueFunction:
    def test_half_discount_bound(self):
        # M = -100 and per-stage discount exactly 1/2 give the bound -200.
        m = make_flat_cost_model()
        bank = collect(m, 1, seed=0)  # empty sample set: expected discounts used
        vf = initial_value_function(m, bank)
        np.testing.assert_allclose(vf.matrix, np.full((1, 2), -200.0))

    def test_zero_reward_model(self, rng, random_model_factory):
        m = random_model_factory(rng)
        m = posmdp.PosmdpModel(
            states=m.states, actions=m.actions, observations=m.observations,
            transition=m.transition, sojourn=m.sojourn,
            observation_kernel=m.observation_kernel,
            lump_reward=np.zeros((3, 2)), rate_reward=np.zeros((3, 2, 3)),
            beta=m.beta, initial_belief=m.initial_belief,
        )
        vf = initial_value_function(m, collect(m, 5, seed=0))
        np.testing.assert_allclose(vf.matrix, np.zeros((1, 3)))

    def test_unbounded_ratio_raises(self, maintenance_model):
        # At an atom sample, the proposal mass is far below the survival
        # probability, so the extreme importance ratio exceeds 1.
        bank = collect(maintenance_model, 200, seed=0)
        with pytest.raises(InitialValueError):
            initial_value_function(maintenance_model, bank)

    def test_conservative_bound(self, maintenance_model):
        vf = conservative_value_function(maintenance_model)
        stage = posmdp.compute_stage_reward(maintenance_model).values
        discounts = [
            d.expected_discount(maintenance_model.beta)
            for d in maintenance_model.sojourn.values()
        ]
        expected = stage.min() / (1.0 - max(discounts))
        np.testing.assert_allclose(vf.matrix, np.full((1, 4), expected))
        assert expected < stage.min() < 0

    def test_conservative_undiscounted_raises(self):
        m = make_flat_cost_model(beta=0.0)
        with pytest.raises(InitialValueError):
            conservative_value_function(m)


class TestValueFunction:
    def test_value_and_action(self):
        vf = ValueFunction([
            AlphaVector(np.array([1.0, 0.0]), action=0),
            AlphaVector(np.array([0.0, 2.0]), action=1),
        ])
        assert vf.value_at([1.0, 0.0]) == 1.0
        assert vf.action_at([1.0, 0.0]) == 0
        assert vf.value_at([0.0, 1.0]) == 2.0
        assert vf.action_at([0.0, 1.0]) == 1

    def test_ties_break_to_lowest_index(self):
        vf = ValueFunction([
            AlphaVector(np.array([1.0, 1.0]), action=1),
            AlphaVector(np.array([1.0, 1.0]), action=0),
        ])
        assert vf.action_at([0.5, 0.5]) == 1

    def test_constant_shift_moves_value_not_action(self, rng):
        vecs = [AlphaVector(rng.normal(size=3), action=i % 2) for i in range(4)]
        vf = ValueFunction(vecs)
        shifted = ValueFunction(
            [AlphaVector(v.values + 7.5, v.action) for v in vecs]
        )
        xi = rng.dirichlet(np.ones(3))
        assert shifted.value_at(xi) == pytest.approx(vf.value_at(xi) + 7.5)
        assert shifted.action_at(xi) == vf.action_at(xi)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ValueFunction([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            AlphaVector(np.array([1.0, np.inf]), action=0)


class TestBackup:
    def test_zero_future_returns_stage_reward_argmax(self, rng, random_model_factory):
        m = random_model_factory(rng)
        bank = collect(m, 4, seed=1)
        vf = constant_value_function(m, 0.0)
        xi = rng.dirichlet(np.ones(3))
        alpha = backup(m, vf, bank, xi)
        stage = posmdp.compute_stage_reward(m).values
        best = int(np.argmax(xi @ stage))
        assert alpha.action == best
        np.testing.assert_allclose(alpha.values, stage[:, best], rtol=1e-12)

    def test_projection_matches_loops(self, rng, random_model_factory):
        m = random_model_factory(rng)
        vf = ValueFunction([AlphaVector(rng.normal(size=3), i % 2) for i in range(3)])
        a, tau, o = 1, 5.3, 0
        got = alpha_given_a_tau_o(m, vf, a, tau, o)
        for v, vec in enumerate(vf.vectors):
            for s in range(3):
                expected = sum(
                    m.observation_kernel[a, s2, o]
                    * m.transition[s, a, s2]
                    * m.sojourn_density(s, a, s2, tau)
                    * vec.values[s2]
                    for s2 in range(3)
                )
                assert got[v, s] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed, random_model_factory):
        rng = np.random.default_rng(1000 + seed)
        m = random_model_factory(
            rng,
            n_states=int(rng.integers(2, 4)),
            n_actions=int(rng.integers(1, 3)),
            n_observations=int(rng.integers(1, 3)),
            with_atoms=True,
        )
        bank = collect(m, int(rng.integers(2, 6)), seed=seed)
        vf = ValueFunction(
            [AlphaVector(rng.normal(size=m.n_states), int(rng.integers(m.n_actions)))
             for _ in range(3)]
        )
        xi = rng.dirichlet(np.ones(m.n_states))
        alpha = backup(m, vf, bank, xi)
        ref_values, ref_action = brute_force_backup(m, vf, bank, xi)
        np.testing.assert_allclose(alpha.values, ref_values, atol=1e-10)
        assert alpha.action == ref_action

    def test_cache_reuse_is_equivalent(self, rng, random_model_factory):
        m = random_model_factory(rng)
        bank = collect(m, 6, seed=2)
        vf = constant_value_function(m, -5.0)
        xi = rng.dirichlet(np.ones(3))
        cache = BackupCache(m, bank)
        a1 = backup(m, vf, bank, xi)
        a2 = backup(m, vf, bank, xi, cache)
        np.testing.assert_array_equal(a1.values, a2.values)
        assert a1.action == a2.action


def make_shared_law_model(laws, n_states=3, n_observations=2, seed=0):
    """Random model in which ``laws[a](s, s2)`` gives the sojourn law of each
    triple under action ``a``, so triples can share one law."""
    rng = np.random.default_rng(seed)
    n_actions = len(laws)
    return posmdp.PosmdpModel(
        states=tuple(f"s{i}" for i in range(n_states)),
        actions=tuple(f"a{i}" for i in range(n_actions)),
        observations=tuple(f"o{i}" for i in range(n_observations)),
        transition=rng.dirichlet(np.ones(n_states), size=(n_states, n_actions)),
        sojourn={(s, a, s2): law(s, s2) for a, law in enumerate(laws)
                 for s in range(n_states) for s2 in range(n_states)},
        observation_kernel=rng.dirichlet(np.ones(n_observations),
                                         size=(n_actions, n_states)),
        lump_reward=rng.normal(size=(n_states, n_actions)),
        rate_reward=rng.normal(size=(n_states, n_actions, n_states)),
        beta=0.05,
        initial_belief=rng.dirichlet(np.ones(n_states)),
    )


def unmerged_group_counts(model, bank):
    """Per action, the unique sampled times with nonzero density."""
    taus = np.unique(bank.times)
    return [
        int(model.sojourn_density_samples(a, taus).reshape(taus.size, -1).any(axis=1).sum())
        for a in range(model.n_actions)
    ]


CONTINUOUS = posmdp.InverseGaussian(4.0, 160.0)
ATOM = posmdp.DeterministicAtom(3.0)


class TestSampleGroupMerge:
    @pytest.mark.parametrize("laws, merged", [
        # One continuous law per action.
        ((lambda s, s2: CONTINUOUS, lambda s, s2: posmdp.InverseGaussian(7.0, 490.0)),
         [1, 1]),
        # One atom law for one action, one continuous law for the other.
        ((lambda s, s2: ATOM, lambda s, s2: CONTINUOUS), [1, 1]),
        # Action 0 mixes an atom law and a continuous law over its cells.
        ((lambda s, s2: ATOM if s2 == 0 else CONTINUOUS, lambda s, s2: CONTINUOUS),
         [2, 1]),
    ])
    def test_merged_backup_matches_brute_force(self, laws, merged):
        m = make_shared_law_model(laws)
        bank = collect(m, 25, seed=1)
        cache = BackupCache(m, bank)
        assert [k.size for k in cache.kappa] == merged
        assert sum(unmerged_group_counts(m, bank)) > sum(merged)
        rng = np.random.default_rng(2)
        for _ in range(6):
            vf = ValueFunction([AlphaVector(rng.normal(size=3) * 10, int(rng.integers(2)))
                                for _ in range(3)])
            xi = rng.dirichlet(np.ones(3))
            alpha = backup(m, vf, bank, xi, cache)
            ref_values, ref_action = brute_force_backup(m, vf, bank, xi)
            np.testing.assert_allclose(alpha.values, ref_values, atol=1e-10)
            assert alpha.action == ref_action

    def test_maintenance_collapses_to_one_group_per_action(self, maintenance_model):
        bank = collect(maintenance_model, 300, seed=0)
        assert unmerged_group_counts(maintenance_model, bank)[3] > 1
        cache = BackupCache(maintenance_model, bank)
        assert [k.size for k in cache.kappa] == [1, 1, 1, 1]

    def test_bus_is_not_merged(self, bus_model):
        # Bus rides have five inverse-Gaussian laws active at every time.
        bank = collect(bus_model, 300, seed=0)
        cache = BackupCache(bus_model, bank)
        assert [k.size for k in cache.kappa] == unmerged_group_counts(bus_model, bank)


def loop_sweep(model, vf, bank, cache, epsilon):
    """Reference verification sweep: one backup per belief, in order."""
    improving = []
    for xi, old in zip(bank.belief_matrix(), vf.values_at(bank.belief_matrix())):
        alpha = backup(model, vf, bank, xi, cache)
        if float(xi @ alpha.values) > old + epsilon and not any(
            np.max(np.abs(alpha.values - other.values)) <= 1e-9 for other in improving
        ):
            improving.append(alpha)
    return improving


class TestBatchedSweep:
    @pytest.mark.parametrize("name", ["maintenance", "bus"])
    def test_sweep_matches_loop_of_backups(self, name, maintenance_model, bus_model):
        m = maintenance_model if name == "maintenance" else bus_model
        bank = collect(m, 120, seed=3)
        cache = BackupCache(m, bank)
        vf = conservative_value_function(m)
        rng = np.random.default_rng(4)
        for _ in range(2):
            epsilon = 1e-4 * np.abs(cache.stage_reward).max()
            got = _bellman_sweep(m, vf, bank, cache, epsilon)
            want = loop_sweep(m, vf, bank, cache, epsilon)
            assert got, "the sweep should find improvements"
            assert [a.action for a in got] == [a.action for a in want]
            for a, b in zip(got, want):
                np.testing.assert_allclose(a.values, b.values, rtol=1e-12, atol=1e-9)
            vf = perseus_update(m, vf, bank, rng, cache)

    def test_kernel_respects_admissibility(self, random_model_factory):
        rng = np.random.default_rng(5)
        m = random_model_factory(rng)
        # Action 1 pays far more but is forbidden in state 0.
        lump = m.lump_reward.copy()
        lump[:, 1] += 1000.0
        admissible = np.ones((3, 2), dtype=bool)
        admissible[0, 1] = False
        m = dataclasses.replace(m, lump_reward=lump, admissible=admissible)
        bank = collect(m, 20, seed=6)
        beliefs = np.vstack([rng.dirichlet(np.ones(3), size=20),
                             np.hstack([np.zeros((20, 1)), rng.dirichlet(np.ones(2), size=20)])])
        vf = ValueFunction([AlphaVector(rng.normal(size=3), i % 2) for i in range(4)])
        values, actions = backup_beliefs(m, vf, beliefs, BackupCache(m, bank))
        support_has_0 = beliefs[:, 0] > 0
        assert np.all(actions[support_has_0] == 0)
        assert np.all(actions[~support_has_0] == 1)
        for xi, row, action in zip(beliefs[::7], values[::7], actions[::7]):
            ref_values, ref_action = brute_force_backup(m, vf, bank, xi)
            np.testing.assert_allclose(row, ref_values, atol=1e-10)
            assert action == ref_action

    def test_no_admissible_action_is_an_error(self, random_model_factory):
        rng = np.random.default_rng(7)
        m = random_model_factory(rng)
        m = dataclasses.replace(m, admissible=np.array([[True, False], [False, True],
                                                        [True, True]]))
        bank = collect(m, 5, seed=0)
        with pytest.raises(ValueError):
            backup(m, constant_value_function(m, 0.0), bank, [0.5, 0.5, 0.0])


class TestPerseusUpdate:
    def test_weak_improvement_everywhere(self, rng, random_model_factory):
        m = random_model_factory(rng)
        bank = collect(m, 30, seed=3)
        vf = conservative_value_function(m)
        for _ in range(5):
            new_vf = perseus_update(m, vf, bank, rng)
            mat = bank.belief_matrix()
            assert np.all(new_vf.values_at(mat) >= vf.values_at(mat) - 1e-9)
            vf = new_vf

    def test_no_duplicate_vectors(self, rng, random_model_factory):
        m = random_model_factory(rng)
        bank = collect(m, 40, seed=4)
        vf = perseus_update(m, conservative_value_function(m), bank, rng)
        mat = vf.matrix
        for i in range(len(vf)):
            for j in range(i + 1, len(vf)):
                assert np.max(np.abs(mat[i] - mat[j])) > 1e-9


class TestSolve:
    def test_converges_on_small_model(self, random_model_factory):
        rng = np.random.default_rng(8)
        m = random_model_factory(rng)
        bank = collect(m, 60, seed=5)
        result = solve(m, bank, v0=conservative_value_function(m), seed=5)
        assert result.converged
        assert result.trace[-1].residual < result.trace[0].residual
        assert all(rec.min_improvement >= -1e-9 for rec in result.trace)

    def test_nonconvergence_is_reported_not_raised(self, random_model_factory):
        rng = np.random.default_rng(9)
        m = random_model_factory(rng)
        bank = collect(m, 60, seed=6)
        result = solve(m, bank, v0=conservative_value_function(m),
                       epsilon=1e-12, max_iters=2, seed=6)
        assert not result.converged
        assert result.iterations == 2

    def test_trace_accounts_for_the_whole_solve(self, maintenance_model):
        bank = collect(maintenance_model, 300, seed=0)
        start = time.perf_counter()
        result = solve(maintenance_model, bank,
                       v0=conservative_value_function(maintenance_model), seed=0)
        elapsed = time.perf_counter() - start
        assert result.converged
        traced = sum(rec.wall_time for rec in result.trace)
        assert 0.0 <= elapsed - traced <= 0.005

    def test_bad_epsilon(self, random_model_factory):
        rng = np.random.default_rng(10)
        m = random_model_factory(rng)
        bank = collect(m, 5, seed=0)
        with pytest.raises(ValueError):
            solve(m, bank, epsilon=0.0)

    def test_zero_reward_fixed_point(self, random_model_factory):
        rng = np.random.default_rng(13)
        m = random_model_factory(rng)
        m = posmdp.PosmdpModel(
            states=m.states, actions=m.actions, observations=m.observations,
            transition=m.transition, sojourn=m.sojourn,
            observation_kernel=m.observation_kernel,
            lump_reward=np.zeros((3, 2)), rate_reward=np.zeros((3, 2, 3)),
            beta=m.beta, initial_belief=m.initial_belief,
        )
        bank = collect(m, 20, seed=0)
        result = solve(m, bank, v0=constant_value_function(m, 0.0), seed=0)
        assert result.converged
        assert result.iterations == 1
        np.testing.assert_allclose(result.value_function.matrix, 0.0, atol=1e-12)

    def test_value_is_convex_on_segments(self, random_model_factory):
        rng = np.random.default_rng(14)
        m = random_model_factory(rng)
        bank = collect(m, 60, seed=5)
        vf = solve(m, bank, v0=conservative_value_function(m), seed=5).value_function
        for _ in range(50):
            x1, x2 = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
            t = rng.random()
            mid = t * x1 + (1 - t) * x2
            assert vf.value_at(mid) <= (
                t * vf.value_at(x1) + (1 - t) * vf.value_at(x2) + 1e-9
            )

    def test_seed_reproducibility(self, random_model_factory):
        rng = np.random.default_rng(11)
        m = random_model_factory(rng)
        bank = collect(m, 40, seed=7)
        r1 = solve(m, bank, v0=conservative_value_function(m), seed=42)
        r2 = solve(m, bank, v0=conservative_value_function(m), seed=42)
        np.testing.assert_array_equal(r1.value_function.matrix,
                                      r2.value_function.matrix)
        assert r1.iterations == r2.iterations


class TestPolicyFiles:
    def test_round_trip(self, tmp_path, random_model_factory):
        rng = np.random.default_rng(12)
        m = random_model_factory(rng)
        bank = collect(m, 30, seed=8)
        result = solve(m, bank, v0=conservative_value_function(m), seed=8)
        path = tmp_path / "policy.json"
        save_policy(result, m, path)
        loaded = load_policy(path, m)
        np.testing.assert_array_equal(loaded.value_function.matrix,
                                      result.value_function.matrix)
        np.testing.assert_array_equal(loaded.value_function.actions,
                                      result.value_function.actions)
        assert loaded.converged == result.converged
        assert loaded.iterations == result.iterations

    def test_model_mismatch(self, tmp_path, bus_model, maintenance_model):
        bank = collect(bus_model, 10, seed=0)
        result = solve(bus_model, bank, max_iters=1, seed=0)
        path = tmp_path / "policy.json"
        save_policy(result, bus_model, path)
        with pytest.raises(PolicyMismatchError):
            load_policy(path, maintenance_model)
