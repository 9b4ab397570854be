"""Solver checks: initial bounds, backups vs a brute-force oracle, the
randomized update pass, the outer loop, and policy files."""

import dataclasses
import json
import math
import re
import time

import numpy as np
import pytest
from oracles import _density, alpha_given_a_tau_o, brute_force_backup, reference_perseus_update

import posmdp
from posmdp.model import ModelFormatError
from posmdp.sampler import SampleBank, collect, mixture_density
from posmdp.solver import (
    DUPLICATE_TOL,
    SCREEN_MARGIN,
    AlphaVector,
    BackupCache,
    InitialValueError,
    PolicyMismatchError,
    SolveResult,
    ValueFunction,
    _backup_stages,
    _bellman_sweep,
    _distinct,
    _fold,
    _inadmissible,
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
        vf = initial_value_function(m, collect(m, 1, seed=0))
        np.testing.assert_allclose(vf.matrix, np.full((1, 2), -200.0))

    def test_zero_reward_model(self, rng, random_model_factory, bus_model, monkeypatch):
        # With M = 0 the bound is 0 and no discount is read (bus's worst reward is 0).
        def unexpected(*args):
            raise AssertionError("expected_discount called with M = 0")

        m = random_model_factory(rng)
        m = dataclasses.replace(m, lump_reward=np.zeros((3, 2)),
                                rate_reward=np.zeros((3, 2, 3)))
        for model in (m, bus_model):
            for law in {type(d) for d in model.sojourn.values()}:
                monkeypatch.setattr(law, "expected_discount", unexpected)
            vf = initial_value_function(model, collect(model, 5, seed=0))
            np.testing.assert_array_equal(vf.matrix, np.zeros((1, model.n_states)))

    def test_initial_is_conservative_bound(self, maintenance_model, bus_model):
        # The bank does not enter the start: it is the expected-discount bound.
        for model in (maintenance_model, bus_model, make_flat_cost_model()):
            vf = initial_value_function(model, collect(model, 200, seed=0))
            ref = conservative_value_function(model)
            np.testing.assert_array_equal(vf.matrix, ref.matrix)
            np.testing.assert_array_equal(vf.actions, ref.actions)

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
        with pytest.raises(InitialValueError, match="--initial-alpha"):
            conservative_value_function(m)
        assert issubclass(InitialValueError, ValueError)

    def test_default_start_is_below_the_solution(self, random_model_factory):
        # The extreme importance ratio over this bank gives a uniform start
        # of 22.75, while the solve from 0 reaches at most 4.37 on B; a start
        # above the solution never comes down. The default start must end
        # where the solve from 0 does.
        m = random_model_factory(np.random.default_rng(0), beta=0.3)
        m = dataclasses.replace(m, lump_reward=m.lump_reward + 3,
                                rate_reward=np.zeros_like(m.rate_reward))
        bank = collect(m, 200, seed=0)
        result = solve(m, bank, seed=0)
        from_zero = solve(m, bank, v0=constant_value_function(m, 0.0), seed=0)
        assert result.converged and from_zero.converged
        epsilon = 1e-4 * max(np.abs(posmdp.compute_stage_reward(m).values).max(), 1.0)
        gap = (result.value_function.values_at(bank.beliefs)
               - from_zero.value_function.values_at(bank.beliefs))
        assert np.abs(gap).max() <= epsilon

    def test_maintenance_solves_from_the_default_start(self, maintenance_model):
        result = solve(maintenance_model, collect(maintenance_model, 60, seed=0), max_iters=3)
        assert result.iterations >= 1


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
            AlphaVector(np.array([0.0, 2.0]), action=0),
        ])
        assert vf.action_at([0.5, 0.5]) == 1
        assert isinstance(vf.action_at([0.5, 0.5]), np.integer)
        block = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])  # ties of 2, 3 and 1 vectors
        np.testing.assert_array_equal(vf.action_at(block), [1, 1, 0])

    @pytest.mark.parametrize("name, n", [("bus", 300), ("maintenance", 200)])
    def test_block_matches_one_row_calls(self, name, n, bus_model, maintenance_model):
        # Rollouts take every episode's greedy action from one block call.
        model = {"bus": bus_model, "maintenance": maintenance_model}[name]
        bank = collect(model, n, seed=1)
        vf = solve(model, bank, v0=conservative_value_function(model), max_iters=30,
                   seed=1).value_function
        block = np.vstack([bank.beliefs,
                           np.random.default_rng(1).dirichlet(np.ones(model.n_states), 200)])
        np.testing.assert_array_equal(vf.action_at(block), [vf.action_at(b) for b in block])

    def test_constant_shift_moves_value_not_action(self, rng):
        vecs = [AlphaVector(rng.normal(size=3), action=i % 2) for i in range(4)]
        vf = ValueFunction(vecs)
        shifted = ValueFunction(
            [AlphaVector(v.values + 7.5, v.action) for v in vecs]
        )
        xi = rng.dirichlet(np.ones(3))
        assert shifted.value_at(xi) == pytest.approx(vf.value_at(xi) + 7.5)
        assert shifted.action_at(xi) == vf.action_at(xi)

    def test_rows_rebuild_the_same_arrays(self, rng):
        # solve merges value functions through their rows and save_policy writes
        # them, so iterating must give back each row and action in order.
        vecs = [AlphaVector(rng.normal(size=3), action=i % 2) for i in range(4)]
        vf = ValueFunction(vecs)
        rows = list(vf)
        assert all(isinstance(r, AlphaVector) for r in rows)
        np.testing.assert_array_equal([r.values for r in rows], [v.values for v in vecs])
        assert [r.action for r in rows] == [v.action for v in vecs]
        merged = ValueFunction([*vf, *ValueFunction(vecs[:1])])
        np.testing.assert_array_equal(merged.matrix, np.vstack([vf.matrix, vecs[0].values]))
        np.testing.assert_array_equal(merged.actions, [0, 1, 0, 1, 0])

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
        alpha = backup(m, vf, BackupCache(m, bank), xi)
        stage = posmdp.compute_stage_reward(m).values
        best = int(np.argmax(xi @ stage))
        assert alpha.action == best
        np.testing.assert_allclose(alpha.values, stage[:, best], rtol=1e-12)

    def test_projection_matches_loops(self, rng, random_model_factory):
        m = random_model_factory(rng)
        vf = ValueFunction([AlphaVector(rng.normal(size=3), i % 2) for i in range(3)])
        a, tau, o = 1, 5.3, 0
        got = alpha_given_a_tau_o(m, vf, a, tau, o)
        for v, vec in enumerate(vf):
            for s in range(3):
                expected = sum(
                    m.observation_kernel[a, s2, o]
                    * m.transition[s, a, s2]
                    * _density(m, s, a, s2, tau)
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
        alpha = backup(m, vf, BackupCache(m, bank), xi)
        ref_values, ref_action = brute_force_backup(m, vf, bank, xi)
        np.testing.assert_allclose(alpha.values, ref_values, atol=1e-10)
        assert alpha.action == ref_action

    def test_projection_follows_the_value_function(self, random_model_factory):
        # One cache serves backups under alternating value functions; a new
        # object with the first one's vectors must not reuse a stale projection.
        rng = np.random.default_rng(21)
        m = random_model_factory(rng, with_atoms=True)
        bank = collect(m, 6, seed=2)
        cache = BackupCache(m, bank)
        first, second = (ValueFunction([AlphaVector(rng.normal(size=3) * 10, i % 2)
                                        for i in range(n)]) for n in (3, 4))
        for vf in (first, second, first, second, ValueFunction(first), first):
            xi = rng.dirichlet(np.ones(3))
            alpha = backup(m, vf, cache, xi)
            ref_values, ref_action = brute_force_backup(m, vf, bank, xi)
            np.testing.assert_allclose(alpha.values, ref_values, atol=1e-10)
            assert alpha.action == ref_action


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
        # Action 0 has atoms at 3 and at 5 and a continuous law: one group per support.
        ((lambda s, s2: (ATOM, posmdp.DeterministicAtom(5.0), CONTINUOUS)[s2],
          lambda s, s2: CONTINUOUS), [3, 1]),
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
            alpha = backup(m, vf, cache, xi)
            ref_values, ref_action = brute_force_backup(m, vf, bank, xi)
            np.testing.assert_allclose(alpha.values, ref_values, atol=1e-10)
            assert alpha.action == ref_action

    def test_maintenance_collapses_to_one_group_per_action(self, maintenance_model):
        bank = collect(maintenance_model, 300, seed=0)
        assert unmerged_group_counts(maintenance_model, bank)[3] > 1
        cache = BackupCache(maintenance_model, bank)
        assert [k.size for k in cache.kappa] == [1, 1, 1, 1]

    def test_bank_without_samples_has_no_groups(self, bus_model):
        cache = BackupCache(bus_model, collect(bus_model, 1, seed=0))
        assert [k.size for k in cache.kappa] == [0, 0]
        assert cache.back.shape == (0, 15)

    def test_bus_is_not_merged(self, bus_model):
        # Bus rides have five inverse-Gaussian laws active at every time.
        bank = collect(bus_model, 300, seed=0)
        cache = BackupCache(bus_model, bank)
        assert [k.size for k in cache.kappa] == unmerged_group_counts(bus_model, bank)
        # Its (group, observation) terms with an all-zero [s, s'] matrix are dropped.
        n = bus_model.n_states
        assert len(cache.weights) < sum(k.size for k in cache.kappa) * bus_model.n_observations
        assert cache.back.reshape(-1, n, n).any(axis=(1, 2)).all()


class TestSharedBlocks:
    def test_maintenance_nothing_and_backwash_share_terms(self, maintenance_model):
        # Same P, same observation kernel, one atom law each: one block, 100 terms.
        # Replace sends every state to state 0, so its 100 terms fold into 1.
        cache = BackupCache(maintenance_model, collect(maintenance_model, 300, seed=0))
        assert cache.weights.shape == (201, 4)
        nothing, backwash, dose, replace = (cache.weights > 0).T
        np.testing.assert_array_equal(nothing, backwash)
        assert nothing.sum() == 100 and not (nothing & (dose | replace)).any()
        assert replace.sum() == 1

    def test_actions_with_one_block_match_brute_force(self):
        m = make_shared_law_model((lambda s, s2: CONTINUOUS, lambda s, s2: CONTINUOUS,
                                   lambda s, s2: ATOM))
        transition, kernel = m.transition.copy(), m.observation_kernel.copy()
        transition[:, 1], kernel[1] = transition[:, 0], kernel[0]
        m = dataclasses.replace(m, transition=transition, observation_kernel=kernel)
        bank = collect(m, 25, seed=1)
        cache = BackupCache(m, bank)
        assert cache.weights.shape == (2 * m.n_observations, 3)
        np.testing.assert_array_equal(cache.weights[:, 0] > 0, cache.weights[:, 1] > 0)
        rng = np.random.default_rng(3)
        for _ in range(6):
            vf = ValueFunction([AlphaVector(rng.normal(size=3) * 10, int(rng.integers(3)))
                                for _ in range(3)])
            xi = rng.dirichlet(np.ones(3))
            alpha = backup(m, vf, cache, xi)
            ref_values, ref_action = brute_force_backup(m, vf, bank, xi)
            np.testing.assert_allclose(alpha.values, ref_values, atol=1e-10)
            assert alpha.action == ref_action


class TestFold:
    def test_proportional_rows_fold_zero_rows_drop_and_a_nan_row_stays(self):
        rows = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.5, 1.0, 0.0],
                         [math.nan, 1.0, 0.0], [3.0, 1.0, 0.0]])
        weights = np.array([[1.0, 0.0], [5.0, 5.0], [0.0, 4.0], [1.0, 1.0], [2.0, 0.0]])
        shared, carried = _fold(rows, weights)
        assert len(shared) == 3
        nan = np.isnan(shared).any(axis=1)
        assert nan.sum() == 1 and np.isnan(carried[nan]).all()
        # Rows 0 and 2 fold at levels 2 and 1; row 4 keeps its own at level 3.
        np.testing.assert_array_equal(shared[~nan], [[0.5, 1.0, 0.0], [1.0, 1 / 3, 0.0]])
        np.testing.assert_array_equal(carried[~nan], [[2.0, 4.0], [6.0, 0.0]])

    def test_action_to_one_state_matches_brute_force(self):
        m = make_shared_law_model((lambda s, s2: CONTINUOUS, lambda s, s2: ATOM,
                                   lambda s, s2: ATOM))
        transition = m.transition.copy()
        transition[:, 2] = [1.0, 0.0, 0.0]
        m = dataclasses.replace(m, transition=transition)
        bank = collect(m, 25, seed=1)
        cache = BackupCache(m, bank)
        assert np.count_nonzero(cache.weights[:, 2]) == 1
        rng = np.random.default_rng(7)
        for _ in range(6):
            vf = ValueFunction([AlphaVector(rng.normal(size=3) * 10, int(rng.integers(3)))
                                for _ in range(3)])
            xi = rng.dirichlet(np.ones(3))
            alpha = backup(m, vf, cache, xi)
            ref_values, ref_action = brute_force_backup(m, vf, bank, xi)
            np.testing.assert_allclose(alpha.values, ref_values, atol=1e-10)
            assert alpha.action == ref_action


class TestProjectionOperator:
    @pytest.mark.parametrize("name", ["maintenance", "bus", "three_supports"])
    def test_groups_sum_to_the_unmerged_samples(self, name, maintenance_model, bus_model):
        # Per action, the weighted projections of the terms (shared blocks, all-zero
        # terms dropped) equal the sum over every sample and observation of its own
        # slice P_a * f(tau_n) G_a(o).
        model = {"maintenance": maintenance_model, "bus": bus_model,
                 "three_supports": make_shared_law_model((
                     lambda s, s2: (ATOM, posmdp.DeterministicAtom(5.0), CONTINUOUS)[s2],
                     lambda s, s2: CONTINUOUS))}[name]
        bank = collect(model, 200, seed=3)
        cache = BackupCache(model, bank)
        rng = np.random.default_rng(4)
        # Positive vectors keep every sum free of cancellation, so rtol applies.
        vf = ValueFunction([AlphaVector(rng.uniform(1.0, 10.0, size=model.n_states), 0)
                            for _ in range(3)])
        proj = cache.projection(vf)
        assert proj.flags.c_contiguous
        assert np.shares_memory(proj.reshape(-1, model.n_states), proj)
        kappa = (np.exp(-model.beta * bank.times) / mixture_density(bank, model, bank.times)
                 / bank.n_samples)
        for a in range(model.n_actions):
            got = np.einsum("j,vjs->vs", cache.weights[:, a], proj)
            slices = model.transition[:, a] * model.sojourn_density_samples(a, bank.times)
            expected = np.einsum("n,nst,to,vt->vs", kappa, slices,
                                 model.observation_kernel[a], vf.matrix)
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_nan_density_reaches_the_projection(self, bus_model, monkeypatch):
        # A NaN density row has a NaN largest entry; it must not be dropped
        # with the times that have no density.
        bank = collect(bus_model, 50, seed=0)
        density = type(bus_model).sojourn_density_samples

        def poisoned(model, a, taus):
            out = density(model, a, taus)
            out[np.asarray(taus) == bank.times[0]] = math.nan
            return out

        monkeypatch.setattr(type(bus_model), "sojourn_density_samples", poisoned)
        cache = BackupCache(bus_model, bank)
        assert np.isnan(cache.projection(constant_value_function(bus_model, 1.0))).any()
        # Its stage-1 value is NaN and clears no floor, so no vector is
        # assembled for its row: the backup must stop with an error naming
        # that row rather than index an empty result.
        with pytest.raises(ValueError, match=r"belief row \d+ is NaN"):
            solve(bus_model, bank, v0=constant_value_function(bus_model, 1.0))
        with pytest.raises(ValueError, match=r"belief row \d+ is NaN"):
            backup(bus_model, constant_value_function(bus_model, 1.0), cache,
                   bus_model.initial_belief)
        # So must the verification sweep.
        with pytest.raises(ValueError, match=r"belief row \d+ is NaN"):
            _bellman_sweep(bus_model, constant_value_function(bus_model, 1.0), cache, 1e-4)


def loop_sweep(model, vf, bank, cache, epsilon):
    """Reference verification sweep: one backup per belief, in order."""
    improving = []
    for xi, old in zip(bank.beliefs, vf.values_at(bank.beliefs)):
        alpha = backup(model, vf, cache, xi)
        if float(xi @ alpha.values) > old + epsilon and not any(
            np.max(np.abs(alpha.values - other.values)) <= 1e-9 for other in improving
        ):
            improving.append(alpha)
    return improving


def screen_case(name, maintenance_model, bus_model, random_model_factory, monkeypatch):
    """A model, its cache, and the value functions of a solve's randomized passes,
    each with the solve's epsilon; "masked" is a random model that forbids action 1
    in state 0."""
    if name == "masked":
        m = random_model_factory(np.random.default_rng(5))
        m = dataclasses.replace(m, admissible=np.array([[True, False], [True, True],
                                                        [True, True]]))
        bank = collect(m, 60, seed=6)
    else:
        m = maintenance_model if name == "maintenance" else bus_model
        bank = collect(m, 120, seed=3)
    cache, passes = BackupCache(m, bank), []

    def record(*args):
        passes.append(perseus_update(*args))
        return passes[-1]

    monkeypatch.setattr(posmdp.solver, "perseus_update", record)
    assert solve(m, bank).converged
    epsilon = 1e-4 * max(np.abs(cache.stage_reward).max(), 1.0)
    return m, cache, [(vf, epsilon) for vf in passes]


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
            got = _bellman_sweep(m, vf, cache, epsilon)
            want = loop_sweep(m, vf, bank, cache, epsilon)
            assert got, "the sweep should find improvements"
            assert [a.action for a in got] == [a.action for a in want]
            for a, b in zip(got, want):
                np.testing.assert_allclose(a.values, b.values, rtol=1e-12, atol=1e-9)
            vf = perseus_update(m, vf, cache, rng)

    @pytest.mark.parametrize("name", ["maintenance", "bus"])
    def test_screened_sweep_matches_filtered_backups(self, name, maintenance_model,
                                                     bus_model):
        # The sweep assembles only rows whose stage-1 value clears the screen;
        # it must equal backing up all of B and keeping xi . alpha > old + eps.
        # Epsilon lies between the two smallest gain levels (gains rounded to
        # 1e-6), so the test cuts through the improving rows by a margin that
        # float rounding cannot cross; with one level it lies below it.
        m = maintenance_model if name == "maintenance" else bus_model
        bank = collect(m, 120, seed=3)
        cache = BackupCache(m, bank)
        vf = conservative_value_function(m)
        rng = np.random.default_rng(4)
        for _ in range(3):
            values, actions = backup_beliefs(m, vf, cache.beliefs, cache)
            new, old = np.einsum("bs,bs->b", cache.beliefs, values), vf.values_at(cache.beliefs)
            levels = np.unique(np.round((new - old)[new > old], 6))
            epsilon = levels[:2].mean() if levels.size > 1 else levels[0] / 2
            improved = new > old + epsilon
            assert improved.any()
            want = []
            for row, action in zip(values[improved], actions[improved]):
                if not any(np.max(np.abs(row - w.values)) <= 1e-9 for w in want):
                    want.append(AlphaVector(row, int(action)))
            got = _bellman_sweep(m, vf, cache, epsilon)
            assert [a.action for a in got] == [a.action for a in want]
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a.values, b.values)
            vf = perseus_update(m, vf, cache, rng)

    @pytest.mark.parametrize("name", ["maintenance", "bus"])
    def test_stage_one_value_equals_xi_dot_alpha_up_to_rounding(self, name,
                                                                maintenance_model,
                                                                bus_model):
        # Stage 1's value and the assembled xi . alpha differ only by
        # summation order, so the sweep can decide improvement on stage 1.
        m = maintenance_model if name == "maintenance" else bus_model
        cache = BackupCache(m, collect(m, 120, seed=3))
        vf = conservative_value_function(m)
        rng = np.random.default_rng(4)
        for _ in range(3):
            floor = np.full(len(cache.beliefs), -np.inf)
            value, _, rows, vectors = _backup_stages(m, vf, cache.beliefs, cache, floor)
            np.testing.assert_array_equal(rows, np.arange(len(cache.beliefs)))
            gap = np.abs(np.einsum("bs,bs->b", cache.beliefs, vectors) - value).max()
            scale = np.abs(cache.stage_reward).max() + np.abs(vf.matrix).max()
            assert gap <= 1e-12 * scale
            vf = perseus_update(m, vf, cache, rng)

    @pytest.mark.parametrize("name", ["maintenance", "bus", "masked"])
    def test_screen_keeps_every_decision(self, name, maintenance_model, bus_model,
                                         random_model_factory, monkeypatch):
        # After every pass of a solve, the screened sweep returns, bit for bit,
        # what stages 1 and 2 over all of B with the same floor return.
        m, cache, passes = screen_case(name, maintenance_model, bus_model,
                                       random_model_factory, monkeypatch)
        found = 0
        for vf, epsilon in passes:
            got = _bellman_sweep(m, vf, cache, epsilon)
            _, actions, rows, values = _backup_stages(m, vf, cache.beliefs, cache,
                                                      cache.values(vf) + epsilon)
            keep = _distinct(values)
            assert [a.action for a in got] == actions[rows[keep]].tolist()
            for alpha, want in zip(got, values[keep]):
                np.testing.assert_array_equal(alpha.values, want)
            found += len(got)
        assert found, "some sweep should find improvements"
        assert not got, "the last pass should be stable"

    @pytest.mark.parametrize("name", ["maintenance", "bus", "masked"])
    def test_stage_one_is_below_the_one_step_bound(self, name, maintenance_model, bus_model,
                                                    random_model_factory, monkeypatch):
        # q[r, a] <= xi_r . U[:, a] up to the screen's margin on every row of B,
        # and the bound rules some rows out of the sweeps.
        m, cache, passes = screen_case(name, maintenance_model, bus_model,
                                       random_model_factory, monkeypatch)
        screened = 0
        for vf, epsilon in [(conservative_value_function(m), 0.0), *passes]:
            value, _, rows, _ = _backup_stages(m, vf, cache.beliefs, cache,
                                               np.full(len(cache.beliefs), np.inf))
            assert rows.size == 0
            bound = cache.stage_reward + cache.projection(vf).max(axis=0).T @ cache.weights
            upper = cache.beliefs @ bound
            upper[_inadmissible(m, cache.beliefs)] = -np.inf
            best = upper.max(axis=1)
            assert np.all(value <= best + SCREEN_MARGIN * np.abs(best))
            screened += np.count_nonzero(best < cache.values(vf) + epsilon)
        assert screened

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
        cache = BackupCache(m, collect(m, 5, seed=0))
        vf = constant_value_function(m, 0.0)
        with pytest.raises(ValueError, match="no commonly admissible action"):
            backup(m, vf, cache, [0.5, 0.5, 0.0])
        with pytest.raises(ValueError, match="no commonly admissible action"):
            backup_beliefs(m, vf, np.array([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]), cache)
        assert backup(m, vf, cache, [0.5, 0.0, 0.5]).action == 0
        # So must the verification sweep over such a belief set.
        cache.beliefs = np.array([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        with pytest.raises(ValueError, match="no commonly admissible action"):
            _bellman_sweep(m, vf, cache, 1e-4)


class TestOneRowBackup:
    @pytest.mark.parametrize("name, size", [("maintenance", 150), ("bus", 150)])
    def test_matches_each_row_of_the_batch(self, name, size, maintenance_model, bus_model):
        m = maintenance_model if name == "maintenance" else bus_model
        cache = BackupCache(m, collect(m, size, seed=8))
        vf = conservative_value_function(m)
        rng = np.random.default_rng(9)
        for _ in range(3):
            vf = perseus_update(m, vf, cache, rng)
        values, actions = backup_beliefs(m, vf, cache.beliefs, cache)
        for i, xi in enumerate(cache.beliefs):
            alpha = backup(m, vf, cache, xi)
            np.testing.assert_array_equal(alpha.values, values[i])
            assert alpha.action == actions[i]


class TestDistinct:
    def test_a_row_near_only_a_dropped_row_is_kept(self):
        a = np.array([0.0, 1.0])
        b = a + 0.6 * DUPLICATE_TOL
        c = b + 0.6 * DUPLICATE_TOL
        assert np.abs(c - a).max() > DUPLICATE_TOL
        np.testing.assert_array_equal(_distinct(np.stack([a, b, c])), [True, False, True])
        np.testing.assert_array_equal(_distinct(np.stack([a, c, b])), [True, True, False])

    def test_one_row_and_no_rows(self):
        np.testing.assert_array_equal(_distinct(np.ones((1, 3))), [True])
        assert _distinct(np.empty((0, 3))).shape == (0,)


class TestPerseusUpdate:
    @pytest.mark.parametrize("name, size", [("maintenance", 200), ("bus", 300)])
    def test_matches_the_reference_pass(self, name, size, maintenance_model, bus_model):
        m = maintenance_model if name == "maintenance" else bus_model
        cache = BackupCache(m, collect(m, size, seed=5))
        vf = ref = conservative_value_function(m)
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        for _ in range(5):
            vf = perseus_update(m, vf, cache, rng)
            ref = reference_perseus_update(m, ref, cache, ref_rng)
            np.testing.assert_array_equal(vf.matrix, ref.matrix)
            np.testing.assert_array_equal(vf.actions, ref.actions)

    def test_weak_improvement_everywhere(self, rng, random_model_factory):
        m = random_model_factory(rng)
        bank = collect(m, 30, seed=3)
        cache = BackupCache(m, bank)
        vf = conservative_value_function(m)
        for _ in range(5):
            new_vf = perseus_update(m, vf, cache, rng)
            mat = bank.beliefs
            assert np.all(new_vf.values_at(mat) >= vf.values_at(mat) - 1e-9)
            vf = new_vf

    def test_no_duplicate_vectors(self, rng, random_model_factory):
        m = random_model_factory(rng)
        bank = collect(m, 40, seed=4)
        vf = perseus_update(m, conservative_value_function(m), BackupCache(m, bank), rng)
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

    @pytest.mark.parametrize("epsilon", [0.0, math.nan, math.inf])
    def test_bad_epsilon(self, epsilon, random_model_factory):
        rng = np.random.default_rng(10)
        m = random_model_factory(rng)
        bank = collect(m, 5, seed=0)
        with pytest.raises(ValueError, match="epsilon"):
            solve(m, bank, epsilon=epsilon)

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

    def test_action_indices_round_trip_by_label(self, tmp_path, bus_model):
        # Policy files name actions by label, so a label must pick out one index:
        # with actions ("go", "go") a vector of action 1 would load as action 0.
        vf = ValueFunction([AlphaVector(np.zeros(15), 1), AlphaVector(np.ones(15), 0)])
        path = tmp_path / "policy.json"
        save_policy(SolveResult(vf, converged=True), bus_model, path)
        assert load_policy(path, bus_model).value_function.actions.tolist() == [1, 0]
        with pytest.raises(ValueError, match="distinct"):
            dataclasses.replace(bus_model, actions=("go", "go"))

    def test_model_mismatch(self, tmp_path, bus_model, maintenance_model):
        bank = collect(bus_model, 10, seed=0)
        result = solve(bus_model, bank, max_iters=1, seed=0)
        path = tmp_path / "policy.json"
        save_policy(result, bus_model, path)
        with pytest.raises(PolicyMismatchError):
            load_policy(path, maintenance_model)

    def test_non_utf8_file_is_a_format_error(self, tmp_path, bus_model):
        path = tmp_path / "policy.json"
        path.write_bytes(b'\xff\xfe{\x00}\x00')
        with pytest.raises(ModelFormatError, match="policy file: not UTF-8"):
            load_policy(path, bus_model)

    @pytest.mark.parametrize("mutate, field", [
        (lambda doc: doc.update(vectors="abc"), "'vectors'"),
        (lambda doc: doc.pop("model_hash"), "model_hash"),
        (lambda doc: doc["trace"][0].update(extra=1), "trace[0]"),
        (lambda doc: doc["vectors"][0]["values"].pop(), "vectors[0].values"),
        (lambda doc: doc["vectors"][0].update(action="walk"), "vectors[0].action"),
        (lambda doc: doc["trace"][0].update(iteration="x"), "trace[0].iteration"),
        (lambda doc: doc["trace"][1].update(n_vectors=2.0), "trace[1].n_vectors"),
        (lambda doc: doc["trace"][0].update(residual=None), "trace[0].residual"),
        (lambda doc: doc["trace"][0].update(min_improvement=True), "trace[0].min_improvement"),
        (lambda doc: doc["trace"][0].update(wall_time=math.nan), "trace[0].wall_time"),
        (lambda doc: doc["vectors"][0]["values"].__setitem__(2, "1.5"), "vectors[0].values[2]"),
        (lambda doc: doc["vectors"][0]["values"].__setitem__(0, True), "vectors[0].values[0]"),
        (lambda doc: doc["vectors"][0].update(values="abc"), "vectors[0].values"),
        (None, "policy file: invalid JSON at line 1"),  # the file cut short
    ], ids=["vectors_string", "missing_hash", "unknown_trace_key", "short_values",
            "unknown_action", "iteration_string", "n_vectors_float", "residual_null",
            "min_improvement_bool", "wall_time_nan", "value_string", "value_bool",
            "values_string", "invalid_json"])
    def test_malformed_file_names_the_field(self, mutate, field, tmp_path,
                                            random_model_factory):
        m = random_model_factory(np.random.default_rng(12))
        result = solve(m, collect(m, 30, seed=8), v0=conservative_value_function(m), seed=8)
        path = tmp_path / "policy.json"
        save_policy(result, m, path)
        if mutate is None:
            path.write_text(path.read_text()[:-2])
        else:
            doc = json.loads(path.read_text())
            mutate(doc)
            path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=re.escape(field)):
            load_policy(path, m)
