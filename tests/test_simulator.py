"""Simulation checks: single steps, discount bookkeeping, law-of-large-numbers
agreement with the model, and policy scoring."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from oracles import sequential_episodes

import posmdp
from posmdp import simulator
from posmdp.simulator import (
    HistoryRecord,
    evaluate,
    rollout,
    run_episodes,
    step,
    write_trajectory,
)
from posmdp.solver import AlphaVector, ValueFunction, constant_value_function

BUS, BIKE = 0, 1
STOP0_LOW, STOP1_LOW = 0, 3
STOP3_LOW = 3 * 3 + 0
STOP4_LOW = 4 * 3 + 0


def transitions(model, s, a, rng, n):
    """``n`` draws of :func:`step` from (s, a) as arrays (s', tau, o, reward):
    ``step`` spends ``rng.random(4)`` per call, so one ``rng.random((n, 4))``
    is the same stream."""
    s, a = np.full(n, s), np.full(n, a)
    s2, tau, o = model.draw_transitions(s, a, rng.random((n, 4)))
    return s2, tau, o, simulator._stage(model, s, a, s2, tau)[0]


class TestStep:
    def test_bike_step_is_deterministic(self, bus_model, rng):
        s2, tau, o, reward = step(bus_model, STOP3_LOW, BIKE, rng)
        assert s2 == STOP4_LOW
        assert tau == 12.0
        assert o == 4
        assert reward == 0.0

    def test_goal_lump_on_leaving_last_stop(self, bus_model, rng):
        s2, tau, o, reward = step(bus_model, STOP4_LOW, BIKE, rng)
        assert tau == 455.0
        assert o == 0  # reset drops the commuter back at stop 0
        assert reward == 100.0

    def test_rate_reward_integrates_over_sojourn(self, maintenance_model, rng):
        # From a good filter doing nothing: tau is the 78.7433 atom and the
        # rate is 500/day, so the realized reward has a closed form.
        s2, tau, o, reward = step(maintenance_model, 0, 0, rng)
        assert tau == 78.7433
        rate = maintenance_model.rate_reward[0, 0, s2]
        expected = rate * (1.0 - math.exp(-0.01 * tau)) / 0.01
        assert reward == pytest.approx(expected, rel=1e-12)

    def test_inadmissible_action_raises(self, bus_model, rng):
        admissible = np.ones((15, 2), dtype=bool)
        admissible[0, BIKE] = False
        restricted = replace(bus_model, admissible=admissible)
        with pytest.raises(ValueError, match="not admissible"):
            step(restricted, 0, BIKE, rng)

    def test_transition_without_a_law_raises(self, bus_model, rng):
        sojourn = dict(bus_model.sojourn)
        del sojourn[(STOP0_LOW, BUS, STOP1_LOW)]  # a model that fails validate
        with pytest.raises(ValueError, match="no sojourn law"):
            step(replace(bus_model, sojourn=sojourn), STOP0_LOW, BUS, rng)

    def test_transition_frequencies(self, maintenance_model, rng):
        n = 20_000
        s2, _, _, _ = transitions(maintenance_model, 0, 0, rng, n)
        counts = np.bincount(s2, minlength=4)
        p = maintenance_model.transition[0, 0]
        freq = counts / n
        se = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freq - p) <= 3 * se + 1e-12)

    def test_observation_frequencies_follow_kernel(self, maintenance_model, rng):
        # Condition on landing back in the good state under replacement.
        n = 10_000
        s2, _, o, _ = transitions(maintenance_model, 3, 3, rng, n)
        assert np.all(s2 == 0)
        hist = np.bincount(o, minlength=100)
        g = maintenance_model.observation_kernel[3, 0]
        # Coarse 10-bucket chi-square-style check, 3 SE per bucket.
        for lo in range(0, 100, 10):
            p = g[lo:lo + 10].sum()
            se = math.sqrt(p * (1 - p) / n)
            assert abs(hist[lo:lo + 10].sum() / n - p) <= 3 * se + 1e-12

    def test_realized_reward_mean_matches_stage_reward(self, maintenance_model, rng):
        # Replacement has a random sojourn; the mean realized reward must
        # agree with the closed-form stage reward.
        n = 20_000
        rewards = transitions(maintenance_model, 1, 3, rng, n)[3]
        target = posmdp.compute_stage_reward(maintenance_model).values[1, 3]
        se = rewards.std(ddof=1) / math.sqrt(n)
        assert abs(rewards.mean() - target) <= 3 * se


class TestRollout:
    def test_single_epoch(self, maintenance_model, rng):
        vf = constant_value_function(maintenance_model, 0.0, action=0)
        history = rollout(maintenance_model, vf, maintenance_model.initial_belief,
                          1, rng)
        assert len(history) == 1
        assert [tau for _, tau, _ in history.entries] == [78.7433]

    def test_epochs_must_be_positive(self, maintenance_model, rng):
        vf = constant_value_function(maintenance_model, 0.0)
        with pytest.raises(ValueError):
            rollout(maintenance_model, vf, maintenance_model.initial_belief, 0, rng)

    def test_discount_composition_bike_cycle(self, bus_model, rng):
        # Always-bike is fully deterministic: 30 minutes to the goal, a 455
        # minute reset paying 100, then again. Discounts must compound over
        # cumulative elapsed time.
        vf = constant_value_function(bus_model, 0.0, action=BIKE)
        history = rollout(bus_model, vf, bus_model.initial_belief, 4, rng)
        taus = [tau for _, tau, _ in history.entries]
        assert taus == [30.0, 455.0, 30.0, 455.0]
        expected = 100.0 * math.exp(-0.02 * 30) + 100.0 * math.exp(-0.02 * 515)
        assert sum(history.rewards) == pytest.approx(expected, abs=1e-9)

    def test_belief_tracking_is_consistent(self, maintenance_model, rng):
        from posmdp.belief import update_with_time

        vf = constant_value_function(maintenance_model, 0.0, action=1)
        history = rollout(maintenance_model, vf, maintenance_model.initial_belief,
                          5, rng)
        xi = maintenance_model.initial_belief
        for (a, tau, o), recorded in zip(history.entries, history.beliefs):
            xi = update_with_time(maintenance_model, xi, a, tau, o)
            np.testing.assert_allclose(recorded, xi)


class TestEvaluate:
    def test_reproducible_and_se(self, maintenance_model):
        vf = constant_value_function(maintenance_model, 0.0, action=0)
        m1, se1 = evaluate(maintenance_model, vf, episodes=20, epochs=5, seed=3)
        m2, se2 = evaluate(maintenance_model, vf, episodes=20, epochs=5, seed=3)
        assert m1 == m2 and se1 == se2
        assert se1 > 0

    def test_single_episode_has_no_se(self, maintenance_model):
        vf = constant_value_function(maintenance_model, 0.0, action=0)
        mean, se = evaluate(maintenance_model, vf, episodes=1, epochs=3, seed=0)
        assert se is None
        assert np.isfinite(mean)

    def test_solved_bus_policy_beats_fixed_policies(self, bus_model):
        bank = posmdp.collect(bus_model, 1000, seed=0)
        result = posmdp.solve(bus_model, bank, seed=0)
        assert result.converged
        episodes, epochs = 3000, 6
        solved, se_s = evaluate(bus_model, result.value_function, episodes, epochs, 1)
        always_bus, se_b = evaluate(
            bus_model, constant_value_function(bus_model, 0.0, BUS),
            episodes, epochs, 1)
        always_bike, se_k = evaluate(
            bus_model, constant_value_function(bus_model, 0.0, BIKE),
            episodes, epochs, 1)
        assert solved > always_bus - 3 * (se_s + se_b)
        assert solved > always_bike - 3 * (se_s + se_k)
        assert solved > min(always_bus, always_bike)


def _mixed_policy(model):
    """Hand-made policies whose greedy action changes with the belief."""
    if model.n_actions == 2:  # bus: ride unless heavy traffic looks likely
        light = np.array([0.0 if s % 3 == 2 else 1.0 for s in range(model.n_states)])
        return ValueFunction([AlphaVector(light, BUS),
                              AlphaVector(np.full(model.n_states, 0.6), BIKE)])
    return ValueFunction([AlphaVector([1.0, 0.5, 0.0, 0.0], 1),
                          AlphaVector([0.0, 0.6, 1.0, 0.5], 2),
                          AlphaVector([0.0, 0.0, 0.3, 1.0], 3)])


class TestLockstep:
    @pytest.mark.parametrize("name", ["bus", "maintenance"])
    def test_matches_sequential_episodes(self, name, bus_model, maintenance_model):
        model = {"bus": bus_model, "maintenance": maintenance_model}[name]
        vf = _mixed_policy(model)
        episodes, epochs, seed = 30, 20, 4
        reference = sequential_episodes(model, vf, episodes, epochs, seed)
        rngs = [np.random.default_rng(stream)
                for stream in np.random.SeedSequence(seed).spawn(episodes)]
        histories = [HistoryRecord() for _ in rngs]
        returns = run_episodes(model, vf, model.initial_belief, epochs, rngs, histories)
        for (entries, total), history, value in zip(reference, histories, returns):
            assert history.entries == entries
            assert value == pytest.approx(total, rel=1e-12)
        taken = {a for history in histories for a, _, _ in history.entries}
        assert len(taken) > 1  # the block update really splits by action
        mean, _ = evaluate(model, vf, episodes, epochs, seed)
        assert mean == pytest.approx(np.mean([total for _, total in reference]), rel=1e-12)

    def test_episode_streams_ignore_the_batch_size(self, bus_model):
        vf = _mixed_policy(bus_model)
        streams = np.random.SeedSequence(9).spawn(12)
        batch = run_episodes(bus_model, vf, bus_model.initial_belief, 15,
                             [np.random.default_rng(s) for s in streams])
        alone = [sum(rollout(bus_model, vf, bus_model.initial_belief, 15,
                             np.random.default_rng(s)).rewards)
                 for s in streams[:3]]
        np.testing.assert_allclose(batch[:3], alone, rtol=1e-12)


class TestDrawBudget:
    def test_step_is_the_first_epoch_after_the_initial_uniform(self, bus_model):
        # Riding the bus draws an inverse Gaussian time for the hidden intensity.
        vf = constant_value_function(bus_model, 0.0, action=BUS)
        start = np.cumsum(bus_model.initial_belief)
        for seed in range(6):
            history = rollout(bus_model, vf, bus_model.initial_belief, 1,
                              np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            s0 = int(np.searchsorted(start, rng.random(), side="right"))
            _, tau, o, reward = step(bus_model, s0, BUS, rng)
            assert history.entries[0] == (BUS, tau, o)
            assert history.rewards[0] == reward

    def test_histories_ignore_epoch_count_and_draw_block(self, bus_model, monkeypatch):
        vf = _mixed_policy(bus_model)
        streams = np.random.SeedSequence(5).spawn(3)

        def histories(epochs):
            out = [HistoryRecord() for _ in streams]
            run_episodes(bus_model, vf, bus_model.initial_belief, epochs,
                         [np.random.default_rng(s) for s in streams], out)
            return out

        full = histories(30)
        for epochs in (1, 7, 29):
            for short, whole in zip(histories(epochs), full):
                assert short.entries == whole.entries[:epochs]
        for block_uniforms in (1, 4 * 3 * 4):  # one epoch, then four, per generator call
            monkeypatch.setattr(simulator, "DRAW_BLOCK", block_uniforms)
            for blocked, whole in zip(histories(30), full):
                assert blocked.entries == whole.entries
                np.testing.assert_array_equal(blocked.beliefs, whole.beliefs)


class TestMaintenancePolicyBehavior:
    def test_replace_rescues_awful_states(self, maintenance_model, rng):
        # Under a solved policy the plant never strands in the awful state:
        # replacement is chosen once the belief tilts awful, which renews the
        # filter with certainty.
        from posmdp.belief import update_with_time

        m = maintenance_model
        bank = posmdp.collect(m, 1000, seed=2)
        vf = posmdp.solve(
            m, bank, v0=posmdp.conservative_value_function(m),
            epsilon=1e-9, max_iters=40, seed=2,
        ).value_function
        assert vf.action_at(np.array([0.0, 0.0, 0.0, 1.0])) == 3

        xi = m.initial_belief
        s = 0
        awful_streak = longest = 0
        for _ in range(300):
            a = vf.action_at(xi)
            if xi[3] > 0.6:
                assert a == 3  # awful-dominant beliefs trigger replacement
            s, tau, o, _ = step(m, s, a, rng)
            xi = update_with_time(m, xi, a, tau, o)
            awful_streak = awful_streak + 1 if s == 3 else 0
            longest = max(longest, awful_streak)
        # A rollout that strands in awful would show a long streak.
        assert longest <= 10


class TestTrajectoryFile:
    def test_csv_round_trip(self, bus_model, rng, tmp_path):
        vf = constant_value_function(bus_model, 0.0, action=BIKE)
        history = rollout(bus_model, vf, bus_model.initial_belief, 3, rng)
        path = tmp_path / "trace.csv"
        write_trajectory(history, path, bus_model)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == (
            ["epoch", "action", "tau", "observation"]
            + [f"belief_{i}" for i in range(1, 16)]
            + ["discounted_reward_so_far"]
        )
        assert len(rows) == 4
        assert rows[1][1] == "bike"
        assert float(rows[1][2]) == 30.0
        # Beliefs in the file reparse to the recorded values exactly.
        parsed = np.array([float(x) for x in rows[2][4:19]])
        np.testing.assert_array_equal(parsed, history.beliefs[1])
        assert float(rows[3][-1]) == pytest.approx(sum(history.rewards))

    def test_history_record_accumulates(self):
        h = HistoryRecord()
        h.append(0, 2.0, 1, np.array([1.0, 0.0]), 5.0)
        h.append(1, 3.0, 0, np.array([0.5, 0.5]), -1.0)
        assert len(h) == 2
        assert h.entries == [(0, 2.0, 1), (1, 3.0, 0)]
        assert h.rewards == [5.0, -1.0]
        assert sum(tau for _, tau, _ in h.entries) == 5.0
        assert sum(h.rewards) == 4.0
