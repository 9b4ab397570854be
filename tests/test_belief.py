"""Belief-update checks against hand-computed and Monte Carlo oracles."""

import numpy as np
import pytest
from scipy import stats

import posmdp
from posmdp.belief import (
    ImpossibleEvidenceError,
    observation_time_likelihood,
    update_with_time,
    update_without_time,
)

BUS = 0
BIKE = 1


class TestBusHandOracle:
    """From the uniform stop-0 belief, ride the bus for 6 minutes, see stop 1.

    Stop-0 travel laws are inverse Gaussian with mu = (5, 5, 10) and
    lambda = 10 mu^2 per intensity, so the posterior over the stop-1 states is
    proportional to (f(6; 5, 250), f(6; 5, 250), f(6; 10, 1000)).  Frozen
    literals below come from scipy.stats.invgauss.
    """

    def test_posterior(self, bus_model):
        post = update_with_time(bus_model, bus_model.initial_belief, BUS, 6.0, 1)
        expected = np.zeros(15)
        expected[3] = expected[4] = 0.4999981366803579
        expected[5] = 3.7266392841865537e-06
        np.testing.assert_allclose(post, expected, rtol=1e-10, atol=1e-18)

    def test_likelihood_total(self, bus_model):
        masses, total = observation_time_likelihood(
            bus_model, bus_model.initial_belief, BUS, 6.0
        )
        assert total == pytest.approx(0.12435163096313918, rel=1e-10)
        # All mass is on observing stop 1.
        assert masses[1] == pytest.approx(total, rel=1e-12)
        assert np.all(masses[[0, 2, 3, 4]] == 0.0)

    def test_matches_scipy_directly(self, bus_model):
        f_fast = stats.invgauss(5 / 250, scale=250).pdf(6.0)
        f_slow = stats.invgauss(10 / 1000, scale=1000).pdf(6.0)
        post = update_with_time(bus_model, bus_model.initial_belief, BUS, 6.0, 1)
        assert post[3] == pytest.approx(f_fast / (2 * f_fast + f_slow), rel=1e-12)
        assert post[5] == pytest.approx(f_slow / (2 * f_fast + f_slow), rel=1e-12)


class TestBusBikeAtom:
    def test_bike_keeps_intensity_uncertainty(self, bus_model):
        # Biking takes exactly 30 minutes from stop 0 for every intensity, so
        # the arrival time says nothing and the posterior is uniform over the
        # last-stop states.
        post = update_with_time(bus_model, bus_model.initial_belief, BIKE, 30.0, 4)
        expected = np.zeros(15)
        expected[12:15] = 1.0 / 3.0
        np.testing.assert_allclose(post, expected, rtol=1e-14)

    def test_bike_at_wrong_time_is_impossible(self, bus_model):
        # 29 minutes has zero mass under the 30-minute atom.
        with pytest.raises(ImpossibleEvidenceError):
            update_with_time(bus_model, bus_model.initial_belief, BIKE, 29.0, 4)

    def test_bus_observing_wrong_stop_is_impossible(self, bus_model):
        with pytest.raises(ImpossibleEvidenceError):
            update_with_time(bus_model, bus_model.initial_belief, BUS, 6.0, 0)

    def test_block_update_names_the_impossible_row(self, bus_model):
        block = np.tile(bus_model.initial_belief, (3, 1))
        taus = np.array([30.0, 29.0, 30.0])
        observations = np.array([4, 4, 4])
        with pytest.raises(ImpossibleEvidenceError) as info:
            update_with_time(bus_model, block, BIKE, taus, observations)
        assert (info.value.action, info.value.tau, info.value.observation) == (BIKE, 29.0, 4)

    def test_bus_at_atom_time_is_impossible(self, bus_model):
        # tau = 455 is an atom of the model's mixed measure (the reset delay),
        # where every continuous travel density carries zero mass.
        with pytest.raises(ImpossibleEvidenceError):
            update_with_time(bus_model, bus_model.initial_belief, BUS, 455.0, 1)


class TestBlockUpdate:
    def test_rows_match_one_row_updates(self, bus_model):
        # From stop 0, bus rides of 4-9 minutes to stop 1 and one bike ride.
        block = np.tile(bus_model.initial_belief, (4, 1))
        taus = np.array([4.0, 6.0, 9.0, 7.5])
        observations = np.array([1, 1, 1, 1])
        post = update_with_time(bus_model, block, BUS, taus, observations)
        for row, tau in zip(post, taus):
            np.testing.assert_allclose(
                row, update_with_time(bus_model, bus_model.initial_belief, BUS, tau, 1),
                rtol=1e-12, atol=1e-300)
        bike = update_with_time(bus_model, block[:1], BIKE, np.array([30.0]), np.array([4]))
        np.testing.assert_array_equal(
            bike[0], update_with_time(bus_model, bus_model.initial_belief, BIKE, 30.0, 4))


class TestMaintenanceUpdate:
    def test_informative_observation(self, maintenance_model):
        m = maintenance_model
        xi = np.array([1.0, 0.0, 0.0, 0.0])
        tau = 78.7433  # the do-nothing sojourn atom
        predicted = m.transition[:, 0, :].T @ xi
        # Turbidity bin 5 (ratio near 0.05) points strongly at a good filter.
        post = update_with_time(m, xi, 0, tau, 5)
        expected = m.observation_kernel[0, :, 5] * predicted
        np.testing.assert_allclose(post, expected / expected.sum(), rtol=1e-12)
        assert post[0] > predicted[0]

    def test_likelihood_mixes_over_states(self, maintenance_model):
        m = maintenance_model
        xi = np.array([1.0, 0.0, 0.0, 0.0])
        masses, total = observation_time_likelihood(m, xi, 0, 78.7433)
        predicted = m.transition[:, 0, :].T @ xi
        np.testing.assert_allclose(masses, m.observation_kernel[0].T @ predicted,
                                   rtol=1e-12)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_wrong_sojourn_time_is_impossible(self, maintenance_model):
        with pytest.raises(ImpossibleEvidenceError):
            update_with_time(
                maintenance_model, np.array([1.0, 0, 0, 0]), 0, 50.0, 5
            )


class TestProperties:
    def test_normalization(self, maintenance_model, rng):
        m = maintenance_model
        taus = {0: 78.7433, 1: 85.3052, 2: 3.0}
        for _ in range(50):
            xi = rng.dirichlet(np.ones(4))
            a = int(rng.integers(3))
            o = int(rng.integers(100))
            post = update_with_time(m, xi, a, taus[a], o)
            assert abs(post.sum() - 1.0) <= 1e-12
            assert np.all(post >= 0)
            post2 = update_without_time(m, xi, a, o)
            assert abs(post2.sum() - 1.0) <= 1e-12

    def test_denominator_equals_likelihood_entry(self, random_model_factory, rng):
        m = random_model_factory(rng)
        xi = rng.dirichlet(np.ones(3))
        a, tau, o = 1, 4.2, 2
        masses, _ = observation_time_likelihood(m, xi, a, tau)
        f = m.sojourn_density_matrix(a, tau)
        numerator = m.observation_kernel[a, :, o] * (xi @ (m.transition[:, a, :] * f))
        assert masses[o] == pytest.approx(numerator.sum(), rel=1e-12)
        post = update_with_time(m, xi, a, tau, o)
        np.testing.assert_allclose(post * masses[o], numerator, rtol=1e-12)

    def test_time_marginal_matches_time_free_update(self, random_model_factory, rng):
        # Integrating the time-aware numerator over tau recovers the time-free
        # numerator; check by Monte Carlo over (s, s', tau) draws.
        m = random_model_factory(rng)
        xi = rng.dirichlet(np.ones(3))
        a, o = 0, 1
        n = 40_000
        draws = np.zeros((n, 3))
        for i in range(n):
            s = rng.choice(3, p=xi)
            s2 = rng.choice(3, p=m.transition[s, a])
            draws[i, s2] = m.observation_kernel[a, s2, o]
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(n)
        target = m.observation_kernel[a, :, o] * (xi @ m.transition[:, a, :])
        assert np.all(np.abs(mean - target) <= 3 * se + 1e-12)
        np.testing.assert_allclose(
            update_without_time(m, xi, a, o), target / target.sum(), rtol=1e-12
        )

    def test_identity_model_permutes_prior(self, rng):
        # Deterministic cyclic transition with perfectly revealing
        # observations: the posterior is the prior pushed one step forward.
        n = 3
        transition = np.zeros((n, 1, n))
        sojourn = {}
        for s in range(n):
            transition[s, 0, (s + 1) % n] = 1.0
            sojourn[(s, 0, (s + 1) % n)] = posmdp.InverseGaussian(5.0, 250.0)
        model = posmdp.PosmdpModel(
            states=("x", "y", "z"),
            actions=("go",),
            observations=("ox", "oy", "oz"),
            transition=transition,
            sojourn=sojourn,
            observation_kernel=np.eye(n)[None, :, :],
            lump_reward=np.zeros((n, 1)),
            rate_reward=np.zeros((n, 1, n)),
            beta=0.05,
            initial_belief=np.array([0.5, 0.3, 0.2]),
        )
        xi = np.array([0.5, 0.3, 0.2])
        post = update_without_time(model, xi, 0, 1)
        np.testing.assert_allclose(post, [0.0, 1.0, 0.0])
        masses, total = observation_time_likelihood(model, xi, 0, 5.0)
        np.testing.assert_allclose(masses / total, np.roll(xi, 1), rtol=1e-12)
