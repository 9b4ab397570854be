"""Sample-collection and importance-sampling proposal checks."""

import numpy as np
import pytest

import posmdp
from posmdp.belief import observation_time_likelihood, update_with_time
from posmdp.sampler import (
    SampleBank,
    _sample_index,
    bank_from_dict,
    bank_to_dict,
    collect,
    importance_ratio,
    load_bank,
    mixture_density,
    save_bank,
)


def reference_collect(model, n, seed):
    """Collection loop written with the public filter functions: the
    likelihood picks the observation, then the full time-aware update runs."""
    rng = np.random.default_rng(seed)
    beliefs = [np.array(model.initial_belief, dtype=float)]
    origins = []
    while len(beliefs) < n:
        xi = beliefs[rng.integers(len(beliefs))]
        s = _sample_index(rng, xi)
        admissible = np.flatnonzero(model.admissible[s])
        a = int(admissible[rng.integers(admissible.size)])
        s2 = _sample_index(rng, model.transition[s, a])
        tau = float(model.sojourn[(s, a, s2)].sample(rng))
        origins.append((s, a, s2))
        masses, total = observation_time_likelihood(model, xi, a, tau)
        o = _sample_index(rng, masses / total)
        beliefs.append(update_with_time(model, xi, a, tau, o))
    return beliefs, origins


class TestCollect:
    def test_degenerate_single_belief(self, maintenance_model):
        bank = collect(maintenance_model, 1, seed=0)
        assert len(bank.beliefs) == 1
        np.testing.assert_allclose(bank.beliefs[0], maintenance_model.initial_belief)
        assert bank.n_samples == 0

    def test_sizes_and_weights(self, maintenance_model):
        bank = collect(maintenance_model, 200, seed=3)
        assert len(bank.beliefs) == 200
        assert bank.n_samples == 199
        assert bank.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(bank.weights >= 0)
        # Weights are the empirical distribution of the recorded origins.
        counts = np.zeros_like(bank.weights)
        for s, a, s2 in bank.origins:
            counts[s, a, s2] += 1
        np.testing.assert_allclose(bank.weights, counts / counts.sum())

    def test_origins_are_possible_transitions(self, bus_model):
        bank = collect(bus_model, 300, seed=5)
        for s, a, s2 in bank.origins:
            assert bus_model.transition[s, a, s2] > 0

    def test_beliefs_are_normalized(self, maintenance_model):
        bank = collect(maintenance_model, 100, seed=9)
        for b in bank.beliefs:
            assert abs(b.sum() - 1.0) <= 1e-9
            assert np.all(b >= 0)

    def test_reproducible(self, maintenance_model):
        b1 = collect(maintenance_model, 50, seed=11)
        b2 = collect(maintenance_model, 50, seed=11)
        np.testing.assert_array_equal(b1.times, b2.times)
        np.testing.assert_array_equal(b1.origins, b2.origins)
        for x, y in zip(b1.beliefs, b2.beliefs):
            np.testing.assert_array_equal(x, y)
        b3 = collect(maintenance_model, 50, seed=12)
        assert not np.array_equal(b1.times, b3.times)

    @pytest.mark.parametrize("name", ["maintenance", "bus"])
    def test_matches_reference_filter(self, name, maintenance_model, bus_model):
        model = maintenance_model if name == "maintenance" else bus_model
        bank = collect(model, 150, seed=13)
        ref_beliefs, ref_origins = reference_collect(model, 150, 13)
        assert [tuple(o) for o in bank.origins] == ref_origins
        for got, want in zip(bank.beliefs, ref_beliefs):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_one_density_evaluation_per_step(self, maintenance_model, monkeypatch):
        calls = []
        original = posmdp.PosmdpModel.sojourn_density_matrix

        def counted(self, a, tau):
            calls.append((a, tau))
            return original(self, a, tau)

        monkeypatch.setattr(posmdp.PosmdpModel, "sojourn_density_matrix", counted)
        collect(maintenance_model, 40, seed=0)
        assert len(calls) == 39

    def test_invalid_count(self, maintenance_model):
        with pytest.raises(ValueError):
            collect(maintenance_model, 0, seed=0)

    def test_with_extra_beliefs(self, maintenance_model):
        bank = collect(maintenance_model, 10, seed=0)
        extra = [np.array([0.0, 0.0, 0.0, 1.0])]
        grown = bank.with_extra_beliefs(extra)
        assert len(grown.beliefs) == 11
        np.testing.assert_array_equal(grown.beliefs[-1], extra[0])
        assert grown.n_samples == bank.n_samples


class TestMixtureDensity:
    def make_bank(self, model, weights):
        return SampleBank(
            beliefs=(np.array(model.initial_belief),),
            times=np.zeros(0),
            origins=np.zeros((0, 3), dtype=int),
            weights=weights,
            seed=0,
        )

    def test_continuous_mixture(self, random_model_factory, rng):
        m = random_model_factory(rng)
        weights = rng.dirichlet(np.ones(18)).reshape(3, 2, 3)
        bank = self.make_bank(m, weights)
        tau = 4.7
        expected = sum(
            w * m.sojourn[key].pdf(tau)
            for key, w in np.ndenumerate(weights)
        )
        assert mixture_density(bank, m, tau) == pytest.approx(expected, rel=1e-12)

    def test_atoms_dominate_at_atom_points(self, bus_model):
        # Two-sample bank: one bike atom (30) and one bus travel time.
        weights = np.zeros((15, 2, 15))
        weights[0, 1, 12] = 0.5  # bike stop0 -> last stop, atom 30
        weights[0, 0, 3] = 0.5  # bus stop0 -> stop1, inverse Gaussian
        bank = self.make_bank(bus_model, weights)
        # At the atom, only the atom's mass contributes.
        assert mixture_density(bank, bus_model, 30.0) == pytest.approx(0.5)
        # Away from atoms, only the continuous part contributes.
        d = mixture_density(bank, bus_model, 6.0)
        assert d == pytest.approx(0.5 * bus_model.sojourn[(0, 0, 3)].pdf(6.0), rel=1e-12)

    def test_vectorized_matches_scalar(self, maintenance_model):
        bank = collect(maintenance_model, 50, seed=4)
        taus = np.array([3.0, 9.5, 78.7433, 85.3052])
        vec = mixture_density(bank, maintenance_model, taus)
        for t, v in zip(taus, vec):
            assert v == pytest.approx(mixture_density(bank, maintenance_model, float(t)))


class TestImportanceRatio:
    def test_finite_at_collected_samples(self, maintenance_model):
        bank = collect(maintenance_model, 500, seed=2)
        ratios = importance_ratio(bank, maintenance_model, bank.times,
                                  maintenance_model.beta)
        assert np.all(np.isfinite(ratios))
        assert np.all(ratios > 0)

    def test_monte_carlo_recovers_expected_discount(self, random_model_factory):
        # (1/|C|) sum_n [e^{-beta tau_n} / D(tau_n)] f(tau_n | s,a,s') is an
        # unbiased estimate of E[e^{-beta tau}] under f; compare against the
        # closed form within 3 standard errors.
        rng = np.random.default_rng(77)
        m = random_model_factory(rng, n_states=2, n_actions=2, n_observations=2)
        bank = collect(m, 20_001, seed=123)
        ratios = importance_ratio(bank, m, bank.times, m.beta)
        for s in range(2):
            for a in range(2):
                for s2 in range(2):
                    dist = m.sojourn[(s, a, s2)]
                    terms = ratios * dist.pdf(bank.times)
                    est = terms.mean()
                    se = terms.std(ddof=1) / np.sqrt(len(terms))
                    truth = dist.expected_discount(m.beta)
                    assert abs(est - truth) <= 3 * se


class TestSerialization:
    def test_round_trip_dict(self, maintenance_model):
        bank = collect(maintenance_model, 40, seed=6)
        clone = bank_from_dict(bank_to_dict(bank))
        np.testing.assert_array_equal(clone.times, bank.times)
        np.testing.assert_array_equal(clone.origins, bank.origins)
        np.testing.assert_allclose(clone.weights, bank.weights)
        assert clone.seed == bank.seed
        for x, y in zip(clone.beliefs, bank.beliefs):
            np.testing.assert_array_equal(x, y)

    def test_round_trip_file(self, maintenance_model, tmp_path):
        bank = collect(maintenance_model, 40, seed=6)
        path = tmp_path / "bank.json"
        save_bank(bank, path)
        clone = load_bank(path)
        np.testing.assert_array_equal(clone.times, bank.times)
        assert clone.n_samples == bank.n_samples
