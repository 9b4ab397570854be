"""Sample-collection and importance-sampling proposal checks."""

import dataclasses
import json

import numpy as np
import pytest
import oracles
from scipy import stats

import posmdp
from posmdp.belief import observation_time_likelihood, update_with_time
from posmdp.sampler import (
    SampleBank,
    bank_to_dict,
    collect,
    mixture_density,
    save_bank,
)


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
        ref_beliefs, ref_origins = oracles.generation_collect(model, 150, 13)
        assert [tuple(o) for o in bank.origins] == ref_origins
        for got, want in zip(bank.beliefs, ref_beliefs):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_one_density_evaluation_per_step(self, maintenance_model, monkeypatch):
        # Every step's density is evaluated once, inside one block evaluation
        # per generation over the actions taken; the one-row matrix path is not used.
        calls, matrix_calls = [], []
        model_type = posmdp.PosmdpModel
        samples = model_type.sojourn_density_samples

        def counted(self, a, taus):
            calls.append((np.shape(a), len(taus)))
            return samples(self, a, taus)

        monkeypatch.setattr(model_type, "sojourn_density_samples", counted)
        monkeypatch.setattr(model_type, "sojourn_density_matrix",
                            lambda self, a, tau: matrix_calls.append(a))
        collect(maintenance_model, 40, seed=0)
        assert matrix_calls == []
        # One call per generation, in order, with one action per row: |B| goes
        # 1, 2, 4, 8, 16, 32, 40.
        assert calls == [((m,), m) for m in [1, 2, 4, 8, 16, 8]]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 700])
    def test_exact_sizes(self, maintenance_model, n):
        bank = collect(maintenance_model, n, seed=1)
        assert bank.beliefs.shape == (n, maintenance_model.n_states)
        assert bank.times.shape == (n - 1,)
        assert bank.origins.shape == (n - 1, 3)

    def test_actions_uniform_among_admissible(self, random_model_factory):
        model = random_model_factory(np.random.default_rng(8), n_states=3, n_actions=3)
        admissible = np.ones((3, 3), dtype=bool)
        admissible[0, 1] = admissible[2, 0] = False
        model = dataclasses.replace(model, admissible=admissible)
        bank = collect(model, 6001, seed=5)
        s, a = bank.origins[:, 0], bank.origins[:, 1]
        assert model.admissible[s, a].all()
        for state in range(3):
            choices = np.flatnonzero(admissible[state])
            counts = np.bincount(a[s == state], minlength=3)[choices]
            assert counts.sum() > 500
            assert stats.chisquare(counts).pvalue > 1e-3

    def test_times_follow_their_origin_laws(self, maintenance_model):
        bank = collect(maintenance_model, 5000, seed=6)
        laws, which = np.unique(bank.origins, axis=0, return_inverse=True)
        tested = 0
        for j, law in enumerate(laws):
            times = bank.times[which.ravel() == j]
            if times.size >= 200:
                dist = maintenance_model.sojourn[tuple(int(x) for x in law)]
                if dist.atom is not None:
                    assert (times == dist.atom).all()
                else:
                    assert stats.kstest(times, dist.cdf).pvalue > 1e-3
                    tested += 1
        assert tested >= 2

    def test_first_step_has_the_predictive_law(self, random_model_factory):
        # Atom times that depend on (a, s') only, shared by two successors under
        # each action, so that o moves the posterior. A bank of two beliefs is
        # one step from xi_0: its (a, tau, posterior) must have the law of a
        # uniform action and the predictive masses P(tau, o | xi_0, a).
        model = random_model_factory(np.random.default_rng(4))
        atoms = [[1.0, 1.0, 2.0], [3.0, 4.0, 4.0]]
        model = dataclasses.replace(model, sojourn={
            key: posmdp.DeterministicAtom(atoms[key[1]][key[2]]) for key in model.sojourn})
        xi0 = model.initial_belief
        cells, expected = [], []  # distinct (a, tau, posterior), and its probability

        def cell(a, tau, posterior):
            for i, (b, t, p) in enumerate(cells):
                if (b, t) == (a, tau) and np.allclose(p, posterior, rtol=0, atol=1e-12):
                    return i
            cells.append((a, tau, posterior))
            expected.append(0.0)
            return len(cells) - 1

        for a, taus in enumerate(atoms):
            for tau in sorted(set(taus)):
                masses, _ = observation_time_likelihood(model, xi0, a, tau)
                for o in range(model.n_observations):
                    posterior = update_with_time(model, xi0, a, tau, o)
                    expected[cell(a, tau, posterior)] += masses[o] / model.n_actions
        assert len(cells) == 8  # tau = 2 and tau = 3 name their successor
        assert sum(expected) == pytest.approx(1.0, abs=1e-12)
        seeds, n_cells = 3000, len(cells)
        observed = np.zeros(n_cells)
        for seed in range(seeds):
            bank = collect(model, 2, seed)
            observed[cell(bank.origins[0, 1], bank.times[0], bank.beliefs[1])] += 1
        assert len(cells) == n_cells
        assert stats.chisquare(observed, seeds * np.array(expected)).pvalue > 1e-3

    def test_invalid_count(self, maintenance_model):
        with pytest.raises(ValueError):
            collect(maintenance_model, 0, seed=0)


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

    @pytest.mark.parametrize("name", ["bus", "maintenance", "random"])
    def test_matches_reference_exactly(self, name, bus_model, maintenance_model,
                                       random_model_factory):
        model = {"bus": bus_model, "maintenance": maintenance_model,
                 "random": random_model_factory(np.random.default_rng(3), with_atoms=True)}[name]
        bank = collect(model, 200, seed=2)
        taus = np.concatenate([bank.times, sorted(model.atom_values), [0.5, 7.25, 40.0]])
        np.testing.assert_array_equal(mixture_density(bank, model, taus),
                                      oracles.mixture_density(bank, model, taus))
        for tau in taus[-8:]:
            assert mixture_density(bank, model, float(tau)) == \
                oracles.mixture_density(bank, model, float(tau))

    def test_no_live_weight_gives_zero(self, maintenance_model):
        bank = self.make_bank(maintenance_model, np.zeros(maintenance_model.transition.shape))
        assert mixture_density(bank, maintenance_model, 78.7433) == 0.0
        np.testing.assert_array_equal(
            mixture_density(bank, maintenance_model, np.array([3.0, 78.7433])), [0.0, 0.0])

    def test_mixture_evaluates_each_time_once(self, maintenance_model, monkeypatch):
        # One density block over every action, at the distinct times only.
        bank = collect(maintenance_model, 50, seed=4)
        calls = []
        model_type = posmdp.PosmdpModel
        samples = model_type.sojourn_density_samples

        def counted(self, a, taus):
            calls.append((a, np.array(taus)))
            return samples(self, a, taus)

        monkeypatch.setattr(model_type, "sojourn_density_samples", counted)
        taus = np.concatenate([bank.times, bank.times[:5], [3.0, 9.5]])
        mixture_density(bank, maintenance_model, taus)
        assert len(calls) == 1
        assert calls[0][0] == slice(None)
        np.testing.assert_array_equal(calls[0][1], np.unique(taus))

    def test_vectorized_matches_scalar(self, maintenance_model):
        bank = collect(maintenance_model, 50, seed=4)
        taus = np.array([3.0, 9.5, 78.7433, 85.3052])
        vec = mixture_density(bank, maintenance_model, taus)
        for t, v in zip(taus, vec):
            assert v == pytest.approx(mixture_density(bank, maintenance_model, float(t)))


class TestImportanceRatio:
    def test_finite_at_collected_samples(self, maintenance_model):
        bank = collect(maintenance_model, 500, seed=2)
        ratios = np.exp(-maintenance_model.beta * bank.times) / mixture_density(
            bank, maintenance_model, bank.times)
        assert np.all(np.isfinite(ratios))
        assert np.all(ratios > 0)

    def test_monte_carlo_recovers_expected_discount(self, random_model_factory):
        # (1/|C|) sum_n [e^{-beta tau_n} / D(tau_n)] f(tau_n | s,a,s') is an
        # unbiased estimate of E[e^{-beta tau}] under f; compare against the
        # closed form within 3 standard errors.
        rng = np.random.default_rng(77)
        m = random_model_factory(rng, n_states=2, n_actions=2, n_observations=2)
        bank = collect(m, 20_001, seed=123)
        ratios = np.exp(-m.beta * bank.times) / mixture_density(bank, m, bank.times)
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
    def test_saved_file_is_the_bank_document(self, maintenance_model, tmp_path):
        bank = collect(maintenance_model, 40, seed=6)
        path = tmp_path / "bank.json"
        save_bank(bank, path)
        doc = json.loads(path.read_text())
        assert doc == bank_to_dict(bank)
        # Every array is written in full, so the file holds the bank exactly.
        np.testing.assert_array_equal(doc["beliefs"], bank.beliefs)
        np.testing.assert_array_equal(doc["times"], bank.times)
        np.testing.assert_array_equal(doc["origins"], bank.origins)
        np.testing.assert_array_equal(doc["weights"], bank.weights)
        assert doc["seed"] == bank.seed
