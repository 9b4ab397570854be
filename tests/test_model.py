"""Model construction, validation, stage rewards, and file round-trips."""

import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest
from oracles import _density, _density_at_times
from scipy import integrate

import posmdp
from posmdp.distributions import DeterministicAtom, InverseGaussian, TruncatedGaussian
from posmdp.model import (
    ModelFormatError,
    build_builtin,
    build_maintenance_problem,
    discretized_beta_row,
    load_model,
    model_from_dict,
    model_hash,
    model_to_dict,
    observation_bin_points,
    save_model,
)
from posmdp.sampler import collect
from posmdp.solver import BackupCache, backup_beliefs, constant_value_function


class TestBuilders:
    def test_bus_shape(self, bus_model):
        assert bus_model.n_states == 15
        assert bus_model.n_actions == 2
        assert bus_model.n_observations == 5
        assert posmdp.validate(bus_model).ok

    def test_bus_reset_rows(self, bus_model):
        # Arrival resets to stop 0 with a fresh uniform intensity, both actions.
        for i in range(3):
            last = 4 * 3 + i
            for a in range(2):
                row = bus_model.transition[last, a]
                starts = row[: 3]
                np.testing.assert_allclose(starts, 1.0 / 3.0)
                assert row[3:].sum() == 0.0
                for i2 in range(3):
                    assert bus_model.sojourn[(last, a, i2)] == DeterministicAtom(455.0)

    def test_bus_goal_reward(self, bus_model):
        for i in range(3):
            assert bus_model.lump_reward[4 * 3 + i, 0] == 100.0
            assert bus_model.lump_reward[4 * 3 + i, 1] == 100.0
        assert np.all(bus_model.rate_reward == 0.0)

    def test_bus_cost_variant(self):
        model = posmdp.build_bus_problem(goal_reward=False)
        assert np.all(model.lump_reward == 0.0)
        assert np.all(model.rate_reward == -1.0)
        assert posmdp.validate(model).ok

    def test_bus_sojourns(self, bus_model):
        # Bus leg from (stop 1, medium traffic): mean 10, shape 10 * mu^2.
        src = 1 * 3 + 1
        dist = bus_model.sojourn[(src, 0, 2 * 3 + 1)]
        assert dist == InverseGaussian(10.0, 1000.0)
        # Bike from stop 1 takes exactly 25 regardless of traffic.
        assert bus_model.sojourn[(src, 1, 4 * 3 + 1)] == DeterministicAtom(25.0)

    def test_maintenance_shape(self, maintenance_model):
        assert maintenance_model.n_states == 4
        assert maintenance_model.n_actions == 4
        assert maintenance_model.n_observations == 100
        assert posmdp.validate(maintenance_model).ok
        assert maintenance_model.sojourn[(3, 3, 0)] == TruncatedGaussian(10.0, 1.5)
        np.testing.assert_array_equal(
            maintenance_model.initial_belief, [1.0, 0.0, 0.0, 0.0]
        )

    def test_maintenance_replace_always_renews(self, maintenance_model):
        np.testing.assert_allclose(
            maintenance_model.transition[:, 3, 0], np.ones(4)
        )

    def test_observation_bins(self):
        points = observation_bin_points(100)
        assert len(points) == 100
        assert points[0] > 0 and points[-1] < 1
        row = discretized_beta_row(posmdp.BetaDensity(2, 18), 100)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        # Good-filter observations concentrate near zero turbidity ratio.
        assert row[:20].sum() > 0.8

    def test_maintenance_kernel_state_indexed(self, maintenance_model):
        G = maintenance_model.observation_kernel
        # The turbidity ratio reflects the filter state the system lands in,
        # so the emission row depends on s' and is shared across actions.
        for a in range(1, 4):
            np.testing.assert_allclose(G[a], G[0])
        np.testing.assert_allclose(
            G[0, 0], discretized_beta_row(posmdp.BetaDensity(2, 18), 100)
        )
        np.testing.assert_allclose(
            G[0, 3], discretized_beta_row(posmdp.BetaDensity(18, 6), 100)
        )

    def test_build_builtin(self):
        assert build_builtin("bus").n_states == 15
        assert build_builtin("maintenance", 50).n_observations == 50
        with pytest.raises(ValueError):
            build_builtin("unknown")


class TestStageReward:
    def test_maintenance_reference_values(self, maintenance_model):
        # Published reference values for the stage rewards at (good, nothing)
        # and (good, backwash).
        table = posmdp.compute_stage_reward(maintenance_model)
        assert table.values[0, 0] == pytest.approx(27249.43, rel=1e-3)
        assert table.values[0, 1] == pytest.approx(28594.38, rel=1e-3)

    def test_bus_stage_rewards(self, bus_model):
        table = posmdp.compute_stage_reward(bus_model)
        # Lump-only rewards: R(s, a) equals the lump table exactly.
        np.testing.assert_array_equal(table.values, bus_model.lump_reward)
        assert table.values.min() == 0.0

    def test_rate_reward_quadrature_oracle(self):
        # Random 2-state model: R(s, a) must equal lump plus the quadrature
        # integral of r2 * exp(-beta t) over each sojourn law.
        rng = np.random.default_rng(7)
        for _ in range(5):
            transition = rng.dirichlet(np.ones(2), size=(2, 1))
            lump = rng.normal(size=(2, 1))
            rate = rng.normal(size=(2, 1, 2))
            beta = float(rng.uniform(0.01, 0.5))
            sojourn = {
                (s, 0, s2): InverseGaussian(float(rng.uniform(1, 10)), float(rng.uniform(5, 50)))
                for s in range(2)
                for s2 in range(2)
            }
            model = posmdp.PosmdpModel(
                states=("s0", "s1"),
                actions=("a0",),
                observations=("o0",),
                transition=transition,
                sojourn=sojourn,
                observation_kernel=np.ones((1, 2, 1)),
                lump_reward=lump,
                rate_reward=rate,
                beta=beta,
                initial_belief=np.array([1.0, 0.0]),
            )
            table = posmdp.compute_stage_reward(model)
            for s in range(2):
                expected = lump[s, 0]
                for s2 in range(2):
                    dist = sojourn[(s, 0, s2)]
                    integral, _ = integrate.quad(
                        lambda t, d=dist: math.exp(-beta * t) * d.pdf(t),
                        0, np.inf, limit=200,
                    )
                    expected += (
                        transition[s, 0, s2] * rate[s, 0, s2] * (1.0 - integral) / beta
                    )
                assert table.values[s, 0] == pytest.approx(float(expected), abs=1e-6)

    def test_undiscounted_limit_uses_mean(self):
        model = posmdp.PosmdpModel(
            states=("a", "b"),
            actions=("go",),
            observations=("o",),
            transition=np.array([[[0.0, 1.0]], [[0.0, 1.0]]]),
            sojourn={(0, 0, 1): DeterministicAtom(4.0), (1, 0, 1): DeterministicAtom(2.0)},
            observation_kernel=np.ones((1, 2, 1)),
            lump_reward=np.zeros((2, 1)),
            rate_reward=np.full((2, 1, 2), 3.0),
            beta=0.0,
            initial_belief=np.array([1.0, 0.0]),
        )
        table = posmdp.compute_stage_reward(model)
        assert table.values[0, 0] == pytest.approx(12.0)
        assert table.values[1, 0] == pytest.approx(6.0)


class TestValidation:
    def test_bad_transition_row(self, bus_model):
        broken = posmdp.PosmdpModel(
            states=bus_model.states,
            actions=bus_model.actions,
            observations=bus_model.observations,
            transition=bus_model.transition * 0.5,
            sojourn=bus_model.sojourn,
            observation_kernel=bus_model.observation_kernel,
            lump_reward=bus_model.lump_reward,
            rate_reward=bus_model.rate_reward,
            beta=bus_model.beta,
            initial_belief=bus_model.initial_belief,
        )
        report = posmdp.validate(broken)
        assert not report.ok
        assert any("transition row" in v for v in report.violations)

    def test_missing_sojourn(self, bus_model):
        sojourn = dict(bus_model.sojourn)
        sojourn.pop((0, 0, 3))
        broken = posmdp.PosmdpModel(
            states=bus_model.states,
            actions=bus_model.actions,
            observations=bus_model.observations,
            transition=bus_model.transition,
            sojourn=sojourn,
            observation_kernel=bus_model.observation_kernel,
            lump_reward=bus_model.lump_reward,
            rate_reward=bus_model.rate_reward,
            beta=bus_model.beta,
            initial_belief=bus_model.initial_belief,
        )
        report = posmdp.validate(broken)
        assert any("missing sojourn" in v for v in report.violations)

    def test_bad_initial_belief(self, bus_model):
        belief = np.zeros(15)
        belief[0] = 0.5
        broken = dataclasses.replace(bus_model, initial_belief=belief)
        report = posmdp.validate(broken)
        assert any("initial belief" in v for v in report.violations)


class TestSojournDensities:
    def test_density_matrix_mixed_measure(self, bus_model):
        # At the bike atom (stop 0 -> 12 is not an atom here; use tau = 30):
        # bike rows carry mass 1, bus rows are zeroed at the shared atom.
        f = bus_model.sojourn_density_matrix(1, 30.0)
        assert f[0, 4 * 3 + 0] == 1.0  # (stop0, low) bike -> (stop4, low)
        f_bus = bus_model.sojourn_density_matrix(0, 30.0)
        assert np.all(f_bus == 0.0)  # 30 is an atom point: continuous parts vanish

    def test_density_samples_stack(self, bus_model):
        taus = np.array([5.0, 30.0])
        stacked = bus_model.sojourn_density_samples(0, taus)
        np.testing.assert_array_equal(
            stacked[0], bus_model.sojourn_density_matrix(0, 5.0)
        )
        np.testing.assert_array_equal(
            stacked[1], bus_model.sojourn_density_matrix(0, 30.0)
        )


class TestSojournLaws:
    @pytest.mark.parametrize("name", ["bus", "maintenance", "random"])
    def test_densities_match_per_triple_oracle(self, name, bus_model, maintenance_model,
                                               random_model_factory):
        model = {"bus": bus_model, "maintenance": maintenance_model,
                 "random": random_model_factory(np.random.default_rng(7), with_atoms=True)}[name]
        atoms = sorted(model.atom_values)
        taus = np.array([0.7, 3.0, 5.3, 9.5, 26.0] + atoms)
        n = model.n_states
        for a in range(model.n_actions):
            expected = np.array([[[_density(model, s, a, s2, t) for s2 in range(n)]
                                  for s in range(n)] for t in taus])
            np.testing.assert_array_equal(model.sojourn_density_samples(a, taus), expected)
            for tau, want in zip(taus, expected):
                np.testing.assert_array_equal(model.sojourn_density_matrix(a, float(tau)), want)

    @pytest.mark.parametrize("name", ["bus", "maintenance", "random"])
    def test_one_action_per_time(self, name, bus_model, maintenance_model,
                                 random_model_factory):
        # Each row of a block with one action per time is that time's density
        # under its own action alone.
        model = {"bus": bus_model, "maintenance": maintenance_model,
                 "random": random_model_factory(np.random.default_rng(7), with_atoms=True)}[name]
        rng = np.random.default_rng(5)
        taus = np.concatenate([rng.uniform(0.05, 60.0, 40), sorted(model.atom_values)])
        actions = rng.integers(model.n_actions, size=taus.size)
        block = model.sojourn_density_samples(actions, taus)
        assert block.shape == (taus.size, model.n_states, model.n_states)
        for i in range(taus.size):
            np.testing.assert_array_equal(
                block[i], model.sojourn_density_samples(actions[i], taus[i:i + 1])[0])

    def test_one_density_evaluation_per_family(self, bus_model, monkeypatch):
        calls = []
        original = posmdp.model.mixed_density

        def counted(dist, tau, at_atom):
            calls.append(dist)
            return original(dist, tau, at_atom)

        monkeypatch.setattr(posmdp.model, "mixed_density", counted)
        assert [len(families) for families in bus_model.sojourn_families] == [2, 1]
        for a, families in enumerate(bus_model.sojourn_families):
            for evaluate in (lambda: bus_model.sojourn_density_matrix(a, 12.0),
                             lambda: bus_model.sojourn_density_samples(a, [5.0, 12.0, 30.0])):
                calls.clear()
                evaluate()
                assert calls == list(families)
        # A block that takes both actions evaluates each action's families once.
        calls.clear()
        bus_model.sojourn_density_samples(np.array([1, 0, 1]), [5.0, 12.0, 30.0])
        assert calls == [f for families in bus_model.sojourn_families for f in families]


class TestSojournFamilies:
    def test_families_cover_every_triple_once(self, bus_model, maintenance_model):
        for model in (bus_model, maintenance_model):
            for a, families in enumerate(model.sojourn_families):
                seen = []
                for family in families:
                    for s, s2, *params in zip(*family.cells, *family.params):
                        law = model.sojourn[(int(s), a, int(s2))]
                        assert type(law) is family.kind and law.params == tuple(params)
                        seen.append((int(s), a, int(s2)))
                assert sorted(seen) == sorted(k for k in model.sojourn if k[1] == a)

    @pytest.mark.parametrize("name", ["bus", "maintenance", "random"])
    def test_random_times_match_per_triple_oracle(self, name, bus_model, maintenance_model,
                                                  random_model_factory):
        # Vector times are bit-identical to each law's pdf over the same times,
        # and one time at a time (the one-row case of the block) to the block.
        # The per-triple oracle runs numpy on 0-d arrays, whose exp and power
        # may round differently in the last bits, so it is held to 1e-12.
        model = {"bus": bus_model, "maintenance": maintenance_model,
                 "random": random_model_factory(np.random.default_rng(3), with_atoms=True)}[name]
        taus = np.random.default_rng(11).uniform(0.05, 60.0, 200)
        n = model.n_states
        for a in range(model.n_actions):
            per_law = np.array([[_density_at_times(model, s, a, s2, taus) for s2 in range(n)]
                                for s in range(n)]).transpose(2, 0, 1)
            np.testing.assert_array_equal(model.sojourn_density_samples(a, taus), per_law)
            expected = np.array([[[_density(model, s, a, s2, t) for s2 in range(n)]
                                  for s in range(n)] for t in taus])
            scalar = np.array([model.sojourn_density_matrix(a, float(t)) for t in taus])
            np.testing.assert_array_equal(scalar, model.sojourn_density_samples(a, taus))
            np.testing.assert_allclose(scalar, expected, rtol=1e-12, atol=0.0)


def _append_sojourn(doc, s, a, s_next):
    doc["sojourn"].append({"s": s, "a": a, "s_next": s_next,
                           "dist": {"type": "atom", "c0": 1.0}})


def _set_nan(array, *index):
    for i in index[:-1]:
        array = array[i]
    array[index[-1]] = math.nan


MALFORMED = {
    "nan_beta": lambda doc: doc.update(beta=math.nan),
    "negative_beta": lambda doc: doc.update(beta=-0.02),
    "nan_observation_kernel": lambda doc: _set_nan(doc["observation_kernel"], 0, 0, 0),
    "nan_initial_belief": lambda doc: _set_nan(doc["initial_belief"], 0),
    "sojourn_state_too_large": lambda doc: _append_sojourn(doc, 99, 0, 3),
    "sojourn_state_negative": lambda doc: _append_sojourn(doc, -1, 0, 3),
    "r1_wrong_shape": lambda doc: doc.update(r1=doc["r1"][:-1]),
    "transition_missing_row": lambda doc: doc.update(transition=doc["transition"][:-1]),
    "kernel_missing_action": lambda doc: doc.update(
        observation_kernel=doc["observation_kernel"][:1]),
    "sojourn_action_too_large": lambda doc: _append_sojourn(doc, 0, 5, 3),
    "nan_transition": lambda doc: _set_nan(doc["transition"], 0, 0, 3),
    "admissible_extra_row": lambda doc: doc.update(admissible=[["bus", "bike"]] * 16),
    "admissible_row_is_number": lambda doc: doc.update(admissible=[["bus", "bike"]] * 14 + [5]),
    "sojourn_record_without_s": lambda doc: doc["sojourn"][0].pop("s"),
    "sojourn_state_not_integer": lambda doc: doc["sojourn"][0].update(s=0.5),
    "sojourn_dist_not_object": lambda doc: doc["sojourn"][0].update(dist=5),
    # A second law for (s, a, s_next) = (0, 0, 3), which would replace the first.
    "sojourn_record_repeated": lambda doc: doc["sojourn"].append(
        {**doc["sojourn"][0], "dist": {"type": "atom", "c0": 7.0}}),
    "sojourn_record_extra_key": lambda doc: doc["sojourn"][0].update(p=1.0),
    "inverse_gaussian_extra_key": lambda doc: doc["sojourn"][0]["dist"].update(sigma=1.0),
    "mixed_observable_extra_key": lambda doc: doc["mixed_observable"].update(extra=1),
    # P(X > 0) underflows to 0, so the law has no density or cdf.
    "truncated_gaussian_without_mass": lambda doc: doc["sojourn"][0].update(
        dist={"type": "truncated_gaussian", "mu": -40.0, "sigma": 1.0}),
    # P(X > 0) is subnormal, so the law's pdf and cdf would be off by percents.
    "truncated_gaussian_with_subnormal_mass": lambda doc: doc["sojourn"][0].update(
        dist={"type": "truncated_gaussian", "mu": -38.4, "sigma": 1.0}),
    "sojourn_is_number": lambda doc: doc.update(sojourn=5),
    "states_is_number": lambda doc: doc.update(states=5),
    "mixed_observable_without_hidden_labels": lambda doc: doc["mixed_observable"].pop(
        "hidden_labels"),
    "state_coords_is_number": lambda doc: doc["mixed_observable"].update(state_coords=5),
    "state_coords_pair_out_of_range": lambda doc: doc["mixed_observable"][
        "state_coords"].__setitem__(0, [9, 9]),
    "state_coords_repeated_pair": lambda doc: doc["mixed_observable"]["state_coords"].__setitem__(
        1, [0, 0]),
    "state_coords_too_few": lambda doc: doc["mixed_observable"].update(
        state_coords=doc["mixed_observable"]["state_coords"][:5]),
    "actions_repeated": lambda doc: doc.update(actions=["go", "go"]),
    "actions_is_string": lambda doc: doc.update(actions="ab"),
    # Strings of the right length, which tuple() would split into one label per character.
    "observable_labels_is_string": lambda doc: doc["mixed_observable"].update(
        observable_labels="01234"),
    "hidden_labels_is_string": lambda doc: doc["mixed_observable"].update(hidden_labels="lmh"),
    # The retired shorthands: observations as {"bins": j}, a kernel of beta rows.
    "observations_is_object": lambda doc: doc.update(observations={"bins": 5}),
    "observation_kernel_is_object": lambda doc: doc.update(observation_kernel={
        "beta": [{"s_next": i, "phi": 2, "eta": 18} for i in range(15)]}),
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("mutation", sorted(MALFORMED))
    def test_rejected_as_format_error(self, mutation, bus_model):
        doc = model_to_dict(bus_model)
        MALFORMED[mutation](doc)
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO(json.dumps(doc)))


class TestSerialization:
    def test_round_trip(self, bus_model, tmp_path):
        path = tmp_path / "bus.json"
        save_model(bus_model, path)
        loaded = load_model(path)
        assert loaded.states == bus_model.states
        assert loaded.sojourn == bus_model.sojourn
        np.testing.assert_array_equal(loaded.transition, bus_model.transition)
        np.testing.assert_array_equal(
            loaded.observation_kernel, bus_model.observation_kernel
        )
        assert model_hash(loaded) == model_hash(bus_model)
        assert loaded.mixed_observable == bus_model.mixed_observable

    def test_round_trip_maintenance(self, maintenance_model, tmp_path):
        path = tmp_path / "maintenance.json"
        save_model(maintenance_model, path)
        loaded = load_model(path)
        assert model_hash(loaded) == model_hash(maintenance_model)

    def test_round_trip_beta_discretized_kernel(self, tmp_path):
        # Other bin counts go through save_model; the file holds the kernel itself.
        model = build_maintenance_problem(observation_bins=10)
        path = tmp_path / "maintenance10.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.n_observations == 10
        np.testing.assert_array_equal(loaded.observation_kernel, model.observation_kernel)
        assert model_hash(loaded) == model_hash(model)

    def test_hash_changes_with_model(self, bus_model):
        shifted = dataclasses.replace(
            bus_model, initial_belief=np.roll(bus_model.initial_belief, 3)
        )
        assert model_hash(shifted) != model_hash(bus_model)

    def test_load_from_json_string(self, bus_model):
        text = json.dumps(model_to_dict(bus_model))
        loaded = load_model(io.StringIO(text))
        assert model_hash(loaded) == model_hash(bus_model)

    def test_unknown_top_level_key(self, bus_model):
        doc = model_to_dict(bus_model)
        doc["extra"] = 1
        with pytest.raises(ModelFormatError, match=re.escape("unknown keys ['extra']")):
            model_from_dict(doc)

    def test_unknown_distribution_tag(self, bus_model):
        doc = model_to_dict(bus_model)
        doc["sojourn"][0]["dist"] = {"type": "weibull", "k": 2}
        with pytest.raises(ModelFormatError, match="weibull"):
            model_from_dict(doc)

    def test_missing_required_key(self, bus_model):
        doc = model_to_dict(bus_model)
        del doc["transition"]
        with pytest.raises(ModelFormatError, match=re.escape("missing keys ['transition']")):
            model_from_dict(doc)

    @pytest.mark.parametrize("text", ["5", " null", '"bus.json"'])
    def test_json_scalar_is_a_format_error(self, text):
        with pytest.raises(ModelFormatError, match="JSON object"):
            load_model(io.StringIO(text))

    def test_invalid_json(self):
        with pytest.raises(ModelFormatError, match="invalid JSON"):
            load_model(io.StringIO("{not json"))

    def test_non_utf8_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b'\xff\xfe{\x00}\x00')
        with pytest.raises(ModelFormatError, match="model file: not UTF-8"):
            load_model(path)

    def test_validation_failure_on_load(self, bus_model):
        doc = model_to_dict(bus_model)
        doc["initial_belief"] = [0.0] * 15
        with pytest.raises(ModelFormatError, match="validation"):
            load_model(io.StringIO(json.dumps(doc)))


class TestAdmissibility:
    def test_default_all_admissible(self, bus_model):
        assert bus_model.admissible.all()

    def test_restricted_actions(self, bus_model):
        admissible = np.ones((15, 2), dtype=bool)
        admissible[0, 1] = False  # no bike at (stop0, low)
        # A lump bonus for biking makes bike the backup's choice wherever allowed.
        lump = bus_model.lump_reward + np.array([0.0, 1.0])
        restricted = dataclasses.replace(bus_model, lump_reward=lump, admissible=admissible)
        cache = BackupCache(restricted, collect(restricted, 30, seed=0))
        vf = constant_value_function(restricted, 0.0)
        # A belief avoiding state 0 allows both actions again.
        belief = np.zeros(15)
        belief[1] = 1.0
        _, actions = backup_beliefs(restricted, vf,
                                    np.stack([restricted.initial_belief, belief]), cache)
        np.testing.assert_array_equal(actions, [0, 1])

    def test_admissible_round_trip(self, bus_model, tmp_path):
        admissible = np.ones((15, 2), dtype=bool)
        admissible[0, 1] = False
        restricted = posmdp.PosmdpModel(
            states=bus_model.states,
            actions=bus_model.actions,
            observations=bus_model.observations,
            transition=bus_model.transition,
            sojourn=bus_model.sojourn,
            observation_kernel=bus_model.observation_kernel,
            lump_reward=bus_model.lump_reward,
            rate_reward=bus_model.rate_reward,
            beta=bus_model.beta,
            initial_belief=bus_model.initial_belief,
            admissible=admissible,
        )
        path = tmp_path / "restricted.json"
        save_model(restricted, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.admissible, admissible)
