"""End-to-end command-line checks via main(argv)."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from test_model import NON_NUMBERS

import posmdp
from posmdp.cli import EXIT_ERROR, EXIT_NOT_CONVERGED, EXIT_OK, main, simplex_lattice
from posmdp.model import model_to_dict, save_model
from posmdp.solver import AlphaVector, SolveResult, ValueFunction, save_policy


class TestValidate:
    def test_builtin_bus_passes(self, capsys):
        assert main(["validate", "bus"]) == EXIT_OK
        assert "0 violations" in capsys.readouterr().out

    def test_builtin_maintenance_passes(self, capsys):
        assert main(["validate", "maintenance"]) == EXIT_OK
        assert "0 violations" in capsys.readouterr().out

    def test_model_file(self, bus_model, tmp_path, capsys):
        path = tmp_path / "bus.json"
        path.write_text(json.dumps(model_to_dict(bus_model)))
        assert main(["validate", str(path)]) == EXIT_OK

    def test_model_file_lists_every_violation(self, bus_model, tmp_path, capsys):
        doc = model_to_dict(bus_model)
        doc["transition"][0][0] = [0.5 * p for p in doc["transition"][0][0]]
        doc["initial_belief"] = [2.0 * p for p in doc["initial_belief"]]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == EXIT_ERROR
        out = capsys.readouterr().out
        assert out.splitlines() == ["2 violations",
                                    "  - transition row (s=0, a=0) sums to 0.5, not 1",
                                    "  - initial belief sums to 2, not 1"]

    def test_missing_file_names_it(self, capsys):
        assert main(["validate", "missing.json"]) == EXIT_ERROR
        assert "missing.json" in capsys.readouterr().err

    def test_directory_is_an_error(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err and "Traceback" not in err

    def test_numeric_file_name_is_a_path(self, bus_model, tmp_path, monkeypatch, capsys):
        # "5" parses as JSON, but a command-line model argument is a file name.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "5").write_text(json.dumps(model_to_dict(bus_model)))
        assert main(["validate", "5"]) == EXIT_OK
        assert main(["validate", "7"]) == EXIT_ERROR
        assert "file not found: 7" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1}')
        assert main(["validate", str(path)]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_wrong_shape_transition_is_format_error(self, bus_model, tmp_path, capsys):
        doc = model_to_dict(bus_model)
        doc["transition"] = doc["transition"][:-1]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: transition has shape")
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("observations", {"bins": 5}),
        ("observation_kernel", {"beta": [{"s_next": 0, "phi": 2, "eta": 18}]}),
    ], ids=["observations", "observation_kernel"])
    def test_object_form_is_format_error(self, field, value, bus_model, tmp_path, capsys):
        # A model file is the JSON save_model writes: each field has its list form only.
        doc = model_to_dict(bus_model)
        doc[field] = value
        path = tmp_path / "object.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be a JSON list")
        assert "Traceback" not in err

    @pytest.mark.parametrize("mutation", sorted(NON_NUMBERS))
    def test_non_number_is_format_error(self, mutation, bus_model, tmp_path, capsys):
        doc = model_to_dict(bus_model)
        mutate, field = NON_NUMBERS[mutation]
        mutate(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {field} must be")


class TestCollect:
    def test_writes_bank(self, tmp_path, capsys):
        out = tmp_path / "bank.json"
        code = main(["collect", "maintenance", "--beliefs", "100",
                     "--seed", "5", "--output", str(out)])
        assert code == EXIT_OK
        bank = json.loads(out.read_text())
        assert len(bank["beliefs"]) == 100
        assert len(bank["times"]) == len(bank["origins"]) == 99
        assert np.sum(bank["weights"]) == pytest.approx(1.0, abs=1e-12)
        assert bank["seed"] == 5


class TestSolveSimulate:
    def test_bus_solve_then_simulate(self, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        bank = tmp_path / "bank.json"
        code = main(["solve", "bus", "--beliefs", "400", "--seed", "0",
                     "--output", str(policy)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "converged" in out
        assert main(["collect", "bus", "--beliefs", "400", "--seed", "0",
                     "--output", str(bank)]) == EXIT_OK
        assert bank.exists()

        code = main(["simulate", "bus", str(policy), "--episodes", "50",
                     "--epochs", "6", "--seed", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "mean discounted return" in out
        mean = float(out.split(":")[1].split("+/-")[0])
        assert 0.0 < mean <= 100.0

    def test_directory_as_policy_is_an_error(self, tmp_path, capsys):
        assert main(["simulate", "bus", str(tmp_path), "--episodes", "5"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err and "Traceback" not in err

    def test_identical_arguments_reproduce_results(self, tmp_path, capsys):
        banks, policies = [], []
        for name in ("a", "b"):
            policy = tmp_path / f"{name}.json"
            bank = tmp_path / f"{name}-bank.json"
            assert main(["solve", "bus", "--beliefs", "200", "--seed", "3",
                         "--output", str(policy)]) == EXIT_OK
            assert main(["collect", "bus", "--beliefs", "200", "--seed", "3",
                         "--output", str(bank)]) == EXIT_OK
            banks.append(bank.read_bytes())
            doc = json.loads(policy.read_text())
            for rec in doc["trace"]:
                del rec["wall_time"]  # the only run-dependent field
            policies.append(doc)
        assert banks[0] == banks[1]
        assert policies[0] == policies[1]
        capsys.readouterr()

    def test_trajectory_file(self, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        assert main(["solve", "bus", "--beliefs", "200",
                     "--output", str(policy)]) == EXIT_OK
        traj = tmp_path / "run.csv"
        code = main(["simulate", "bus", str(policy), "--episodes", "1",
                     "--epochs", "4", "--trajectory", str(traj)])
        assert code == EXIT_OK
        lines = traj.read_text().strip().splitlines()
        assert lines[0].startswith("epoch,action,tau,observation,belief_1")
        assert len(lines) == 5
        capsys.readouterr()

    def test_policy_model_mismatch(self, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        assert main(["solve", "bus", "--beliefs", "100",
                     "--output", str(policy)]) == EXIT_OK
        capsys.readouterr()
        code = main(["simulate", "maintenance", str(policy), "--episodes", "1"])
        assert code == EXIT_ERROR
        assert "hash" in capsys.readouterr().err

    def test_malformed_policy_file(self, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        assert main(["solve", "bus", "--beliefs", "100",
                     "--output", str(policy)]) == EXIT_OK
        doc = json.loads(policy.read_text())
        doc["vectors"] = "abc"
        policy.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["simulate", "bus", str(policy), "--episodes", "1"])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error:") and "vectors" in err
        assert "Traceback" not in err

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        code = main(["solve", "bus", "--beliefs", "200", "--max-iters", "1",
                     "--epsilon", "1e-12", "--output", str(policy)])
        assert code == EXIT_NOT_CONVERGED
        assert policy.exists()  # the partial policy is still written
        assert "did not converge" in capsys.readouterr().err

    def test_maintenance_default_start_is_the_conservative_bound(self, tmp_path, capsys):
        # Without --initial-alpha, solve starts from the expected-discount
        # bound: the same policy as that constant given explicitly.
        start = posmdp.conservative_value_function(posmdp.build_maintenance_problem(100))
        docs = []
        for name, extra in (("default", []),
                            ("explicit", [f"--initial-alpha={float(start.matrix[0, 0])!r}"])):
            policy = tmp_path / f"{name}.json"
            code = main(["solve", "maintenance", "--beliefs", "60", "--max-iters", "3",
                         "--output", str(policy), *extra])
            assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
            doc = json.loads(policy.read_text())
            for rec in doc["trace"]:
                rec["wall_time"] = 0.0
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_undiscounted_model_is_an_error(self, maintenance_model, tmp_path, capsys):
        # beta = 0 with nonzero rewards validates, but no finite uniform
        # lower bound exists to start the solve from.
        doc = model_to_dict(maintenance_model)
        doc["beta"] = 0.0
        path = tmp_path / "undiscounted.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == EXIT_OK
        assert "0 violations" in capsys.readouterr().out
        code = main(["solve", str(path), "--beliefs", "20",
                     "--output", str(tmp_path / "policy.json")])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error:") and "--initial-alpha" in err
        assert "Traceback" not in err

    def test_explicit_initial_alpha(self, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        code = main(["solve", "maintenance", "--beliefs", "60",
                     "--max-iters", "3", "--initial-alpha", "-1000000",
                     "--output", str(policy)])
        captured = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
        assert "falling back" not in captured.err


class TestExportMesh:
    def test_lattice_size_and_order(self):
        points = list(simplex_lattice(3, 4))
        assert len(points) == math.comb(4 + 2, 2)
        for p in points:
            assert p.sum() == pytest.approx(1.0)
        # Deterministic lexicographic order, first point is the first corner.
        np.testing.assert_array_equal(points[0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(points[-1], [0.0, 0.0, 1.0])

    def test_mesh_rows_and_determinism(self, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        assert main(["solve", "bus", "--beliefs", "400",
                     "--output", str(policy)]) == EXIT_OK
        mesh1 = tmp_path / "mesh1.csv"
        mesh2 = tmp_path / "mesh2.csv"
        for mesh in (mesh1, mesh2):
            code = main(["export-mesh", "bus", str(policy),
                         "--mesh-resolution", "10", "--output", str(mesh)])
            assert code == EXIT_OK
        assert mesh1.read_bytes() == mesh2.read_bytes()
        lines = mesh1.read_text().strip().splitlines()
        assert lines[0] == "observable,belief_1,belief_2,belief_3,action,value"
        rows_per_stop = math.comb(10 + 2, 2)
        assert len(lines) == 1 + 5 * rows_per_stop
        actions = {line.split(",")[4] for line in lines[1:]}
        assert actions <= {"bus", "bike"}
        capsys.readouterr()

    def test_labels_are_csv_quoted(self, bus_model, tmp_path, capsys):
        mixed = bus_model.mixed_observable
        labels = ('stop "zero"', *mixed.observable_labels[1:])
        model = dataclasses.replace(bus_model, actions=("ride, bus", "bike"),
                                    mixed_observable=dataclasses.replace(
                                        mixed, observable_labels=labels))
        model_path, policy, mesh = (tmp_path / n for n in ("m.json", "p.json", "mesh.csv"))
        save_model(model, model_path)
        vf = ValueFunction([AlphaVector(np.ones(model.n_states), 0)])
        save_policy(SolveResult(vf, converged=True), model, policy)
        assert main(["export-mesh", str(model_path), str(policy), "--mesh-resolution", "2",
                     "--output", str(mesh)]) == EXIT_OK
        with open(mesh, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        per_stop = math.comb(2 + 2, 2)
        assert len(rows) == len(labels) * per_stop
        assert all(len(row) == 3 + len(mixed.hidden_labels) for row in [header, *rows])
        assert [row[0] for row in rows[::per_stop]] == list(labels)
        assert {row[4] for row in rows} == {"ride, bus"}
        capsys.readouterr()

    def test_requires_mixed_observable(self, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        assert main(["solve", "maintenance", "--beliefs", "40",
                     "--max-iters", "2", "--initial-alpha", "-1000000",
                     "--output", str(policy)]) in (EXIT_OK, EXIT_NOT_CONVERGED)
        capsys.readouterr()
        code = main(["export-mesh", "maintenance", str(policy),
                     "--output", str(tmp_path / "mesh.csv")])
        assert code == EXIT_ERROR
        assert "mixed_observable" in capsys.readouterr().err


class TestArguments:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(SystemExit):
            main(["solve", "bus", "--beliefs", "0"])
        with pytest.raises(SystemExit):
            main(["simulate", "bus", "p.json", "--episodes", "-3"])
        for epsilon in ("nan", "inf"):
            with pytest.raises(SystemExit):
                main(["solve", "bus", "--epsilon", epsilon])

    def test_observation_bins_applies_to_maintenance(self, tmp_path, capsys):
        out = tmp_path / "bank.json"
        code = main(["collect", "maintenance", "--observation-bins", "10",
                     "--beliefs", "30", "--output", str(out)])
        assert code == EXIT_OK
        bank = json.loads(out.read_text())
        assert all(len(b) == 4 for b in bank["beliefs"])
        capsys.readouterr()
