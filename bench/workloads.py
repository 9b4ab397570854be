"""The benchmark's workloads: inputs from a seed, one timed operation, checks.

Each workload builds its model (and, for bus-simulate, its fixed policy) once,
then runs one *operation* per problem instance: the library calls
``posmdp solve`` or ``posmdp simulate`` make, in the same order. An instance's
seed is drawn from the run's ``--seed``, so a run's inputs depend on the seed
alone. Solve time depends strongly on the instance (how many verification
sweeps the solve needs), so a run averages over many instances.

Every check here holds whatever the seed; a failed check marks its operation
failed.
"""

from __future__ import annotations

import math

import numpy as np
from posmdp import AlphaVector, ValueFunction, load_policy
from posmdp import sampler, simulator, solver
from posmdp.model import build_builtin

import bus_policy

# Reference optimum of the water-filtration plant at eight beliefs: belief,
# value, action index (0 = nothing, 1 = backwash, 2 = dose, 3 = replace).
MAINT_TABLE = (
    ((0.9972, 0.0028, 0.0, 0.0), 46309.8867, 1),
    ((0.9965, 0.0035, 0.0, 0.0), 46299.5234, 1),
    ((0.8714, 0.1286, 0.0, 0.0), 44448.0742, 1),
    ((0.8160, 0.1840, 0.0, 0.0), 43628.1680, 1),
    ((0.0031, 0.6803, 0.3165, 0.0001), 41197.9805, 2),
    ((0.0001, 0.0390, 0.9457, 0.0152), 40560.6250, 2),
    ((0.0, 0.0003, 0.8488, 0.1509), 40504.4453, 3),
    ((0.0, 0.0, 0.0, 1.0), 40504.4414, 3),
)
MAINT_VALUE_RTOL = 0.01
# Rows 3, 5 and 6 are near ties: there the best vector of the reference action
# and the best vector of another action differ by 0.05-0.3% of the value. At
# |B| = 700 the replace vector rests on about 175 sampled times, so its value
# has a standard error of about 0.1%, and at row 6 dose beats replace in about
# one solve in five. An action other than the reference one therefore passes
# only if the reference action is worth within this share (4-5 standard
# errors) of it. The other five rows have margins of 1.4-4.5%.
MAINT_ACTION_TIE_RTOL = 0.005

# A measured return further than this many combined standard errors from the
# reference fails; by chance that happens about once in 16 000 evaluations.
RETURN_Z = 4.0


def instance_seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


class MaintenanceSolve:
    """collect -> initial bound (with the CLI's fallback) -> solve -> save."""

    name = "maintenance-solve"

    def __init__(self, beliefs, instances):
        self.beliefs = beliefs
        self.instances = instances
        self.size = {"model": "maintenance", "beliefs": beliefs, "instances": instances}

    def setup(self):
        return {"model": build_builtin("maintenance")}

    def run(self, state, seed, out_path):
        model = state["model"]
        bank = sampler.collect(model, self.beliefs, seed)
        try:
            v0 = solver.initial_value_function(model, bank)
        except solver.InitialValueError:
            v0 = solver.conservative_value_function(model)
        result = solver.solve(model, bank, v0=v0, seed=seed)
        solver.save_policy(result, model, out_path)
        return result

    def value(self, state, result) -> float:
        return result.value_function.value_at(state["model"].initial_belief)

    def vectors(self, state, result) -> int:
        return len(result.value_function)

    def check(self, state, result, out_path) -> dict:
        model = state["model"]
        vf = result.value_function
        saved = load_policy(out_path, model)
        beliefs = [np.array(b) for b, _, _ in MAINT_TABLE]
        return {
            "converged": result.converged,
            "policy_file_round_trip": saved.converged == result.converged
            and np.array_equal(saved.value_function.matrix, vf.matrix)
            and np.array_equal(saved.value_function.actions, vf.actions),
            "maint_table_actions": all(
                picks_or_ties(vf, b, a) for b, (_, _, a) in zip(beliefs, MAINT_TABLE)
            ),
            "maint_table_values": all(
                abs(vf.value_at(b) - v) <= MAINT_VALUE_RTOL * abs(v)
                for b, (_, v, _) in zip(beliefs, MAINT_TABLE)
            ),
        }


def picks_or_ties(vf, belief, action) -> bool:
    if vf.action_at(belief) == action:
        return True
    values = vf.matrix @ belief
    if not np.any(vf.actions == action):
        return False
    best = values.max()
    return best - values[vf.actions == action].max() <= MAINT_ACTION_TIE_RTOL * abs(best)


class BusSimulate:
    """evaluate(bus, fixed policy) over independent episodes."""

    name = "bus-simulate"

    def __init__(self, episodes, instances):
        self.episodes = episodes
        self.instances = instances
        self.size = {"model": "bus", "episodes": episodes, "epochs": bus_policy.EPOCHS,
                     "instances": instances}

    @property
    def steps(self) -> int:
        return self.episodes * bus_policy.EPOCHS

    def setup(self):
        model = build_builtin("bus")
        policy = ValueFunction([
            AlphaVector(list(values), model.actions.index(action))
            for action, values in bus_policy.VECTORS
        ])
        return {"model": model, "policy": policy}

    def run(self, state, seed, out_path):
        return simulator.evaluate(state["model"], state["policy"],
                                  self.episodes, bus_policy.EPOCHS, seed)

    def value(self, state, result) -> float:
        return result[0]

    def vectors(self, state, result) -> int:
        return len(state["policy"])

    def check(self, state, result, out_path) -> dict:
        mean, se = result
        finished = math.isfinite(mean) and se is not None and math.isfinite(se)
        tolerance = RETURN_Z * math.hypot(se or 0.0, bus_policy.REFERENCE_SE)
        return {
            "all_episodes_finished": finished,
            "mean_return_matches_reference":
                finished and abs(mean - bus_policy.REFERENCE_RETURN) <= tolerance,
        }


WORKLOADS = {w.name: w for w in (
    # Why each workload was chosen is recorded in BENCHMARK.json.
    MaintenanceSolve(beliefs=700, instances=18),
    BusSimulate(episodes=40, instances=16),
)}
