"""Acceptance suite: one test per release criterion.

Heavy artifacts (the water-filtration solve, the commuting-problem mesh) are
built once in module-scoped fixtures and shared across criteria.
"""

import dataclasses
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from oracles import brute_force_backup
from conftest import make_random_model
from scipy import integrate

import posmdp
from posmdp.cli import main, simplex_lattice
from posmdp.solver import AlphaVector, ValueFunction, backup

# Reference optimum for the water-filtration plant: actions and values at
# eight representative beliefs (1 = do nothing, 2 = backwash, 3 = dose
# chemicals, 4 = replace).
MAINT_TABLE = [
    ((0.9972, 0.0028, 0.0, 0.0), 46309.8867, 2),
    ((0.9965, 0.0035, 0.0, 0.0), 46299.5234, 2),
    ((0.8714, 0.1286, 0.0, 0.0), 44448.0742, 2),
    ((0.8160, 0.1840, 0.0, 0.0), 43628.1680, 2),
    ((0.0031, 0.6803, 0.3165, 0.0001), 41197.9805, 3),
    ((0.0001, 0.0390, 0.9457, 0.0152), 40560.6250, 3),
    ((0.0, 0.0003, 0.8488, 0.1509), 40504.4453, 4),
    ((0.0, 0.0, 0.0, 1.0), 40504.4414, 4),
]


@pytest.fixture(scope="module")
def maintenance_run(maintenance_model):
    """|B| = 5000 plus the eight reference beliefs, 40 iterations."""
    start = time.perf_counter()
    bank = posmdp.collect(maintenance_model, 5000, seed=7)
    bank = dataclasses.replace(bank, beliefs=np.vstack([bank.beliefs,
                                                         [b for b, _, _ in MAINT_TABLE]]))
    result = posmdp.solve(
        maintenance_model,
        bank,
        v0=posmdp.conservative_value_function(maintenance_model),
        epsilon=1e-9,
        max_iters=40,
        seed=7,
    )
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def bus_run(bus_model, tmp_path_factory):
    """Solve the commuting problem and export the policy mesh per stop."""
    tmp = tmp_path_factory.mktemp("bus")
    policy = tmp / "policy.json"
    mesh = tmp / "mesh.csv"
    start = time.perf_counter()
    bank = posmdp.collect(bus_model, 1000, seed=0)
    result = posmdp.solve(bus_model, bank, seed=0)
    posmdp.save_policy(result, bus_model, policy)
    assert main(["export-mesh", "bus", str(policy),
                 "--mesh-resolution", "20", "--output", str(mesh)]) == 0
    rows = []
    with open(mesh) as fh:
        next(fh)
        for line in fh:
            stop, b1, b2, b3, action, value = line.strip().split(",")
            rows.append((int(stop), (float(b1), float(b2), float(b3)),
                         action, float(value)))
    return result, rows, time.perf_counter() - start


def test_criterion_1_stage_rewards(maintenance_model):
    table = posmdp.compute_stage_reward(maintenance_model).values
    assert table[0, 0] == pytest.approx(27249.43, rel=1e-3)
    assert table[0, 1] == pytest.approx(28594.38, rel=1e-3)


def test_criterion_2_maintenance_reference_beliefs(maintenance_run):
    result, elapsed = maintenance_run
    assert elapsed <= 600.0  # single-threaded runtime budget
    vf = result.value_function
    actions = [vf.action_at(np.array(b)) + 1 for b, _, _ in MAINT_TABLE]
    assert actions == [a for _, _, a in MAINT_TABLE]
    for belief, value, _ in MAINT_TABLE:
        assert vf.value_at(np.array(belief)) == pytest.approx(value, rel=0.01)
    assert 10 <= len(vf) <= 20
    assert np.count_nonzero(vf.actions == 1) == 1  # exactly one backwash vector
    assert np.count_nonzero(vf.actions == 3) == 1  # exactly one replace vector


def test_criterion_3_bus_policy_structure(bus_run):
    _, rows, elapsed = bus_run
    assert elapsed <= 600.0
    by_stop = {}
    for stop, point, action, _ in rows:
        by_stop.setdefault(stop, {}).setdefault(action, []).append(point)
    uniform = (1 / 3, 1 / 3, 1 / 3)
    picks = {
        (stop, point): action for stop, point, action, _ in rows
    }
    # At stop 0 the uniform belief rides the bus; certain-high traffic bikes.
    assert any(
        np.allclose(p, uniform, atol=0.05) for p in by_stop[0].get("bus", [])
    )
    assert picks[(0, (0.0, 0.0, 1.0))] == "bike"
    # At stop 3 the certain-low corner stays on the bus, certain-high bikes.
    assert picks[(3, (1.0, 0.0, 0.0))] == "bus"
    assert picks[(3, (0.0, 0.0, 1.0))] == "bike"
    # Both actions appear somewhere at each of the first three stops.
    for stop in (0, 1, 2):
        assert by_stop[stop].get("bus"), f"no bus region at stop {stop}"
        assert by_stop[stop].get("bike"), f"no bike region at stop {stop}"


def test_criterion_4_importance_sampling_unbiased():
    rng = np.random.default_rng(4)
    m = make_random_model(rng, n_states=2, n_actions=2, n_observations=2)
    bank = posmdp.collect(m, 100_001, seed=11)
    ratios = np.exp(-m.beta * bank.times) / posmdp.mixture_density(bank, m, bank.times)
    for s in range(2):
        for a in range(2):
            for s2 in range(2):
                if m.transition[s, a, s2] == 0:
                    continue
                dist = m.sojourn[(s, a, s2)]
                terms = ratios * dist.pdf(bank.times)
                est, se = terms.mean(), terms.std(ddof=1) / math.sqrt(len(terms))
                truth, _ = integrate.quad(
                    lambda t: math.exp(-m.beta * t) * dist.pdf(t), 0, np.inf,
                    limit=200,
                )
                assert abs(est - truth) <= 3 * se, (s, a, s2, est, truth, se)


def test_criterion_5_monotone_improvement(maintenance_run, bus_run):
    maint_result, _ = maintenance_run
    bus_result, _, _ = bus_run
    for result in (maint_result, bus_result):
        assert result.trace, "no iterations recorded"
        assert min(rec.min_improvement for rec in result.trace) >= -1e-9


def test_criterion_6_backup_brute_force_equivalence():
    for case in range(100):
        rng = np.random.default_rng(20_000 + case)
        m = make_random_model(
            rng,
            n_states=int(rng.integers(2, 4)),
            n_actions=int(rng.integers(1, 3)),
            n_observations=int(rng.integers(1, 3)),
            with_atoms=True,
        )
        bank = posmdp.collect(m, int(rng.integers(2, 6)), seed=case)
        vf = ValueFunction([
            AlphaVector(rng.normal(size=m.n_states), int(rng.integers(m.n_actions)))
            for _ in range(int(rng.integers(1, 4)))
        ])
        xi = rng.dirichlet(np.ones(m.n_states))
        alpha = backup(m, vf, posmdp.BackupCache(m, bank), xi)
        ref_values, ref_action = brute_force_backup(m, vf, bank, xi)
        np.testing.assert_allclose(alpha.values, ref_values, atol=1e-10)
        assert alpha.action == ref_action


def test_criterion_7_distribution_correctness(rng):
    ig = posmdp.InverseGaussian(5.0, 250.0)
    tg = posmdp.TruncatedGaussian(10.0, 1.5)
    # pdf normalization by quadrature.
    for dist, hi in ((ig, 100.0), (tg, 30.0)):
        total, _ = integrate.quad(dist.pdf, 0, hi, points=[5.0, 10.0], limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)
    # closed-form expected discount vs quadrature.
    for dist in (ig, tg):
        ref, _ = integrate.quad(
            lambda t: math.exp(-0.02 * t) * dist.pdf(t), 0, np.inf, limit=200
        )
        assert dist.expected_discount(0.02) == pytest.approx(ref, abs=1e-6)
    # KS < 0.01 on 1e5 samples.
    for dist in (ig, tg):
        draws = np.sort(dist.time(rng.random(100_000), rng.random(100_000), *dist.params))
        grid = dist.cdf(draws)
        n = len(draws)
        ks = max(np.max(np.arange(1, n + 1) / n - grid),
                 np.max(grid - np.arange(n) / n))
        assert ks < 0.01
    # The 455-minute reset makes follow-on episodes worth about 1e-4.
    reset = posmdp.DeterministicAtom(455.0)
    assert reset.expected_discount(0.02) == pytest.approx(1.0e-4, abs=2e-5)


def test_criterion_8_belief_update_consistency():
    from posmdp.belief import update_with_time, update_without_time

    for case in range(5):
        rng = np.random.default_rng(30_000 + case)
        m = make_random_model(rng, n_states=3, n_actions=2, n_observations=3)
        xi = rng.dirichlet(np.ones(3))
        # Normalization to 1e-12 on time-aware updates at sampled evidence.
        for _ in range(20):
            s = rng.choice(3, p=xi)
            a = int(rng.integers(2))
            s2 = rng.choice(3, p=m.transition[s, a])
            law = m.sojourn[(s, a, s2)]
            tau = float(law.time(rng.random(), rng.random(), *law.params))
            o = rng.choice(3, p=m.observation_kernel[a, s2])
            post = update_with_time(m, xi, a, tau, o)
            assert abs(post.sum() - 1.0) <= 1e-12
            assert np.all(post >= 0)
        # Marginalizing the sojourn time out of the evidence recovers the
        # time-free update, checked by Monte Carlo within 3 SE.
        a, o = 1, 0
        n = 30_000
        # The (s, s') pairs are drawn as Generator.choice draws them, one
        # uniform each, through cumulative sums normalized by their last entry.
        u = rng.random((n, 2))
        cdf = np.cumsum(xi)
        s = np.searchsorted(cdf / cdf[-1], u[:, 0], side="right")
        rows = np.cumsum(m.transition[:, a, :], axis=1)
        rows /= rows[:, -1:]
        s2 = (rows[s] <= u[:, 1:]).sum(axis=1)  # searchsorted(side="right") per row
        draws = np.zeros((n, 3))
        draws[np.arange(n), s2] = m.observation_kernel[a, s2, o]
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(n)
        target = m.observation_kernel[a, :, o] * (xi @ m.transition[:, a, :])
        assert np.all(np.abs(mean - target) <= 3 * se + 1e-12)
        np.testing.assert_allclose(
            update_without_time(m, xi, a, o), target / target.sum(), rtol=1e-12
        )


# The timed loop of the scaling test, run in a child process with one BLAS
# thread: a threaded one-row product slows several times over when the BLAS
# worker thread shares the main thread's CPU, which depends on the scheduler
# and on the work run before it, not on the backup.
_SCALING_LOOP = """
import time
import numpy as np
import posmdp
from conftest import make_random_model
from posmdp.solver import AlphaVector, ValueFunction, backup

rng = np.random.default_rng(99)
m = make_random_model(rng, n_states=3, n_actions=2, n_observations=3)
vf = ValueFunction([AlphaVector(rng.normal(size=3), i % 2) for i in range(8)])
xi = rng.dirichlet(np.ones(3))

def best_time(n):
    bank = posmdp.collect(m, n + 1, seed=1)
    cache = posmdp.BackupCache(m, bank)
    best = np.inf
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(5):
            backup(m, vf, cache, xi)
        best = min(best, (time.perf_counter() - t0) / 5)
    return best

small = best_time(4000)
print(best_time(16000) / small)
"""


def test_backup_time_scales_linearly_in_samples():
    # Stand-in for the (non-reproducible) runtime comparison: doubling the
    # sample count should roughly double backup time, not square it.
    paths = [os.path.dirname(os.path.dirname(posmdp.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    child = subprocess.run([sys.executable, "-c", _SCALING_LOOP], env=env, check=True,
                           capture_output=True, text=True)
    ratio = float(child.stdout)
    # 4x the samples: expect ~4x the time, allow a generous band for
    # constant overheads and timer noise.
    assert 1.5 <= ratio <= 12.0, f"scaling ratio {ratio:.2f}"


_WORKFLOW = """
import sys
import posmdp
from posmdp import sampler, simulator, solver
from posmdp.model import build_builtin

def masked():
    return {m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")}

imported = masked()
model = build_builtin("maintenance")
solver.solve(model, sampler.collect(model, 60, 0), seed=0)
bus = build_builtin("bus")
vf = solver.solve(bus, sampler.collect(bus, 60, 0), seed=0).value_function
simulator.evaluate(bus, vf, 5, 10, 0)
print(sorted(masked() - imported))
"""


def test_workflow_loads_no_masked_arrays():
    # numpy.ma costs about 1.7 MB of resident memory, and a bare np.unique
    # loads it lazily on numpy 2. Compared with the modules after import, so
    # that it holds on numpy 1.x too, which imports numpy.ma eagerly.
    paths = [os.path.dirname(os.path.dirname(posmdp.__file__))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    child = subprocess.run([sys.executable, "-c", _WORKFLOW], env=env, check=True,
                           capture_output=True, text=True)
    assert child.stdout.strip() == "[]"
