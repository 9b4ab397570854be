"""The benchmark's traced run patches package names; they must all exist.

``bench/tracer.py`` wraps functions and methods by looking them up in their
owner's ``__dict__``, so renaming or removing one of them breaks the traced
benchmark run. Its hooks also read what the package returns (the cache's
``kappa``, a backup's ``values``, a solve's ``trace``), so a traced collect
and solve must still fill its counters. This reads ``bench/`` and changes
nothing there.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture()
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracer

    yield tracer
    sys.modules.pop("tracer", None)


def test_every_patch_resolves_and_is_restored(tracer_module):
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert len(patches) == 19
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original


def test_hooks_read_a_traced_solve(tracer_module, maintenance_model):
    from posmdp import sampler, solver

    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        with tracer.root("run"):
            bank = sampler.collect(maintenance_model, 60, 0)
            # The sample-based initial bound does not apply to this bank.
            solver.solve(maintenance_model, bank, v0=solver.conservative_value_function(
                maintenance_model), seed=0)
    finally:
        tracer.uninstall()
    assert tracer.cache_groups == [4]
    assert tracer.collected == 60
    assert len(tracer.unaccounted) == 1
    summary = tracer.summary()
    assert summary["solver.backup"]["calls"] > 0
    assert summary["solver.perseus_update"]["calls"] > 0
    assert summary["belief.update_with_time"]["calls"] > 0  # collect's filter loop


def test_traced_evaluate_takes_greedy_actions_from_the_value_function(tracer_module,
                                                                      bus_model):
    from posmdp import simulator, solver

    vf = solver.constant_value_function(bus_model, 0.0)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        with tracer.root("run"):
            simulator.evaluate(bus_model, vf, 4, 3, 0)
    finally:
        tracer.uninstall()
    assert tracer.summary()["solver.ValueFunction.action_at"]["calls"] > 0
