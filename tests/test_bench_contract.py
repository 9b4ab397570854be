"""The benchmark's traced run patches package names; they must all exist.

``bench/tracer.py`` wraps functions and methods by looking them up in their
owner's ``__dict__``, so renaming or removing one of them breaks the traced
benchmark run. This reads ``bench/`` and changes nothing there.
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
