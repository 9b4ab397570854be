"""Fuzz the file surface with mutated model and policy documents.

Each mutant drops a key (or list item), swaps a value for one of another JSON
type, or truncates a list, at a random depth. It must either load (and, for a
model, validate) or end in ``ModelFormatError``/``PolicyMismatchError``; any
other exception would reach the command line as a traceback.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posmdp
from posmdp.model import ModelFormatError, build_builtin, load_model, model_to_dict
from posmdp.solver import (
    AlphaVector,
    IterationRecord,
    PolicyMismatchError,
    SolveResult,
    ValueFunction,
    load_policy,
    save_policy,
)

# One value of each JSON type, and numbers that are bad indices or probabilities.
REPLACEMENTS = (None, True, 0, -1, 0.5, 1e308, float("nan"), "x", [], [1.0], {}, {"k": 1})

MODEL_TEXTS = {name: json.dumps(model_to_dict(build_builtin(name)))
               for name in ("bus", "maintenance")}


@st.composite
def mutants(draw, text):
    """A copy of the JSON document ``text`` with one mutation below its root.

    The path is walked from the root, stopping at each level with probability
    1/2, so every top-level field is as likely as the large numeric arrays.
    Truncating a value that is not a list swaps it instead.
    """
    doc = json.loads(text)
    parent, key = doc, draw(st.sampled_from(sorted(doc)))
    while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
        child = parent[key]
        parent, key = child, draw(st.sampled_from(sorted(child)) if isinstance(child, dict)
                                  else st.integers(0, len(child) - 1))
    kind = draw(st.sampled_from(("drop", "swap", "truncate")))
    if kind == "drop":
        del parent[key]
    elif kind == "truncate" and isinstance(parent[key], list) and parent[key]:
        parent[key] = parent[key][:draw(st.integers(0, len(parent[key]) - 1))]
    else:
        parent[key] = draw(st.sampled_from(REPLACEMENTS))
    return doc


@pytest.mark.parametrize("name", sorted(MODEL_TEXTS))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_mutated_model_loads_or_is_format_error(name, data):
    doc = data.draw(mutants(MODEL_TEXTS[name]))
    try:
        model = load_model(io.StringIO(json.dumps(doc)))
    except ModelFormatError:
        return
    assert posmdp.validate(model).ok


@pytest.fixture(scope="module")
def policy_case(tmp_path_factory, bus_model):
    """A saved bus policy's text and a scratch path to write mutants to."""
    path = tmp_path_factory.mktemp("fuzz") / "policy.json"
    result = SolveResult(
        value_function=ValueFunction([AlphaVector(np.linspace(0.0, 1.0, 15), 0),
                                      AlphaVector(np.full(15, 0.5), 1)]),
        trace=[IterationRecord(1, 2, 0.5, -0.1, 0.01), IterationRecord(2, 2, 0.0, 0.0, 0.01)],
        converged=True,
    )
    save_policy(result, bus_model, path)
    return path.read_text(), path


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_mutated_policy_loads_or_is_rejected(policy_case, bus_model, data):
    text, path = policy_case
    path.write_text(json.dumps(data.draw(mutants(text))))
    try:
        load_policy(path, bus_model)
    except (ModelFormatError, PolicyMismatchError):
        pass
