"""POSMDP model representation, validation, rewards, builders, and file I/O.

A model is a finite-state, finite-action, finite-observation semi-Markov
decision process with partial observability: a row-stochastic transition
tensor ``P(s' | s, a)``, a sojourn-time law per reachable ``(s, a, s')``
triple, a row-stochastic observation kernel ``G(o | a, s')``, lump-sum and
continuous-rate rewards, a continuous discount rate, and an initial belief.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .distributions import (
    BetaDensity,
    DeterministicAtom,
    InverseGaussian,
    SojournDistribution,
    SojournFamily,
    TruncatedGaussian,
    atom_mask,
    draw_rows,
    mixed_density,
)

__all__ = [
    "PosmdpModel",
    "MixedObservable",
    "StageRewardTable",
    "ValidationReport",
    "ModelFormatError",
    "compute_stage_reward",
    "validate",
    "build_bus_problem",
    "build_maintenance_problem",
    "load_model",
    "save_model",
    "model_to_dict",
    "model_from_dict",
    "model_hash",
]

ROW_SUM_TOL = 1e-9
BELIEF_SUM_TOL = 1e-12
MODEL_FILE_VERSION = 1


class ModelFormatError(ValueError):
    """Raised when a model document cannot be parsed."""


@dataclass(frozen=True)
class MixedObservable:
    """Factorization of a state into an observed and a hidden coordinate.

    ``state_coords[s]`` gives ``(observable_index, hidden_index)`` for state
    ``s``; used by the policy-mesh export for problems where one coordinate
    is perfectly observed.
    """

    observable_labels: tuple
    hidden_labels: tuple
    state_coords: tuple  # tuple of (observable_index, hidden_index) per state


@dataclass(frozen=True)
class PosmdpModel:
    """Model arrays plus the sojourn table built from ``sojourn``.

    ``sojourn_families`` holds the laws of all actions as one
    :class:`~posmdp.distributions.SojournFamily` per distribution family (in
    order of first appearance), with the ``(s, a, s')`` cells of each law and
    their parameters as arrays; the density methods evaluate one numpy
    expression per family. The law of ``(s, a, s')`` is cell ``c`` of family
    ``k``, ``(k, c) = sojourn_cell[:, s, a, s']`` (-1: none).
    ``transition_cdf`` and ``observation_cdf`` are the cumulative rows of
    ``transition`` (over s') and ``observation_kernel`` (over o).
    """

    states: tuple
    actions: tuple
    observations: tuple
    transition: np.ndarray  # [s, a, s']
    sojourn: dict  # (s, a, s') -> SojournDistribution
    observation_kernel: np.ndarray  # [a, s', o]
    lump_reward: np.ndarray  # [s, a]
    rate_reward: np.ndarray  # [s, a, s']
    beta: float
    initial_belief: np.ndarray
    admissible: np.ndarray = None  # bool [s, a]; default all actions everywhere
    mixed_observable: MixedObservable = None

    def __post_init__(self):
        n_s, n_a, n_o = self.n_states, self.n_actions, self.n_observations
        if len(set(self.actions)) != n_a:  # policy files and admissible name actions by label
            raise ValueError(f"action labels must be distinct, got {list(self.actions)}")
        if self.admissible is None:
            object.__setattr__(self, "admissible", np.ones((n_s, n_a), dtype=bool))
        for name in ("transition", "observation_kernel", "lump_reward", "rate_reward",
                     "initial_belief"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        shapes = {"transition": (n_s, n_a, n_s), "observation_kernel": (n_a, n_s, n_o),
                  "lump_reward": (n_s, n_a), "rate_reward": (n_s, n_a, n_s),
                  "initial_belief": (n_s,), "admissible": (n_s, n_a)}
        for name, shape in shapes.items():
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape}")
        mixed = self.mixed_observable
        if mixed is not None and (len(mixed.state_coords) != n_s or sorted(mixed.state_coords)
                                  != list(np.ndindex(len(mixed.observable_labels),
                                                     len(mixed.hidden_labels)))):
            raise ValueError("mixed_observable.state_coords must list every (observable, "
                             "hidden) pair exactly once, one pair per state")
        families = {}  # kind -> [(s, a, s', *params)]
        for (s, a, s2), dist in self.sojourn.items():
            if not (0 <= s < n_s and 0 <= a < n_a and 0 <= s2 < n_s):
                raise ValueError(f"sojourn key (s={s}, a={a}, s'={s2}) is out of range")
            families.setdefault(type(dist), []).append((s, a, s2, *dist.params))
        cell = np.full((2, n_s, n_a, n_s), -1)
        for k, (kind, members) in enumerate(families.items()):
            rows, actions, cols, *params = zip(*members)
            cell[0, rows, actions, cols], cell[1, rows, actions, cols] = k, np.arange(len(rows))
            families[kind] = SojournFamily(kind, tuple(map(np.array, (rows, actions, cols))),
                                           tuple(np.array(p, dtype=float) for p in params))
        object.__setattr__(self, "sojourn_cell", cell)
        object.__setattr__(self, "sojourn_families", tuple(families.values()))
        object.__setattr__(self, "atom_values", frozenset(
            d.atom for d in self.sojourn.values() if d.atom is not None))
        object.__setattr__(self, "transition_cdf", np.cumsum(self.transition, axis=2))
        object.__setattr__(self, "observation_cdf", np.cumsum(self.observation_kernel, axis=2))

    @property
    def n_states(self):
        return len(self.states)

    @property
    def n_actions(self):
        return len(self.actions)

    @property
    def n_observations(self):
        return len(self.observations)

    def sojourn_density_matrix(self, a: int, tau: float) -> np.ndarray:
        """Mixed-measure f(tau | s, a, s') as an [s, s'] array, zero where the
        model gives no sojourn law: one time of :meth:`sojourn_density_samples`."""
        return self.sojourn_density_samples(a, [tau])[0]

    def sojourn_density_samples(self, a, taus: np.ndarray) -> np.ndarray:
        """f(tau_n | s, a_n, s') for a vector of times and one action or one per time,
        shaped [n, s, s']; ``a = slice(None)`` gives every action's, shaped [n, s, a, s'].
        Each family is evaluated once, over all its ``(s, a, s')`` cells at every time."""
        taus = np.asarray(taus, dtype=float).reshape(-1, 1)
        out = np.zeros((taus.shape[0], self.n_states, self.n_actions, self.n_states))
        at_atom = atom_mask(taus, self.atom_values)  # tested once for all families
        for family in self.sojourn_families:
            out[(slice(None), *family.cells)] = mixed_density(family, taus, at_atom)
        return out[np.arange(taus.shape[0]), :, a]

    def draw_transitions(self, s, a, u):
        """The transition kernel: per row, (s', tau, o) from its four uniforms
        ``u[row]``, spent in order on s' ~ P(. | s, a), the ``time`` map of the law
        of (s, a, s') (two) and o ~ G(. | a, s'). Collection and rollouts use it."""
        if not self.admissible[s, a].all():
            bad = np.flatnonzero(~self.admissible[s, a])[0]
            raise ValueError(f"action {a[bad]} is not admissible in state {s[bad]}")
        s2 = draw_rows(self.transition_cdf[s, a], u[:, 0])
        k, cell = self.sojourn_cell[:, s, a, s2]
        if (k < 0).any():
            e = np.argmax(k < 0)
            raise ValueError(f"(s, a, s') = ({s[e]}, {a[e]}, {s2[e]}) has no sojourn law")
        tau = np.empty(len(s))
        for i in set(k.tolist()):  # the families drawn from
            rows, family = np.flatnonzero(k == i), self.sojourn_families[i]
            tau[rows] = family.kind.time(u[rows, 1], u[rows, 2],
                                         *(p[cell[rows]] for p in family.params))
        return s2, tau, draw_rows(self.observation_cdf[a, s2], u[:, 3])


@dataclass(frozen=True)
class StageRewardTable:
    """Expected discounted reward R(s, a) accrued over one decision stage."""

    values: np.ndarray  # [s, a]


def compute_stage_reward(model: PosmdpModel) -> StageRewardTable:
    """Assemble R(s, a) from the lump-sum and constant-rate components.

    The rate component integrates ``r2 * exp(-beta t)`` over the sojourn and
    averages over the successor state, which for a constant rate reduces to
    ``r2 * (1 - E[exp(-beta tau)]) / beta`` per transition (and ``r2 * E[tau]``
    in the undiscounted limit).
    """
    values = np.array(model.lump_reward, dtype=float)
    for (s, a, s2), dist in model.sojourn.items():
        p = model.transition[s, a, s2]
        if p == 0.0:
            continue
        rate = model.rate_reward[s, a, s2]
        if rate == 0.0:
            continue
        if model.beta > 0:
            values[s, a] += p * rate * (1.0 - dist.expected_discount(model.beta)) / model.beta
        else:
            values[s, a] += p * rate * dist.mean()
    return StageRewardTable(values=values)


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(model: PosmdpModel) -> ValidationReport:
    """Check structural invariants and the boundedness assumptions."""
    report = ValidationReport()
    v = report.violations

    if not (math.isfinite(model.beta) and model.beta >= 0):
        v.append(f"discount rate beta must be finite and nonnegative, got {model.beta}")
    for name in ("transition", "observation_kernel", "initial_belief", "lump_reward",
                 "rate_reward"):
        if not np.all(np.isfinite(getattr(model, name))):
            v.append(f"{name} has non-finite entries")

    for kind, axes, table in (("transition", ("s", "a"), model.transition),
                              ("observation", ("a", "s'"), model.observation_kernel)):
        for index in np.ndindex(table.shape[:2]):
            row = table[index]
            where = f"{kind} row ({', '.join(f'{n}={i}' for n, i in zip(axes, index))})"
            if np.any(row < 0):
                v.append(f"{where} has negative entries")
            elif abs(row.sum() - 1.0) > ROW_SUM_TOL:
                v.append(f"{where} sums to {row.sum():.12g}, not 1")

    missing = (model.transition > 0) & (model.sojourn_cell[0] < 0)
    for s, a, s2 in zip(*np.nonzero(missing)):
        v.append(f"missing sojourn distribution for reachable (s={s}, a={a}, s'={s2})")

    if np.any(model.initial_belief < 0):
        v.append("initial belief has negative entries")
    if abs(model.initial_belief.sum() - 1.0) > BELIEF_SUM_TOL:
        v.append(f"initial belief sums to {model.initial_belief.sum():.15g}, not 1")

    if not model.admissible.any(axis=1).all():
        v.append("every state needs at least one admissible action")

    # Finite number of decision epochs in finite time: some sojourn mass must
    # lie above a positive threshold for every admissible (s, a).
    for s in range(model.n_states):
        for a in np.flatnonzero(model.admissible[s]):
            dists = [
                (model.transition[s, a, s2], model.sojourn.get((s, a, int(s2))))
                for s2 in np.flatnonzero(model.transition[s, a] > 0)
            ]
            if not dists or any(d is None for _, d in dists):
                continue  # already reported above
            tau_check = min(d.mean() for _, d in dists) / 2.0
            mass = sum(p * d.cdf(tau_check) for p, d in dists)
            if mass > 1.0 - 1e-9:
                v.append(f"(s={s}, a={int(a)}) allows an unbounded burst of epochs: "
                         f"P(tau <= {tau_check:g}) = {mass:.12g}")

    for (s, a, s2), dist in model.sojourn.items():
        if not math.isfinite(dist.mean()):
            v.append(f"sojourn distribution at (s={s}, a={a}, s'={s2}) has infinite mean")

    return report


# ---------------------------------------------------------------------------
# Built-in problems
# ---------------------------------------------------------------------------

N_STOPS = 5
N_INTENSITIES = 3

# Mean bus travel time between consecutive stops, per traffic intensity.
_BUS_MU = {
    1: [5.0, 5.0, 5.0, 5.0],
    2: [5.0, 10.0, 10.0, 20.0],
    3: [10.0, 25.0, 25.0, 45.0],
}
# Fixed bike time from stop s straight to the last stop.
_BIKE_TIME = [30.0, 25.0, 20.0, 12.0]
_RESET_TIME = 455.0
BUS_BETA = 0.02


def _bus_state(stop: int, intensity: int) -> int:
    return stop * N_INTENSITIES + (intensity - 1)


def build_bus_problem(goal_reward: bool = True) -> PosmdpModel:
    """Commuter problem: ride the bus or give up and bike to the last stop.

    State is (stop, traffic intensity) with the stop observed perfectly and
    the intensity hidden. With ``goal_reward`` (the default) arriving pays a
    lump sum of 100 and travel itself is free; otherwise a unit cost rate is
    charged continuously while travelling.
    """
    states = tuple(f"stop{s}_traffic{i}" for s in range(N_STOPS) for i in range(1, N_INTENSITIES + 1))
    actions = ("bus", "bike")
    observations = tuple(str(s) for s in range(N_STOPS))
    n = len(states)

    transition = np.zeros((n, 2, n))
    sojourn = {}

    for i in range(1, N_INTENSITIES + 1):
        for stop in range(N_STOPS - 1):
            src = _bus_state(stop, i)
            # Staying on the bus advances one stop; intensity never changes.
            nxt = _bus_state(stop + 1, i)
            transition[src, 0, nxt] = 1.0
            mu = _BUS_MU[i][stop]
            sojourn[(src, 0, nxt)] = InverseGaussian(mu=mu, lam=10.0 * mu * mu)
            # Biking goes straight to the last stop in fixed time.
            dest = _bus_state(N_STOPS - 1, i)
            transition[src, 1, dest] = 1.0
            sojourn[(src, 1, dest)] = DeterministicAtom(_BIKE_TIME[stop])
        # Last stop: probabilistic reset to stop 0 with a fresh intensity,
        # after a long fixed delay so episodes stay decoupled by discounting.
        last = _bus_state(N_STOPS - 1, i)
        for a in range(2):
            for i2 in range(1, N_INTENSITIES + 1):
                start = _bus_state(0, i2)
                transition[last, a, start] = 1.0 / N_INTENSITIES
                sojourn[(last, a, start)] = DeterministicAtom(_RESET_TIME)

    observation_kernel = np.zeros((2, n, N_STOPS))
    for a in range(2):
        for stop in range(N_STOPS):
            for i in range(1, N_INTENSITIES + 1):
                observation_kernel[a, _bus_state(stop, i), stop] = 1.0

    lump = np.zeros((n, 2))
    rate = np.zeros((n, 2, n))
    if goal_reward:
        for i in range(1, N_INTENSITIES + 1):
            lump[_bus_state(N_STOPS - 1, i), :] = 100.0
    else:
        rate[:, :, :] = -1.0

    initial_belief = np.zeros(n)
    for i in range(1, N_INTENSITIES + 1):
        initial_belief[_bus_state(0, i)] = 1.0 / N_INTENSITIES

    mixed = MixedObservable(
        observable_labels=observations,
        hidden_labels=("low", "medium", "high"),
        state_coords=tuple((s // N_INTENSITIES, s % N_INTENSITIES) for s in range(n)),
    )

    return PosmdpModel(
        states=states,
        actions=actions,
        observations=observations,
        transition=transition,
        sojourn=sojourn,
        observation_kernel=observation_kernel,
        lump_reward=lump,
        rate_reward=rate,
        beta=BUS_BETA,
        initial_belief=initial_belief,
        mixed_observable=mixed,
    )


MAINTENANCE_BETA = 0.01

_MAINT_P_SLOW = np.array([
    [0.1043, 0.7413, 0.1493, 0.0051],
    [0.0, 0.1043, 0.7413, 0.1544],
    [0.0, 0.0, 0.1043, 0.8957],
    [0.0, 0.0, 0.0, 1.0],
])
_MAINT_P_DOSE = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.50, 0.50, 0.0, 0.0],
    [0.25, 0.70, 0.05, 0.0],
    [0.20, 0.55, 0.20, 0.05],
])
_MAINT_P_REPLACE = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
])
_MAINT_SOJOURN = (
    DeterministicAtom(78.7433),       # do nothing
    DeterministicAtom(85.3052),       # backwash
    DeterministicAtom(3.0),           # dose chemicals
    TruncatedGaussian(mu=10.0, sigma=1.5),  # replace
)
_MAINT_BETA_SHAPES = (BetaDensity(2, 18), BetaDensity(6, 18), BetaDensity(18, 18), BetaDensity(18, 6))
_MAINT_LUMP = (0.0, -100.0, -200.0, -500.0)
_MAINT_RATE = np.array([
    [500.0, 500.0, -100.0, -100.0],
    [250.0, 250.0, -100.0, -100.0],
    [-300.0, -300.0, -100.0, -100.0],
    [-500.0, -500.0, -100.0, -100.0],
])


def observation_bin_points(bins: int) -> np.ndarray:
    """Evenly spaced turbidity-ratio points on [0, 1], kept off the endpoints."""
    if bins < 2:
        raise ValueError(f"need at least 2 observation bins, got {bins}")
    return np.clip(np.linspace(0.0, 1.0, bins), 1e-9, 1.0 - 1e-9)


def discretized_beta_row(density: BetaDensity, bins: int) -> np.ndarray:
    raw = density.pdf(observation_bin_points(bins))
    return raw / raw.sum()


def build_maintenance_problem(observation_bins: int = 100) -> PosmdpModel:
    """Water-filter maintenance with turbidity-ratio observations.

    Four filter conditions, four maintenance actions, and a continuous
    observation in [0, 1] discretized into ``observation_bins`` points whose
    likelihood per action follows a beta density.
    """
    states = ("good", "acceptable", "poor", "awful")
    actions = ("nothing", "backwash", "dose", "replace")
    observations = tuple(f"o{k:03d}" for k in range(observation_bins))

    transition = np.stack([_MAINT_P_SLOW, _MAINT_P_SLOW, _MAINT_P_DOSE, _MAINT_P_REPLACE], axis=1)

    sojourn = {}
    for a in range(4):
        for s in range(4):
            for s2 in np.flatnonzero(transition[s, a] > 0):
                sojourn[(s, a, int(s2))] = _MAINT_SOJOURN[a]

    # Turbidity reflects the condition of the filter the system lands in, so
    # the beta shape is indexed by the successor state and shared across
    # actions.  (With action-indexed shapes the observation would carry no
    # state information at all and monitoring would be pointless.)
    observation_kernel = np.zeros((4, 4, observation_bins))
    for s2 in range(4):
        observation_kernel[:, s2, :] = discretized_beta_row(
            _MAINT_BETA_SHAPES[s2], observation_bins
        )

    lump = np.tile(np.array(_MAINT_LUMP), (4, 1))
    rate = np.repeat(_MAINT_RATE[:, :, None], 4, axis=2)

    return PosmdpModel(
        states=states,
        actions=actions,
        observations=observations,
        transition=transition,
        sojourn=sojourn,
        observation_kernel=observation_kernel,
        lump_reward=lump,
        rate_reward=rate,
        beta=MAINTENANCE_BETA,
        initial_belief=np.array([1.0, 0.0, 0.0, 0.0]),
    )


BUILTIN_MODELS = ("bus", "maintenance")


def build_builtin(name: str, observation_bins: int = 100) -> PosmdpModel:
    if name == "bus":
        return build_bus_problem()
    if name == "maintenance":
        return build_maintenance_problem(observation_bins)
    raise ValueError(f"unknown built-in model {name!r}; choose from {BUILTIN_MODELS}")


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------

# Per sojourn law class: its file tag and the file keys of its fields, in order.
_SOJOURN_TAGS = {InverseGaussian: ("inverse_gaussian", ("mu", "lambda")),
                 DeterministicAtom: ("atom", ("c0",)),
                 TruncatedGaussian: ("truncated_gaussian", ("mu", "sigma"))}


def _dist_to_dict(dist: SojournDistribution) -> dict:
    for law, (tag, keys) in _SOJOURN_TAGS.items():
        if isinstance(dist, law):
            return {"type": tag, **dict(zip(keys, astuple(dist)))}
    raise TypeError(f"unsupported sojourn distribution {type(dist).__name__}")


def _dist_from_dict(doc, where: str) -> SojournDistribution:
    kind = doc.get("type") if isinstance(doc, dict) else None
    for law, (tag, keys) in _SOJOURN_TAGS.items():
        if kind == tag:
            _check_keys(doc, {"type", *keys}, where)
            return law(*(_number(doc[key], f"{where}.{key}") for key in keys))
    raise ModelFormatError(f"{where}: unknown sojourn distribution tag {kind!r}")


def model_to_dict(model: PosmdpModel) -> dict:
    doc = {
        "version": MODEL_FILE_VERSION,
        "states": list(model.states),
        "actions": list(model.actions),
        "observations": list(model.observations),
        "transition": model.transition.tolist(),
        "sojourn": [
            {"s": s, "a": a, "s_next": s2, "dist": _dist_to_dict(d)}
            for (s, a, s2), d in sorted(model.sojourn.items())
        ],
        "observation_kernel": model.observation_kernel.tolist(),
        "r1": model.lump_reward.tolist(),
        "r2": model.rate_reward.tolist(),
        "beta": model.beta,
        "initial_belief": model.initial_belief.tolist(),
    }
    if not model.admissible.all():
        doc["admissible"] = [
            [model.actions[a] for a in np.flatnonzero(model.admissible[s])]
            for s in range(model.n_states)
        ]
    if model.mixed_observable is not None:
        doc["mixed_observable"] = {
            "observable_labels": list(model.mixed_observable.observable_labels),
            "hidden_labels": list(model.mixed_observable.hidden_labels),
            "state_coords": [list(c) for c in model.mixed_observable.state_coords],
        }
    return doc


def model_from_dict(doc: dict) -> PosmdpModel:
    """Build a model from a parsed document.

    Any malformed part, whether a missing key, a value of the wrong type, a
    non-integer index or an array of the wrong shape, ends in
    :class:`ModelFormatError`.
    """
    _check_keys(doc, {"version", "states", "actions", "observations", "transition", "sojourn",
                      "observation_kernel", "r1", "r2", "beta", "initial_belief"},
                "model document", optional={"admissible", "mixed_observable"})
    if _number(doc["version"], "version", integer=True) != MODEL_FILE_VERSION:
        raise ModelFormatError(f"unsupported model file version {doc['version']!r}")
    try:
        return _parse_model(doc)
    except ModelFormatError:
        raise
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise ModelFormatError(f"malformed model document: {type(exc).__name__}: {exc}"
                               ) from exc


def _check_keys(obj, keys: set, where: str, optional=frozenset()) -> None:
    """Raise :class:`ModelFormatError` unless ``obj`` is a JSON object holding every
    key in ``keys`` and no key outside ``keys`` and ``optional``."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where} must be a JSON object")
    missing, unknown = sorted(keys - set(obj)), sorted(set(obj) - keys - optional)
    if missing or unknown:
        raise ModelFormatError(f"{where}: missing keys {missing}, unknown keys {unknown}")


def _number(value, field: str, integer: bool = False):
    """``value`` if it is a JSON integer or, unless ``integer``, a finite JSON float;
    ``true``, a numeric string or NaN is a :class:`ModelFormatError` naming ``field``."""
    if type(value) is int or (not integer and type(value) is float and math.isfinite(value)):
        return value
    kind = "an integer" if integer else "a finite number"
    raise ModelFormatError(f"{field} must be {kind}, got {value!r}")


def _numbers(value, field: str, integer: bool = False):
    """``value``, nested lists of numbers, with each number checked by :func:`_number`."""
    if isinstance(value, list):
        return [_numbers(v, f"{field}[{i}]", integer) for i, v in enumerate(value)]
    return _number(value, field, integer)


def _json_list(doc: dict, name: str) -> list:
    # tuple() of a JSON string would split it into one label per character.
    if not isinstance(doc[name], list):
        raise ModelFormatError(f"{name} must be a JSON list")
    return doc[name]


def _array(doc: dict, name: str) -> np.ndarray:
    """The list field ``name`` of ``doc`` as a float array, each number checked."""
    return np.asarray(_numbers(_json_list(doc, name), name), dtype=float)


def _parse_model(doc: dict) -> PosmdpModel:
    states, actions = tuple(_json_list(doc, "states")), tuple(_json_list(doc, "actions"))

    sojourn = {}
    for i, rec in enumerate(doc["sojourn"]):
        _check_keys(rec, {"s", "a", "s_next", "dist"}, f"sojourn[{i}]")
        key = tuple(_number(rec[name], f"sojourn[{i}].{name}", integer=True)
                    for name in ("s", "a", "s_next"))
        if key in sojourn:
            raise ModelFormatError(f"sojourn[{i}] repeats (s, a, s_next) = {key}")
        sojourn[key] = _dist_from_dict(rec["dist"], f"sojourn[{i}].dist")

    admissible = None
    if "admissible" in doc:
        for s, names in enumerate(doc["admissible"]):
            unknown = sorted(set(names) - set(actions))
            if unknown:
                raise ModelFormatError(f"admissible action {unknown[0]!r} for state {s} "
                                       "is not in the action list")
        admissible = np.array([[name in names for name in actions]
                               for names in doc["admissible"]], dtype=bool)

    mixed = None
    if "mixed_observable" in doc:
        m = doc["mixed_observable"]
        _check_keys(m, {"observable_labels", "hidden_labels", "state_coords"}, "mixed_observable")
        mixed = MixedObservable(
            observable_labels=tuple(_json_list(m, "observable_labels")),
            hidden_labels=tuple(_json_list(m, "hidden_labels")),
            state_coords=tuple(map(tuple, _numbers(m["state_coords"],
                                                   "mixed_observable.state_coords", integer=True))),
        )

    return PosmdpModel(
        states=states,
        actions=actions,
        observations=tuple(_json_list(doc, "observations")),
        transition=_array(doc, "transition"),
        sojourn=sojourn,
        observation_kernel=_array(doc, "observation_kernel"),
        lump_reward=_array(doc, "r1"),
        rate_reward=_array(doc, "r2"),
        beta=float(_number(doc["beta"], "beta")),
        initial_belief=_array(doc, "initial_belief"),
        admissible=admissible,
        mixed_observable=mixed,
    )


def load_model(source) -> PosmdpModel:
    """Load and validate a model from a path or a file object."""
    model = _read_model(source)
    report = validate(model)
    if not report.ok:
        raise ModelFormatError("model fails validation: " + "; ".join(report.violations))
    return model


def _read_model(source) -> PosmdpModel:
    """Parse a model from a path or a file object, without :func:`validate`."""
    return model_from_dict(_read_json(source, "model file"))


def _read_json(source, what: str):
    """JSON from a path or file object; non-UTF-8 text or bad JSON is a ModelFormatError."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{what}: not UTF-8 text ({exc.reason}, byte {exc.start})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{what}: invalid JSON at line {exc.lineno}, column "
                               f"{exc.colno}: {exc.msg}") from exc


def save_model(model: PosmdpModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=1, sort_keys=True)
        fh.write("\n")


def model_hash(model: PosmdpModel) -> str:
    """SHA-256 of the model's document, computed once per (immutable) model object."""
    if "_hash" not in model.__dict__:
        payload = json.dumps(model_to_dict(model), sort_keys=True).encode()
        object.__setattr__(model, "_hash", hashlib.sha256(payload).hexdigest())
    return model._hash
