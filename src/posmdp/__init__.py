"""Point-based value iteration for partially observable semi-Markov
decision processes (POSMDPs), with sojourn-time-aware belief filtering and
importance-sampled Bellman backups."""

from .belief import (
    ImpossibleEvidenceError,
    update_with_time,
    update_without_time,
)
from .distributions import (
    BetaDensity,
    DeterministicAtom,
    InverseGaussian,
    TruncatedGaussian,
    mixed_density,
)
from .model import (
    MixedObservable,
    ModelFormatError,
    PosmdpModel,
    build_bus_problem,
    build_maintenance_problem,
    compute_stage_reward,
    load_model,
    model_hash,
    save_model,
    validate,
)
from .sampler import (
    SampleBank,
    collect,
    mixture_density,
    save_bank,
)
from .simulator import HistoryRecord, evaluate, rollout, step
from .solver import (
    AlphaVector,
    BackupCache,
    InitialValueError,
    PolicyMismatchError,
    SolveResult,
    ValueFunction,
    backup,
    conservative_value_function,
    constant_value_function,
    initial_value_function,
    load_policy,
    perseus_update,
    save_policy,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaVector",
    "BackupCache",
    "BetaDensity",
    "DeterministicAtom",
    "HistoryRecord",
    "ImpossibleEvidenceError",
    "InitialValueError",
    "InverseGaussian",
    "MixedObservable",
    "ModelFormatError",
    "PolicyMismatchError",
    "PosmdpModel",
    "SampleBank",
    "SolveResult",
    "TruncatedGaussian",
    "ValueFunction",
    "backup",
    "build_bus_problem",
    "build_maintenance_problem",
    "collect",
    "compute_stage_reward",
    "conservative_value_function",
    "constant_value_function",
    "evaluate",
    "initial_value_function",
    "load_model",
    "load_policy",
    "mixed_density",
    "mixture_density",
    "model_hash",
    "perseus_update",
    "rollout",
    "save_bank",
    "save_model",
    "save_policy",
    "solve",
    "step",
    "update_with_time",
    "update_without_time",
    "validate",
]
