"""Command-line front end.

Subcommands: ``solve`` (collect beliefs and run value iteration), ``simulate``
(Monte Carlo evaluation of a saved policy), ``validate`` (model file checks),
``export-mesh`` (policy actions over a regular belief-simplex mesh per
observable coordinate), and ``collect`` (write a sample bank without solving).

Models are given either as a JSON file path or as a built-in name (``bus``,
``maintenance``). Exit codes: 0 success, 1 parse/validation/mismatch failure,
2 solver non-convergence (the policy file is still written).
"""

from __future__ import annotations

import argparse
import csv
import sys
from itertools import combinations

import numpy as np

from . import model as model_mod
from . import sampler, simulator, solver

DEFAULT_SEED = 0
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


def _load_model(args):
    name = args.model
    if name in model_mod.BUILTIN_MODELS:
        return model_mod.build_builtin(name, args.observation_bins)
    return model_mod.load_model(name)


def _positive(kind):
    def parse(text):
        value = kind(text)
        if not 0 < value < np.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posmdp",
        description="Point-based value iteration for partially observable "
                    "semi-Markov decision processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("model", help="model JSON file, or built-in name "
                       f"({', '.join(model_mod.BUILTIN_MODELS)})")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"random seed (default {DEFAULT_SEED})")
        p.add_argument("--observation-bins", type=_positive(int), default=100,
                       help="observation discretization for built-in models that "
                            "use one (default 100)")

    p_solve = sub.add_parser("solve", help="collect beliefs and solve a model")
    add_common(p_solve)
    p_solve.add_argument("--beliefs", type=_positive(int), default=1000,
                         help="number of belief points to collect (default 1000)")
    p_solve.add_argument("--epsilon", type=_positive(float), default=None,
                         help="convergence threshold (default 1e-4 of the largest "
                              "stage-reward magnitude)")
    p_solve.add_argument("--max-iters", type=_positive(int), default=500,
                         help="iteration cap (default 500)")
    p_solve.add_argument("--initial-alpha", type=float, default=None,
                         help="constant initial value (default: the lower bound "
                              "from the expected per-stage discount)")
    p_solve.add_argument("--output", default="policy.json", help="policy file to write")

    p_sim = sub.add_parser("simulate", help="evaluate a saved policy by rollout")
    add_common(p_sim)
    p_sim.add_argument("policy", help="policy JSON produced by solve")
    p_sim.add_argument("--episodes", type=_positive(int), default=1000,
                       help="independent rollouts (default 1000)")
    p_sim.add_argument("--epochs", type=_positive(int), default=50,
                       help="decision epochs per rollout (default 50)")
    p_sim.add_argument("--trajectory", default=None,
                       help="write the first rollout as CSV here")

    p_val = sub.add_parser("validate", help="check a model file's invariants")
    add_common(p_val)

    p_mesh = sub.add_parser("export-mesh",
                            help="policy action/value over a belief-simplex mesh")
    add_common(p_mesh)
    p_mesh.add_argument("policy", help="policy JSON produced by solve")
    p_mesh.add_argument("--mesh-resolution", type=_positive(int), default=20,
                        help="simplex subdivisions per edge (default 20)")
    p_mesh.add_argument("--output", default="mesh.csv", help="CSV file to write")

    p_col = sub.add_parser("collect", help="write a sample bank without solving")
    add_common(p_col)
    p_col.add_argument("--beliefs", type=_positive(int), default=1000,
                       help="number of belief points to collect (default 1000)")
    p_col.add_argument("--output", default="bank.json", help="bank file to write")

    return parser


def cmd_solve(args) -> int:
    model = _load_model(args)
    bank = sampler.collect(model, args.beliefs, args.seed)
    v0 = (None if args.initial_alpha is None
          else solver.constant_value_function(model, args.initial_alpha))
    result = solver.solve(model, bank, v0=v0, epsilon=args.epsilon,
                          max_iters=args.max_iters, seed=args.seed)
    for rec in result.trace:
        print(f"iter {rec.iteration:4d}  |V| {rec.n_vectors:4d}  "
              f"residual {rec.residual:.6g}  min_improvement {rec.min_improvement:.6g}  "
              f"{rec.wall_time:.2f}s")
    solver.save_policy(result, model, args.output)
    if not result.converged:
        print(f"did not converge within {args.max_iters} iterations; "
              f"policy written to {args.output} anyway", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    print(f"converged in {result.iterations} iterations; "
          f"policy with {len(result.value_function)} vectors written to {args.output}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = _load_model(args)
    result = solver.load_policy(args.policy, model)
    mean, se = simulator.evaluate(model, result.value_function,
                                  args.episodes, args.epochs, args.seed)
    if se is None:
        print(f"mean discounted return: {mean:.6f} (single episode, no SE)")
    else:
        print(f"mean discounted return: {mean:.6f} +/- {se:.6f} (SE, "
              f"{args.episodes} episodes)")
    if args.trajectory is not None:
        rng = np.random.default_rng(np.random.SeedSequence(args.seed).spawn(1)[0])
        history = simulator.rollout(model, result.value_function,
                                    model.initial_belief, args.epochs, rng)
        simulator.write_trajectory(history, args.trajectory, model)
        print(f"trajectory written to {args.trajectory}")
    return EXIT_OK


def cmd_validate(args) -> int:
    # A file is parsed without load_model's check, which raises instead of listing.
    model = (_load_model(args) if args.model in model_mod.BUILTIN_MODELS
             else model_mod._read_model(args.model))
    report = model_mod.validate(model)
    print(f"{len(report.violations)} violations")
    for violation in report.violations:
        print(f"  - {violation}")
    return EXIT_OK if report.ok else EXIT_ERROR


def simplex_lattice(dimensions: int, resolution: int) -> np.ndarray:
    """All probability vectors with entries that are multiples of 1/resolution, as the
    rows of a [C(resolution + d - 1, d - 1), d] array in descending lexicographic order
    (stars and bars, d - 1 bars in resolution + d - 1 slots, in reverse order).
    """
    slots = resolution + dimensions - 1
    bars = np.array(list(combinations(range(slots), dimensions - 1)), dtype=int)  # [n, d - 1]
    counts = np.diff(bars, axis=1, prepend=-1, append=slots) - 1
    return counts[::-1] / resolution


def cmd_export_mesh(args) -> int:
    model = _load_model(args)
    result = solver.load_policy(args.policy, model)
    mixed = model.mixed_observable
    if mixed is None:
        print("error: model has no mixed_observable block; mesh export needs an "
              "explicit observable/hidden factorization", file=sys.stderr)
        return EXIT_ERROR
    vf = result.value_function
    n_hidden = len(mixed.hidden_labels)
    points = simplex_lattice(n_hidden, args.mesh_resolution)
    coord_to_state = {coords: s for s, coords in enumerate(mixed.state_coords)}
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["observable", *(f"belief_{i + 1}" for i in range(n_hidden)),
                         "action", "value"])
        for obs_idx, obs_label in enumerate(mixed.observable_labels):
            beliefs = np.zeros((len(points), model.n_states))
            beliefs[:, [coord_to_state[(obs_idx, h)] for h in range(n_hidden)]] = points
            # Row by row: a block product differs from these in the last bits.
            for point, belief in zip(points, beliefs):
                writer.writerow([str(obs_label), *(f"{x:.17g}" for x in point),
                                 model.actions[vf.action_at(belief)],
                                 f"{vf.value_at(belief):.17g}"])
    print(f"{len(points) * len(mixed.observable_labels)} mesh rows written to {args.output}")
    return EXIT_OK


def cmd_collect(args) -> int:
    model = _load_model(args)
    bank = sampler.collect(model, args.beliefs, args.seed)
    sampler.save_bank(bank, args.output)
    print(f"{len(bank.beliefs)} beliefs, {bank.n_samples} time samples "
          f"written to {args.output}")
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "export-mesh": cmd_export_mesh,
    "collect": cmd_collect,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, model_mod.ModelFormatError, solver.PolicyMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
