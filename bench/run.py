"""posmdp benchmark: run one workload at one seed and report its metrics.

    python3 bench/run.py --workload maintenance-solve --seed 0 --seconds 30 --trace 0

The program is imported from the ``src`` directory of the checkout this file
sits in; the run fails (exit 2, no result) when that directory is missing.
The metrics and their units are the ones ``BENCHMARK.json`` declares: its
``end_to_end`` list with ``--trace 0``, its ``per_layer`` list with
``--trace 1``.

Both kinds of run start with one untimed (but checked) warm-up operation.

Untraced run: the workload's fixed list of instances (drawn from ``--seed``)
is run once, then cycled again while ``--seconds`` have not passed. Times are
given at reference speed (see ``calibrate``): every operation is bracketed by
a fixed calibration loop, and its time is divided by the mean of the two loop
times, then multiplied by the loop's reference time.
An instance's time is the median over its repetitions; ``op_ref_s`` and
``op_cpu_ref_s`` are the mean over instances, so every instance counts once.
``setup_s`` is the median over ``SETUP_SAMPLES`` fresh processes of their
set-up seconds, each scaled by a reference process run just before it (see
``REFERENCE_IMPORT_S``). Raw seconds go to the report file.

Traced run: each instance runs untraced, then again with spans recorded around
each layer (see ``tracer.py``); per-layer numbers are totals over the traced
runs. ``tracing.overhead_share`` is the
median over instances of traced time over untraced time.

Every operation's output is checked (``workloads.py``). Human-readable lines
come first; the last line is one JSON object. The exit code is 1 when any
operation failed. Results, with provenance, also go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60
# Set-up is mostly imports, which slow down with the machine in their own way.
# Each set-up process is paired with a reference process that imports only
# numpy and scipy (``setup_child.py reference``); REFERENCE_IMPORT_S is a
# typical time of that process on the machine the benchmark was built on. Like
# CALIBRATION_REF_S below, it only sets the unit and must never change.
REFERENCE_IMPORT_S = 0.65

# On a shared machine the speed drifts by tens of percent within a minute, as
# other tenants load it, and process CPU time drifts with it. A fixed loop of
# small numpy and interpreter work, run right before and after each timed
# piece, measures that drift. CALIBRATION_REF_S is the loop's median time on
# the machine the benchmark was built on (2-core Intel Xeon at 2.0 GHz). It
# never changes, so reference-speed times stay comparable between commits.
CALIBRATION_STEPS = 8000
CALIBRATION_REF_S = 0.028
_CALIBRATION_MATRIX = np.random.default_rng(0).random((12, 12))


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    if not (SRC / "posmdp" / "__init__.py").is_file():
        raise BenchError(f"no posmdp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import posmdp

    if SRC.resolve() not in Path(posmdp.__file__).resolve().parents:
        raise BenchError(f"posmdp imported from {posmdp.__file__}, not from {SRC}")


def declared_metrics() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def calibrate() -> float:
    """Seconds of the fixed calibration loop: 12 x 12 matrix-vector products,
    too small for BLAS threading, with interpreter arithmetic between them."""
    x = np.full(12, 1 / 12)
    acc = 0.0
    start = time.perf_counter()
    for i in range(CALIBRATION_STEPS):
        x = _CALIBRATION_MATRIX @ x
        x /= x.sum()
        acc += float(x[i % 12])
    return time.perf_counter() - start


def to_ref(seconds: float, calibration_before: float, calibration_after: float) -> float:
    """``seconds`` measured between two calibration loops, at reference speed."""
    return seconds * 2 * CALIBRATION_REF_S / (calibration_before + calibration_after)


def child_setup_s(argument: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_child.py"), argument],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def measure_setup(workload_name: str) -> tuple:
    """Set-up of fresh processes: (reference-speed s, raw s, reference raw s)."""
    ref, raw, reference = [], [], []
    for _ in range(SETUP_SAMPLES):
        reference.append(child_setup_s("reference"))
        raw.append(child_setup_s(workload_name))
        ref.append(raw[-1] / reference[-1] * REFERENCE_IMPORT_S)
    return ref, raw, reference


class Tally:
    """Operations attempted and failed, and pass counts per output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.errors = []

    def run(self, workload, state, seed, out_path, timed_region=None):
        """Run and check one operation; returns (result, wall_s, cpu_s) or None."""
        self.attempted += 1
        try:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            if timed_region is None:
                result = workload.run(state, seed, out_path)
            else:
                with timed_region:
                    result = workload.run(state, seed, out_path)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            checks = workload.check(state, result, out_path)
        except Exception:  # an operation that raises is a failed operation
            self.failed += 1
            self.errors.append(f"seed {seed}: {traceback.format_exc(limit=3)}")
            return None
        for name, ok in checks.items():
            passed, total = self.checks.get(name, (0, 0))
            self.checks[name] = (passed + bool(ok), total + 1)
        if not all(checks.values()):
            self.failed += 1
            self.errors.append(f"seed {seed}: failed {[n for n, ok in checks.items() if not ok]}")
            return None
        return result, wall, cpu


def run_untraced(workload, state, seeds, seconds, out_path, tally):
    per_instance = [{"ref": [], "cpu_ref": [], "wall": [], "cpu": [], "value": None}
                    for _ in seeds]
    start = time.perf_counter()
    calibration = calibrate()
    i = 0
    while i < len(seeds) or time.perf_counter() - start < seconds:
        k = i % len(seeds)
        i += 1
        outcome = tally.run(workload, state, seeds[k], out_path)
        after = calibrate()
        if outcome is not None:
            result, wall, cpu = outcome
            record = per_instance[k]
            record["ref"].append(to_ref(wall, calibration, after))
            record["cpu_ref"].append(to_ref(cpu, calibration, after))
            record["wall"].append(wall)
            record["cpu"].append(cpu)
            record["value"] = workload.value(state, result)
        calibration = after
    done = [p for p in per_instance if p["ref"]]
    if not done:
        return {}, per_instance
    metrics = {
        "op_ref_s": statistics.fmean(statistics.median(p["ref"]) for p in done),
        "op_cpu_ref_s": statistics.fmean(statistics.median(p["cpu_ref"]) for p in done),
        "policy_value": statistics.fmean(p["value"] for p in done),
    }
    return metrics, per_instance


def run_traced(workload, state, seeds, out_path, tally):
    import tracer

    tr = tracer.Tracer()
    vectors, untraced = [], []
    for seed in seeds:
        outcome = tally.run(workload, state, seed, out_path)
        untraced.append(None if outcome is None else outcome[1])
        tr.install()
        try:
            outcome = tally.run(workload, state, seed, out_path, tr.root("workload.op"))
        finally:
            tr.uninstall()
        if outcome is not None:
            vectors.append(workload.vectors(state, outcome[0]))
    summary = tr.summary()
    name, _, start, end = tr.columns()
    op_spans = (end - start)[name == tr.names.index("workload.op")]
    # Each instance runs untraced right before it runs traced, so the two
    # see the same machine speed.
    overhead = [span / wall for span, wall in zip(op_spans, untraced) if wall]

    def ratio(num, den):
        return num / den if den else 0.0

    sweep = summary["solver.sweep"]
    derived = {
        "workload.ops": len(op_spans),
        "workload.op_s": float(op_spans.sum()),
        "solver.backup.useful_ratio": ratio(sum(tr.useful.values()), len(tr.useful)),
        "solver.sweep.backups": sweep["calls"],
        "solver.sweep.s": sweep["s"],
        "solver.sweep.share": ratio(sweep["s"], summary["solver.backup"]["s"]),
        "solver.BackupCache.build_s": summary["solver.BackupCache"]["s"],
        "solver.BackupCache.groups": ratio(sum(tr.cache_groups), len(tr.cache_groups)),
        "solver.value_function.vectors": ratio(sum(vectors), len(vectors)),
        "solver.trace.unaccounted_s": sum(tr.unaccounted),
        "sampler.collect.beliefs_per_s": ratio(tr.collected, summary["sampler.collect"]["s"]),
        "belief.update_with_time.share": ratio(summary["belief.update_with_time"]["s"],
                                               float(op_spans.sum())),
        "filter_layers.share": ratio(summary["filter_layers"]["s"], float(op_spans.sum())),
        "tracing.overhead_share": statistics.median(overhead) if overhead else 0.0,
        "tracing.spans": len(name),
    }

    def layer(metric):
        if metric in derived:
            return derived[metric]
        span, field = metric.rsplit(".", 1)
        stats = summary[span]
        if field == "us_per_call":
            return ratio(1e6 * stats["s"], stats["calls"])
        return stats[field]

    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"{workload.name}.spans.npz")
    return layer, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = declared_metrics()
    import_program()
    import provenance
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{workload.name}-policy.json"
    seeds = workloads.instance_seeds(args.seed, workload.instances)

    setup_ref, setup_raw, reference_raw = ([], [], []) if args.trace \
        else measure_setup(workload.name)
    state = workload.setup()
    tally = Tally()
    tally.run(workload, state, seeds[0], out_path)  # warm-up: lazy imports, BLAS threads

    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "size": workload.size, "instance_seeds": seeds}
    if args.trace:
        layer, summary = run_traced(workload, state, seeds, out_path, tally)
        declared_list = declared["per_layer"]
        values = {m["name"]: layer(m["name"]) for m in declared_list}
        report["spans"] = summary
    else:
        values, per_instance = run_untraced(workload, state, seeds, args.seconds,
                                            out_path, tally)
        if values:
            values["setup_s"] = statistics.median(setup_ref)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        declared_list = declared["end_to_end"]
        report["setup"] = {"ref_s": setup_ref, "raw_s": setup_raw,
                           "reference_raw_s": reference_raw}
        report["instances"] = per_instance

    correct = tally.failed == 0 and bool(values)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared_list if values}

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"size {json.dumps(workload.size)}")
    for name, (passed, total) in sorted(tally.checks.items()):
        print(f"check {name}: {'pass' if passed == total else 'FAIL'} ({passed}/{total})")
    for error in tally.errors:
        print(f"error {error}")
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace and correct:
        reps = [len(p["wall"]) for p in per_instance]
        raw_wall = statistics.fmean(statistics.median(p["wall"]) for p in per_instance)
        print(f"{len(reps)} instances, {min(reps)}-{max(reps)} repetitions each; "
              f"raw wall {raw_wall:.6g} s; raw set-up {statistics.median(setup_raw):.6g} s")
        if hasattr(workload, "steps"):
            print(f"rollout_steps_per_s {workload.steps / values['op_ref_s']:.6g} 1/s "
                  f"(reference speed)")

    report.update(correct=correct, attempted=tally.attempted, failed=tally.failed,
                  checks=tally.checks, errors=tally.errors, metrics=metrics,
                  provenance=provenance.collect(ROOT))
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=float) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
