"""Steadiness report: how much each end-to-end metric moves between runs.

    python3 bench/steadiness.py [--workload maintenance-solve ...]

Runs ``run.py`` untraced, with ``run_seconds`` from ``BENCHMARK.json``, once
for each of the ``SEEDS`` seeds from ``FIRST_SEED``, then ``REPEATS`` times at
the held-out seed ``HELD_OUT``. For each workload and metric it prints:

- over the seeds: the median, the quartiles (``statistics.quantiles(values,
  n=4)``) and the spread ``(Q3 - Q1) / median``, flagged ``OVER`` when it
  exceeds the metric's bound and ``WIDE`` when it exceeds a third of it;
- at the held-out seed: the spread of its repeats, which is the noise a
  comparison at one seed sees, flagged the same way, and the deviation of
  their median from the median over seeds, flagged ``OUT`` beyond the bound.

The report is also written to ``.bench_out/steadiness.json``. Exit code 1 if
any run failed or any flag other than ``WIDE`` was raised.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180
SEEDS = 10
FIRST_SEED = 100
HELD_OUT = 1000
REPEATS = 5


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    result.update(seed=seed, exit_code=proc.returncode)
    return result


def spread(values: list, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / abs(median)
    flags = ["OVER"] if share > bound else ["WIDE"] if share > bound / 3 else []
    return {"median": median, "q1": q1, "q3": q3, "spread": share, "values": values,
            "flags": flags}


def summarize(metric: dict, seed_runs: list, repeat_runs: list) -> dict:
    name, bound = metric["name"], metric["bound"]
    seeds = spread([r["metrics"][name]["value"] for r in seed_runs], bound)
    repeats = spread([r["metrics"][name]["value"] for r in repeat_runs], bound)
    deviation = (repeats["median"] - seeds["median"]) / abs(seeds["median"])
    return {"bound": bound, "seeds": seeds, "held_out": repeats,
            "held_out_deviation": deviation,
            "flags": seeds["flags"] + [f"{f}@{HELD_OUT}" for f in repeats["flags"]]
            + (["OUT"] if abs(deviation) > bound else [])}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]

    report, bad = {}, False
    for name in names:
        runs = []
        for seed in [*range(FIRST_SEED, FIRST_SEED + SEEDS), *[HELD_OUT] * REPEATS]:
            runs.append(run_once(name, seed, seconds))
            print(f"{name} seed {seed}: exit {runs[-1]['exit_code']}", flush=True)
        failed = [r for r in runs if r["exit_code"] != 0 or not r.get("correct")]
        bad |= bool(failed)
        seed_runs = [r for r in runs[:SEEDS] if r.get("metrics")]
        repeat_runs = [r for r in runs[SEEDS:] if r.get("metrics")]
        rows = {m["name"]: summarize(m, seed_runs, repeat_runs)
                for m in declared["end_to_end"]
                } if len(seed_runs) >= 2 and len(repeat_runs) >= 2 else {}
        report[name] = {"runs": runs, "failed_runs": len(failed), "metrics": rows}
        print(f"\n{name}: {len(runs)} runs, {len(failed)} failed")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s} {'repeat':>8s} {'held-out':>9s}  flags")
        for metric, row in rows.items():
            bad |= any(not f.startswith("WIDE") for f in row["flags"])
            seeds = row["seeds"]
            print(f"  {metric:14s} {seeds['median']:12.6g} {seeds['q1']:12.6g} "
                  f"{seeds['q3']:12.6g} {seeds['spread']:8.4f} {row['bound']:6.3f} "
                  f"{row['held_out']['spread']:8.4f} {row['held_out_deviation']:+9.4f}  "
                  f"{' '.join(row['flags'])}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
