"""Run the benchmark over several seeds, report each metric's spread and
write the record of the runs.

Usage, from the repository root:

    python3 bench/sweep.py --workloads lattice kgroups --seeds 1-10 \
        [--sets 2] [--trace-seeds 1] [--out bench/records.json]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, with
the command and ``run_seconds`` of BENCHMARK.json, untraced, and does so
--sets times over the same seeds; then once per (workload, trace seed)
traced.  For every end-to-end metric and set it prints the median and
the spread: the distance between the first and third quartile of the
values (``statistics.quantiles(values, n=4)``) as a share of their
median, next to the metric's bound.  With two or more sets it also
prints each later set's median change against the first, as a share of
the first set's median, signed so that a positive change is worse.
With --out it writes every run's result and printed lines, the
summaries and median changes, the git revision, Python version and CPU
count of the host, the budgets, and which end-to-end metric each
per-layer metric should move (LAYER_MAP).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent

# Which end-to-end metrics each group of per-layer metrics should move,
# on which workload, and where no change is expected.
LAYER_MAP = [
    {"per_layer": ["ideals.enumerate_invariant_saturated.self_s", "ideals.hasse_edges.self_s",
                   "ideals.emitted", "ideals.capped"],
     "moves": ["analyze_p50_s", "analyze_tail_s", "validate_p50_s", "validate_tail_s"],
     "on": "lattice", "no_change_on": ["kgroups"]},
    {"per_layer": ["intlinalg.smith_normal_form.calls", "intlinalg.smith_normal_form.self_s",
                   "intlinalg.smith_normal_form.timeouts", "intlinalg.smith_normal_form.peak_bits"],
     "moves": ["analyze_p50_s", "analyze_tail_s", "validate_p50_s", "validate_tail_s", "decided_frac"],
     "on": "kgroups", "no_change_on": ["lattice"]},
    {"per_layer": ["graph.symbol_matrices.self_s", "ktheory.displacement_matrix.self_s",
                   "ktheory.graph_k_groups.self_s"],
     "moves": ["analyze_p50_s", "analyze_tail_s"], "on": "kgroups"},
    {"per_layer": [f"verdicts.{fn}.{stat}" for fn in (
        "condition_I", "is_irreducible", "irrational_cycle", "strongly_connected_components",
        "graph_minimality", "crossed_product_simplicity", "pure_infiniteness") for stat in ("calls", "self_s")]
     + ["verdicts.scc_count"],
     "moves": ["simplicity_p50_s"], "on": "lattice and kgroups"},
    {"per_layer": ["subshift.forward_support.calls", "fileformat.parse_system.self_s",
                   "graph.validate_graph.self_s"],
     "moves": ["simplicity_p50_s"], "on": "lattice and kgroups"},
    {"per_layer": ["report.analyze_document.self_s", "report.json_bytes", "cli.main.self_s"],
     "moves": ["analyze_p50_s", "validate_p50_s"], "on": "lattice and kgroups"},
    {"per_layer": [f"{m}.timeouts" for m in run.TIMEOUT_LAYERS],
     "moves": ["decided_frac"], "on": "every workload"},
]
ABOUT = (
    "Runs of bench/run.py: per workload and set one untraced run per seed (end-to-end metrics, "
    "summarised as median and spread per set, and each later set's median change against the first, "
    "positive = worse) and one traced run per trace seed (per-layer metrics). git_rev is the commit "
    "whose src/ was measured. Written by: python3 bench/sweep.py --workloads lattice kgroups "
    "--seeds 1-10 --sets 2 --trace-seeds 1 --out FILE"
)
NOTES = [
    "BENCHMARK.json lists lattice and kgroups only, so that each run can last 60 s within the "
    "benchmark's time limit: the host's speed drifts over tens of seconds, and 40 s runs of three "
    "workloads spread past their bounds. The scale workload (250-1000 vertices) stays in bench/run.py "
    "and is run by hand to size validate against the 50 ms target; every scale analyze and validate "
    "times out at that target at the seed commit. The verdicts, parsing and validation layers are "
    "measured on lattice and kgroups, where they make up most of simplicity_p50_s.",
]
# Calls per finished analysis at the seed commit, for later changes to cite.
PINNED_CALLS_PER_ANALYZE = {
    "verdicts.condition_I": 3,
    "verdicts.is_irreducible": 4,
    "verdicts.irrational_cycle": "at most 4",
    "intlinalg.smith_normal_form": 2,
}


def parse_seeds(text: str) -> list[int]:
    if not text:
        return []
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def summarise(runs: list[dict], bounds: dict) -> dict:
    table = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        row = {"median": statistics.median(values)}
        if len(values) >= 2:
            row["spread"] = spread(values)
        table[name] = row
        print(f"  {name:24s} median {row['median']:.6g}  spread {row.get('spread', float('nan')):.3f}"
              f"  bound {bounds.get(name, '-')}")
    return table


def worse_by(first: dict, later: dict, better: dict) -> dict:
    """Median change of each metric as a share of the first median; > 0 is worse."""
    out = {}
    for name, row in first.items():
        base, new = row["median"], later[name]["median"]
        change = (new - base) / base if base else 0.0
        out[name] = -change if better.get(name) == "higher" else change
    return out


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        print(proc.stdout, proc.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    notes = [line for line in lines if line.startswith(("near_budget", "timeouts", "unsteady", "mismatch"))]
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} failed={result['failed']} "
          f"wall {wall:.1f} s; {'; '.join(notes)}", flush=True)
    return {"seed": seed, "trace": trace, "wall_s": round(wall, 1), **result, "lines": lines[:-1]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace-seeds", default=[], type=parse_seeds)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    record = {
        "about": ABOUT,
        "git_rev": rev.stdout.strip() or "unknown",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "sets": args.sets,
        "trace_seeds": args.trace_seeds,
        "budgets_s": run.BUDGETS,
        "near_budget_margin": run.MARGIN,
        "layer_map": LAYER_MAP,
        "notes": NOTES,
        "pinned_calls_per_analyze": PINNED_CALLS_PER_ANALYZE,
        "workloads": {},
    }
    for workload in args.workloads:
        sets = []
        for number in range(1, args.sets + 1):
            runs = [run_once(spec, workload, seed, 0) for seed in args.seeds]
            print(f"{workload} set {number}:")
            sets.append({"runs": runs, "summary": summarise(runs, bounds)})
        entry = {"why": why.get(workload), "sets": sets}
        if len(sets) > 1:
            entry["median_change"] = [worse_by(sets[0]["summary"], s["summary"], better) for s in sets[1:]]
            for number, change in enumerate(entry["median_change"], 2):
                print(f"{workload} set {number} against set 1, positive = worse: "
                      + ", ".join(f"{k} {v:+.3f}" for k, v in change.items()))
        entry["traced"] = [run_once(spec, workload, seed, 1) for seed in args.trace_seeds]
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
