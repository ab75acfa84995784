"""rotshift benchmark: seeded corpora, closed-loop timing, checked outputs.

Usage, from the repository root:

    python3 bench/run.py --workload lattice --seed 1 --seconds 40 --trace 0

The benchmark writes a seeded corpus of .sds files under bench/.work/,
then runs one operation at a time against the package in src/, in this
process and thread (a closed loop with one client):

* analyze     rotshift.cli.main(["analyze", FILE, "--json"])
* validate    rotshift.cli.main(["validate", FILE, "--json"])
* simplicity  the README library path: parse_system, doc.graph(),
              crossed_product_simplicity and pure_infiniteness

Every operation runs under a wall-clock budget.  An operation that
overruns is stopped and enters the latency figures at its measured
time, which is the budget plus the signal delivery delay, and it does
not count as decided.  Timeouts are not wrong answers: the result's
``failed`` counts outputs that fail a check (``mismatches``).  Every
output is checked against the facts the generator planted (see
checks.py), and each output's hash must repeat across runs, passes, and
traced and untraced passes.

The first pass runs every operation on every input.  Later passes run
again the operations that finished, so that each input's figure is the
fastest of several runs spread over the whole run: the host's speed
drifts by up to half over tens of seconds, and the fastest of runs
taken at different times repeats best.  Two kinds of operation are not
run again.  One that timed out: nearly every finished operation stays
well below its budget, so a second try would time out too.  And one
whose first run took more than RERUN_LIMIT times the first pass's p75
for that operation: no reported percentile is above p75, the fastest
run of such an operation stays above it, and on lattice and scale these
few operations took a quarter to a half of every pass.  An operation
whose first run took less than REP_SECONDS is run several times in a
row in each later pass.  ``near_budget`` counts the finished operations
slower than 1/MARGIN of their budget: only these can be decided on one
run of a seed and time out on another.  A later
run of a finished operation is compared with its first run: an output
that differs is a mismatch, and a later run that times out is counted
as ``unsteady`` (the host slowed it past its budget), not as a wrong
answer.  Passes go on until the next one would end after --seconds.
Before each pass after the first the set-up is repeated and timed.
Before every pass the objects alive are frozen out of the garbage
collector's way.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics.  With --trace 1 the first pass is traced and gives
the per-layer metrics; untraced and traced passes then alternate to
measure the tracing overhead.  Other lines of stdout print every metric
with its unit, the tail percentile used, mismatches and timeouts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import checks
import corpus
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"

OPS = ("analyze", "validate", "simplicity")
# Per-operation wall-clock budgets in seconds.  Each is at least MARGIN
# times the slowest operation that finishes at the seed commit, except on
# kgroups (see there), so an input either finishes well inside its budget
# or never does.
BUDGETS = {
    "lattice": {"analyze": 3.0, "validate": 3.0, "simplicity": 3.0},
    # The Smith form mostly finishes within 0.1 s or runs for minutes.  The
    # exceptions at the seed commit, among seeds 1-10, are one input of
    # seed 2 and one of seed 3, whose analyze and validate take 0.2 to
    # 0.9 s: near_budget.  On a host slow enough they time out on the first
    # pass and that seed's decided_frac drops by 2/162.  A budget of four
    # times their time would make every input that never finishes cost 8 s,
    # and the first pass would outlast the run.
    "kgroups": {"analyze": 1.0, "validate": 1.0, "simplicity": 1.0},
    # Not listed in BENCHMARK.json, which keeps to two workloads so that
    # each run can last 60 s; run it by hand to size validate at 250-1000
    # vertices against the 50 ms target.  validate and analyze never
    # finish at these sizes today, so their figures here are this budget
    # plus the signal delay.  The budget stops them in the verdicts or
    # early in graph.symbol_matrices, K-theory's first step, before the
    # dense matrices grow, which would make peak memory depend on how far
    # an operation got
    "scale": {"analyze": 0.05, "validate": 0.05, "simplicity": 15.0},
}
MARGIN = 4  # a finished operation slower than budget / MARGIN is near the budget
# A single run is seen to take up to twice the fastest run of the same
# operation, so a first run three times the p75 marks an operation whose
# fastest run lies above the p75.
RERUN_LIMIT = 3
MIN_SETUPS = 3
# Later passes run an operation whose first run took less than
# REP_SECONDS several times in a row, up to MAX_REPS.  The fastest of
# these runs is a warm one, and on operations of a millisecond or less it
# repeats between runs far better than a single run after other inputs.
REP_SECONDS = 0.01
MAX_REPS = 10
TAIL_LADDER = (99, 95, 90, 75, 50)
PACKAGE_MODULES = (
    "angles", "graph", "subshift", "verdicts", "ideals", "intlinalg",
    "ktheory", "oracles", "fileformat", "report", "cli", "errors",
)
TIMEOUT_LAYERS = ("cli", "report", "fileformat", "graph", "verdicts", "ideals", "intlinalg", "ktheory")


class BudgetExceeded(BaseException):
    """Raised by the interval timer.  Not an Exception, so the package's
    ``except Exception`` handlers cannot swallow it."""

    layer = None


def _on_alarm(signum, frame):
    raise BudgetExceeded()


class Input:
    def __init__(self, name: str, path: Path, case=None):
        self.name = name
        self.path = path
        self.case = case  # corpus.Case, or None for a bundled system


class Runner:
    """One workload's inputs, operations, results and checks."""

    def __init__(self, pkg, workload: str, inputs: list[Input]):
        self.pkg = pkg
        self.inputs = inputs
        self.budgets = BUDGETS[workload]
        # (input name, op, traced) -> latency of every run
        self.latency: dict[tuple[str, str, bool], list[float]] = {}
        self.last: dict[tuple[str, str], float] = {}
        # (input name, op) -> status and output hash of its first run
        self.first: dict[tuple[str, str], tuple[str, str]] = {}
        self.first_seconds: dict[tuple[str, str], float] = {}
        # (input name, op) -> runs in a row in each later pass
        self.reps: dict[tuple[str, str], int] = {}
        self.decided = self.mismatches = self.near_budget = self.timeouts = self.unsteady = self.runs = 0
        self.slowest_ratio = 0.0
        self.analyze_done = 0
        self.analyze_seconds = 0.0
        self.timeouts_by_layer: dict[str, int] = {}
        self.problems: list[str] = []
        self.json_bytes: list[int] = []
        self.analysis_ops: set[int] = set()
        self._det_cache: dict[str, int] = {}
        # bound now, so that checks never run through tracing wrappers
        self._integer_determinant = pkg["oracles"].integer_determinant
        self._int_matrix = pkg["intlinalg"].IntMatrix

    # -- operations -------------------------------------------------------

    def _cli(self, command: str, inp: Input):
        return self.pkg["cli"].main([command, str(inp.path), "--json"])

    def _simplicity(self, inp: Input):
        fileformat, verdicts = self.pkg["fileformat"], self.pkg["verdicts"]
        with open(inp.path, "r", encoding="utf-8") as fh:
            doc = fileformat.parse_system(fh.read())
        try:
            graph = doc.graph()
        except self.pkg["errors"].GraphValidationError as exc:
            result = {"validation": exc.witness()}
        else:
            result = {
                "simple_O": verdicts.crossed_product_simplicity(graph, doc.angles).to_json(),
                "purely_infinite_O": verdicts.pure_infiniteness(graph, doc.angles).to_json(),
            }
        print(json.dumps(result))
        return 0

    def run_op(self, op: str, inp: Input):
        """(status, exit code, stdout, seconds, layer open at a timeout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        status, code, layer = "done", None, None
        sys.stdout, sys.stderr = out, err
        start = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, self.budgets[op])
                code = self._simplicity(inp) if op == "simplicity" else self._cli(op, inp)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except BudgetExceeded as exc:
            status, layer = "timeout", exc.layer
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a wrong answer, not a stop
            status = "error"
            err.write(repr(exc))
        finally:
            elapsed = time.perf_counter() - start
            sys.stdout, sys.stderr = saved
        return status, code, out.getvalue(), elapsed, layer, err.getvalue()

    def determinant(self, case) -> int:
        if case.name not in self._det_cache:
            index = {v: i for i, v in enumerate(case.vertices)}
            n = len(index)
            m = [[int(i == j) for j in range(n)] for i in range(n)]
            for src, dst, _s in case.edges:
                m[index[src]][index[dst]] -= 1
            self._det_cache[case.name] = self._integer_determinant(self._int_matrix.from_rows(m))
        return self._det_cache[case.name]

    # -- passes -----------------------------------------------------------

    def run_pass(self, pairs: list[tuple[Input, str]], tracer: Tracer | None) -> None:
        for inp, op in pairs:
            for _ in range(self.reps.get((inp.name, op), 1)):
                op_id = self.runs
                self.runs += 1
                if tracer:
                    tracer.begin_op(op_id)
                run = self.run_op(op, inp)
                if tracer:
                    tracer.end_op(time.perf_counter())
                self._record(op, inp, op_id, run, tracer is not None)

    def rerun(self, pairs: list[tuple[Input, str]]) -> list[tuple[Input, str]]:
        """The operations later passes run again: those that finished
        with a first run of at most RERUN_LIMIT times the p75 of the
        first runs of the same operation."""
        limit = {}
        for op in OPS:
            seconds = [self.first_seconds[(inp.name, o)] for inp, o in pairs if o == op]
            limit[op] = RERUN_LIMIT * statistics.quantiles(seconds, n=4)[2] if len(seconds) > 1 else float("inf")
        again = [
            (inp, op) for inp, op in pairs
            if self.first[(inp.name, op)][0] != "timeout" and self.first_seconds[(inp.name, op)] <= limit[op]
        ]
        for inp, op in again:
            first = self.first_seconds[(inp.name, op)]
            self.reps[(inp.name, op)] = max(1, min(MAX_REPS, int(REP_SECONDS / first)))
        return again

    def _record(self, op, inp, op_id, run, traced) -> None:
        status, code, output, seconds, layer, err = run
        key = (inp.name, op)
        self.latency.setdefault((inp.name, op, traced), []).append(seconds)
        self.last[key] = seconds
        digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
        if key in self.first:
            # only finished operations run again; a later timeout is the
            # host's speed, not a different answer
            if status == "timeout":
                self.unsteady += 1
            elif self.first[key] != (status, digest):
                self._mismatch(f"{inp.name} {op}: {status} with another output than its first run")
            return
        self.first[key] = (status, digest)
        self.first_seconds[key] = seconds
        if op == "analyze":
            self.analyze_seconds += seconds
        if status == "timeout":
            self.timeouts += 1
            for name in {layer.split(".")[0], layer} if layer else ():
                self.timeouts_by_layer[name] = self.timeouts_by_layer.get(name, 0) + 1
            return
        if status == "error":
            self._mismatch(f"{inp.name} {op}: raised {err.strip()}")
            return
        invalid = inp.case is None and checks.BUNDLED[inp.name].get("exit") == 2
        expected_code = 2 if invalid and op != "simplicity" else 0
        if code == expected_code:
            self.decided += 1
            ratio = seconds / self.budgets[op]
            self.slowest_ratio = max(self.slowest_ratio, ratio)
            if ratio > 1 / MARGIN:
                self.near_budget += 1
            if op == "analyze":
                self.analyze_done += 1
                self.json_bytes.append(len(output.encode("utf-8")))
            if op != "simplicity" and code == 0:
                self.analysis_ops.add(op_id)
        try:
            if inp.case is None:
                problems = checks.check_bundled(inp.name, op, code, output)
            else:
                problems = checks.check_case(inp.case, op, code, output, self.determinant)
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        for p in problems:
            self._mismatch(f"{inp.name} {op}: {p}")

    def _mismatch(self, text: str) -> None:
        self.mismatches += 1
        if len(self.problems) < 20:
            self.problems.append(text)

    # -- statistics -------------------------------------------------------

    def samples(self, op: str, traced: bool, paired: bool = False) -> list[float]:
        """One sample per input: the fastest of its runs.  With paired,
        only inputs with both traced and untraced runs of op count."""
        out = []
        for inp in self.inputs:
            values = self.latency.get((inp.name, op, traced))
            if values and (not paired or (inp.name, op, not traced) in self.latency):
                out.append(min(values))
        return out


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile) for the highest ladder percentile with at
    least ten samples beyond it."""
    n = len(samples)
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            return statistics.quantiles(samples, n=100, method="inclusive")[p - 1], p
    return statistics.median(samples), 50


# ---------------------------------------------------------------------------


def import_package():
    """Import the package from src/ of this checkout, afresh each call."""
    if not (ROOT / "src" / "rotshift" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {ROOT / 'src' / 'rotshift'}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [m for m in sys.modules if m == "rotshift" or m.startswith("rotshift.")]:
        del sys.modules[name]
    pkg = {name: importlib.import_module(f"rotshift.{name}") for name in PACKAGE_MODULES}
    if Path(pkg["cli"].__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit("error: imported rotshift from outside this checkout")
    pkg["rotshift"] = sys.modules["rotshift"]
    return pkg


def setup(workload: str, seed: int):
    """Import the package, generate and write the corpus and warm up;
    returns the package, the inputs and the seconds it took."""
    start = time.perf_counter()
    work = WORK_DIR / workload
    bundled = sorted((ROOT / "systems").glob("*.sds")) if workload == "lattice" else []
    if workload == "lattice" and len(bundled) != len(checks.BUNDLED):
        raise SystemExit(f"error: expected the bundled systems in {ROOT / 'systems'}")
    pkg = import_package()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = []
    for case in corpus.build(workload, seed):
        path = work / f"{case.name}.sds"
        path.write_text(case.text, encoding="utf-8")
        inputs.append(Input(case.name, path, case))
    for src in bundled:
        path = work / src.name
        shutil.copyfile(src, path)
        inputs.append(Input(src.name, path))
    warm = Runner(pkg, "lattice", [Input("goldenmean.sds", ROOT / "systems" / "goldenmean.sds")])
    for op in OPS:
        warm.run_op(op, warm.inputs[0])
    return pkg, inputs, time.perf_counter() - start


def repeat_setup(workload: str, seed: int) -> float:
    """Seconds of one more set-up.  The corpus files come out the same,
    and the package modules in use are put back afterwards."""
    in_use = {k: m for k, m in sys.modules.items() if k == "rotshift" or k.startswith("rotshift.")}
    seconds = setup(workload, seed)[2]
    sys.modules.update(in_use)
    return seconds


def settle() -> None:
    """Before a pass: freeze the objects alive now (the corpus, the
    results so far) out of the collector's way, so that a collection
    during an operation walks only what the package allocates, as it
    would in a process of its own."""
    gc.collect()
    gc.freeze()


def run_pass(runner: Runner, pairs: list[tuple[Input, str]], tracer: Tracer | None) -> None:
    if tracer is None:
        runner.run_pass(pairs, None)
        return
    tracer.install()
    try:
        runner.run_pass(pairs, tracer)
    finally:
        tracer.restore()


def measure(runner: Runner, args, tracer: Tracer | None, setup_times: list[float]):
    """Run the full first pass, then passes over the operations
    Runner.rerun picks until the next pass would end after --seconds.  With a
    tracer the first pass is traced and later passes alternate
    untraced and traced, starting untraced.  Returns (passes, traced
    passes, seconds, operations run again)."""
    start = time.perf_counter()
    pairs = [(inp, op) for inp in runner.inputs for op in OPS]
    settle()
    run_pass(runner, pairs, tracer)
    passes, traced_passes = 1, int(tracer is not None)
    again = runner.rerun(pairs)
    while True:
        # the last run of each operation, plus a set-up, is the next pass's length
        estimate = setup_times[-1] + sum(runner.last[(inp.name, op)] * runner.reps[(inp.name, op)] for inp, op in again)
        untraced_needed = tracer is not None and passes == 1
        if not untraced_needed and time.perf_counter() + estimate > start + args.seconds:
            return passes, traced_passes, time.perf_counter() - start, len(again)
        setup_times.append(repeat_setup(args.workload, args.seed))
        settle()
        if tracer is not None and passes % 2 == 0:
            # a fresh tracer, so the per-layer figures stay those of the first pass
            run_pass(runner, again, Tracer(tracer.modules, BudgetExceeded))
            traced_passes += 1
        else:
            run_pass(runner, again, None)
        passes += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUDGETS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    pkg, inputs, first_setup = setup(args.workload, args.seed)
    setup_times = [first_setup]
    inputs.sort(key=lambda i: i.name)
    random.Random(f"order:{args.seed}").shuffle(inputs)

    runner = Runner(pkg, args.workload, inputs)
    tracer = Tracer([pkg[m] for m in PACKAGE_MODULES] + [pkg["rotshift"]], BudgetExceeded) if args.trace else None
    passes, traced_passes, elapsed, again = measure(runner, args, tracer, setup_times)
    while len(setup_times) < MIN_SETUPS:
        setup_times.append(repeat_setup(args.workload, args.seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(runner.first)
    lines = [
        f"workload {args.workload} seed {args.seed}: {len(inputs)} inputs x {len(OPS)} ops, "
        f"{passes} passes ({traced_passes} traced), {runner.runs} runs in {elapsed:.1f} s, "
        f"{again} ops run again after the first pass; budgets {runner.budgets} s",
    ]
    metrics: dict[str, dict] = {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name} {value:.6g} {unit}{'  (' + note + ')' if note else ''}")

    untraced = {op: runner.samples(op, False) for op in OPS}
    if not args.trace:
        for op in ("analyze", "validate"):
            s = untraced[op]
            put(f"{op}_p50_s", statistics.median(s), "s", f"median of {len(s)} inputs, each its fastest run")
            value, p = tail(s)
            put(f"{op}_tail_s", value, "s", f"p{p} of {len(s)} inputs, {len(s) - round(len(s) * p / 100)} beyond it")
        put("simplicity_p50_s", statistics.median(untraced["simplicity"]), "s", f"median of {len(untraced['simplicity'])} inputs")
        put("decided_frac", runner.decided / attempted, "frac", f"{runner.decided}/{attempted} operations")
        put("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss")
        put("setup_s", statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups spread over the run")
        per_s = runner.analyze_done / runner.analyze_seconds
        lines.append(f"analyze_per_s {per_s:.6g} 1/s  (analyses finished per second of analyze wall time, first pass)")
    else:
        calls, self_s = tracer.layer_totals()

        def layer(name, stat, unit):
            put(f"{name}.{stat}", (self_s if stat == "self_s" else calls).get(name, 0), unit, "first pass")

        for name in ("ideals.enumerate_invariant_saturated", "ideals.hasse_edges"):
            layer(name, "self_s", "s")
        put("ideals.emitted", tracer.ideals_emitted, "count", "subsets returned, first pass")
        put("ideals.capped", tracer.ideals_capped, "count", "CapExceeded, first pass")
        layer("intlinalg.smith_normal_form", "calls", "count")
        layer("intlinalg.smith_normal_form", "self_s", "s")
        put("intlinalg.smith_normal_form.timeouts", runner.timeouts_by_layer.get("intlinalg.smith_normal_form", 0), "count", "first pass")
        put("intlinalg.smith_normal_form.peak_bits", tracer.peak_bits, "bits", "largest entry of a returned U, D or V")
        for name in ("graph.symbol_matrices", "ktheory.displacement_matrix", "ktheory.graph_k_groups"):
            layer(name, "self_s", "s")
        for fn in (
            "condition_I", "is_irreducible", "irrational_cycle", "strongly_connected_components",
            "graph_minimality", "crossed_product_simplicity", "pure_infiniteness",
        ):
            layer(f"verdicts.{fn}", "calls", "count")
            layer(f"verdicts.{fn}", "self_s", "s")
        sccs = tracer.scc_counts
        put("verdicts.scc_count", sum(sccs) / len(sccs) if sccs else 0, "count", "mean SCCs per strongly_connected_components call")
        layer("subshift.forward_support", "calls", "count")
        for name in ("fileformat.parse_system", "graph.validate_graph", "report.analyze_document", "cli.main"):
            layer(name, "self_s", "s")
        jb = runner.json_bytes
        put("report.json_bytes", sum(jb) / len(jb) if jb else 0, "bytes", "mean analyze --json output")
        for mod in TIMEOUT_LAYERS:
            put(f"{mod}.timeouts", runner.timeouts_by_layer.get(mod, 0), "count", "innermost open span at the budget, first pass")
        for name, count in tracer.per_analyze_max(runner.analysis_ops).items():
            put(f"{name}.per_analyze", count, "count", "most calls in one finished analyze or validate")
        for op in OPS:
            traced, plain = runner.samples(op, True, paired=True), runner.samples(op, False, paired=True)
            put(
                f"tracing.{op}_p50_overhead_s",
                statistics.median(traced) - statistics.median(plain) if plain else 0,
                "s",
                f"traced minus untraced median over the {len(plain)} inputs that finished",
            )
        tracer.write(WORK_DIR / args.workload / "spans.jsonl")

    lines.append(f"mismatches {runner.mismatches} count  (outputs failing a check)")
    lines.append(
        f"near_budget {runner.near_budget}  (finished ops slower than 1/{MARGIN} of the budget; "
        f"slowest finished op took {runner.slowest_ratio:.3f} of its budget)"
    )
    lines.append(f"timeouts {runner.timeouts} of {attempted} ops")
    lines.append(f"unsteady {runner.unsteady}  (later runs of finished ops that timed out)")
    lines += [f"mismatch: {p}" for p in runner.problems]
    print("\n".join(lines))
    print(json.dumps({
        "correct": runner.mismatches == 0,
        "attempted": attempted,
        "failed": runner.mismatches,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
