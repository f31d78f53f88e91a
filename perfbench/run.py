"""medburn benchmark: closed-loop workloads against the public medburn API.

    python3 perfbench/run.py --workload {ladder,sweep,verify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; medburn is imported from ``src/``.  With
``--trace 0`` it sets the workload up several times, then runs whole passes
over the workload's ops, back to back, until the ops have taken ``--seconds``
of calibrated time (see clock.py), checks every answer and prints the
end-to-end metrics.  With ``--trace 1`` it runs one cycle untraced, then the
set-up and the same cycle traced, and prints the per-layer metrics, the
tracing overhead, and whether the deterministic counters repeat in a second
traced run in a fresh interpreter.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from clock import NOMINAL_KERNEL_S, Clock  # noqa: E402
from tracing import DETERMINISTIC, PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 15
CHILD_TIMEOUT_S = 100  # keeps a traced run under the 180 s a run may take


def fresh_setup(workload: str, seed: int) -> tuple[tuple[float, float], list]:
    """Import medburn anew and build the workload's ops; return ((start, end), cycles)."""
    modules, build = WORKLOADS[workload]
    for name in [n for n in sys.modules if n == "medburn" or n.startswith("medburn.")]:
        del sys.modules[name]
    gc.collect()  # so the previous set-up's garbage is not collected on this one's clock
    start = perf_counter()
    for name in modules:
        importlib.import_module(name)
    cycles = build(ROOT, seed)
    return (start, perf_counter()), cycles


def run_ops(ops, full_checks: bool, tracer: Tracer | None = None):
    """Run ops back to back; return ((start, end) of each op, problems).

    Only ``op.run`` is timed.  An op fails when it raises or its check finds
    a wrong answer; its time still counts.
    """
    spans, problems = [], []
    for op in ops:
        op.prepare()
        if tracer is not None:
            tracer.begin_op(op.label)
        start = perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            outcome, problem = None, f"raised {type(exc).__name__}: {exc}"
        else:
            problem = None
        spans.append((start, perf_counter()))
        if tracer is not None:
            tracer.end_op()
        if problem is None:
            try:
                problem = op.check(outcome, full_checks)
            except Exception as exc:  # a check that cannot run fails the op
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            problems.append(f"{op.label}: {problem}")
    return spans, problems


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile; at 50 it is the lower median.

    With cycles that hold one op per input kind, it picks the same kind of op
    whether a run managed one cycle or several, and never averages ops of two
    kinds.
    """
    ordered = sorted(values)
    return ordered[math.ceil(q / 100 * len(ordered)) - 1]


def environment(seed: int) -> str:
    rational = sys.modules["medburn.rational"].Rational
    return (f"environment: python {platform.python_version()}, backend "
            f"{rational.__module__}.{rational.__qualname__}, nproc "
            f"{len(os.sched_getaffinity(0))}, seed {seed}")


def timing_metrics(setups: list[float], latencies: list[float], completed: int) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (completed / sum(latencies), "1/s"),
        "op_p50_s": (percentile(latencies, 50), "s"),
        "op_p90_s": (percentile(latencies, 90), "s"),
    }


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, int, list, list]:
    clock = Clock()
    setups, spans, problems = [], [], []
    with clock.sampling():
        for _ in range(SETUP_REPS):
            span, cycles = fresh_setup(workload, seed)
            setups.append(span)
        for i, cycle in enumerate(itertools.cycle(cycles)):
            # The saddle re-audit costs up to a third of an op, so it runs on
            # the first cycle only; values and residuals are checked on every op.
            cycle_spans, cycle_problems = run_ops(cycle, i == 0)
            spans += cycle_spans
            problems += cycle_problems
            # Stop only after whole passes over the workload's cycles, so every
            # run holds the same ops whatever the host's speed, and on
            # calibrated time, so a slow phase of the host does not end a run
            # early.
            if (i + 1) % len(cycles) == 0 and sum(clock.corrected(*s) for s in spans) >= seconds:
                break
    n = len(spans)
    completed = n - len(problems)
    latencies = [clock.corrected(*s) for s in spans]
    metrics = timing_metrics([clock.corrected(*s) for s in setups], latencies, completed)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    wall = timing_metrics([e - s for s, e in setups], [e - s for s, e in spans], completed)

    print(environment(seed))
    print(f"set-up: median of {SETUP_REPS}; ops: {n} in {n // len(cycles[0])} whole cycles; "
          f"{len(clock.kernel_s)} kernel samples, deciles 1/5/9 "
          f"{' '.join(f'{k * 1e3:.3g}' for k in statistics.quantiles(clock.kernel_s, n=10)[::4])}"
          f" ms (nominal {NOMINAL_KERNEL_S * 1e3:g} ms)")
    beyond = sum(1 for x in latencies if x > metrics["op_p90_s"][0])
    notes = {"op_p50_s": f"{n} samples", "op_p90_s": f"{n} samples, {beyond} beyond it",
             "ops_per_s": f"{completed} of {n} ops completed"}
    print(f"  {'metric':<12} {'calibrated':>12} {'wall':>12}")
    for name, (value, unit) in metrics.items():
        raw = f"{wall[name][0]:12.6g}" if name in wall else " " * 12
        print(f"  {name:<12} {value:12.6g} {raw} {unit:<4} {notes.get(name, '')}")
    print(f"  fail_ratio   {len(problems) / n:.6g}  ({len(problems)} of {n} ops)")
    # op_p90_s is printed but not gated: only sweep has ten samples beyond it,
    # and on ladder it is one multi-second op, too unsteady for a bound here.
    del metrics["op_p90_s"]
    return metrics, n, problems, []


def traced_cycle(workload: str, seed: int, cycles: list) -> tuple[dict, list, list]:
    """One traced set-up, then the first of ``cycles`` traced.

    Returns the per-layer metrics, the problems and the (start, end) of each op.
    """
    tracer = Tracer()
    tracer.install()
    try:
        WORKLOADS[workload][1](ROOT, seed)
        spans, problems = run_ops(cycles[0], False, tracer)
    finally:
        tracer.uninstall()
    return tracer.metrics(), problems, spans


def trace(workload: str, seed: int) -> tuple[dict, int, list, list]:
    """Per-layer metrics of one cycle; also returns op failures and counter mismatches."""
    clock = Clock()
    _, cycles = fresh_setup(workload, seed)
    with clock.sampling():
        spans, problems = run_ops(cycles[0], True)
        metrics, traced_problems, traced_spans = traced_cycle(workload, seed, cycles)
    base_s = sum(clock.corrected(*s) for s in spans)
    traced_s = sum(clock.corrected(*s) for s in traced_spans)
    problems += traced_problems
    mismatches = []
    metrics["trace.overhead_share"] = traced_s / base_s - 1
    print(environment(seed))
    print(f"one cycle of {len(cycles[0])} ops: {traced_s:.4g} s traced, {base_s:.4g} s untraced "
          f"(calibrated)")

    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "counters.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": str(seed % 4294967295 + 1)},
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        mismatches.append(f"second traced run took over {CHILD_TIMEOUT_S} s")
    else:
        if child.returncode != 0:
            mismatches.append(f"second traced run exited {child.returncode}: "
                              f"{child.stderr[-500:]}")
        else:
            again = json.loads(child.stdout.strip().splitlines()[-1])
            for name in DETERMINISTIC:
                same = again[name] == metrics[name]
                print(f"  {name:<28} {metrics[name]!r:>12}  second run {again[name]!r}"
                      f"{'' if same else '  DIFFERS'}")
                if not same:
                    mismatches.append(f"counter {name} differs between two traced runs")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<28} {metrics[name]:.6g} {unit}")
    return {k: (metrics[k], u) for k, u in PER_LAYER.items()}, 2 * len(cycles[0]), problems, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: it strips medburn's certificate "
              "asserts, so it would time a different program", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "medburn" / "__init__.py").is_file() or not (ROOT / "games").is_dir():
        print(f"no medburn sources under {ROOT}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    print(f"medburn benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    if args.trace:
        metrics, attempted, problems, mismatches = trace(args.workload, args.seed)
    else:
        metrics, attempted, problems, mismatches = measure(args.workload, args.seed, args.seconds)
    for problem in (problems + mismatches)[:20]:
        print(f"  FAILED {problem}")
    result = {
        "correct": not problems and not mismatches,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
