"""Seeded benchmark of the maxminalloc solvers.

    python3 bench/run.py --workload {lp-mid,search-planted,desk} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Everything runs in this one process on one thread.
The inputs are built from --seed; the run attempts whole rounds of the
workload's operations, first every round once and then round after round
again for as long as a round still fits within --seconds, and afterwards
checks every answer against `reference`.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the first half of the rounds run
once untraced and once traced, and the metrics are per-layer counts and
self times from the traced pass.

Times are scaled to a fixed machine speed.  A short calibration loop runs
before and after each stretch of timed work, at least every CAL_EVERY_S,
and each stretch's wall time is multiplied by CAL_NOMINAL_S over the mean
of the loop times around it.  On a shared machine whose speed drifts by
10-20% over seconds this halves the run-to-run spread; wall times are
printed beside the scaled ones.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
UNWRAPPED_WARN = 0.05  # share of traced time outside every layer worth a warning


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


CAL_EVERY_S = 0.3
CAL_NOMINAL_S = 0.01
_CAL_N = 40000


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (dict and integer work)."""
    start = time.perf_counter()
    d: dict = {}
    s = 0
    for i in range(_CAL_N):
        k = (i * 7919) % 1021
        d[k] = d.get(k, 0) + 1
        s += k & 15
    return time.perf_counter() - start


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    return seconds * CAL_NOMINAL_S / ((cal_before + cal_after) / 2)


def timed_scaled(fn):
    """Run fn(); return (its result, its wall seconds scaled to nominal speed)."""
    before = calibrate()
    start = time.perf_counter()
    out = fn()
    took = time.perf_counter() - start
    return out, scaled(took, before, calibrate())


def import_package() -> float:
    """Import the package from this checkout's src/, SETUP_REPEATS times
    from scratch; return the median scaled seconds of one import."""
    import numpy  # noqa: F401  (a dependency of the interpreter, not timed)

    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH_DIR)]

    def load():
        for key in [k for k in sys.modules if k.split(".")[0] == "maxminalloc"]:
            del sys.modules[key]
        importlib.import_module("maxminalloc.cli")  # pulls in every module
        return sys.modules["maxminalloc"]

    try:
        took = [timed_scaled(load) for _ in range(SETUP_REPEATS)]
        import spans, workloads  # noqa: F401  (the benchmark's own code, not timed)
    except ImportError as exc:
        fail(f"cannot import maxminalloc from {src}: {exc}")
    package = took[-1][0]
    if Path(package.__file__).resolve().parent.parent != src.resolve():
        fail(f"maxminalloc was imported from {package.__file__}, not {src}")
    return statistics.median(t for _, t in took)


def build(name: str, seed: int, work_dir: Path):
    import workloads

    if name == "lp-mid":
        return workloads.lp_mid(seed)
    if name == "search-planted":
        return workloads.search_planted(seed)
    return workloads.desk(seed, work_dir)


def run_round(ops, run_op):
    """Run one round; return (outcomes, [(kind, wall s, scaled s)] of its
    timed operations, scaled seconds of all its operations)."""
    from workloads import CliExit, Outcome

    ctx: dict = {}
    outcomes, stretch, times = [], [], []
    total = 0.0
    cal_before = calibrate()
    stretch_start = time.perf_counter()
    for k, op in enumerate(ops):
        start = time.perf_counter()
        try:
            outcome = Outcome(value=run_op(lambda: op.call(ctx)))
        except Exception as exc:  # a failed operation is counted, never re-raised
            outcome = Outcome(error=str(exc) if isinstance(exc, CliExit)
                              else type(exc).__name__)
        end = time.perf_counter()
        outcomes.append(outcome)
        stretch.append((op.kind, end - start, op.timed))
        if end - stretch_start >= CAL_EVERY_S or k == len(ops) - 1:
            cal_after = calibrate()
            for kind, took, is_timed in stretch:
                s = scaled(took, cal_before, cal_after)
                total += s
                if is_timed:
                    times.append((kind, took, s))
            stretch, cal_before = [], cal_after
            stretch_start = time.perf_counter()
    return outcomes, times, total


def same_answers(a, b) -> bool:
    """Two outcomes of one operation agree (used to check repeats and tracing)."""
    if a.error or b.error:
        return a.error == b.error
    return _canonical(a.value) == _canonical(b.value)


def _canonical(value):
    """The answer in an operation's result, in a form that compares by value."""
    if hasattr(value, "allocation"):  # a solver report
        return _canonical((value.value, value.allocation))
    if hasattr(value, "feasible"):  # a CLP result: its floats may differ in the last bits
        return value.feasible
    if isinstance(value, dict):
        return sorted((_canonical(k), _canonical(v)) for k, v in value.items()
                      if k != "wall_ms")  # the CLI's timings
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, str) and value.startswith("{"):
        return _canonical(json.loads(value))
    return repr(value)


def per_round(round_times, pick) -> float:
    """Mean over the rounds run of the median over a round's repeats of
    the summed `pick` of its timed operations."""
    done = [reps for reps in round_times if reps]
    return statistics.fmean(
        statistics.median(sum(pick(t) for t in times) for times in reps)
        for reps in done)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["lp-mid", "search-planted", "desk"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    import_s = import_package()
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, declared, import_s, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass


def measure(args, declared: dict, import_s: float, work_dir: Path) -> int:
    builds = [timed_scaled(lambda: build(args.workload, args.seed, work_dir))
              for _ in range(SETUP_REPEATS)]
    wl = builds[0][0]
    setup_s = import_s + statistics.median(took for _, took in builds)

    rounds = wl.rounds
    first = [None] * len(rounds)
    round_times = [[] for _ in rounds]
    attempted = failed = 0
    errors: Counter = Counter()
    problems = []

    def run(r, run_op) -> float:
        nonlocal attempted, failed
        outcomes, times, total = run_round(rounds[r], run_op)
        attempted += len(outcomes)
        for out in outcomes:
            if out.error:
                failed += 1
                errors[out.error] += 1
        if first[r] is None:
            first[r] = outcomes
        else:
            for k, (a, b) in enumerate(zip(first[r], outcomes)):
                if not same_answers(a, b):
                    problems.append(f"round {r} op {k}: answer changed on repeat")
        round_times[r].append(times)
        return total

    values = {}
    direct = lambda fn: fn()
    if args.trace == 0:
        # Every round once, then repeats while the repeat is expected to end
        # by the deadline (judged by that round's last wall time).
        deadline = time.perf_counter() + args.seconds
        last_wall = [0.0] * len(rounds)
        i = 0
        while i < len(rounds) or time.perf_counter() + last_wall[i % len(rounds)] <= deadline:
            start = time.perf_counter()
            run(i % len(rounds), direct)
            last_wall[i % len(rounds)] = time.perf_counter() - start
            i += 1
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["setup_s"] = setup_s
        values["round_s"] = round_s = per_round(round_times, lambda t: t[2])
        print(f"rounds: {i} run, {len(rounds)} distinct; round_s {round_s:.4f} scaled, "
              f"{per_round(round_times, lambda t: t[1]):.4f} wall")
        for kind in sorted({t[0] for reps in round_times for ts in reps for t in ts}):
            print(f"op {kind}: {per_round(round_times, lambda t: t[2] * (t[0] == kind)):.4f}"
                  f" s per round scaled, "
                  f"{per_round(round_times, lambda t: t[1] * (t[0] == kind)):.4f} wall")
    else:
        import spans

        subset = range((len(rounds) + 1) // 2)
        untraced = sum(run(r, direct) for r in subset)
        tracer = spans.Tracer()
        tracer.install()
        op_ids = iter(range(10**9))
        try:
            traced = sum(run(r, lambda fn: tracer.run_op(next(op_ids), fn)) for r in subset)
        finally:
            tracer.uninstall()
        values = tracer.summary()
        values["trace.overhead_s"] = traced - untraced
        share = values.get("bench.self_share", 0.0)
        if share > UNWRAPPED_WARN:
            print(f"warning: {share:.1%} of the traced time is in no wrapped layer; "
                  f"spans.py may be missing a function the operations call",
                  file=sys.stderr)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.csv.gz")

    found, ratios = wl.check(first)
    problems = found + problems
    if args.trace == 0:
        if ratios:
            values["value_ratio"] = float(statistics.fmean(ratios))
        else:
            problems.append("no answer to take a value ratio of")
        wanted = declared["end_to_end"]
    else:
        wanted = declared["per_layer"]  # a layer the workload never calls reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    for name, count in sorted(errors.items()):
        print(f"failed: {count} x {name}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
