"""Benchmark of the threebody1d package.

Run from the repository root:

    python3 perfbench/run.py --workload cli-towers --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are the per-layer metrics from a traced run.
See README.md for the workloads, the checks and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREADS = "1"  # one caller, closed loop; one BLAS thread keeps timings steady
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
RUNS_DIR = "perfbench_runs"  # work files and traces, under the checkout root

E2E_TIMES = ("fit_hh_s", "fit_cm_s", "full3d_smooth_s", "full3d_masked_s",
             "grid1d_s")
THROUGHPUTS = ("spectrum", "irreps_large", "irreps_small")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cli-towers", "grid-oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    return env


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

@dataclass
class Record:
    round: int
    op: object
    seconds: float
    fails: list  # names of the checks the output failed
    values: dict  # values the check measured, such as a fit's deviation
    traced: bool


def execute(op, tracer=None, op_id=-1):
    """Run one operation (timed) and check its output (untimed)."""
    if op.out is not None:
        shutil.rmtree(op.out, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        out = op.run() if tracer is None else tracer.run_op(op_id, op.run)
    except Exception as exc:  # a raising operation is a failed one
        return time.perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"], {}
    seconds = time.perf_counter() - t0
    try:
        fails, values = op.check(out)
    except Exception as exc:  # unreadable or missing output
        fails, values = [f"check raised {type(exc).__name__}: {exc}"], {}
    return seconds, list(fails), values


def unexpected(record, faults) -> bool:
    if not record.fails:
        return False
    fault = record.op.fault
    return fault is None or not set(record.fails) <= faults[fault]


def setup(wl, root, work, seed, env, in_process, repeats):
    """Set up ``repeats`` times; return the last session and the median time.

    One set-up is a fresh interpreter importing the package, building the
    workload's inputs and references, and one warm-up operation.
    """
    from workloads import build_session

    times, session = [], None
    for j in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import threebody1d"], cwd=root,
                       env=env, check=True, capture_output=True, timeout=170)
        session = build_session(root, work, seed, env, in_process)
        wl.round_ops(session, 0)  # builds the references
        execute(wl.warmup_op(session, j))
        times.append(time.perf_counter() - t0)
    return session, statistics.median(times)


def run_rounds(wl, session, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed.

    With a tracer, rounds alternate untraced and traced, starting
    untraced, and at least one of each runs.
    """
    records = []
    t_start = time.perf_counter()
    rnd = 0
    while rnd < (2 if tracer else 1) or time.perf_counter() - t_start < seconds:
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in wl.round_ops(session, rnd):
                op_id = len(records)
                seconds_, fails, values = execute(
                    op, tracer if traced else None, op_id)
                records.append(Record(rnd, op, seconds_, fails, values, traced))
        finally:
            if traced:
                tracer.uninstall()
        rnd += 1
    print(f"perfbench: {rnd} rounds, {len(records)} operations, "
          f"{time.perf_counter() - t_start:.1f} s wall of which "
          f"{sum(r.seconds for r in records):.1f} s timed", file=sys.stderr)
    return records


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(records, setup_s, peak_rss_mb):
    """Metrics of an untraced run.

    Operation times are medians over the run.  A command's time depends
    on which command it is, so ``cli_cmd_p50_s`` is the median over
    rounds of each round's median command, and a throughput is the
    states of its commands over the sum of their median times.
    """
    median = statistics.median
    rounds = sorted({r.round for r in records})
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cli_cmd_p50_s": (median([
            median([r.seconds for r in records
                    if r.round == rnd and "cmd" in r.op.kinds])
            for rnd in rounds]), "s"),
    }
    for kind in THROUGHPUTS:
        times: dict = {}  # command name -> (states, its times)
        for r in records:
            if kind in r.op.kinds:
                times.setdefault(r.op.name, (r.op.states, []))[1].append(
                    r.seconds)
        metrics[f"{kind}_states_per_s"] = (
            sum(n for n, _ in times.values())
            / sum(median(t) for _, t in times.values()), "states/s")
    for name in E2E_TIMES:
        kind = name[:-2]  # fit_hh_s -> fit_hh
        metrics[name] = (median([r.seconds for r in records
                                 if kind in r.op.kinds]), "s")
    for name in ("fit_hh_rel_dev", "fit_cm_rel_dev"):
        metrics[name] = (median([r.values[name] for r in records
                                 if name in r.values]), "1")
    return metrics


def per_layer(records, tracer):
    from tracing import COUNTS, OP_SPAN, PEAKS, SELF_TIMES

    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    n_traced = len({r.round for r in traced})
    n_plain = len({r.round for r in plain})
    selfs = tracer.self_times()
    metrics = {}
    for name in SELF_TIMES:
        metrics[name] = (selfs.get(name, 0.0) / n_traced, "s")
    for name in COUNTS:
        value = tracer.counts.get(name, 0.0)
        metrics[name] = (value if name in PEAKS else value / n_traced, "count")
    op_s = sum(r.seconds for r in traced) / n_traced
    untraced_s = sum(r.seconds for r in plain) / n_plain
    layers_s = sum(metrics[name][0] for name in SELF_TIMES)
    metrics.update({
        "trace.op_s": (op_s, "s"),
        "trace.untraced_op_s": (untraced_s, "s"),
        "trace.overhead_s": (op_s - untraced_s, "s"),
        "trace.layers_s": (layers_s, "s"),
        "trace.harness_s": (selfs.get(OP_SPAN, 0.0) / n_traced, "s"),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "threebody1d" / "__init__.py").is_file():
        print("perfbench: src/threebody1d not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    env = child_env(src)
    os.environ.update({var: BLAS_THREADS for var in THREAD_VARS})
    sys.path.insert(0, str(src))
    import threebody1d  # noqa: F401  (in-process import; set-up times a fresh one)
    from tracing import Tracer
    from workloads import FAULTS, WORKLOADS

    wl = WORKLOADS[args.workload]
    runs = root / RUNS_DIR
    work = runs / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    # the traced run drives CLI commands in-process: a fresh interpreter
    # cannot be wrapped from outside
    in_process = bool(args.trace) or not wl.fresh_interpreter
    try:
        session, setup_s = setup(wl, root, work, args.seed, env, in_process,
                                 1 if args.trace else SETUP_REPEATS)
        for op in wl.primed(session):  # fixed-input probes: let their caches fill
            execute(op)
        records = run_rounds(wl, session, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # with fresh interpreters, the largest command; else this process
    who = (resource.RUSAGE_CHILDREN if wl.fresh_interpreter and not args.trace
           else resource.RUSAGE_SELF)
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(runs / "traces" / f"{args.workload}-seed{args.seed}.json")
        metrics = per_layer(records, tracer)
    else:
        metrics = end_to_end(records, setup_s, peak_rss_mb)
    failed = [r for r in records if r.fails]
    for r in failed:
        if unexpected(r, FAULTS):
            print(f"unexpected failure: {r.op.name}: {r.fails}", file=sys.stderr)
    result = {
        "correct": not any(unexpected(r, FAULTS) for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
