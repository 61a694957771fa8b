"""Layered benchmark for posscheck.

    python3 perfbench/run.py --workload markov-sparse --seed 1 --seconds 25 --trace 0

Runs one workload (see ``workloads.py``) in this one process, on one thread,
with BLAS limited to one thread; set-up also times a fresh import of
posscheck in a child interpreter, one at a time (``import_time``).  Each pass
calls the public API (or the in-process CLI) once per operation of the
workload's list, each call on a table built just before it, and times each
call; each output is checked (``checks.py``) and dropped before the next
call.  Passes repeat while another one still fits in ``--seconds``.  Times
are scaled by a reference kernel timed between calls (see
``reference_work``).

``--trace 0`` prints the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes (``tracing.py``) and
prints the per-layer metrics, per pass of the list; the spans of the first
traced pass are written to ``.perfbench_out/<workload>.spans.tsv.gz``.  It
also runs and checks the known-defect models of cli-factorize once, untimed
and outside ``attempted`` and ``failed``, and reports how many fail as
``cli.known_defect_failures``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
operations that raised or whose output failed a check (error_rate is
failed / attempted); ``correct`` is false when any verdict was wrong or any
operation failed that did not fail on the seed code (``checks.judge``).
"""

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
MIN_PASSES = 2
REFERENCE_S = 0.0065  # reference_work on a 2.1 GHz Xeon vCPU with the host quiet
REF_WINDOW = 11
REGIMES = ("godel", "crisp", "strict", "nilpotent")
IMPORT_PROBE = ("import time; start = time.perf_counter(); import posscheck.cli; "
                "print(time.perf_counter() - start)")


@dataclass
class Pass:
    times: list
    outcomes: list
    tracer: object = None
    ref_times: list = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_call(workload):
    import posscheck.cli
    import posscheck.independence
    import posscheck.markov

    # Look functions up on their modules at call time, so that the tracer's
    # wrappers are the ones called during a traced pass.
    if workload.startswith("markov"):
        return lambda op, table: posscheck.markov.chain_report(table, op.graph, op.tnorm, op.eps)
    if workload == "axiom-scan":
        return lambda op, table: posscheck.independence.scan_axioms(table, op.tnorm, eps=op.eps)

    def factorize(op, table):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = posscheck.cli.main(["factorize", "--model", op.path, "--json"])
        return code, out.getvalue(), err.getvalue()
    return factorize


def reference_work():
    """Fixed interpreter and small-array work, timed between operations.

    The host this runs on is shared: its speed drifts by 20-40 % over tens
    of seconds as other tenants load the same cores.  Operation times are
    scaled by how long this kernel took around them (see ``calibrated``).
    """
    import numpy as np

    table = {}
    total = 0
    for i in range(20000):
        table[(i % 97, i % 13)] = total
        total += i * i
    cube = np.arange(4096.0).reshape((2,) * 12)
    for k in range(60):
        np.minimum(cube.max(axis=k % 12), 0.5)
    return total


def reference_time(repeats=5):
    """Median time of ``repeats`` runs of the reference kernel."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def calibrated(times, ref_times):
    """Operation times scaled to a host on which ``reference_work`` takes
    REFERENCE_S: each time is multiplied by REFERENCE_S over the median of
    the reference timings in a window around the operation."""
    out = []
    for i, t in enumerate(times):
        window = ref_times[max(0, i - REF_WINDOW // 2): i + REF_WINDOW // 2 + 1]
        out.append(t * REFERENCE_S / statistics.median(window))
    return out


def run_pass(ops, call, check, pins=None, tracer=None):
    """Call every operation once; each call is timed on a table built just
    before it, and its output is checked and dropped right after it.  The
    reference kernel is timed before every call and after the last one."""
    from perfbench.checks import judge

    times, ref_times, outcomes = [], [], []
    gc.collect()
    for op in ops:
        ref_times.append(reference_time(repeats=1))
        table = op.fresh_table() if op.path is None else None
        with tracer.installed() if tracer else nullcontext():
            if tracer is not None:
                tracer.regime = op.regime
            start = time.perf_counter()
            try:
                result = call(op, table)
            except Exception as exc:  # a raising operation is a counted failure
                result = exc
            times.append(time.perf_counter() - start)
        outcomes.append(judge(check, op, result, pins))
    ref_times.append(reference_time(repeats=1))
    return Pass(times, outcomes, tracer, ref_times)


def measure(ops, call, check, pins, seconds, traced):
    """Untraced passes (alternating with traced ones when ``traced``) while
    one more round still fits in ``seconds``.  Untraced runs make at least
    MIN_PASSES passes, so that every operation time is a median of several."""
    from perfbench.tracing import Tracer

    plain, traced_passes = [], []
    min_passes = 1 if traced else MIN_PASSES
    start = time.perf_counter()
    while True:
        plain.append(run_pass(ops, call, check, pins))
        if traced:
            traced_passes.append(run_pass(ops, call, check, pins, Tracer()))
        elapsed = time.perf_counter() - start
        if len(plain) >= min_passes and elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced_passes


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Unlike a single order statistic it moves smoothly when
    an operation crosses a gap between clusters of operation times."""
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(values)
    n = len(ordered)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ ordered)


def end_to_end(passes, setup_s):
    """Each operation's time is the median of its calibrated times over the
    run's passes; rates and percentiles are taken over those times."""
    per_op = [statistics.median(op_times)
              for op_times in zip(*(calibrated(p.times, p.ref_times) for p in passes))]
    outcomes = [o for p in passes for o in p.outcomes]
    unanswered = sum(o.verdict == "error" or o.wrong for o in outcomes)
    return {
        "setup_s": (setup_s, "s"),
        "models_per_s": (len(per_op) / sum(per_op), "1/s"),
        "verdict_ms_p50": (hd_quantile(per_op, 0.5) * 1e3, "ms"),
        "verdict_ms_p90": (hd_quantile(per_op, 0.9) * 1e3, "ms"),
        "verdict_ok_rate": (1.0 - unanswered / len(outcomes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_times(tracer):
    """Seconds per pass for each timed per-layer metric of one traced pass."""
    totals = tracer.totals()

    def own(prefix):
        return sum((v[2] for k, v in totals.items() if k.startswith(prefix)), 0.0)

    def spent(*names):
        return sum((totals.get(n, (0, 0.0, 0.0))[1] for n in names), 0.0)

    out = {
        "markov.global.self_s": own("markov.global"),
        "markov.local_pairwise.s": spent("markov.local", "markov.pairwise"),
        "graphs.self_s": own("graphs."),
        "possibility.self_s": own("possibility."),
        "tnorm.self_s": own("tnorm."),
        "independence.self_s": own("independence."),
        "modelio.load.s": spent("modelio.load"),
        "cli.self_s": own("cli."),
    }
    for regime in REGIMES:
        out[f"factorization.{regime}.s"] = spent(f"factorization.{regime}")
    return out


def per_layer(ops, plain, traced, defects):
    """Counts from the first traced pass (they repeat exactly); times are
    medians over traced passes, in seconds per pass of the list.
    ``defects`` are the outcomes of the known-defect models."""
    first = traced[0].tracer
    totals = first.totals()
    facts = [o.facts for o in traced[0].outcomes]

    def calls(prefix):
        return sum(v[0] for k, v in totals.items() if k.startswith(prefix))

    def fact(key):
        return sum(f.get(key, 0) for f in facts)

    timed = [layer_times(p.tracer) for p in traced]
    times = {k: statistics.median(t[k] for t in timed) for k in timed[0]}
    marginalize = calls("possibility.marginalize")
    instances = fact("instances")
    load_mb = sum(os.path.getsize(op.path) for op in ops if op.path) / 1e6
    pass_time = statistics.median(sum(calibrated(p.times, p.ref_times)) for p in plain)
    traced_time = statistics.median(sum(calibrated(p.times, p.ref_times)) for p in traced)
    metrics = {
        "markov.global.statements": (fact("global_statements"), "count"),
        "markov.global.self_s": (times["markov.global.self_s"], "s"),
        "markov.local_pairwise.s": (times["markov.local_pairwise.s"], "s"),
        "graphs.components.calls": (calls("graphs.components"), "count"),
        "graphs.self_s": (times["graphs.self_s"], "s"),
        "possibility.marginalize.calls": (marginalize, "count"),
        "possibility.marginalize.hit_ratio": (
            first.counters["marginalize.hits"] / marginalize if marginalize else 0.0, "ratio"),
        "possibility.marginalize.cells": (first.counters["marginalize.cells"], "count"),
        "possibility.self_s": (times["possibility.self_s"], "s"),
        "tnorm.calls": (calls("tnorm."), "count"),
        "tnorm.cells": (first.counters["tnorm.cells"], "count"),
        "tnorm.self_s": (times["tnorm.self_s"], "s"),
        "independence.statements_distinct": (fact("statements_distinct"), "count"),
        "independence.consequent_ratio": (
            fact("consequents") / instances if instances else 0.0, "ratio"),
        "independence.self_s": (times["independence.self_s"], "s"),
    }
    for regime in REGIMES:
        key = f"factorization.{regime}.s"
        metrics[key] = (times[key], "s")
    metrics.update({
        "factorization.lp_calls": (first.counters["lp_calls"], "count"),
        "modelio.load.s": (times["modelio.load.s"], "s"),
        "modelio.load.mb_per_s": (
            load_mb / times["modelio.load.s"] if times["modelio.load.s"] else 0.0, "MB/s"),
        "cli.self_s": (times["cli.self_s"], "s"),
        "cli.known_defect_failures": (sum(o.failed for o in defects), "count"),
        "trace.overhead_ratio": (traced_time / pass_time, "ratio"),
    })
    return metrics


def bootstrap():
    """Limit BLAS threads, put this checkout's sources first on the path and
    import posscheck; returns False when the sources are missing."""
    if not (SRC / "posscheck" / "__init__.py").is_file():
        print(f"perfbench: no posscheck sources under {SRC}", file=sys.stderr)
        return False
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    import posscheck.cli  # noqa: F401  (pulls in the whole package)
    return True


def import_time():
    """Time to import posscheck in a fresh interpreter, as a user's process
    pays it; a child process, so that it can be measured more than once."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                           text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    return float(probe.stdout)


def set_up(workload, seed, workdir):
    """Import and build the inputs SETUP_REPEATS times; returns the inputs
    and the median set-up time, each round scaled by the mean of the
    reference timings right before and right after it."""
    from perfbench import workloads

    rounds = []
    for _ in range(SETUP_REPEATS):
        before = reference_time()
        start = time.perf_counter()
        ops = workloads.build(workload, seed, workdir)
        elapsed = time.perf_counter() - start + import_time()
        rounds.append(elapsed * 2 * REFERENCE_S / (before + reference_time()))
    return ops, statistics.median(rounds)


def main(argv=None):
    args = parse_args(argv)
    if not bootstrap():
        return 2
    from perfbench import checks, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    pins = checks.load_pins(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            ops = workloads.build(args.workload, args.seed, workdir, known_defects=True)
        else:
            ops, setup_s = set_up(args.workload, args.seed, workdir)
        defects = [op for op in ops if op.known_defect]
        ops = [op for op in ops if not op.known_defect]
        call, check = make_call(args.workload), checks.CHECKS[args.workload]
        plain, traced = measure(ops, call, check, pins, args.seconds, bool(args.trace))
        probe = []
        if args.trace:
            probe = run_pass(defects, call, check, pins).outcomes
            metrics = per_layer(ops, plain, traced, probe)
            traced[0].tracer.write(OUT / f"{args.workload}.spans.tsv.gz")
        else:
            metrics = end_to_end(plain, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    outcomes = [o for p in plain + traced for o in p.outcomes]
    failed = [(i % len(ops), o) for i, o in enumerate(outcomes) if o.failed]
    for index, outcome in failed[:len(ops)]:
        print(f"FAILED op {index} ({ops[index].label}, {ops[index].spec}): "
              f"{'; '.join(outcome.problems)}", file=sys.stderr)
    for op, outcome in zip(defects, probe):
        print(f"known defect, op {op.index} ({op.label}, {op.spec}): "
              f"{'; '.join(outcome.problems) or 'passes'}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(ops)} operations x "
          f"{len(plain)} passes{' (+ traced)' if args.trace else ''} of "
          f"{statistics.median(sum(p.times) for p in plain):.2f} s, "
          f"error_rate={len(failed) / len(outcomes):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not any(o.wrong for o in outcomes + probe),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def fix_hash_seed():
    """The library iterates over sets of variable names (clique pivots,
    boundaries), so how much work a call does follows the string hash seed.
    Re-execute in place with a fixed seed to make it repeatable."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


if __name__ == "__main__":
    fix_hash_seed()
    sys.exit(main())
