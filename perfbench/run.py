#!/usr/bin/env python3
"""meanskit benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload suite_battery --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics for
``--seconds`` seconds (rounded up to whole passes over the workload's mix).
Between operations it times a fixed reference task, and the bounded
timings are given in ``ref_ms``, multiples of that task's time at the
moment (see reference.py); the wall-clock ones are printed beside them.
With ``--trace 1`` it runs a fixed number of passes untraced and then the
same passes with spans at the module seams, and reports the per-layer
metrics and the tracing overhead.  Every result is checked against the
benchmark's own oracle.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
WORKLOAD_NAMES = ("axiom_battery", "suite_battery", "apply_mix", "singular_apply")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# (name, unit): what a --trace 0 run reports, and what a --trace 1 run does.
END_TO_END = (
    ("good_ops_per_ref_s", "1/ref_s"),
    ("latency_p50_ref_ms", "ref_ms"),
    ("latency_p99_ref_ms", "ref_ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("verify.trials", "count"),
    ("verify.suite_calls", "count"),
    ("verify.self_s", "s"),
    ("connections.apply.calls.pd", "count"),
    ("connections.apply.calls.quadrature", "count"),
    ("connections.apply.calls.limit", "count"),
    ("connections.apply.calls.projection", "count"),
    ("connections.apply.self_s", "s"),
    ("linalg.eigh.calls", "count"),
    ("linalg.eigh.self_s", "s"),
    ("linalg.eigh.n3_computed", "count"),
    ("linalg.fn_calculus.calls", "count"),
    ("linalg.fn_calculus.self_s", "s"),
    ("linalg.regularize.calls", "count"),
    ("linalg.regularize.steps", "count"),
    ("linalg.regularize.raised", "count"),
    ("measures.mix.calls", "count"),
    ("measures.mix.self_s", "s"),
    ("measures.mix.node_n3_computed", "count"),
    ("cli.requests", "count"),
    ("cli.load_s", "s"),
    ("cli.render_s", "s"),
    ("cli.self_s", "s"),
    ("oracle.max_rel_err.pd", "ratio"),
    ("oracle.max_rel_err.quadrature", "ratio"),
    ("oracle.max_rel_err.limit", "ratio"),
    ("oracle.out_of_tol", "count"),
    ("oracle.raised.NonConvergenceError", "count"),
    ("oracle.raised.other", "count"),
    ("trace.good_ops_per_s_untraced", "1/s"),
    ("trace.good_ops_per_s_traced", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.seams_missing", "count"),
)


def pin_threads() -> None:
    """One BLAS / OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def program_present() -> bool:
    return (ROOT / "src" / "meanskit" / "__init__.py").is_file()


def use_checkout_program() -> None:
    sys.path.insert(0, str(ROOT / "src"))


def setup_probe(workload: str) -> None:
    """Child side of a set-up measurement: import, build, print the
    system-wide monotonic time at which the workload is ready."""
    import workloads

    workloads.build(workload)
    print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)


def measure_setup(workload: str) -> float:
    """Median wall time from starting a fresh interpreter to the workload's
    connections being built, over SETUP_PROBES sequential children."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout) - start)
    return statistics.median(times)


def git_commit() -> str:
    # The ceiling keeps git from reporting an enclosing repository when the
    # checkout itself is not one.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def provenance(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def run_passes(workload, tally, reference, seconds: float) -> int:
    """Whole passes until ``seconds`` have elapsed and every operation of
    the pool has run; returns how many."""
    from workloads import run_ops

    start = time.perf_counter()
    passes = 0
    while passes < workload.pool or time.perf_counter() - start < seconds:
        run_ops(workload.pass_ops(passes), tally, reference=reference)
        passes += 1
    reference.read()
    return passes


def p99(values) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def per_operation(values, tally) -> list:
    """Each operation's median over its repetitions, in ``op_index`` order."""
    groups = [[] for _ in tally.op_index]
    for value, k in zip(values, tally.op_at):
        groups[k].append(value)
    return [statistics.median(g) for g in groups]


def end_to_end(tally, ref_ms, reference, setup_s: float, peak_rss_mb: float) -> dict:
    """The bounded timings from each operation's median in ref_ms, then the
    wall-clock ones."""
    op_ref_ms = per_operation(ref_ms, tally)
    good = [tally.op_good[k] / n for k, n in sorted(Counter(tally.op_at).items())]
    wall_ms = per_operation([1e3 * x for x in tally.latencies], tally)
    return {
        "good_ops_per_ref_s": 1e3 * math.fsum(good) / math.fsum(op_ref_ms),
        "latency_p50_ref_ms": statistics.median(op_ref_ms),
        "latency_p99_ref_ms": p99(op_ref_ms),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "failed_share": tally.failed_share,
        "good_ops_per_s": 1e3 * math.fsum(good) / math.fsum(wall_ms),
        "latency_p50_ms": statistics.median(wall_ms),
        "latency_p99_ms": p99(wall_ms),
        "reference_ms": reference.median_ms,
    }


def oracle_metrics(tally) -> dict:
    raised = dict(tally.raised)
    return {
        "oracle.max_rel_err.pd": tally.max_err.get("pd", 0.0),
        "oracle.max_rel_err.quadrature": tally.max_err.get("quadrature", 0.0),
        "oracle.max_rel_err.limit": tally.max_err.get("limit", 0.0),
        "oracle.out_of_tol": tally.out_of_tol,
        "oracle.raised.NonConvergenceError": raised.pop("NonConvergenceError", 0),
        "oracle.raised.other": sum(raised.values()),
    }


def report(values: dict, declared, tally, extra_lines) -> None:
    units = dict(END_TO_END + PER_LAYER)
    units.update(failed_share="ratio", good_ops_per_s="1/s", latency_p50_ms="ms",
                 latency_p99_ms="ms", reference_ms="ms")
    for name, value in values.items():
        print(f"metric {name:<38} {value:>16.6g} {units.get(name, '')}")
    for line in extra_lines:
        print(line)
    result = {
        "correct": tally.failed == 0,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in declared},
    }
    print(json.dumps(result))


def cell_lines(tally) -> list:
    total = tally.busy_s
    return [f"cell {cell:<34} {100.0 * seconds / total:6.2f}% of busy time, "
            f"failed {tally.cell_failed[cell]} of {tally.cell_ops[cell]} operations"
            for cell, seconds in sorted(tally.cell_time.items(), key=lambda kv: -kv[1])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not program_present():
        print(f"perfbench: no meanskit sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    pin_threads()
    use_checkout_program()
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    import oracles
    import workloads
    from reference import Reference, in_ref_ms
    from tracing import Tracer

    setup_s = measure_setup(args.workload) if args.trace == 0 else None
    workload = workloads.build(args.workload)
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.prepare(args.seed, workdir)
        self_check_err = oracles.self_check(workload.specs, args.seed) if workload.specs else 0.0
        workloads.run_ops(workload.pass_ops(0), workloads.Tally())  # warm-up, not counted

        if args.trace == 0:
            tally, reference = workloads.Tally(), Reference()
            passes = run_passes(workload, tally, reference, args.seconds)
            # Taken before the summary statistics allocate their copies.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ref_ms = in_ref_ms(tally.latencies, tally.readings_at, reference.readings)
            values = end_to_end(tally, ref_ms, reference, setup_s, peak_rss_mb)
            beyond = sum(1 for x in per_operation(ref_ms, tally)
                         if x > values["latency_p99_ref_ms"])
            lines = [f"passes {passes}; distinct operations {len(tally.op_index)}, {beyond} "
                     f"beyond p99; latency samples {len(ref_ms)}; "
                     f"reference readings {len(reference.readings)}; "
                     f"failed {tally.failed} of {tally.attempted}"]
            declared = END_TO_END
        else:
            # Untraced and traced passes alternate, so that drift in the
            # machine's speed does not show up as tracing overhead.
            untraced, tally, tracer = workloads.Tally(), workloads.Tally(), Tracer()
            for k in range(workload.trace_passes):
                workloads.run_ops(workload.pass_ops(k), untraced)
                with tracer.installed():
                    workloads.run_ops(workload.pass_ops(k), tally, tracer)
            layers = tracer.layer_metrics()
            values = {key: layers.get(key, 0.0) for key, _ in PER_LAYER}
            values.update(oracle_metrics(tally))
            values["trace.good_ops_per_s_untraced"] = untraced.good_ops_per_s
            values["trace.good_ops_per_s_traced"] = tally.good_ops_per_s
            values["trace.overhead_share"] = 1.0 - tally.good_ops_per_s / untraced.good_ops_per_s
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans_{args.workload}.jsonl"
            tracer.write(spans_path)
            lines = [f"passes {workload.trace_passes}, each untraced then traced; "
                     f"spans written to {spans_path.relative_to(ROOT)}",
                     f"missing seams: {tracer.missing or 'none'}",
                     f"raised: {dict(tally.raised) or 'none'}",
                     f"trace.classify_s {layers['trace.classify_s']:.6g}"]
            declared = PER_LAYER
        lines += cell_lines(tally)
        lines.append(f"oracle self-check worst disagreement {self_check_err:.3e}")
        lines.append("provenance " + json.dumps(provenance(args), sort_keys=True))
        report(values, declared, tally, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
