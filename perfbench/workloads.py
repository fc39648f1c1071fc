"""The workloads, their operations, and the tally that checks every result
against an oracle.

An operation is one or more suites over one connection (``SuiteOp``; it
counts as many attempts as the suites ran trials) or one ``apply`` / CLI
request (``MatrixOp``).  A workload is built in two steps: the constructor
builds its connections and quadrature plans (what ``setup_s`` measures),
and ``prepare`` generates ``pool`` passes of inputs and their expected
values from the seed (input generation, never timed).  ``pass_ops(k)``
then yields the operations of pass k, cycling through the pool, so that
every operation repeats within a run.
"""

from __future__ import annotations

import io
import json
import math
import time
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import numpy as np

import meanskit
from meanskit import (
    REMARK_A,
    REMARK_B,
    BorelMeasure,
    SymMatrix,
    TrialConfig,
    cli,
    connection_from_function,
    connection_from_measure,
    is_mean,
    make_builtin,
    measure_of_builtin,
    standard_battery,
    transpose,
    verify,
)

import oracles as O
from routes import route_of

SUITE_FUNCS = {
    "axioms": "check_axioms",
    "continuity": "check_continuity_from_above",
    "positivity": "check_positivity",
    "betweenness": "check_betweenness",
    "strictness": "check_strictness_and_order",
}


class CliError(RuntimeError):
    """A CLI request exited with a non-zero code."""


class SuiteOp:
    """One or more suites over one connection, as ``meanskit verify`` runs
    them.  Violations fail their trials unless the theory predicts them
    (betweenness on a non-mean), in which case a report without any
    violation fails all of its trials."""

    __slots__ = ("cell", "conn", "cfg", "mean", "suites")
    route = "suite"

    def __init__(self, cell, conn, cfg, mean, suites):
        self.cell = cell
        self.conn = conn
        self.cfg = cfg
        self.mean = mean
        self.suites = suites

    def call(self):
        # Looked up at call time so that a traced run sees its wrappers.
        return [(suite, getattr(verify, SUITE_FUNCS[suite])(self.conn, self.cfg))
                for suite in self.suites]

    def outcome(self, reports):
        attempted = failed = 0
        for suite, report in reports:
            attempted += report.trials
            if suite == "betweenness" and not self.mean:
                failed += 0 if report.violations > 0 else report.trials
            else:
                failed += report.violations
        return attempted, failed, None

    def attempts_on_error(self) -> int:
        return self.cfg.trials * len(self.suites)


class MatrixOp:
    """One evaluation whose result is compared with a precomputed oracle
    value at the tolerance of its route.  ``decode`` turns the raw result
    into an array outside the timed call."""

    __slots__ = ("cell", "route", "tol", "call", "decode", "expected")

    def __init__(self, cell, route, call, decode, expected):
        self.cell = cell
        self.route = route
        self.tol = O.TOLERANCES[route]
        self.call = call
        self.decode = decode
        self.expected = expected

    def outcome(self, result):
        err = O.rel_err(self.decode(result), self.expected)
        return 1, int(not err <= self.tol), err

    def attempts_on_error(self) -> int:
        return 1


class Tally:
    """Latencies, attempts, failures and oracle statistics of a run, and
    which operation each latency belongs to."""

    def __init__(self):
        # Flat arrays, so that the run's peak memory hardly grows with the
        # number of samples, which grows with the program's speed.
        self.latencies = array("d")
        self.readings_at = array("l")  # per latency: index of the reference reading before it
        self.op_at = array("l")  # per latency: index of its operation in `op_index`
        self.op_index = {}
        self.op_good = Counter()  # operation index -> good attempts over its repetitions
        self.attempted = 0
        self.failed = 0
        self.cell_time = Counter()
        self.cell_ops = Counter()
        self.cell_failed = Counter()
        self.max_err = {}
        self.out_of_tol = 0
        self.raised = Counter()

    def record(self, op, seconds, result):
        attempted, failed, err = op.outcome(result)
        self._time(op, seconds, attempted, failed)
        if err is not None:
            self.max_err[op.route] = max(self.max_err.get(op.route, 0.0), err)
            self.out_of_tol += failed

    def record_error(self, op, seconds, exc):
        n = op.attempts_on_error()
        self._time(op, seconds, n, n)
        self.raised[type(exc).__name__] += 1

    def _time(self, op, seconds, attempted, failed):
        self.attempted += attempted
        self.failed += failed
        k = self.op_index.setdefault(op, len(self.op_index))
        self.op_at.append(k)
        self.op_good[k] += attempted - failed
        self.latencies.append(seconds)
        self.cell_time[op.cell] += seconds
        self.cell_ops[op.cell] += 1
        self.cell_failed[op.cell] += failed > 0

    @property
    def busy_s(self) -> float:
        return math.fsum(self.latencies)

    @property
    def good_ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.busy_s

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted


def run_ops(ops, tally: Tally, tracer=None, reference=None) -> None:
    """Closed loop, one caller: each operation starts after the previous
    one returned.  Only the call itself is timed.  With a ``reference``,
    the reference task is read between operations (see reference.py)."""
    clock = time.perf_counter
    for op in ops:
        if tracer is not None:
            tracer.op_id = len(tally.latencies)
        if reference is not None:
            tally.readings_at.append(reference.poll())
        start = clock()
        try:
            result = op.call()
        except Exception as exc:  # every failure mode of an operation is counted
            tally.record_error(op, clock() - start, exc)
            continue
        tally.record(op, clock() - start, result)


def _apply_call(conn, a, b):
    A, B = SymMatrix(a), SymMatrix(b)
    return lambda: meanskit.apply(conn, A, B)


def _symmatrix_data(x):
    return x.data


def _cli_call(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise CliError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return call


def _decode_cli(text):
    payload = json.loads(text)
    n = int(payload["dim"])
    return np.asarray(payload["data"], dtype=float).reshape(n, n)


def _write_matrix(path: Path, m: np.ndarray) -> str:
    # json writes the shortest repr of each float, so values round-trip.
    path.write_text(json.dumps({"dim": m.shape[0], "data": m.reshape(-1).tolist()}))
    return str(path)


def blend(x: float) -> float:
    """Representing function of the user-callable connection: half the
    geometric mean plus half the harmonic mean, x/(1+x) + sqrt(x)/2."""
    return 0.5 * math.sqrt(x) + x / (1.0 + x)


ATOMS = ((0.0, 0.25), (0.5, 0.5), (1.0, 0.25))


def _atoms_spec():
    return O.combination(
        "atoms", [(0.25, O.arithmetic(0.0)), (0.5, O.harmonic(0.5)), (0.25, O.arithmetic(1.0))]
    )


class _Pooled:
    """A workload whose inputs (and expected values) are generated once per
    run, ``pool`` passes of them, and cycled, so that every operation is
    repeated within a run."""

    pool = 4

    def prepare(self, seed: int, workdir: Path) -> None:
        self.passes = [self._make_pass(np.random.default_rng([seed, p]), p, workdir)
                       for p in range(self.pool)]

    def pass_ops(self, k: int) -> list:
        return self.passes[k % self.pool]


class SuiteBattery(_Pooled):
    """All five suites over ``standard_battery()`` (strictness for means
    only) at dims (1, 2, 3, 5, 8), one trial per dim.  One operation runs
    the suites over one connection with its own suite seed."""

    name = "suite_battery"
    suites = tuple(SUITE_FUNCS)
    trials = 5
    dims = (1, 2, 3, 5, 8)
    trace_passes = 6
    specs = ()

    def __init__(self):
        self.battery = [(name, conn, is_mean(conn)) for name, conn in standard_battery()]

    def _make_pass(self, rng, p, workdir):
        seeds = rng.integers(2**32, size=len(self.battery))
        ops = [SuiteOp(name, conn, TrialConfig(dims=self.dims, trials=self.trials, seed=int(s)),
                       mean, [suite for suite in self.suites if suite != "strictness" or mean])
               for (name, conn, mean), s in zip(self.battery, seeds)]
        return [ops[i] for i in rng.permutation(len(ops))]


class AxiomBattery(SuiteBattery):
    """The criterion-1 composition: the axioms and continuity suites over
    ``standard_battery()``.  One operation is one trial: one suite over one
    connection at one dim, with its own suite seed, so a pass has 150
    operations.  Both suites draw their operands from the PD interior, so
    no draw reaches the epsilon-limit."""

    name = "axiom_battery"
    suites = ("axioms", "continuity")
    pool = 7
    trace_passes = 8

    def _make_pass(self, rng, p, workdir):
        cells = list(product(self.battery, self.suites, self.dims))
        seeds = rng.integers(2**32, size=len(cells))
        ops = [SuiteOp(f"{name}/{suite}", conn, TrialConfig(dims=(n,), trials=1, seed=int(s)),
                       mean, [suite])
               for ((name, conn, mean), suite, n), s in zip(cells, seeds)]
        return [ops[i] for i in rng.permutation(len(ops))]


class ApplyMix(_Pooled):
    """Single ``apply`` calls and CLI requests on PD pairs G G^T + I at
    dims 2, 8, 32, 128, weighted so that no (route, dim) cell dominates."""

    name = "apply_mix"
    pool = 5
    trace_passes = 2
    # family -> {dim: requests per pass}
    mix = {
        "builtin": {2: 40, 8: 40, 32: 16, 128: 12},
        "function": {2: 10, 8: 10, 32: 4, 128: 2},
        "transpose": {2: 10, 8: 10, 32: 4, 128: 2},
        "measure_atoms": {2: 10, 8: 10, 32: 4, 128: 3},
        "measure_arcsine": {2: 10, 8: 6, 32: 3, 128: 1},
        "cli_eval": {2: 6, 8: 6, 32: 3, 128: 3},
        "cli_measure_eval": {2: 3, 8: 3, 32: 1},
    }

    def __init__(self):
        geo_half = make_builtin("geometric", 0.5)
        arcsine = connection_from_measure(measure_of_builtin("geometric", 0.5))
        # family -> [(connection, oracle spec)]; the CLI families keep a
        # connection only to classify the route of their requests.
        self.families = {
            "builtin": [
                (geo_half, O.geometric(0.5)),
                (make_builtin("arithmetic", 0.25), O.arithmetic(0.25)),
                (make_builtin("harmonic", 0.75), O.harmonic(0.75)),
                (make_builtin("logarithmic"), O.logarithmic()),
                (make_builtin("parallel_sum"), O.parallel()),
            ],
            "function": [(connection_from_function(blend), O.combination(
                "blend", [(0.5, O.geometric(0.5)), (0.5, O.harmonic(0.5))]))],
            "transpose": [(transpose(make_builtin("geometric", 0.25)),
                           O.transposed(O.geometric(0.25)))],
            "measure_atoms": [(connection_from_measure(BorelMeasure(atoms=ATOMS)), _atoms_spec())],
            "measure_arcsine": [(arcsine, O.geometric(0.5))],
            "cli_eval": [(geo_half, O.geometric(0.5))],
            "cli_measure_eval": [(arcsine, O.geometric(0.5))],
        }
        # The oracle factors the operand that the program does not.
        self.oracle_side = {"builtin": O.around_right, "function": O.around_right,
                            "cli_eval": O.around_right}
        self.specs = [spec for pairs in self.families.values() for _, spec in pairs]

    def _make_pass(self, rng, p, workdir):
        ops = []
        for family, dims in self.mix.items():
            pairs = self.families[family]
            for n, count in dims.items():
                for i in range(count):
                    conn, spec = pairs[i % len(pairs)]
                    a, b = O.random_pd(rng, n), O.random_pd(rng, n)
                    if spec.closed is not None:
                        expected = spec.closed(a, b)
                    else:
                        expected = self.oracle_side.get(family, O.around_left)(spec, a, b)
                    if family.startswith("cli_"):
                        pa = _write_matrix(workdir / f"p{p}_{family}_{n}_{i}_a.json", a)
                        pb = _write_matrix(workdir / f"p{p}_{family}_{n}_{i}_b.json", b)
                        if family == "cli_eval":
                            argv = ["eval", "--mean", "geometric", "--weight", "0.5"]
                        else:
                            argv = ["measure-eval", "--density", "arcsine", "--n", "256"]
                        call = _cli_call(argv + ["--A", pa, "--B", pb, "--format", "json"])
                        decode = _decode_cli
                    else:
                        call, decode = _apply_call(conn, a, b), _symmatrix_data
                    ops.append(MatrixOp(f"{family}/{n}", route_of(conn, a, b), call,
                                        decode, expected))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]


class SingularApply(_Pooled):
    """Rank-deficient operands at dims 2-8: A singular with B PD, A PD with
    B singular, both singular on a common range, and the REMARK_A/REMARK_B
    corpus in both orders."""

    name = "singular_apply"
    pool = 6
    trace_passes = 2
    dims = (2, 3, 4, 5, 6, 7, 8)
    patterns = ("a_singular", "b_singular", "common_range")

    def __init__(self):
        self.connections = [
            ("arithmetic(0.5)", make_builtin("arithmetic", 0.5), O.arithmetic(0.5)),
            ("geometric(0.5)", make_builtin("geometric", 0.5), O.geometric(0.5)),
            ("geometric(0.25)", make_builtin("geometric", 0.25), O.geometric(0.25)),
            ("harmonic(0.5)", make_builtin("harmonic", 0.5), O.harmonic(0.5)),
            ("logarithmic", make_builtin("logarithmic"), O.logarithmic()),
            ("parallel_sum", make_builtin("parallel_sum"), O.parallel()),
            ("measure_arcsine", connection_from_measure(measure_of_builtin("geometric", 0.5)),
             O.geometric(0.5)),
            ("measure_harmonic", connection_from_measure(measure_of_builtin("harmonic", 0.5)),
             O.harmonic(0.5)),
        ]
        self.specs = [spec for _, _, spec in self.connections]

    def _draw(self, rng, pattern, n):
        """Operands plus the oracle route that fits them."""
        r = int(rng.integers(1, n))
        if pattern == "a_singular":
            a, b = O.random_low_rank(rng, n, r), O.random_pd(rng, n)
            return a, b, lambda spec: O.around_right(spec, a, b, null_dim=n - r)
        if pattern == "b_singular":
            a, b = O.random_pd(rng, n), O.random_low_rank(rng, n, r)
            return a, b, lambda spec: O.around_left(spec, a, b, null_dim=n - r)
        u, _ = np.linalg.qr(rng.standard_normal((n, r)))
        a_r, b_r = O.random_pd(rng, r), O.random_pd(rng, r)
        a, b = O.sym(u @ a_r @ u.T), O.sym(u @ b_r @ u.T)
        return a, b, lambda spec: O.common_range(spec, u, a_r, b_r)

    def draws(self, rng):
        """(pattern, dim, A, B, oracle) for one pass."""
        out = [(pattern, n, *self._draw(rng, pattern, n))
               for n in self.dims for pattern in self.patterns]
        for a, b in ((REMARK_A.data, REMARK_B.data), (REMARK_B.data, REMARK_A.data)):
            da, db = np.diag(a).copy(), np.diag(b).copy()
            out.append(("corpus", 2, a.copy(), b.copy(),
                        lambda spec, da=da, db=db: O.commuting_diagonal(spec, da, db)))
        return out

    def _make_pass(self, rng, p, workdir):
        ops = []
        for pattern, n, a, b, oracle in self.draws(rng):
            for name, conn, spec in self.connections:
                expected = spec.closed(a, b) if spec.closed is not None else oracle(spec)
                ops.append(MatrixOp(f"{pattern}/{name}", route_of(conn, a, b),
                                    _apply_call(conn, a, b), _symmatrix_data, expected))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]


WORKLOADS = {w.name: w for w in (AxiomBattery, SuiteBattery, ApplyMix, SingularApply)}


def build(name: str):
    """Set-up: the workload's connections and quadrature plans."""
    return WORKLOADS[name]()
