#!/usr/bin/env python3
"""Print one SHA-256 digest per (connection, suite) report, one for the
counterexample corpus, and one per connection for ``apply`` on a fixed
corpus of operand pairs, so that two checkouts can be compared with
``diff``.

Each report digest is taken over the canonical JSON of
``report.to_dict(include_elapsed=False)``: every margin, witness and input
matrix, but not the timing.  The configuration is fixed apart from the
trial count and seed: all five suites over ``standard_battery()``,
with the strictness suite run for means only.  After those lines, each
``results/<name>/<suite>`` line is the digest of every array that the
suite's ``_apply_raw`` and ``_apply_stack`` calls returned, in call order,
so that a changed evaluation shows even where it leaves the report alone.

The suites draw positive-definite operands only, so the ``apply/<name>``
lines cover the other routes: each is the digest of the canonical JSON of
the connection's results on the pairs of ``_apply_corpus(seed)``, with
``"<Type>: <message>"`` standing in for a raise.

Each ``cli/<command>/<format>`` line is the digest of the exit code, stdout
and stderr of in-process ``meanskit.cli.main`` runs: ``eval`` and
``measure-eval --atoms`` on seeded positive-definite matrix files at each
dim of CLI_DIMS, and ``function --grid`` on the grids of CLI_GRIDS.

The ``apply/<name>@16,33`` lines come next: the same five pair kinds at
dims 16 and 33, above APPLY_DIMS, for the weighted harmonic means, the
parallel sum and atom measures, which are evaluated by linear solves at
every dim.  Then the
``apply/<name>@margin`` lines, for an affine connection and one of the atom
route, on pairs with one operand's smallest eigenvalue put on both sides
of the margin of the Cholesky positive-definiteness certificate, at dims
2, 16 and 33.  Then come the ``axioms/<name>@16,33`` and
``continuity/<name>@16,33`` lines, the digests of those two suites at
dims 16 and 33 and ATOM_ROUTE_TRIALS trials, for the connections of the
atom route: the suite lines above them reach dims 1-8 only.  They are
followed by their ``results/`` lines.

Last, each ``apply/`` line has a ``bits/apply/`` twin, in the same order:
the digest of the raw float64 bytes of every result, and of the text of
every raise.  Canonical JSON writes -0.0 as 0, so only these lines show a
changed sign of zero.  The script uses the public API
and the two private entry points that ``_Recorder`` wraps, so it runs
against any checkout's ``src``.

The six BLAS and OpenMP thread variables are set to 1 before numpy is
imported, as the benchmark does: a BLAS with more threads may split and sum
a product in another order, and the ``measure-eval`` digests differed
between one and two OpenBLAS threads.  Without the pin, two checkouts run
under different thread settings would show false differences.

    python scripts/report_digest.py --trials 40 --seed 1 > digest.txt
"""

import argparse
import hashlib
import io
import math
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # after the thread variables

from meanskit import (
    DEFAULT_TOL,
    BorelMeasure,
    Connection,
    SymMatrix,
    apply,
    connection_from_function,
    connection_from_measure,
    is_mean,
    make_builtin,
    measure_of_builtin,
    save_matrix,
    transpose,
)
from meanskit import cli
from meanskit.cli import canonical_json
from meanskit.verify import SUITES, TrialConfig, run_counterexamples, standard_battery

APPLY_DIMS = (1, 2, 3, 5, 8)
# Dims above APPLY_DIMS and the suites' dims 1-8 at which the connections
# of the atom route are checked, and the trial count of the suites there.
ATOM_ROUTE_DIMS = (16, 33)
ATOM_ROUTE_TRIALS = 3
CLI_DIMS = (1, 2, 3, 33, 128)
CLI_FORMATS = ("json", "csv", "pretty")
CLI_GRIDS = ("0:10:33", "0:1e-300:9", "1:1:1")
MARGIN_DIMS = (2, 16, 33)
# Multiples of psd_slack * S for one operand's smallest eigenvalue, with S
# the certificate's scale; it certifies pairs above 2 and leaves the rest
# to the eigenvalue checks, which refuse -1.
MARGIN_MULTIPLES = (-1.0, 0.0, 1.0, 1.5, 2.5, 4.0)


def _digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class _Recorder(Connection):
    """Delegates to ``inner`` and keeps, as lists, the arrays that its
    ``_apply_raw`` and ``_apply_stack`` return."""

    def __init__(self, inner):
        self.inner = inner
        self.results = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _apply_raw(self, a, b, tol):
        out = self.inner._apply_raw(a, b, tol)
        self.results.append(out.tolist())
        return out

    def _apply_stack(self, a, b, tol):
        out = self.inner._apply_stack(a, b, tol)
        self.results.append(out.tolist())
        return out


def _print_suites(runs, cfg: TrialConfig) -> None:
    """For each (line name, suite, connection), print the digest of the
    suite's report; then one ``results/`` line each, the digest of every
    array that the suite's evaluations returned."""
    results = []
    for line, suite, conn in runs:
        recorder = _Recorder(conn)
        report = suite(recorder, cfg)
        print(f"{line} {_digest(report.to_dict(include_elapsed=False))}")
        results.append(f"results/{line} {_digest(recorder.results)}")
    print("\n".join(results))


def _gram(rng, rows: int, cols: int) -> np.ndarray:
    g = rng.standard_normal((rows, cols))
    return g @ g.T


def _pair(kind: int, dim: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Operand pair ``kind`` at ``dim``; the deficient ranks are dim // 2."""

    def pd():
        return _gram(rng, dim, dim) + 0.1 * np.eye(dim)

    rank = dim // 2
    if kind == 0:
        return pd(), pd()
    if kind == 1:
        return _gram(rng, dim, rank), pd()
    if kind == 2:
        return pd(), _gram(rng, dim, rank)
    if kind == 3:
        basis = rng.standard_normal((dim, rank))
        return tuple(basis @ _gram(rng, rank, rank) @ basis.T for _ in range(2))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    values = rng.uniform(0.5, 2.0, dim)
    values[0] = -values[0]
    indefinite = (q * values) @ q.T
    return (indefinite, pd()) if dim % 2 else (pd(), indefinite)


def _apply_corpus(seed: int, dims=APPLY_DIMS) -> list[tuple[SymMatrix, SymMatrix]]:
    """At each of ``dims``, five pairs from the generator of (seed, k):
    PD/PD, rank-deficient A with PD B, PD A with rank-deficient B, both on
    one common range, and one non-PSD operand (the left one at odd dims)."""
    pairs = []
    for dim in dims:
        for kind in range(5):
            rng = np.random.default_rng([seed, len(pairs)])
            a, b = _pair(kind, dim, rng)
            pairs.append((SymMatrix(a), SymMatrix(b)))
    return pairs


def _margin_corpus(seed: int) -> list[tuple[SymMatrix, SymMatrix]]:
    """At each of MARGIN_DIMS and MARGIN_MULTIPLES c, a rotated pair with
    eigenvalues in [0.5, 2] in which the smallest eigenvalue of one operand
    (the left one, then the right one) is moved to c psd_slack S, where
    S = max(1, n max_i x_ii) over both operands' diagonals."""
    pairs = []
    for dim in MARGIN_DIMS:
        for c in MARGIN_MULTIPLES:
            for side in (0, 1):
                rng = np.random.default_rng([seed, len(pairs)])
                q = [np.linalg.qr(rng.standard_normal((dim, dim)))[0] for _ in range(2)]
                values = rng.uniform(0.5, 2.0, (2, dim))
                values[side, 0] = 0.0
                ops = [(u * v) @ u.T for u, v in zip(q, values)]
                scale = max(1.0, dim * max(np.diag(x).max() for x in ops))
                values[side, 0] = c * DEFAULT_TOL.psd_slack * scale
                pairs.append(tuple(SymMatrix((u * v) @ u.T) for u, v in zip(q, values)))
    return pairs


def _apply_connections():
    three_atoms = BorelMeasure(atoms=((0.0, 0.25), (0.5, 0.5), (1.0, 0.25)))
    return list(standard_battery()) + [
        ("arcsine", connection_from_measure(measure_of_builtin("geometric", 0.5))),
        ("three_atoms", connection_from_measure(three_atoms)),
        ("transpose_geometric(0.25)", transpose(make_builtin("geometric", 0.25))),
        ("function_sqrt", connection_from_function(math.sqrt)),
    ]


def _atom_route_connections():
    two_atoms = BorelMeasure(atoms=((0.0, 0.2), (0.3, 0.5), (0.7, 0.4)))
    return [
        (f"harmonic({weight:g})", make_builtin("harmonic", weight))
        for weight in (0.25, 0.5, 0.75)
    ] + [
        ("parallel_sum", make_builtin("parallel_sum")),
        ("two_atoms", connection_from_measure(two_atoms)),
    ]


def _apply_results(conn, pairs) -> tuple[list, str]:
    """``apply`` on each pair, as nested lists with ``"<Type>: <message>"``
    for a raise, and the SHA-256 of the same results as raw float64 bytes."""
    results, bits = [], hashlib.sha256()
    for a, b in pairs:
        try:
            out = apply(conn, a, b).data
        except Exception as exc:
            text = f"{type(exc).__name__}: {exc}"
            results.append(text)
            bits.update(text.encode("utf-8"))
        else:
            results.append(out.tolist())
            bits.update(out.tobytes())
    return results, bits.hexdigest()


def _print_apply(name: str, conn, pairs, bit_lines: list) -> None:
    """Print the ``apply/<name>`` line and keep its ``bits/`` twin."""
    results, bits = _apply_results(conn, pairs)
    print(f"apply/{name} {_digest(results)}")
    bit_lines.append(f"bits/apply/{name} {bits}")


def _cli_run(argv) -> list:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def _cli_digests(seed: int, workdir: Path) -> list[tuple[str, str]]:
    """(``cli/<command>/<format>``, digest) for each command and format."""
    operands = []
    for dim in CLI_DIMS:
        rng = np.random.default_rng([seed, dim])
        paths = [str(workdir / f"{name}{dim}.json") for name in ("a", "b")]
        for path in paths:
            save_matrix(SymMatrix(_gram(rng, dim, dim) + 0.1 * np.eye(dim)), path)
        operands.append(["--A", paths[0], "--B", paths[1]])
    commands = {
        "eval": [["eval", "--mean", "geometric", "--weight", "0.5", *ab] for ab in operands],
        "measure-eval": [
            ["measure-eval", "--atoms", "0:0.25,0.5:0.5,1:0.25", *ab] for ab in operands
        ],
        "function": [["function", "--mean", "logarithmic", "--grid", g] for g in CLI_GRIDS],
    }
    return [
        (f"cli/{command}/{fmt}", _digest([_cli_run(argv + ["--format", fmt]) for argv in argvs]))
        for command, argvs in commands.items()
        for fmt in CLI_FORMATS
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=40)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    cfg = TrialConfig(trials=args.trials, seed=args.seed)
    runs = [
        (f"{name}/{suite_name}", suite, conn)
        for name, conn in standard_battery()
        for suite_name, suite in SUITES.items()
        if suite_name != "strictness" or is_mean(conn, cfg.tol)
    ]
    _print_suites(runs, cfg)
    report = run_counterexamples(cfg.tol)
    print(f"counterexamples {_digest(report.to_dict(include_elapsed=False))}")
    pairs = _apply_corpus(args.seed)
    bit_lines = []
    for name, conn in _apply_connections():
        _print_apply(name, conn, pairs, bit_lines)
    with tempfile.TemporaryDirectory() as workdir:
        for name, digest in _cli_digests(args.seed, Path(workdir)):
            print(f"{name} {digest}")
    pairs = _apply_corpus(args.seed, ATOM_ROUTE_DIMS)
    suffix = ",".join(map(str, ATOM_ROUTE_DIMS))
    transposed = ("transpose_harmonic(0.25)", transpose(make_builtin("harmonic", 0.25)))
    for name, conn in _atom_route_connections() + [transposed]:
        _print_apply(f"{name}@{suffix}", conn, pairs, bit_lines)
    pairs = _margin_corpus(args.seed)
    for name, conn in [
        ("arithmetic(0.25)", make_builtin("arithmetic", 0.25)),
        ("harmonic(0.75)", make_builtin("harmonic", 0.75)),
    ]:
        _print_apply(f"{name}@margin", conn, pairs, bit_lines)
    cfg = TrialConfig(dims=ATOM_ROUTE_DIMS, trials=ATOM_ROUTE_TRIALS, seed=args.seed)
    runs = [
        (f"{suite_name}/{name}@{suffix}", SUITES[suite_name], conn)
        for name, conn in _atom_route_connections()
        for suite_name in ("axioms", "continuity")
    ]
    _print_suites(runs, cfg)
    print("\n".join(bit_lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
