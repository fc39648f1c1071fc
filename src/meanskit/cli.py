"""Command-line front-end: evaluate connections on matrix files, tabulate
representing functions, classify, evaluate measures, and run the
verification suites.

Exit codes: 0 success / no violations, 1 suite violations, 2 execution or
parse errors.  JSON output uses canonical key order and 17 significant
digits so floats round-trip exactly; pretty output uses 6.  Command
dispatch is single-threaded; the verification suites stay deterministic
regardless of how their trials are scheduled.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .connections import (
    BUILTIN_KINDS,
    WEIGHTED_KINDS,
    classify,
    is_mean,
    make_builtin,
    repr_fn_eval,
)
from .linalg import SymMatrix, Tolerances, _is_whole, load_matrix
from .measures import (
    DEFAULT_QUADRATURE_NODES,
    BorelMeasure,
    connection_from_measure,
    load_measure,
    measure_from_dict,
    parse_atoms,
)
from .verify import SUITES, Report, TrialConfig, run_counterexamples

JSON_SIG = 17
PRETTY_SIG = 6

_KIND_CHOICES = tuple(kind.replace("_", "-") for kind in BUILTIN_KINDS)
# Largest ``function --grid`` count: a JSON table of 100,000 points takes
# about 1.5 s and 52 MB, and 10 times as many take 10 times as long.
_MAX_GRID_COUNT = 100_000


def canonical_json(obj, sig: int = JSON_SIG) -> str:
    """Serialize with sorted keys and fixed float formatting."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        if obj == 0.0:
            obj = 0.0  # normalize -0.0, whose rendering would not be stable
        return format(obj, f".{sig}g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical_json(v, sig) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return (
            "{"
            + ", ".join(f"{json.dumps(str(k))}: {canonical_json(v, sig)}" for k, v in items)
            + "}"
        )
    if isinstance(obj, np.floating):
        return canonical_json(float(obj), sig)
    if isinstance(obj, np.integer):
        return canonical_json(int(obj), sig)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(text: str) -> None:
    print(text)


def _render_matrix(X: SymMatrix, fmt: str) -> str:
    """The bytes of formatting every entry on its own, from n(n+1)/2 float
    conversions: the upper triangle is formatted with one printf-style
    call and mirrored, which is exact because a ``SymMatrix`` holds
    X[i, j] and X[j, i] as the same double."""
    n = X.dim
    index = np.arange(n)
    upper = index[:, None] <= index  # the upper triangle, read row by row
    values = X.data[upper]
    if fmt == "json":
        values = values + 0.0  # canonical_json writes -0.0 as 0
    spec = f"%12.{PRETTY_SIG}g" if fmt == "pretty" else f"%.{JSON_SIG}g"
    texts = ("\n".join([spec] * values.size) % tuple(values.tolist())).split("\n")
    # position[i, j]: the index in ``texts`` of entry (i, j) or of its mirror.
    position = np.empty((n, n), dtype=np.intp)
    position[upper] = position.T[upper] = np.arange(values.size)
    cells = np.array(texts, dtype=object)[position]
    if fmt == "json":
        return f'{{"data": [{", ".join(cells.ravel().tolist())}], "dim": {n}}}'
    if fmt == "csv":
        return "\n".join(map(",".join, cells.tolist()))
    return "\n".join([f"dim = {n}", *map("  ".join, cells.tolist())])


def _render_table(xs, values, fmt: str) -> str:
    """The bytes of ``canonical_json`` of the rows {"x", "f"} (json) or of
    formatting each value on its own (csv), from one printf-style call."""
    if fmt == "json":
        # Keys in canonical order, f before x; "+ 0.0" writes -0.0 as 0.
        pairs = np.column_stack([values, xs]).ravel() + 0.0
        row = f'{{"f": %.{JSON_SIG}g, "x": %.{JSON_SIG}g}}'
        return "[" + ", ".join([row] * len(xs)) % tuple(pairs.tolist()) + "]"
    if fmt == "csv":
        pairs = np.column_stack([xs, values]).ravel()
        row = f"%.{JSON_SIG}g,%.{JSON_SIG}g"
        return "\n".join(["x,f"] + [row] * len(xs)) % tuple(pairs.tolist())
    return "\n".join(
        f"f({float(x):.{PRETTY_SIG}g}) = {float(v):.{PRETTY_SIG}g}"
        for x, v in zip(xs, values)
    )


def _render_record(record: dict, fmt: str) -> str:
    if fmt == "json":
        return canonical_json(record)
    if fmt == "csv":
        keys = sorted(record)
        fmt_value = lambda v: "" if v is None else str(v).lower() if isinstance(v, bool) else str(v)
        return ",".join(keys) + "\n" + ",".join(fmt_value(record[k]) for k in keys)
    width = max(len(k) for k in record)
    return "\n".join(f"{k:<{width}}  {record[k]}" for k in sorted(record))


def _render_reports(reports: list[Report], fmt: str) -> str:
    if fmt == "json":
        payload = [r.to_dict() for r in reports]
        return canonical_json(payload if len(payload) > 1 else payload[0])
    if fmt == "csv":
        rows = ["suite,trials,violations,worst_margin,seed,elapsed"]
        for r in reports:
            rows.append(
                f"{r.suite},{r.trials},{r.violations},"
                f"{format(r.worst_margin, f'.{JSON_SIG}g')},{r.seed},"
                f"{format(r.elapsed, f'.{JSON_SIG}g')}"
            )
        return "\n".join(rows)
    lines = []
    for r in reports:
        status = "ok" if r.violations == 0 else "VIOLATIONS"
        lines.append(
            f"{r.suite:<16} trials={r.trials:<6} violations={r.violations:<4} "
            f"worst_margin={r.worst_margin:.{PRETTY_SIG}g} seed={r.seed} "
            f"elapsed={r.elapsed:.3f}s  [{status}]"
        )
        for witness in r.witnesses:
            lines.append(f"    witness: {json.dumps(witness)[:240]}")
    return "\n".join(lines)


def _tolerances(args) -> Tolerances:
    """The flags given, by field name; a field whose flag is not given keeps
    the default that ``Tolerances`` states."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(Tolerances)}
    return Tolerances(**{name: v for name, v in given.items() if v is not None})


def _connection(args):
    kind = args.mean.replace("-", "_")
    if kind in WEIGHTED_KINDS and args.weight is None:
        raise ValueError(f"--mean {args.mean} requires --weight in [0, 1]")
    if kind not in WEIGHTED_KINDS and args.weight is not None:
        raise ValueError(f"--mean {args.mean} does not take --weight")
    return make_builtin(kind, args.weight)


def _measure(args) -> BorelMeasure:
    if args.measure and (args.atoms or args.density):
        raise ValueError("give either --measure FILE or inline --atoms/--density")
    if not (args.measure or args.atoms or args.density):
        raise ValueError("a measure is required: --measure FILE or --atoms/--density")
    if args.measure:
        return load_measure(args.measure)
    return measure_from_dict(
        {
            "atoms": parse_atoms(args.atoms) if args.atoms else (),
            "density": {"scheme": "arcsine", "n": args.n} if args.density else None,
        }
    )


def _parse_grid(spec: str):
    try:
        start_s, stop_s, count_s = spec.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError as exc:
        raise ValueError(
            f"bad grid {spec!r}; expected 'start:stop:count'"
        ) from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid start and stop must be finite, got {spec!r}")
    if start < 0:
        raise ValueError(f"grid start must be >= 0, got {start}")
    if not 1 <= count <= _MAX_GRID_COUNT:
        raise ValueError(f"grid count must be in [1, {_MAX_GRID_COUNT}], got {count}")
    if count > 1 and not start < stop:
        raise ValueError(f"grid needs start < stop for count > 1, got {spec!r}")
    if count == 1 and start > stop:
        raise ValueError(f"grid needs start <= stop, got {spec!r}")
    return np.linspace(start, stop, count)


def _parse_whole(text: str, name: str) -> int:
    """A whole number given as text, such as "2" or "2.0"; the error names
    the flag or variable it came from."""
    try:
        value = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            value = None
    if not _is_whole(value):
        raise ValueError(f"{name} must be a whole number, got {text!r}")
    return int(value)


def _resolve_seed(args) -> int:
    env = os.environ.get("MEANSKIT_SEED")
    if env is not None and env != "":
        seed, name, text = _parse_whole(env, "MEANSKIT_SEED"), "MEANSKIT_SEED", env
    else:
        seed, name, text = args.seed, "--seed", str(args.seed)
    if seed < 0:
        raise ValueError(f"{name} must be a nonnegative whole number, got {text!r}")
    return seed


def _eval_files(conn, args, tol: Tolerances) -> int:
    """Apply conn to the matrix files --A and --B and print the result."""
    X = conn.apply(load_matrix(args.A), load_matrix(args.B), tol)
    _emit(_render_matrix(X, args.format))
    return 0


def cmd_eval(args) -> int:
    return _eval_files(_connection(args), args, _tolerances(args))


def cmd_function(args) -> int:
    conn = _connection(args)
    tol = _tolerances(args)
    xs = _parse_grid(args.grid)
    values = [repr_fn_eval(conn, float(x), tol) for x in xs]
    _emit(_render_table(xs, values, args.format))
    return 0


def cmd_classify(args) -> int:
    conn = _connection(args)
    record = classify(conn, _tolerances(args))
    _emit(_render_record(record.to_dict(), args.format))
    return 0


def cmd_measure_eval(args) -> int:
    mu = _measure(args)
    tol = _tolerances(args)
    conn = connection_from_measure(mu)
    if args.x is not None:
        value = repr_fn_eval(conn, args.x, tol)
        if args.format == "json":
            _emit(canonical_json({"x": float(args.x), "value": value}))
        elif args.format == "csv":
            _emit("x,value\n" + f"{format(args.x, '.17g')},{format(value, '.17g')}")
        else:
            _emit(f"f({args.x:.{PRETTY_SIG}g}) = {value:.10g}")
        return 0
    if not args.A or not args.B:
        raise ValueError("matrix mode needs --A and --B (or use scalar --x)")
    return _eval_files(conn, args, tol)


def cmd_verify(args) -> int:
    conn = _connection(args)
    tol = _tolerances(args)
    dims = tuple(_parse_whole(d, "--dims entry") for d in args.dims.split(","))
    cfg = TrialConfig(dims=dims, trials=args.trials, seed=_resolve_seed(args), tol=tol)
    if args.suite == "all":
        names = tuple(SUITES)
    else:
        names = (args.suite,)
    reports = []
    for name in names:
        suite = SUITES[name]
        if name == "strictness" and args.suite == "all" and not is_mean(conn, tol):
            print(
                f"note: skipping strictness (not a mean: f(1) = {conn.fn(1.0):.6g})",
                file=sys.stderr,
            )
            continue
        reports.append(suite(conn, cfg))
    _emit(_render_reports(reports, args.format))
    return 1 if any(r.violations for r in reports) else 0


def cmd_counterexamples(args) -> int:
    report = run_counterexamples(_tolerances(args))
    _emit(_render_reports([report], args.format))
    return 1 if report.violations else 0


def _add_tolerance_flags(sp) -> None:
    sp.add_argument("--psd-slack", type=float, default=None, help="PSD eigenvalue slack")
    sp.add_argument("--eq-tol", type=float, default=None, help="relative equality tolerance")
    note = " of regularize_limit; changes no output, as apply takes no limit"
    sp.add_argument("--eps0", type=float, default=None, help="initial shift" + note)
    sp.add_argument("--eps-min", type=float, default=None, help="smallest shift" + note)


def _add_mean_flags(sp) -> None:
    sp.add_argument("--mean", required=True, choices=_KIND_CHOICES, help="connection kind")
    sp.add_argument("--weight", type=float, default=None, help="weight in [0, 1] for weighted kinds")


def _add_format_flag(sp) -> None:
    sp.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanskit",
        description="Operator connections and means on symmetric PSD matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate A sigma B from matrix files")
    _add_mean_flags(p)
    p.add_argument("--A", required=True, help="path to the left matrix (JSON)")
    p.add_argument("--B", required=True, help="path to the right matrix (JSON)")
    _add_format_flag(p)
    _add_tolerance_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "function",
        help="tabulate the representing function",
        description="Tabulate the representing function f on a grid. The "
        "tolerance flags are validated but do not change the tabulated "
        "values.",
    )
    _add_mean_flags(p)
    p.add_argument("--grid", required=True, help="grid spec 'start:stop:count'")
    _add_format_flag(p)
    _add_tolerance_flags(p)
    p.set_defaults(func=cmd_function)

    p = sub.add_parser("classify", help="classify a connection")
    _add_mean_flags(p)
    _add_format_flag(p)
    _add_tolerance_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "measure-eval", help="evaluate a measure-defined connection or its function"
    )
    p.add_argument("--measure", default=None, help="path to a measure file (JSON)")
    p.add_argument("--atoms", default=None, help='inline atoms "t:w,t:w"')
    p.add_argument("--density", default=None, choices=("arcsine",), help="built-in density")
    p.add_argument(
        "--n", type=int, default=DEFAULT_QUADRATURE_NODES, help="quadrature nodes for the density"
    )
    p.add_argument("--A", default=None, help="path to the left matrix (JSON)")
    p.add_argument("--B", default=None, help="path to the right matrix (JSON)")
    p.add_argument("--x", type=float, default=None, help="scalar mode: evaluate f(x)")
    _add_format_flag(p)
    _add_tolerance_flags(p)
    p.set_defaults(func=cmd_measure_eval)

    p = sub.add_parser("verify", help="run property suites")
    _add_mean_flags(p)
    p.add_argument(
        "--suite",
        choices=(*SUITES, "all"),
        default="all",
    )
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--dims", default="1,2,3,5,8", help="comma-separated dimensions")
    p.add_argument("--seed", type=int, default=42, help="overridden by MEANSKIT_SEED")
    _add_format_flag(p)
    _add_tolerance_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("counterexamples", help="reproduce the singular-matrix corpus")
    _add_format_flag(p)
    _add_tolerance_flags(p)
    p.set_defaults(func=cmd_counterexamples)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # The parser is built on the first call and reused: parse_args keeps no
    # state between calls, and building it costs more than a small request.
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
