"""End-to-end tests of the command-line interface: formats, exit codes,
round-trips, and the environment seed override."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from meanskit import cli, measures
from meanskit.cli import _render_matrix, build_parser, canonical_json, main
from meanskit.connections import make_builtin, repr_fn_eval
from meanskit.linalg import (
    SymMatrix,
    Tolerances,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    save_matrix,
)
from meanskit.measures import BorelMeasure, connection_from_measure, parse_atoms
from meanskit.verify import random_pd


@pytest.fixture
def matrix_files(tmp_path):
    paths = {}
    for name, m in {
        "one": SymMatrix([[1.0]]),
        "two": SymMatrix([[2.0]]),
        "proj_a": SymMatrix([[1.0, 0.0], [0.0, 0.0]]),
        "proj_b": SymMatrix([[0.0, 0.0], [0.0, 1.0]]),
        "pd": SymMatrix([[2.0, 0.5], [0.5, 1.0]]),
        "indef": SymMatrix([[1.0, 0.0], [0.0, -1.0]]),
    }.items():
        path = tmp_path / f"{name}.json"
        save_matrix(m, path)
        paths[name] = str(path)
    return paths


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def _reference_json(obj, sig=17):
    """Canonical JSON rendered one value at a time, the way the general
    recursive path of ``canonical_json`` does."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return format(0.0 if obj == 0.0 else obj, f".{sig}g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_reference_json(v, sig) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return (
            "{"
            + ", ".join(f"{json.dumps(str(k))}: {_reference_json(v, sig)}" for k, v in items)
            + "}"
        )
    raise TypeError(type(obj).__name__)


def _reference_matrix(X, fmt):
    """Matrix output formatted one entry at a time."""
    if fmt == "json":
        data = [float(v) for v in X.data.reshape(-1)]
        return _reference_json({"dim": X.dim, "data": data})
    if fmt == "csv":
        return "\n".join(",".join(format(v, ".17g") for v in row) for row in X.tolist())
    rows = ["  ".join(f"{v:>12.6g}" for v in row) for row in X.tolist()]
    return "\n".join([f"dim = {X.dim}"] + rows)


def _assert_same_text(got, want):
    """Equality of long renderings, reporting only the first difference."""
    if got != want:
        same = enumerate(zip(got, want))
        i = next((k for k, (g, w) in same if g != w), min(len(got), len(want)))
        lo = max(0, i - 40)
        pytest.fail(f"first difference at {i}: {got[lo:i + 40]!r} != {want[lo:i + 40]!r}")


def _spread_matrix(dim, seed):
    """Seeded symmetric matrix with entries of both signs across 17 decades."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-8, 9, (dim, dim))
    return SymMatrix(rng.standard_normal((dim, dim)) * scale)


# Symmetric, so construction keeps every entry bit for bit.
SPECIAL_VALUES = SymMatrix(
    [[-0.0, 5e-324, 1e-5], [5e-324, 1e16, 1e17], [1e-5, 1e17, 123456.5]]
)

# Signed zeros and subnormals in mirrored pairs off the diagonal; again
# symmetric, so every entry keeps its bits.
SIGNED_PAIRS = SymMatrix(
    [
        [1.0, -0.0, 5e-324, -2.5e-310],
        [-0.0, -0.0, -5e-324, 0.0],
        [5e-324, -5e-324, 2.0**-25, 1e16],
        [-2.5e-310, 0.0, 1e16, -1e17],
    ]
)

_RENDER_CASES = [
    (f"dim{d}", _spread_matrix(d, 400 + d)) for d in (1, 2, 3, 8, 32, 127, 128, 129)
]
_RENDER_CASES += [("special_values", SPECIAL_VALUES), ("signed_pairs", SIGNED_PAIRS)]


class TestRenderMatrix:
    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    @pytest.mark.parametrize(
        "X", [x for _, x in _RENDER_CASES], ids=[name for name, _ in _RENDER_CASES]
    )
    def test_bytes_match_per_value_formatting(self, X, fmt):
        _assert_same_text(_render_matrix(X, fmt), _reference_matrix(X, fmt))

    @pytest.mark.parametrize(
        "X", [x for _, x in _RENDER_CASES], ids=[name for name, _ in _RENDER_CASES]
    )
    def test_json_is_canonical_json_of_the_matrix_dict(self, X):
        _assert_same_text(_render_matrix(X, "json"), canonical_json(matrix_to_dict(X)))

    def test_special_values_survive_construction(self):
        flat = SPECIAL_VALUES.data.reshape(-1)
        assert np.signbit(flat[0]) and flat[1] == 5e-324
        assert _render_matrix(SPECIAL_VALUES, "csv").splitlines()[0] == (
            "-0,4.9406564584124654e-324,1.0000000000000001e-05"
        )

    def test_signed_pairs_survive_construction(self):
        pairs = SIGNED_PAIRS.data
        assert np.signbit(pairs[0, 1]) and np.signbit(pairs[1, 0]) and np.signbit(pairs[1, 1])
        assert pairs[0, 2] == pairs[2, 0] == 5e-324 and pairs[1, 2] == pairs[2, 1] == -5e-324
        assert _render_matrix(SIGNED_PAIRS, "json").startswith(
            '{"data": [1, 0, 4.9406564584124654e-324, -2.5000000000000171e-310, 0, 0,'
        )

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_eval_and_measure_eval_stdout(self, capsys, tmp_path, fmt):
        rng = np.random.default_rng(410)
        paths = []
        for name in ("a", "b"):
            paths.append(str(tmp_path / f"{name}.json"))
            save_matrix(random_pd(16, rng), paths[-1])
        operands = ["--A", paths[0], "--B", paths[1], "--format", fmt]
        atoms = "0.25:0.5,1:0.5"
        for argv, conn in (
            (["eval", "--mean", "geometric", "--weight", "0.5"], make_builtin("geometric", 0.5)),
            (
                ["measure-eval", "--atoms", atoms],
                connection_from_measure(BorelMeasure(atoms=parse_atoms(atoms))),
            ),
        ):
            assert main(argv + operands) == 0
            want = conn.apply(load_matrix(paths[0]), load_matrix(paths[1]), Tolerances())
            _assert_same_text(capsys.readouterr().out, _reference_matrix(want, fmt) + "\n")


class TestEval:
    def test_harmonic_scalars(self, capsys, matrix_files):
        code, obj = run_json(
            capsys,
            [
                "eval",
                "--mean",
                "harmonic",
                "--weight",
                "0.5",
                "--A",
                matrix_files["one"],
                "--B",
                matrix_files["two"],
            ],
        )
        assert code == 0
        assert obj["dim"] == 1
        assert obj["data"][0] == pytest.approx(4.0 / 3.0)

    def test_geometric_projection_pair_vanishes(self, capsys, matrix_files):
        code, obj = run_json(
            capsys,
            [
                "eval",
                "--mean",
                "geometric",
                "--weight",
                "0.5",
                "--A",
                matrix_files["proj_a"],
                "--B",
                matrix_files["proj_b"],
            ],
        )
        assert code == 0
        assert max(abs(v) for v in obj["data"]) <= 1e-5

    def test_largest_finite_entries_load(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"dim": 1, "data": [1e308]}')
        argv = ["eval", "--mean", "arithmetic", "--weight", "0.5", "--A", str(path)]
        assert main(argv + ["--B", str(path), "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ('{"data": [1e+308], "dim": 1}\n', "")

    def test_left_trivial_returns_left_file(self, capsys, matrix_files):
        code, obj = run_json(
            capsys,
            [
                "eval",
                "--mean",
                "left-trivial",
                "--A",
                matrix_files["pd"],
                "--B",
                matrix_files["pd"],
            ],
        )
        assert code == 0
        np.testing.assert_allclose(
            np.array(obj["data"]).reshape(2, 2),
            [[2.0, 0.5], [0.5, 1.0]],
            atol=1e-12,
        )

    def test_json_roundtrip_identical(self, capsys, matrix_files, tmp_path):
        rng = np.random.default_rng(64)
        pair64 = []
        for name in ("a64", "b64"):
            pair64.append(str(tmp_path / f"{name}.json"))
            save_matrix(random_pd(64, rng), pair64[-1])
        for a_path, b_path in ((matrix_files["pd"], matrix_files["pd"]), pair64):
            code = main(
                [
                    "eval",
                    "--mean",
                    "geometric",
                    "--weight",
                    "0.5",
                    "--A",
                    a_path,
                    "--B",
                    b_path,
                    "--format",
                    "json",
                ]
            )
            assert code == 0
            first = capsys.readouterr().out
            reparsed = matrix_from_dict(json.loads(first))
            assert canonical_json(
                {"dim": reparsed.dim, "data": [float(v) for v in reparsed.data.reshape(-1)]}
            ) == first.strip()

    def test_missing_file_exits_2(self, capsys, matrix_files):
        code = main(
            [
                "eval",
                "--mean",
                "sum",
                "--A",
                "/nonexistent/path.json",
                "--B",
                matrix_files["one"],
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", ["2.5", "true", '"2"'])
    def test_non_whole_dim_exits_2(self, capsys, matrix_files, tmp_path, dim):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"dim": {dim}, "data": [1.0, 0.0, 0.0, 1.0]}}')
        argv = ["eval", "--mean", "sum", "--A", str(path), "--B", matrix_files["pd"]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: matrix dim must be a whole number")

    def test_whole_float_dim_loads(self, capsys, matrix_files, tmp_path):
        path = tmp_path / "eye.json"
        path.write_text('{"dim": 2.0, "data": [1.0, 0.0, 0.0, 1.0]}')
        argv = ["eval", "--mean", "sum", "--A", str(path), "--B", matrix_files["pd"]]
        code, out = run_json(capsys, argv)
        assert code == 0
        assert out == {"dim": 2, "data": [3.0, 0.5, 0.5, 2.0]}

    def test_non_psd_exits_2_naming_eigenvalue(self, capsys, matrix_files):
        code = main(
            [
                "eval",
                "--mean",
                "geometric",
                "--weight",
                "0.5",
                "--A",
                matrix_files["indef"],
                "--B",
                matrix_files["pd"],
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "eigenvalue" in err and "-1" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_exits_2(self, capsys, matrix_files, value):
        # A NaN slack would route every left operand to the epsilon-limit.
        for matrix in ("pd", "indef"):
            code = main(
                [
                    "eval",
                    "--mean",
                    "geometric",
                    "--weight",
                    "0.5",
                    "--A",
                    matrix_files[matrix],
                    "--B",
                    matrix_files["pd"],
                    "--psd-slack",
                    value,
                ]
            )
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "psd_slack must be finite" in captured.err

    def test_missing_weight_exits_2(self, capsys, matrix_files):
        code = main(
            [
                "eval",
                "--mean",
                "geometric",
                "--A",
                matrix_files["one"],
                "--B",
                matrix_files["two"],
            ]
        )
        assert code == 2

    def test_csv_and_pretty_formats(self, capsys, matrix_files):
        assert (
            main(
                [
                    "eval",
                    "--mean",
                    "sum",
                    "--A",
                    matrix_files["pd"],
                    "--B",
                    matrix_files["pd"],
                    "--format",
                    "csv",
                ]
            )
            == 0
        )
        csv_out = capsys.readouterr().out.strip().splitlines()
        assert len(csv_out) == 2
        first_row = [float(v) for v in csv_out[0].split(",")]
        np.testing.assert_allclose(first_row, [4.0, 1.0], atol=1e-12)
        assert (
            main(
                [
                    "eval",
                    "--mean",
                    "sum",
                    "--A",
                    matrix_files["pd"],
                    "--B",
                    matrix_files["pd"],
                    "--format",
                    "pretty",
                ]
            )
            == 0
        )
        assert "dim = 2" in capsys.readouterr().out

    def test_largest_doubles(self, capsys, tmp_path):
        path = str(tmp_path / "big.json")
        save_matrix(SymMatrix([[1e308]]), path)
        argv = ["eval", "--mean", "geometric", "--weight", "0.5", "--A", path, "--B", path]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        assert capsys.readouterr().out == "dim = 1\n      1e+308\n"


class TestTolerances:
    def test_each_field_has_its_flag(self):
        # A flag reaches its field by name; the other fields keep their defaults.
        fields = dataclasses.fields(Tolerances)
        for field in fields:
            value = field.default / 2.0
            flag = "--" + field.name.replace("_", "-")
            argv = ["eval", "--mean", "sum", "--A", "a", "--B", "b", flag, repr(value)]
            tol = cli._tolerances(build_parser().parse_args(argv))
            for other in fields:
                want = value if other is field else other.default
                assert getattr(tol, other.name) == want, (flag, other.name)


class TestPerProcessState:
    """The CLI parser and the Gauss-Legendre rule are built once per
    process; later requests reuse them and print the same bytes."""

    def test_parser_reused_across_errors(self, capsys, matrix_files, monkeypatch):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        argv = ["eval", "--mean", "geometric", "--weight", "0.5", "--format", "json",
                "--A", matrix_files["one"], "--B", matrix_files["two"]]
        assert main(argv) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--mean", "no-such-kind"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv[:-1] + [matrix_files["indef"]]) == 2
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert built == [1]
        assert build_parser() is not build_parser()

    def test_rule_built_once_for_two_requests(self, capsys, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counting_leggauss(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
        measures._leggauss.cache_clear()
        argv = ["measure-eval", "--density", "arcsine", "--n", "256", "--x", "3",
                "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert calls == [256]


class TestFunction:
    def test_logarithmic_at_one(self, capsys):
        code, table = run_json(
            capsys, ["function", "--mean", "logarithmic", "--grid", "1:1:1"]
        )
        assert code == 0
        assert table == [{"x": 1, "f": 1}]

    def test_geometric_at_four(self, capsys):
        code, table = run_json(
            capsys,
            ["function", "--mean", "geometric", "--weight", "0.5", "--grid", "4:4:1"],
        )
        assert code == 0
        assert table[0]["f"] == pytest.approx(2.0)

    def test_zero_everywhere(self, capsys):
        code, table = run_json(
            capsys, ["function", "--mean", "zero", "--grid", "0:10:5"]
        )
        assert code == 0
        assert all(row["f"] == 0 for row in table)

    def test_csv_table(self, capsys):
        code = main(
            ["function", "--mean", "sum", "--grid", "0:2:3", "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,f"
        assert lines[1].startswith("0,1")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["--mean", "logarithmic", "--grid", "0:10:257"],
            ["--mean", "geometric", "--weight", "0.25", "--grid", "0:1e-300:9"],
            ["--mean", "zero", "--grid", "0:1e300:5"],
            ["--mean", "harmonic", "--weight", "1", "--grid", "3:3:1"],
        ],
    )
    def test_table_bytes_match_per_point_formatting(self, capsys, argv, fmt):
        assert main(["function", *argv, "--format", fmt]) == 0
        out = capsys.readouterr().out
        args = build_parser().parse_args(["function", *argv])
        conn, tol = cli._connection(args), cli._tolerances(args)
        xs = [float(x) for x in cli._parse_grid(args.grid)]
        values = [float(repr_fn_eval(conn, x, tol)) for x in xs]
        if fmt == "json":
            want = canonical_json([{"x": x, "f": v} for x, v in zip(xs, values)])
        else:
            want = "\n".join(["x,f"] + [f"{format(x, '.17g')},{format(v, '.17g')}"
                                         for x, v in zip(xs, values)])
        _assert_same_text(out, want + "\n")

    def test_malformed_grid_exits_2(self, capsys):
        assert main(["function", "--mean", "sum", "--grid", "5:1:10"]) == 2
        assert main(["function", "--mean", "sum", "--grid", "oops"]) == 2
        assert main(["function", "--mean", "sum", "--grid=-1:2:3"]) == 2
        assert main(["function", "--mean", "sum", "--grid", "0:inf:3"]) == 2
        assert main(["function", "--mean", "sum", "--grid", "1:nan:1"]) == 2
        assert capsys.readouterr().out == ""

    def test_grid_count_above_cap_exits_2(self, capsys, monkeypatch):
        # Rejected before numpy is asked for the grid.
        monkeypatch.setattr(np, "linspace", None)
        count = cli._MAX_GRID_COUNT + 1
        assert main(["function", "--mean", "logarithmic", "--grid", f"0:10:{count}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: grid count must be in [1, {cli._MAX_GRID_COUNT}], got {count}\n"
        )


class TestClassify:
    def test_right_trivial(self, capsys):
        code, rec = run_json(capsys, ["classify", "--mean", "right-trivial"])
        assert code == 0
        assert rec["strict_right"] is False and rec["is_right_trivial"] is True

    def test_arithmetic_is_strict_mean(self, capsys):
        code, rec = run_json(
            capsys, ["classify", "--mean", "arithmetic", "--weight", "0.5"]
        )
        assert code == 0
        assert rec["strict"] is True and rec["is_mean"] is True

    def test_parallel_sum_not_a_mean(self, capsys):
        code, rec = run_json(capsys, ["classify", "--mean", "parallel-sum"])
        assert code == 0
        assert rec["is_mean"] is False and rec["strict"] is None


class TestMeasureEval:
    def test_interior_atom_scalar(self, capsys):
        code, obj = run_json(
            capsys, ["measure-eval", "--atoms", "0.5:1", "--x", "2"]
        )
        assert code == 0
        assert obj["value"] == pytest.approx(4.0 / 3.0)

    def test_boundary_atoms_scalar(self, capsys):
        code, obj = run_json(
            capsys, ["measure-eval", "--atoms", "0:0.5,1:0.5", "--x", "3"]
        )
        assert code == 0
        assert obj["value"] == pytest.approx(2.0)

    def test_arcsine_density_scalar(self, capsys):
        code, obj = run_json(
            capsys,
            ["measure-eval", "--density", "arcsine", "--n", "256", "--x", "4"],
        )
        assert code == 0
        assert obj["value"] == pytest.approx(2.0, abs=1e-6)

    def test_matrix_mode(self, capsys, matrix_files):
        code, obj = run_json(
            capsys,
            [
                "measure-eval",
                "--atoms",
                "0:1",
                "--A",
                matrix_files["pd"],
                "--B",
                matrix_files["pd"],
            ],
        )
        assert code == 0
        np.testing.assert_allclose(
            np.array(obj["data"]).reshape(2, 2), [[2.0, 0.5], [0.5, 1.0]]
        )

    def test_measure_file(self, capsys, tmp_path, matrix_files):
        path = tmp_path / "mu.json"
        path.write_text('{"atoms": [[0.5, 1.0]], "density": null}')
        code, obj = run_json(
            capsys, ["measure-eval", "--measure", str(path), "--x", "2"]
        )
        assert code == 0
        assert obj["value"] == pytest.approx(4.0 / 3.0)

    @pytest.mark.parametrize(
        "x", ["5.264290204069142", "0.5669756697613918", "60.08292362247329"]
    )
    def test_scalar_mode_uses_the_connections_f(self, capsys, x):
        # Points where a second quadrature of f would differ in the last ulp.
        atoms = "0:0.25,0.5:0.5,1:0.25"
        code, obj = run_json(capsys, ["measure-eval", "--atoms", atoms, "--x", x])
        assert code == 0
        conn = connection_from_measure(BorelMeasure(atoms=parse_atoms(atoms)))
        assert obj["value"] == repr_fn_eval(conn, float(x))

    def test_requires_a_measure(self, capsys):
        assert main(["measure-eval", "--x", "2"]) == 2

    @staticmethod
    def _assert_node_count_rejected(capsys, argv, shown):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: quadrature node count n must be a whole number in "
            f"[1, {measures.MAX_QUADRATURE_NODES}], got {shown}\n"
        )

    @pytest.mark.parametrize("n", ["0", "-3", str(measures.MAX_QUADRATURE_NODES + 1)])
    def test_node_count_out_of_range_exits_2(self, capsys, monkeypatch, n):
        # Rejected before numpy is asked for a rule.
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", None)
        argv = ["measure-eval", "--density", "arcsine", "--n", n, "--x", "4"]
        self._assert_node_count_rejected(capsys, argv, n)

    @pytest.mark.parametrize("n,shown", [("3.9", "3.9"), ("true", "True")])
    def test_measure_file_node_count_must_be_whole(self, capsys, tmp_path, n, shown):
        path = tmp_path / "mu.json"
        path.write_text(f'{{"atoms": [], "density": {{"scheme": "arcsine", "n": {n}}}}}')
        argv = ["measure-eval", "--measure", str(path), "--x", "4"]
        self._assert_node_count_rejected(capsys, argv, shown)

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_non_finite_x_exits_2(self, capsys, x):
        assert main(["measure-eval", "--atoms", "0.5:1", "--x", x]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "defined on [0, inf)" in captured.err

    @pytest.mark.parametrize(
        "source, message",
        [
            ("0.5:inf", "atom weight inf must be positive and finite"),
            ("0.5:1e308,0.25:1e308", "total mass inf of the atoms and density must be finite"),
            ('{"atoms": [[0.5, Infinity]]}', "atom weight inf must be positive and finite"),
        ],
    )
    def test_infinite_mass_exits_2(self, capsys, tmp_path, source, message):
        if source.startswith("{"):
            path = tmp_path / "mu.json"
            path.write_text(source)
            argv = ["measure-eval", "--measure", str(path)]
        else:
            argv = ["measure-eval", "--atoms", source]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--x", "1", "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_rejects_file_plus_inline(self, capsys, tmp_path):
        path = tmp_path / "mu.json"
        path.write_text('{"atoms": [[0.5, 1.0]], "density": null}')
        assert (
            main(["measure-eval", "--measure", str(path), "--atoms", "0:1", "--x", "1"])
            == 2
        )


class TestVerify:
    def test_geometric_small_clean_run(self, capsys):
        code, reports = run_json(
            capsys,
            [
                "verify",
                "--mean",
                "geometric",
                "--weight",
                "0.5",
                "--suite",
                "all",
                "--trials",
                "10",
                "--dims",
                "1,2,3",
                "--seed",
                "7",
            ],
        )
        assert code == 0
        assert [r["suite"] for r in reports] == [
            "axioms",
            "continuity",
            "positivity",
            "betweenness",
            "strictness",
        ]
        assert all(r["violations"] == 0 for r in reports)

    def test_parallel_sum_betweenness_exits_1(self, capsys):
        code, report = run_json(
            capsys,
            [
                "verify",
                "--mean",
                "parallel-sum",
                "--suite",
                "betweenness",
                "--trials",
                "10",
                "--dims",
                "2",
                "--seed",
                "7",
            ],
        )
        assert code == 1
        assert report["violations"] > 0

    def test_strictness_on_non_mean_exits_2(self, capsys):
        assert (
            main(
                [
                    "verify",
                    "--mean",
                    "sum",
                    "--suite",
                    "strictness",
                    "--trials",
                    "5",
                    "--dims",
                    "2",
                ]
            )
            == 2
        )

    def test_all_skips_strictness_for_non_mean(self, capsys):
        code = main(
            [
                "verify",
                "--mean",
                "sum",
                "--suite",
                "all",
                "--trials",
                "5",
                "--dims",
                "1,2",
                "--seed",
                "3",
                "--format",
                "json",
            ]
        )
        captured = capsys.readouterr()
        reports = json.loads(captured.out)
        # betweenness correctly fails for a non-mean, hence exit 1
        assert code == 1
        assert "strictness" not in [r["suite"] for r in reports]
        assert "skipping strictness" in captured.err

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--mean", "sum", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("MEANSKIT_SEED", "123")
        code, report = run_json(
            capsys,
            [
                "verify",
                "--mean",
                "arithmetic",
                "--weight",
                "0.5",
                "--suite",
                "axioms",
                "--trials",
                "5",
                "--dims",
                "2",
                "--seed",
                "7",
            ],
        )
        assert code == 0
        assert report["seed"] == 123

    _AXIOMS = [
        "verify", "--mean", "geometric", "--weight", "0.5", "--suite", "axioms", "--trials", "3"
    ]

    def test_integral_float_dims_run_like_ints(self, capsys):
        reports = []
        for dims in ("2", "2.0"):
            code, report = run_json(capsys, [*self._AXIOMS, "--dims", dims])
            assert code == 0
            report.pop("elapsed")
            reports.append(report)
        assert reports[0] == reports[1]

    def test_non_numeric_dims_entry_is_named(self, capsys):
        assert main([*self._AXIOMS, "--dims", "2,x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --dims entry must be a whole number, got 'x'\n"

    def test_negative_env_seed_is_named(self, capsys, monkeypatch):
        monkeypatch.setenv("MEANSKIT_SEED", "-1")
        assert main([*self._AXIOMS, "--dims", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: MEANSKIT_SEED must be a nonnegative whole number, got '-1'\n"
        )

    def test_negative_seed_flag_is_named(self, capsys, monkeypatch):
        monkeypatch.delenv("MEANSKIT_SEED", raising=False)
        assert main([*self._AXIOMS, "--dims", "2", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be a nonnegative whole number, got '-1'\n"

    def test_non_numeric_env_seed_is_named(self, capsys, monkeypatch):
        monkeypatch.setenv("MEANSKIT_SEED", "abc")
        assert main([*self._AXIOMS, "--dims", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: MEANSKIT_SEED must be a whole number, got 'abc'\n"


class TestCounterexamples:
    def test_exit_zero_and_report(self, capsys):
        code, report = run_json(capsys, ["counterexamples"])
        assert code == 0
        assert report["suite"] == "counterexamples"
        assert report["trials"] == 3 and report["violations"] == 0


class TestCanonicalJson:
    def test_stable_under_reserialization(self):
        payload = {"b": 1 / 3, "a": [1.0, 2.5e-17, True, None], "c": "text"}
        once = canonical_json(payload)
        again = canonical_json(json.loads(once))
        assert once == again

    def test_sorted_keys_and_17_digits(self):
        s = canonical_json({"z": 0.1, "a": 2.0})
        assert s.index('"a"') < s.index('"z"')
        assert "0.1000000000000000" in s

    def test_floats_roundtrip_exactly(self):
        for v in (1 / 3, 1e-300, 123456.789, 2.0**-52):
            assert json.loads(canonical_json(v)) == v

    def test_negative_zero_normalized(self):
        once = canonical_json({"v": -0.0})
        assert once == canonical_json(json.loads(once))
        assert canonical_json(-0.0) == "0"
        assert canonical_json([-0.0, 1.0]) == "[0, 1]"
        # CSV output has always written the sign of zero.
        assert _render_matrix(SymMatrix([[-0.0]]), "csv") == "-0"

    def test_mixed_lists_match_general_path(self):
        cases = [
            [1.5, 2, -0.0],
            [0.25, True, False, None],
            [np.float64(-0.0), 1.0, np.float64(1 / 3)],
            [[1.0, -0.0], (2.5,), [], [3, [4.0, None]]],
            (1.0, "text", {"b": 2.0, "a": [0.5, -0.0]}),
        ]
        for obj in cases:
            assert canonical_json(obj) == _reference_json(obj)
        assert canonical_json([1.5, 2, True, None]) == "[1.5, 2, true, null]"

    @pytest.mark.parametrize("sig", [6, 17])
    def test_float_lists_over_every_exponent(self, sig):
        rng = np.random.default_rng(sig)
        # Random bit patterns cover every exponent, subnormals and NaNs.
        bits = rng.integers(0, 2**64, 10_000, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64).tolist()
        values += [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e17, float("inf"), -float("inf")]
        want = _reference_json(values, sig)
        _assert_same_text(canonical_json(values, sig), want)
        _assert_same_text(canonical_json(tuple(values), sig), want)
