"""Smoke test of scripts/report_digest.py at a tiny trial count."""

import hashlib
import runpy
from pathlib import Path

from meanskit.cli import canonical_json
from meanskit.connections import is_mean
from meanskit.verify import SUITES, TrialConfig, check_axioms, standard_battery

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_digest.py"


def _run(capsys, *argv):
    main = runpy.run_path(str(SCRIPT), run_name="report_digest")["main"]
    assert main(list(argv)) == 0
    return capsys.readouterr().out.splitlines()


def test_one_digest_per_report(capsys):
    lines = _run(capsys, "--trials", "2", "--seed", "3")
    expected = [
        f"{name}/{suite}"
        for name, conn in standard_battery()
        for suite in SUITES
        if suite != "strictness" or is_mean(conn)
    ]
    expected += [f"results/{name}" for name in expected] + ["counterexamples"]
    expected += [
        f"apply/{name}"
        for name in [name for name, _ in standard_battery()]
        + ["arcsine", "three_atoms", "transpose_geometric(0.25)", "function_sqrt"]
    ]
    expected += [
        f"cli/{command}/{fmt}"
        for command in ("eval", "measure-eval", "function")
        for fmt in ("json", "csv", "pretty")
    ]
    expected += [
        f"apply/{name}@16,33"
        for name in ["harmonic(0.25)", "harmonic(0.5)", "harmonic(0.75)", "parallel_sum"]
        + ["two_atoms", "transpose_harmonic(0.25)"]
    ]
    expected += ["apply/arithmetic(0.25)@margin", "apply/harmonic(0.75)@margin"]
    atom_route_suites = [
        f"{suite}/{name}@16,33"
        for name in ["harmonic(0.25)", "harmonic(0.5)", "harmonic(0.75)", "parallel_sum"]
        + ["two_atoms"]
        for suite in ("axioms", "continuity")
    ]
    expected += atom_route_suites + [f"results/{name}" for name in atom_route_suites]
    expected += [f"bits/{name}" for name in expected if name.startswith("apply/")]
    assert [line.split(" ")[0] for line in lines] == expected

    name, conn = standard_battery()[3]
    report = check_axioms(conn, TrialConfig(trials=2, seed=3))
    text = canonical_json(report.to_dict(include_elapsed=False))
    assert f"{name}/axioms {hashlib.sha256(text.encode()).hexdigest()}" in lines

    assert _run(capsys, "--trials", "2", "--seed", "3") == lines
    assert _run(capsys, "--trials", "2", "--seed", "4") != lines
