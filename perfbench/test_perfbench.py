"""Tests of the benchmark itself: oracles, failure accounting, determinism
of the traced counts, and behaviour when seams or the program are absent.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import meanskit  # noqa: E402
from meanskit import NonConvergenceError, SymMatrix, make_builtin  # noqa: E402

import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import Reference, in_ref_ms  # noqa: E402
from tracing import SEAMS, Seam, Tracer  # noqa: E402


def test_oracle_self_check_passes_for_every_workload_spec():
    specs = workloads.ApplyMix().specs + workloads.SingularApply().specs
    assert O.self_check(specs, seed=3) <= O.SELF_CHECK_TOL


def test_oracle_self_check_catches_a_wrong_closed_form():
    wrong = O.Spec("wrong", lambda x: x**0.5, 0.0, 0.0, closed=lambda a, b: (a + b) * 0.5)
    with pytest.raises(O.OracleError):
        O.self_check([wrong])


def test_perturbed_result_and_raised_error_count_as_failed():
    rng = np.random.default_rng(7)
    a, b = O.random_pd(rng, 4), O.random_pd(rng, 4)
    geo = make_builtin("geometric", 0.5)
    expected = O.around_right(O.geometric(0.5), a, b)
    A, B = SymMatrix(a), SymMatrix(b)
    delta = 10 * O.TOLERANCES["pd"] * np.linalg.norm(expected) * np.eye(4)

    def perturbed():
        return SymMatrix(meanskit.apply(geo, A, B).data + delta)

    def raising():
        raise NonConvergenceError("did not settle")

    data = workloads._symmatrix_data
    ops = [
        workloads.MatrixOp("good", "pd", lambda: meanskit.apply(geo, A, B), data, expected),
        workloads.MatrixOp("perturbed", "pd", perturbed, data, expected),
        workloads.MatrixOp("raised", "pd", raising, data, expected),
    ]
    tally = workloads.Tally()
    workloads.run_ops(ops, tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failed_share == pytest.approx(2 / 3)
    assert tally.out_of_tol == 1
    assert tally.raised == {"NonConvergenceError": 1}
    assert len(tally.latencies) == 3


class _Report:
    def __init__(self, trials, violations):
        self.trials, self.violations = trials, violations


def test_suite_violations_fail_only_when_the_theory_does_not_predict_them():
    cfg = meanskit.TrialConfig(trials=5)
    mean = workloads.SuiteOp("mean", None, cfg, True, ["axioms", "betweenness"])
    non_mean = workloads.SuiteOp("non-mean", None, cfg, False, ["axioms", "betweenness"])
    assert mean.outcome([("axioms", _Report(7, 2)), ("betweenness", _Report(5, 1))]) == (12, 3, None)
    assert non_mean.outcome([("axioms", _Report(7, 2)), ("betweenness", _Report(5, 3))]) == (12, 2, None)
    assert non_mean.outcome([("betweenness", _Report(5, 0))]) == (5, 5, None)
    assert mean.attempts_on_error() == 10


def test_suite_battery_skips_strictness_for_non_means_only(tmp_path):
    battery = workloads.SuiteBattery()
    battery.prepare(1, tmp_path)
    ops = battery.pass_ops(0)
    assert len(ops) == 15
    assert sum("strictness" in op.suites for op in ops) == 12


def test_axiom_battery_runs_one_trial_per_operation(tmp_path):
    battery = workloads.AxiomBattery()
    battery.prepare(1, tmp_path)
    ops = battery.pass_ops(0)
    assert len(ops) == 15 * 2 * 5
    assert all(len(op.suites) == 1 and op.cfg.trials == 1 and len(op.cfg.dims) == 1 for op in ops)
    assert len({op.cfg.seed for k in range(battery.pool) for op in battery.pass_ops(k)}) > 1000
    assert battery.pass_ops(battery.pool) is ops


class _FakeOp:
    cell, route = "fake", "pd"

    def __init__(self, good):
        self.good = good

    def outcome(self, result):
        return 2, 2 - self.good, None

    def attempts_on_error(self):
        return 2


def test_end_to_end_takes_each_operation_at_its_median_repetition():
    fast, slow = _FakeOp(2), _FakeOp(1)
    tally = workloads.Tally()
    for seconds in (0.003, 0.001, 0.002):
        tally.record(fast, seconds, None)
    tally.record(slow, 0.004, None)
    tally.record_error(slow, 0.006, RuntimeError("boom"))
    assert (tally.attempted, tally.failed) == (10, 3)
    ref_ms = [1e3 * x for x in tally.latencies]  # as if every reading were 1 ms
    assert run.per_operation(ref_ms, tally) == [pytest.approx(2.0), pytest.approx(5.0)]
    reference = Reference()
    reference.read()
    values = run.end_to_end(tally, ref_ms, reference, setup_s=0.1, peak_rss_mb=1.0)
    # 2 good attempts per repetition of `fast`, (1 + 0) / 2 of `slow`, in 7 ref_ms.
    assert values["good_ops_per_ref_s"] == pytest.approx(1e3 * 2.5 / 7.0)
    assert values["latency_p50_ref_ms"] == pytest.approx(3.5)


def test_latencies_are_divided_by_the_readings_around_them():
    # Readings of 2 ms and 4 ms around the first operation, 4 ms and 1 ms
    # around the second.
    assert in_ref_ms([0.003, 0.005], [0, 1], [0.002, 0.004, 0.001]) == [
        pytest.approx(1.0), pytest.approx(2.0)]


def test_reference_is_read_before_the_first_operation_and_then_by_gap():
    reference = Reference()
    ops = [workloads.MatrixOp("noop", "pd", lambda: None, lambda _: np.zeros(1), np.zeros(1))] * 3
    tally = workloads.Tally()
    workloads.run_ops(ops, tally, reference=reference)
    assert list(tally.readings_at) == [0, 0, 0]
    assert len(reference.readings) == 1 and reference.readings[0] > 0


def _traced_pass(name, seed, workdir):
    workload = workloads.build(name)
    workload.prepare(seed, workdir)
    tally, tracer = workloads.Tally(), Tracer()
    with tracer.installed():
        workloads.run_ops(workload.pass_ops(0), tally, tracer)
    return tracer.counts, tally


@pytest.mark.parametrize("name", ["axiom_battery", "singular_apply"])
def test_counts_repeat_exactly_for_a_fixed_seed(name, tmp_path):
    first_counts, first = _traced_pass(name, 5, tmp_path)
    second_counts, second = _traced_pass(name, 5, tmp_path)
    keys = ["verify.trials", "linalg.regularize.steps"] + [
        f"connections.apply.calls.{r}" for r in ("pd", "quadrature", "limit", "projection")]
    assert {k: first_counts[k] for k in keys} == {k: second_counts[k] for k in keys}
    assert (first.attempted, first.failed) == (second.attempted, second.failed)
    if name == "axiom_battery":
        assert first_counts["verify.trials"] > 0
    else:
        assert first_counts["linalg.regularize.steps"] > 0


def test_other_seed_changes_inputs_but_not_the_singular_draw_count():
    w = workloads.SingularApply()
    draws = [w.draws(np.random.default_rng([seed, 0])) for seed in (1, 2)]

    def singular(draw_list):
        return sum(not (np.linalg.eigvalsh(a)[0] > 1e-9 and np.linalg.eigvalsh(b)[0] > 1e-9)
                   for _, _, a, b, _ in draw_list)

    assert [d[:2] for d in draws[0]] == [d[:2] for d in draws[1]]
    assert singular(draws[0]) == singular(draws[1]) == len(draws[0])
    assert any(not np.array_equal(x[2], y[2]) for x, y in zip(*draws))


def test_missing_seam_is_reported_and_originals_come_back():
    original = meanskit.connections.BuiltinConnection.__dict__["_apply_raw"]
    seams = SEAMS + (Seam("x", "meanskit.linalg", "_renamed_away", "plain"),
                     Seam("x", "meanskit.no_such_module", "f", "plain"))
    tracer = Tracer(seams)
    with tracer.installed():
        assert meanskit.connections.BuiltinConnection.__dict__["_apply_raw"] is not original
        meanskit.apply(make_builtin("geometric", 0.5), SymMatrix.identity(2), SymMatrix.identity(2))
    assert tracer.missing == ["meanskit.linalg._renamed_away", "meanskit.no_such_module.f"]
    assert tracer.layer_metrics()["trace.seams_missing"] == 2
    assert tracer.counts["connections.apply.calls.pd"] == 1
    assert meanskit.connections.BuiltinConnection.__dict__["_apply_raw"] is original


def test_self_time_subtracts_children():
    tracer = Tracer(())
    tracer.spans = [["outer", 0.0, 10.0, -1, 0], ["inner", 2.0, 5.0, 0, 0], ["inner", 6.0, 7.0, 0, 0]]
    own = tracer.self_times()
    assert own["outer"] == pytest.approx(6.0)
    assert own["inner"] == pytest.approx(4.0)


def test_benchmark_json_declares_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)


def test_short_run_prints_the_result_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "axiom_battery", "--seed", "2",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "apply_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""
