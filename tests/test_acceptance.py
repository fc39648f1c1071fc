"""Acceptance criteria, one test per criterion.

Every criterion prints a single pass/fail line (run with ``pytest -s`` to
see them on success) and asserts at its stated tolerance.  The randomized
criteria pin trials, dims, and seed, so reruns are bit-identical.
"""

import time

import numpy as np
import pytest

from meanskit.cli import main
from meanskit.connections import (
    AUDIT_GRID,
    apply,
    classify,
    make_builtin,
    transpose,
)
from meanskit.linalg import SymMatrix, Tolerances, frobenius, spectrum
from meanskit.measures import (
    connection_from_measure,
    measure_of_builtin,
    repr_fn_from_measure,
)
from meanskit.verify import (
    TrialConfig,
    check_axioms,
    check_betweenness,
    check_continuity_from_above,
    check_positivity,
    check_strictness_and_order,
    run_counterexamples,
    standard_battery,
    standard_means,
)

TOL = Tolerances(psd_slack=1e-9, eq_tol=1e-8)
CFG = TrialConfig(dims=(1, 2, 3, 5, 8), trials=500, seed=42, tol=TOL)


def _criterion(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _conditioned_pd(dim: int, rng: np.random.Generator) -> SymMatrix:
    # cross-route agreement at 1e-12 needs operands away from singularity
    g = rng.standard_normal((dim, dim))
    return SymMatrix(g @ g.T + np.eye(dim))


def _harmonic_integral(mu, a: SymMatrix, b: SymMatrix) -> np.ndarray:
    """Direct t-integral of matrix weighted harmonic means, an oracle that
    shares no code with the function-backed evaluator:
    w0 A + w1 B + sum_i w_i ((1 - t_i) A^-1 + t_i B^-1)^-1."""
    out = np.zeros_like(a.data)
    ts, ws = mu.density_nodes()
    ai, bi = np.linalg.inv(a.data), np.linalg.inv(b.data)
    for t, w in [*mu.atoms, *zip(ts, ws)]:
        if t == 0.0:
            out += w * a.data
        elif t == 1.0:
            out += w * b.data
        else:
            out += w * np.linalg.inv((1.0 - t) * ai + t * bi)
    return out


def _rel_to_integral(mu, x: SymMatrix, a: SymMatrix, b: SymMatrix) -> float:
    want = _harmonic_integral(mu, a, b)
    return float(np.linalg.norm(x.data - want) / np.linalg.norm(want))


@pytest.fixture(scope="module")
def axiom_battery():
    """Axiom and continuity reports for the full battery, with wall time."""
    start = time.perf_counter()
    reports = {}
    for name, conn in standard_battery():
        reports[name] = (
            check_axioms(conn, CFG),
            check_continuity_from_above(conn, CFG),
        )
    return reports, time.perf_counter() - start


def test_criterion_1_axiom_suite(axiom_battery):
    reports, elapsed = axiom_battery
    bad = [
        (name, ra.violations, rc.violations)
        for name, (ra, rc) in reports.items()
        if ra.violations or rc.violations
    ]
    ok = not bad and elapsed < 60.0
    _criterion(
        1,
        ok,
        f"axioms+continuity x{len(reports)} connections, 500 trials each, "
        f"violations={sum(v1 + v2 for _, v1, v2 in bad)}, elapsed={elapsed:.1f}s (< 60s)"
        + (f", failing: {bad}" if bad else ""),
    )


def test_criterion_2_fixed_point():
    worst = 0.0
    for name, conn in standard_means():
        for i in range(200):
            rng = np.random.default_rng([CFG.seed, 2, i])
            dim = CFG.dims[i % len(CFG.dims)]
            g = rng.standard_normal((dim, dim))
            a = SymMatrix(g @ g.T + 10.0 * TOL.psd_slack * np.eye(dim))
            x = apply(conn, a, a, TOL)
            worst = max(worst, frobenius(x - a) / frobenius(a))
    eye = SymMatrix.identity(3)
    res_parallel = frobenius(apply(make_builtin("parallel_sum"), eye, eye, TOL) - eye)
    res_sum = frobenius(apply(make_builtin("sum"), eye, eye, TOL) - eye)
    non_mean_fail = (
        res_parallel >= 0.4 * frobenius(eye) and res_sum >= 0.4 * frobenius(eye)
    )
    ok = worst <= 1e-9 and non_mean_fail
    _criterion(
        2,
        ok,
        f"fixed-point residual worst={worst:.2e} (<= 1e-9); parallel/sum "
        f"residuals {res_parallel / frobenius(eye):.2f}, {res_sum / frobenius(eye):.2f} "
        f"(>= 0.4)",
    )


def test_criterion_3_measure_correspondence():
    # Each measure connection is checked against its builtin and, on an
    # independent route, against the direct t-integral.
    worst_harm = worst_integral = 0.0
    for alpha in (0.25, 0.5, 0.75):
        mu = measure_of_builtin("harmonic", alpha)
        mc = connection_from_measure(mu)
        bc = make_builtin("harmonic", alpha)
        for i in range(100):
            rng = np.random.default_rng([CFG.seed, 3, i])
            dim = CFG.dims[i % len(CFG.dims)]
            a, b = _conditioned_pd(dim, rng), _conditioned_pd(dim, rng)
            x, y = apply(mc, a, b, TOL), apply(bc, a, b, TOL)
            worst_harm = max(worst_harm, frobenius(x - y) / frobenius(y))
            worst_integral = max(worst_integral, _rel_to_integral(mu, x, a, b))

    worst_arith = 0.0
    for alpha in (0.25, 0.5, 0.75):
        mu = measure_of_builtin("arithmetic", alpha)
        mc = connection_from_measure(mu)
        bc = make_builtin("arithmetic", alpha)
        for i in range(100):
            rng = np.random.default_rng([CFG.seed, 31, i])
            dim = CFG.dims[i % len(CFG.dims)]
            a, b = _conditioned_pd(dim, rng), _conditioned_pd(dim, rng)
            x, y = apply(mc, a, b, TOL), apply(bc, a, b, TOL)
            worst_arith = max(worst_arith, frobenius(x - y) / frobenius(y))
            worst_integral = max(worst_integral, _rel_to_integral(mu, x, a, b))

    arcsine = measure_of_builtin("geometric", 0.5, nodes=256)
    xs = np.logspace(-2, 2, 50)
    worst_scalar = max(
        abs(repr_fn_from_measure(arcsine, x) - np.sqrt(x)) / np.sqrt(x) for x in xs
    )

    mc = connection_from_measure(arcsine)
    bc = make_builtin("geometric", 0.5)
    worst_matrix = 0.0
    for i in range(100):
        rng = np.random.default_rng([CFG.seed, 32, i])
        dim = 1 + i % 4
        a, b = _conditioned_pd(dim, rng), _conditioned_pd(dim, rng)
        x, y = apply(mc, a, b, TOL), apply(bc, a, b, TOL)
        worst_matrix = max(worst_matrix, frobenius(x - y) / frobenius(y))
        worst_integral = max(worst_integral, _rel_to_integral(arcsine, x, a, b))

    ok = (
        worst_harm <= 1e-12
        and worst_arith <= 1e-12
        and worst_scalar <= 1e-6
        and worst_matrix <= 1e-5
        and worst_integral <= 1e-12
    )
    _criterion(
        3,
        ok,
        f"delta_a vs harmonic {worst_harm:.1e} (<=1e-12); boundary atoms vs "
        f"arithmetic {worst_arith:.1e} (<=1e-12); arcsine scalar {worst_scalar:.1e} "
        f"(<=1e-6); arcsine matrix {worst_matrix:.1e} (<=1e-5); all three vs "
        f"the direct t-integral {worst_integral:.1e} (<=1e-12)",
    )


def test_criterion_4_positivity():
    failures = []
    for name, conn in standard_battery():
        report = check_positivity(conn, CFG)
        if report.violations:
            failures.append((name, report.violations))
        if name == "zero":
            rng = np.random.default_rng([CFG.seed, 4])
            g = rng.standard_normal((4, 4))
            a = SymMatrix(g @ g.T + np.eye(4))
            exact_zero = np.all(apply(conn, a, a, TOL).data == 0.0)
            if not exact_zero:
                failures.append(("zero-not-exact", 1))
    classify_ok = all(
        classify(conn, TOL).is_zero is (name == "zero")
        for name, conn in standard_battery()
    )
    ok = not failures and classify_ok
    _criterion(
        4,
        ok,
        f"positivity over 500 PD pairs x{len(standard_battery())} connections, "
        f"zero connection exact, classify is_zero correct"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_5_betweenness(capsys):
    cfg = TrialConfig(dims=CFG.dims, trials=1000, seed=CFG.seed, tol=TOL)
    bad = []
    for name, conn in standard_means():
        report = check_betweenness(conn, cfg)
        if report.violations:
            bad.append((name, report.violations))
    code = main(
        [
            "verify",
            "--mean",
            "parallel-sum",
            "--suite",
            "betweenness",
            "--trials",
            "50",
            "--dims",
            "1,2,3",
            "--seed",
            "42",
            "--format",
            "json",
        ]
    )
    capsys.readouterr()
    ok = not bad and code == 1
    _criterion(
        5,
        ok,
        f"betweenness 1000 ordered pairs x{len(standard_means())} means, "
        f"violations=0; parallel sum exits 1 (got {code})"
        + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_6_strictness():
    records_ok = True
    for name, conn in standard_means():
        rec = classify(conn, TOL)
        if name == "left_trivial":
            records_ok &= rec.strict_left is False and rec.strict is False
        elif name == "right_trivial":
            records_ok &= rec.strict_right is False and rec.strict is False
        else:
            records_ok &= rec.strict is True

    worst = np.inf
    for conn in (make_builtin("geometric", 0.5), make_builtin("logarithmic")):
        count = 0
        i = 0
        while count < 500:
            rng = np.random.default_rng([CFG.seed, 6, i])
            i += 1
            dim = CFG.dims[i % len(CFG.dims)]
            ga = rng.standard_normal((dim, dim))
            gb = rng.standard_normal((dim, dim))
            a = SymMatrix(ga @ ga.T + 10.0 * TOL.psd_slack * np.eye(dim))
            b = SymMatrix(gb @ gb.T + 10.0 * TOL.psd_slack * np.eye(dim))
            if frobenius(a - b) < 0.1:
                continue
            count += 1
            x = apply(conn, a, b, TOL)
            worst = min(worst, frobenius(x - a), frobenius(x - b))
    ok = records_ok and worst >= 1e-6
    _criterion(
        6,
        ok,
        f"classify strict flags correct={records_ok}; min distance of "
        f"A sigma B from A and B over 500 separated pairs = {worst:.2e} (>= 1e-6)",
    )


def test_criterion_7_counterexample_corpus(capsys):
    geo = make_builtin("geometric", 0.5)
    a = SymMatrix.diagonal([1.0, 0.0])
    b = SymMatrix.diagonal([0.0, 1.0])
    x = apply(geo, a, b, TOL)
    vanishes = frobenius(x) <= 1e-5
    zero_case = frobenius(apply(geo, SymMatrix.zeros(2), b, TOL)) <= 1e-5
    order_gap = (
        spectrum(b - x)[0] >= -1e-5 and spectrum(b - a)[0] < -10 * TOL.psd_slack
    )
    report = run_counterexamples(TOL)
    code = main(["counterexamples", "--format", "json"])
    capsys.readouterr()
    ok = vanishes and zero_case and order_gap and report.violations == 0 and code == 0
    _criterion(
        7,
        ok,
        f"corpus: ||A#B||={frobenius(x):.2e} (<=1e-5), 0#B=0 {zero_case}, "
        f"order one-sided {order_gap}; CLI exit {code} (== 0)",
    )


def test_criterion_8_transpose_algebra():
    t_quarter = transpose(make_builtin("geometric", 0.25))
    worst_fn = max(
        abs(t_quarter.fn(x) - x**0.75) / max(1.0, x**0.75) for x in AUDIT_GRID
    )

    t_left = transpose(make_builtin("left_trivial"))
    worst_swap = 0.0
    for i in range(100):
        rng = np.random.default_rng([CFG.seed, 8, i])
        dim = CFG.dims[i % len(CFG.dims)]
        g1, g2 = rng.standard_normal((dim, dim)), rng.standard_normal((dim, dim))
        a = SymMatrix(g1 @ g1.T + 10.0 * TOL.psd_slack * np.eye(dim))
        b = SymMatrix(g2 @ g2.T + 10.0 * TOL.psd_slack * np.eye(dim))
        worst_swap = max(
            worst_swap, frobenius(apply(t_left, a, b, TOL) - b) / frobenius(b)
        )

    worst_double = 0.0
    for name, conn in standard_battery():
        tt = transpose(transpose(conn))
        worst_double = max(
            abs(tt.fn(x) - conn.fn(x)) / max(1.0, conn.fn(x))
            for x in AUDIT_GRID
        )

    ok = worst_fn <= 1e-10 and worst_swap <= 1e-12 and worst_double <= 1e-12
    _criterion(
        8,
        ok,
        f"transpose(#1/4) vs x^0.75: {worst_fn:.1e} (<=1e-10); transpose(left)"
        f" vs right on 100 pairs: {worst_swap:.1e} (<=1e-12); double transpose: "
        f"{worst_double:.1e} (<=1e-12)",
    )


def test_criterion_9_order_corollary():
    results = {}
    for label, conn in (
        ("geometric", make_builtin("geometric", 0.5)),
        ("logarithmic", make_builtin("logarithmic")),
    ):
        report = check_strictness_and_order(conn, CFG)
        # 500 strictness + 500 forward + at least 500 recorded converse
        # acceptances per direction (shortfall would be a violation)
        results[label] = (report.violations, report.trials)
    ok = all(v == 0 and t >= 3 * CFG.trials for v, t in results.values())
    _criterion(
        9,
        ok,
         "bidirectional order equivalence, 500 accepted pairs per direction: "
        + ", ".join(f"{k}: violations={v}, trials={t}" for k, (v, t) in results.items()),
    )
