"""Tests for the verification harness itself: generators, suite behavior on
clean and deliberately broken connections, determinism, and the
counterexample corpus."""

import math

import numpy as np
import pytest

from meanskit.connections import Connection, _FunctionBackedConnection, make_builtin
from meanskit.linalg import (
    DEFAULT_TOL,
    EigenSolverError,
    SymMatrix,
    _eigvalsh,
    frobenius,
    loewner_leq,
    spectrum,
)
from meanskit.verify import (
    _AXIOMS_SHIFT,
    _CONTINUITY_SHIFT,
    REMARK_A,
    REMARK_B,
    Report,
    TrialConfig,
    check_axioms,
    check_betweenness,
    check_continuity_from_above,
    check_positivity,
    check_strictness_and_order,
    random_ordered_pair,
    random_pd,
    random_psd,
    run_counterexamples,
    standard_battery,
    standard_means,
)
from meanskit.verify import _frobenius, _gram, _trial_rng

SMALL = TrialConfig(dims=(1, 2, 3), trials=40, seed=7)


class BrokenDifference(Connection):
    """(A, B) -> A - B: formally consistent with f(x) = 1 - x but violating
    monotonicity, positivity, and betweenness."""

    def fn(self, x):
        return 1.0 - x

    def _apply_raw(self, a, b, tol):
        return a - b


class LeftPretender(Connection):
    """Claims the representing function of the 1/2-arithmetic mean but
    always returns its left argument; the dual-route checks must notice."""

    def fn(self, x):
        return (1.0 + x) / 2.0

    def _apply_raw(self, a, b, tol):
        return a.copy()


class Unevaluable(Connection):
    """Claims the geometric mean's representing function, so every suite
    runs, but every evaluation raises."""

    def fn(self, x):
        return math.sqrt(x)

    def _apply_raw(self, a, b, tol):
        raise ArithmeticError(f"no value at dim {a.shape[0]}")


class Mismatched(Unevaluable):
    """The geometric mean's function with A - B as its values."""

    def _apply_raw(self, a, b, tol):
        return a - b


def test_stacks_never_reach_apply_raw(monkeypatch):
    # Callers that wrap _apply_raw per call may rely on 2-D operands; the
    # suites' stacked evaluations must bypass it.
    original = _FunctionBackedConnection._apply_raw
    seen = []

    def guarded(self, a, b, tol):
        seen.append((a.ndim, b.ndim))
        assert a.ndim == 2 and b.ndim == 2, (a.shape, b.shape)
        return original(self, a, b, tol)

    monkeypatch.setattr(_FunctionBackedConnection, "_apply_raw", guarded)
    for kind in ("geometric", "arithmetic"):
        for suite in (check_axioms, check_continuity_from_above):
            report = suite(make_builtin(kind, 0.5), SMALL)
            assert report.violations == 0, report.witnesses
    assert seen and set(seen) == {(2, 2)}


class TestGenerators:
    def test_ordered_pair_is_ordered(self):
        for i in range(30):
            rng = np.random.default_rng([900, i])
            a, b = random_ordered_pair(3, rng)
            assert loewner_leq(a, b)

    def test_random_pd_clears_slack(self):
        for i in range(30):
            rng = np.random.default_rng([901, i])
            m = random_pd(4, rng)
            assert spectrum(m)[0] > DEFAULT_TOL.psd_slack

    def test_random_psd_is_psd(self):
        rng = np.random.default_rng(902)
        for dim in (1, 2, 5):
            m = random_psd(dim, rng)
            assert spectrum(m)[0] >= -1e-12

    def test_seeded_reproducibility(self):
        a = random_psd(3, np.random.default_rng([42, 0]))
        b = random_psd(3, np.random.default_rng([42, 0]))
        np.testing.assert_array_equal(a.data, b.data)
        c = random_psd(3, np.random.default_rng([42, 1]))
        assert frobenius(a - c) > 1e-6

    def test_public_draw_stores_the_raw_draw_bitwise(self):
        # The suites draw raw arrays and skip SymMatrix; that is only the
        # same draw if g @ g.T is exactly symmetric, so that symmetrizing
        # it changes no bit.
        for dim in range(1, 9):
            for i in range(40):
                g = np.random.default_rng([903, dim, i]).standard_normal((dim, dim))
                raw = _gram(dim, np.random.default_rng([903, dim, i]))
                public = random_psd(dim, np.random.default_rng([903, dim, i]))
                assert raw.tobytes() == (g @ g.T).tobytes()
                assert public.data.tobytes() == raw.tobytes(), (dim, i)


def test_frobenius_is_linalg_norm_bitwise():
    rng = np.random.default_rng(904)
    for shape in [(1, 1), (3, 3), (8, 8), (7, 2, 2), (4, 5, 5), (2, 3, 8, 8)]:
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        assert _frobenius(x).tobytes() == np.linalg.norm(x, axis=(-2, -1)).tobytes()


class TestSuitesOnCleanConnections:
    @pytest.mark.parametrize(
        "kind,weight",
        [("geometric", 0.5), ("logarithmic", None), ("harmonic", 0.25), ("sum", None)],
    )
    def test_axioms_pass(self, kind, weight):
        report = check_axioms(make_builtin(kind, weight), SMALL)
        assert report.violations == 0
        assert report.worst_margin >= 0.0
        assert report.witnesses == []

    @pytest.mark.parametrize(
        "kind,weight", [("geometric", 0.75), ("arithmetic", 0.5), ("zero", None)]
    )
    def test_continuity_passes(self, kind, weight):
        report = check_continuity_from_above(make_builtin(kind, weight), SMALL)
        assert report.violations == 0

    def test_positivity_passes_for_nonzero(self):
        report = check_positivity(make_builtin("parallel_sum"), SMALL)
        assert report.violations == 0

    def test_positivity_zero_connection_exact(self):
        report = check_positivity(make_builtin("zero"), SMALL)
        assert report.violations == 0
        assert report.worst_margin == 0.0

    def test_betweenness_passes_for_means(self):
        report = check_betweenness(make_builtin("logarithmic"), SMALL)
        assert report.violations == 0

    def test_betweenness_fails_for_parallel_sum(self):
        # A parallel-sum self-mean is A/2, strictly below A
        report = check_betweenness(make_builtin("parallel_sum"), SMALL)
        assert report.violations > 0
        assert report.witnesses

    def test_strictness_passes_for_non_trivial_mean(self):
        report = check_strictness_and_order(make_builtin("geometric", 0.5), SMALL)
        assert report.violations == 0
        # strictness trials + forward order + converse acceptances
        assert report.trials >= 3 * SMALL.trials

    def test_strictness_confirms_trivial_means(self):
        for kind in ("left_trivial", "right_trivial"):
            report = check_strictness_and_order(make_builtin(kind), SMALL)
            assert report.violations == 0
            assert report.trials == SMALL.trials  # order phase skipped

    def test_strictness_rejects_non_mean(self):
        with pytest.raises(ValueError, match="mean"):
            check_strictness_and_order(make_builtin("sum"), SMALL)

    def test_measure_connection_passes_axioms(self):
        from meanskit.measures import BorelMeasure, connection_from_measure

        conn = connection_from_measure(
            BorelMeasure(atoms=((0.0, 0.25), (0.5, 0.5), (1.0, 0.25)))
        )
        tiny = TrialConfig(dims=(1, 2, 3), trials=20, seed=3)
        assert check_axioms(conn, tiny).violations == 0
        assert check_betweenness(conn, tiny).violations == 0


class TestSuitesCatchBrokenConnections:
    def test_axioms_catch_difference(self):
        report = check_axioms(BrokenDifference(), SMALL)
        assert report.violations > 0
        assert report.witnesses

    def test_continuity_catches_difference(self):
        report = check_continuity_from_above(BrokenDifference(), SMALL)
        assert report.violations > 0

    def test_positivity_catches_difference(self):
        report = check_positivity(BrokenDifference(), SMALL)
        assert report.violations > 0

    def test_betweenness_catches_difference(self):
        report = check_betweenness(BrokenDifference(), SMALL)
        assert report.violations > 0

    def test_axioms_catch_route_mismatch(self):
        # scalar consistency compares apply against the claimed function
        report = check_axioms(LeftPretender(), SMALL)
        assert report.violations > 0

    def test_strictness_catches_route_mismatch(self):
        report = check_strictness_and_order(LeftPretender(), SMALL)
        assert report.violations > 0


class TestReportContract:
    def test_violations_bounded_by_trials(self):
        for conn in (BrokenDifference(), make_builtin("geometric", 0.5)):
            report = check_axioms(conn, SMALL)
            assert 0 <= report.violations <= report.trials

    def test_witnesses_iff_violations(self):
        clean = check_axioms(make_builtin("arithmetic", 0.5), SMALL)
        assert clean.violations == 0 and clean.witnesses == []
        broken = check_axioms(BrokenDifference(), SMALL)
        assert broken.violations > 0 and len(broken.witnesses) > 0
        assert len(broken.witnesses) <= 5

    def test_determinism_modulo_elapsed(self):
        cfg = TrialConfig(dims=(2, 3), trials=25, seed=11)
        r1 = check_axioms(make_builtin("geometric", 0.5), cfg)
        r2 = check_axioms(make_builtin("geometric", 0.5), cfg)
        assert r1.to_dict(include_elapsed=False) == r2.to_dict(include_elapsed=False)

    def test_to_dict_fields(self):
        report = check_positivity(make_builtin("sum"), SMALL)
        d = report.to_dict()
        assert set(d) == {
            "suite",
            "trials",
            "violations",
            "worst_margin",
            "witnesses",
            "seed",
            "elapsed",
        }


class TestWitnessFormat:
    """Witness layout, input names and error text, per suite."""

    INPUTS = {
        check_axioms: ["A", "B", "C", "D", "C_ineq", "C_pd"],
        check_continuity_from_above: ["A", "B", "P", "Q"],
        check_positivity: ["A", "B"],
        check_betweenness: ["A", "B"],
        check_strictness_and_order: ["A", "B"],
    }
    CHECKS = {
        check_axioms: {
            "monotonicity",
            "transformer_inequality",
            "congruence_equality",
            "scalar_consistency",
        },
        check_continuity_from_above: {"loewner_nonincreasing", "limit_reached"},
        check_positivity: {
            "strict_positivity",
            "identity_left_bound",
            "identity_right_bound",
        },
        check_betweenness: {
            "left_betweenness",
            "right_betweenness",
            "norm_chain_lower",
            "norm_chain_upper",
        },
        check_strictness_and_order: {
            "strict_left",
            "strict_right",
            "order_forward_left",
            "order_forward_right",
            "order_forward_swapped_left",
            "order_forward_swapped_right",
            "order_converse_left",
            "order_converse_right",
        },
    }

    @staticmethod
    def _assert_inputs(witness, names):
        assert list(witness["inputs"]) == names
        for matrix in witness["inputs"].values():
            assert np.shape(matrix) == (witness["dim"], witness["dim"])

    @pytest.mark.parametrize("suite", list(INPUTS), ids=lambda s: s.__name__)
    def test_error_witnesses(self, suite):
        report = suite(Unevaluable(), SMALL)
        assert report.violations == report.trials
        assert report.worst_margin == -1e308
        assert len(report.witnesses) == 5
        for k, witness in enumerate(report.witnesses):
            assert list(witness) == ["trial", "dim", "error", "inputs"]
            assert witness["trial"] == k
            assert witness["dim"] == SMALL.dims[k % len(SMALL.dims)]
            assert witness["error"] == f"ArithmeticError: no value at dim {witness['dim']}"
            self._assert_inputs(witness, self.INPUTS[suite])

    @pytest.mark.parametrize("suite", list(INPUTS), ids=lambda s: s.__name__)
    def test_failed_witnesses(self, suite):
        report = suite(Mismatched(), SMALL)
        assert report.violations > 0 and report.witnesses
        for witness in report.witnesses:
            assert list(witness) == ["trial", "dim", "failed", "inputs"]
            assert witness["failed"]
            for failure in witness["failed"]:
                assert list(failure) == ["property", "margin"]
                assert failure["property"] in self.CHECKS[suite]
                assert failure["margin"] < 0.0
            self._assert_inputs(witness, self.INPUTS[suite])


class NonFinite(Connection):
    """Claims the geometric mean's representing function but returns an
    infinite matrix, on which the eigenvalue solver of the Loewner checks
    fails."""

    def fn(self, x):
        return math.sqrt(x)

    def _apply_raw(self, a, b, tol):
        return np.full_like(a, np.inf)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_axioms_solver_failure_names_the_matrix_alone():
    # At dim 3 the solver fails on the all-NaN monotonicity difference (at
    # dims 1 and 2 it returns NaN instead).
    with pytest.raises(EigenSolverError) as alone:
        _eigvalsh(np.full((3, 3), np.nan))
    report = check_axioms(NonFinite(), TrialConfig(dims=(3,), trials=4, seed=7))
    assert report.violations == 4
    for witness in report.witnesses:
        assert witness["error"] == f"EigenSolverError: {alone.value}"


class TestWitnessDraws:
    """A witness's inputs are its trial's draws: a redraw through the public
    ``random_psd`` from the trial's generator, in the suite's order and
    with its shifts, gives them bit for bit."""

    @staticmethod
    def _assert_redraw(witness, redraw):
        expected = redraw(witness["dim"], _trial_rng(SMALL.seed, witness["trial"]))
        assert list(witness["inputs"]) == list(expected)
        for name, m in expected.items():
            assert np.array(witness["inputs"][name]).tobytes() == m.tobytes(), name

    def test_axioms(self):
        def redraw(dim, rng):
            shift = _AXIOMS_SHIFT * np.eye(dim)
            a = random_psd(dim, rng).data + shift
            c = a + random_psd(dim, rng).data
            b = random_psd(dim, rng).data + shift
            d = b + random_psd(dim, rng).data
            c_ineq = random_psd(dim, rng).data + shift
            c_pd = random_psd(dim, rng).data + shift
            return dict(A=a, B=b, C=c, D=d, C_ineq=c_ineq, C_pd=c_pd)

        report = check_axioms(BrokenDifference(), SMALL)
        assert report.witnesses
        for witness in report.witnesses:
            self._assert_redraw(witness, redraw)

    def test_continuity(self):
        def redraw(dim, rng):
            shift = _CONTINUITY_SHIFT * np.eye(dim)
            a = random_psd(dim, rng).data + shift
            b = random_psd(dim, rng).data + shift
            return dict(A=a, B=b, P=random_psd(dim, rng).data, Q=random_psd(dim, rng).data)

        report = check_continuity_from_above(BrokenDifference(), SMALL)
        assert report.witnesses
        for witness in report.witnesses:
            self._assert_redraw(witness, redraw)


class TestCounterexamples:
    def test_corpus_reproduces(self):
        report = run_counterexamples()
        assert report.suite == "counterexamples"
        assert report.trials == 3
        assert report.violations == 0
        assert report.worst_margin >= 0.0

    def test_corpus_values(self):
        geo = make_builtin("geometric", 0.5)
        x = geo.apply(REMARK_A, REMARK_B)
        assert frobenius(x) <= 1e-5
        z = geo.apply(SymMatrix.zeros(2), REMARK_B)
        assert frobenius(z) <= 1e-5  # A # B = A = 0 while A != B
        # A # B <= B up to the epsilon-limit error, yet A <= B is false
        assert spectrum(REMARK_B - x)[0] >= -1e-5
        assert not loewner_leq(REMARK_A, REMARK_B)


class TestSingularContinuityUnit:
    def test_harmonic_sequences_reach_the_limit_value(self):
        # Decreasing sequences with a singular target converge to the
        # epsilon-limit value; harmonic kernels converge linearly.
        conn = make_builtin("harmonic", 0.5)
        a = SymMatrix.diagonal([1.0, 0.0])
        b = SymMatrix([[2.0, 0.5], [0.5, 1.0]])
        target = conn.apply(a, b)
        p = SymMatrix([[0.5, 0.25], [0.25, 0.5]])
        prev = None
        for n in range(0, 41, 4):
            x = conn.apply(a + (2.0**-n) * p, b + (2.0**-n) * p)
            if prev is not None:
                # values near the singular target come out of the
                # epsilon-limit, whose own accuracy is ~eq_tol
                assert spectrum(prev - x)[0] >= -1e-7
            prev = x
        assert frobenius(prev - target) <= 1e-6

    def test_left_trivial_sequences_track_left_argument(self):
        conn = make_builtin("left_trivial")
        rng = np.random.default_rng(77)
        a, b = random_pd(3, rng), random_pd(3, rng)
        p = random_psd(3, rng)
        x = conn.apply(a + (2.0**-40) * p, b)
        assert frobenius(x - a) <= 1e-9 * max(1.0, frobenius(a))

    def test_arithmetic_sequences_converge_at_halving_rate(self):
        # (A_n + B_n)/2 - (A + B)/2 = 2^-n (P + Q)/2 exactly
        conn = make_builtin("arithmetic", 0.5)
        rng = np.random.default_rng(78)
        a, b = random_pd(3, rng), random_pd(3, rng)
        p, q = random_psd(3, rng), random_psd(3, rng)
        target = conn.apply(a, b)
        gap = frobenius(p + q) / 2.0
        for n in (2, 6, 10, 20):
            x = conn.apply(a + (2.0**-n) * p, b + (2.0**-n) * q)
            assert frobenius(x - target) == pytest.approx(2.0**-n * gap, rel=1e-6)


class TestTransformerInequalityWithSingularTransform:
    @pytest.mark.parametrize("kind,weight", [("arithmetic", 0.5), ("harmonic", 0.25)])
    def test_singular_congruence_stays_below(self, kind, weight):
        # Exactly singular C: the transformer inequality may be strict; the
        # linear-rate kernels keep epsilon-limit error below 1e-7 * scale.
        conn = make_builtin(kind, weight)
        for i in range(10):
            rng = np.random.default_rng([903, i])
            a, b = random_pd(3, rng), random_pd(3, rng)
            c = np.zeros((3, 3))
            c[:2, :2] = random_pd(2, rng).data + 0.5 * np.eye(2)
            lhs = SymMatrix(c @ conn.apply(a, b).data @ c)
            rhs = conn.apply(
                SymMatrix(c @ a.data @ c), SymMatrix(c @ b.data @ c)
            )
            gap = spectrum(rhs - lhs)[0]
            scale = max(1.0, frobenius(lhs), frobenius(rhs))
            assert gap >= -1e-7 * scale, (kind, i, gap)


@pytest.mark.parametrize(
    "bad",
    [
        {"dims": (2.7,)},
        {"dims": (2, True)},
        {"dims": ("2",)},
        {"dims": (0,)},
        {"trials": True},
        {"trials": 2.5},
        {"trials": 0},
        {"seed": 1.5},
        {"seed": False},
        {"seed": -1},
    ],
)
def test_config_rejects_non_whole_counts(bad):
    with pytest.raises(ValueError):
        TrialConfig(**bad)


def test_config_accepts_whole_floats():
    cfg = TrialConfig(dims=(2.0, 3), trials=3.0, seed=7.0)
    assert (cfg.dims, cfg.trials, cfg.seed) == ((2, 3), 3, 7)
    assert all(type(v) is int for v in (*cfg.dims, cfg.trials, cfg.seed))
    want = check_axioms(make_builtin("geometric", 0.5), TrialConfig(dims=(2, 3), trials=3, seed=7))
    got = check_axioms(make_builtin("geometric", 0.5), cfg)
    assert got.to_dict(include_elapsed=False) == want.to_dict(include_elapsed=False)


def test_standard_battery_roster():
    names = [name for name, _ in standard_battery()]
    assert len(names) == 15
    assert names[0] == "left_trivial" and names[-1] == "zero"
    mean_names = [name for name, _ in standard_means()]
    assert len(mean_names) == 12
    assert "parallel_sum" not in mean_names and "sum" not in mean_names
