"""Tests for connections, representing functions, and classification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanskit import connections
from meanskit.connections import (
    AUDIT_GRID,
    BUILTIN_KINDS,
    WEIGHTED_KINDS,
    Connection,
    ReprFunction,
    ZeroConnectionError,
    apply,
    classify,
    connection_from_function,
    is_mean,
    make_builtin,
    repr_fn_audit,
    repr_fn_eval,
    solve_self_mean_equation,
    transpose,
)
from meanskit.linalg import (
    DEFAULT_TOL,
    DimensionMismatchError,
    EigenSolverError,
    NotPSDError,
    SingularMatrixError,
    SymMatrix,
    fn_calculus,
    frobenius,
    inv_pd,
    is_psd,
    regularize_limit,
    spectrum,
)
from meanskit.linalg import _check_spectra, _psd_scale
from meanskit.measures import BorelMeasure, connection_from_measure, measure_of_builtin
from meanskit.verify import REMARK_A, REMARK_B, random_pd, standard_battery, standard_means


class TestBuiltinRepresentingFunctions:
    @pytest.mark.parametrize(
        "kind,weight,x,expected",
        [
            ("geometric", 0.5, 4.0, 2.0),
            ("left_trivial", None, 7.0, 1.0),
            ("sum", None, 1.0, 2.0),
            ("right_trivial", None, 5.0, 5.0),
            ("arithmetic", 0.3, 5.0, 2.2),
            ("harmonic", 0.5, 2.0, 4.0 / 3.0),
            ("parallel_sum", None, 1.0, 0.5),
            ("logarithmic", None, 1.0, 1.0),
            ("zero", None, 3.0, 0.0),
        ],
    )
    def test_values(self, kind, weight, x, expected):
        conn = make_builtin(kind, weight)
        assert repr_fn_eval(conn, x) == pytest.approx(expected, rel=1e-14)

    def test_boundary_values_at_zero(self):
        assert repr_fn_eval(make_builtin("logarithmic"), 0.0) == 0.0
        assert repr_fn_eval(make_builtin("harmonic", 0.5), 0.0) == 0.0
        assert repr_fn_eval(make_builtin("harmonic", 0.0), 0.0) == 1.0
        assert repr_fn_eval(make_builtin("geometric", 0.0), 0.0) == 1.0
        assert repr_fn_eval(make_builtin("geometric", 0.5), 0.0) == 0.0
        assert repr_fn_eval(make_builtin("arithmetic", 0.25), 0.0) == 0.75

    def test_weight_required_for_weighted_kinds(self):
        with pytest.raises(ValueError, match="weight"):
            make_builtin("geometric")

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            make_builtin("harmonic", 1.5)

    def test_weight_ignored_for_unweighted(self):
        conn = make_builtin("logarithmic", 0.7)
        assert conn.weight is None

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            make_builtin("median")

    def test_all_builtins_monotone_concave_nonnegative(self):
        for name, conn in standard_battery():
            audit = repr_fn_audit(conn)
            assert audit["min_value"] >= 0.0, name
            assert audit["min_increment"] >= -DEFAULT_TOL.eq_tol, name
            assert audit["min_concavity_gap"] >= -DEFAULT_TOL.eq_tol, name

    def test_f_at_one_matches_eval(self):
        for name, conn in standard_battery():
            assert conn.repr_function.f_at_1 == pytest.approx(conn.fn(1.0)), name

    def test_logarithmic_series_matches_long_double(self):
        conn = make_builtin("logarithmic")
        for u in (1e-6, -1e-6, 3e-5, -3e-5, 9e-5, -9e-5):
            x = 1.0 + u
            direct = float(
                (np.longdouble(x) - 1) / np.log(np.longdouble(x))
            )
            assert conn.fn(x) == pytest.approx(direct, rel=1e-13)

    def test_logarithmic_branch_boundary_continuous(self):
        conn = make_builtin("logarithmic")
        for x in (1.0 + 1.0001e-4, 1.0 + 0.9999e-4, 1.0 - 1.0001e-4, 1.0 - 0.9999e-4):
            assert conn.fn(x) == pytest.approx((x - 1.0) / math.log(x), rel=1e-10)

    def test_negative_argument_rejected(self):
        # The domain check lives in ReprFunction, so it holds for every
        # connection's fn, transposes included, not only for repr_fn_eval.
        sum_ = make_builtin("sum")
        conns = (
            sum_,
            connection_from_function(lambda x: 1.0 + x),
            connection_from_measure(BorelMeasure(atoms=((0.0, 1.0), (1.0, 1.0)))),
            transpose(sum_),
            transpose(transpose(sum_)),
        )
        for x in (math.nan, math.inf, -math.inf, -1.0):
            with pytest.raises(ValueError, match=r"defined on \[0, inf\)"):
                repr_fn_eval(sum_, x)
            for conn in conns:
                with pytest.raises(ValueError, match=r"defined on \[0, inf\)"):
                    conn.fn(x)


class TestApply:
    def test_geometric_on_projection_pair_vanishes(self):
        geo = make_builtin("geometric", 0.5)
        x = apply(geo, REMARK_A, REMARK_B)
        assert frobenius(x) <= 1e-5
        assert frobenius(REMARK_A) > 0.5  # ... although A itself is nonzero

    def test_left_trivial_returns_left(self):
        conn = make_builtin("left_trivial")
        for i in range(10):
            rng = np.random.default_rng([200, i])
            a, b = random_pd(3, rng), random_pd(3, rng)
            np.testing.assert_allclose(
                apply(conn, a, b).data, a.data, atol=1e-12 * frobenius(a)
            )

    def test_harmonic_scalar_example(self):
        conn = make_builtin("harmonic", 0.5)
        out = apply(conn, SymMatrix([[1.0]]), SymMatrix([[2.0]]))
        assert out.data[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_arithmetic_commuting_diagonals(self):
        conn = make_builtin("arithmetic", 0.5)
        out = apply(conn, SymMatrix.diagonal([1, 3]), SymMatrix.diagonal([3, 1]))
        np.testing.assert_allclose(out.data, 2.0 * np.eye(2), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply(make_builtin("sum"), SymMatrix.identity(2), SymMatrix.identity(3))

    def test_non_psd_left_rejected(self):
        for kind in ("geometric", "arithmetic"):
            with pytest.raises(NotPSDError, match="left operand"):
                apply(
                    make_builtin(kind, 0.5),
                    SymMatrix.diagonal([1, -1]),
                    SymMatrix.identity(2),
                )

    def test_non_psd_right_rejected(self):
        for kind in ("geometric", "arithmetic"):
            with pytest.raises(NotPSDError, match="right operand"):
                apply(
                    make_builtin(kind, 0.5),
                    SymMatrix.identity(2),
                    SymMatrix.diagonal([1, -1]),
                )

    def test_scalar_consistency(self):
        # dim-1 apply must equal a * f(b/a)
        for name, conn in standard_battery():
            for i in range(20):
                rng = np.random.default_rng([300, i])
                a = float(rng.uniform(0.05, 5.0))
                b = float(rng.uniform(0.0, 5.0))
                got = apply(conn, SymMatrix([[a]]), SymMatrix([[b]])).data[0, 0]
                expected = a * conn.fn(b / a)
                assert got == pytest.approx(expected, abs=1e-10, rel=1e-10), name

    def test_fixed_point_for_means(self):
        for name, conn in standard_means():
            for i in range(10):
                rng = np.random.default_rng([301, i])
                a = random_pd(4, rng)
                x = apply(conn, a, a)
                assert frobenius(x - a) <= DEFAULT_TOL.eq_tol * frobenius(a), name

    def test_identity_action_is_fn_calculus(self):
        # I sigma A = f(A)
        for name, conn in standard_battery():
            rng = np.random.default_rng(302)
            a = random_pd(4, rng)
            lhs = apply(conn, SymMatrix.identity(4), a)
            rhs = fn_calculus(conn.fn, a)
            assert frobenius(lhs - rhs) <= 1e-10 * max(1.0, frobenius(rhs)), name

    def test_positive_definite_outputs(self):
        for name, conn in standard_battery():
            if conn.fn(1.0) <= DEFAULT_TOL.eq_tol:
                continue
            rng = np.random.default_rng(303)
            a, b = random_pd(4, rng), random_pd(4, rng)
            assert spectrum(apply(conn, a, b))[0] > 0.0, name

    def test_forced_regularization_matches_fast_path(self):
        geo = make_builtin("geometric", 0.5)
        rng = np.random.default_rng(304)
        a, b = random_pd(3, rng), random_pd(3, rng)
        fast = apply(geo, a, b)
        slow = regularize_limit(lambda e: apply(geo, a.shifted(e), b.shifted(e)))
        assert frobenius(fast - slow) <= 10 * DEFAULT_TOL.eq_tol * max(
            1.0, frobenius(fast)
        )

    def test_singular_left_operand_right_trivial(self):
        # omega_r ignores its singular left argument
        conn = make_builtin("right_trivial")
        b = SymMatrix([[2.0, 0.5], [0.5, 1.0]])
        out = apply(conn, SymMatrix.zeros(2), b)
        assert frobenius(out - b) <= 1e-6

    def test_singular_left_operand_routes_through_limit(self):
        # a genuinely nonlinear kernel takes the epsilon route on singular A
        conn = make_builtin("geometric", 0.5)
        b = SymMatrix([[2.0, 0.5], [0.5, 1.0]])
        out = apply(conn, SymMatrix.zeros(2), b)
        assert frobenius(out) <= 1e-5  # 0 # B = 0 at square-root rate


def _rotation(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def _well_conditioned_pd(n, rng):
    h = rng.standard_normal((n, n)) / np.sqrt(n)
    return h @ h.T + np.eye(n)


# Each connection with one whose value on the swapped operands is the same:
# A #_{1/4} B = B #_{3/4} A, and the other two are symmetric.
_SWAPPED_PAIRS = [
    (make_builtin("geometric", 0.25), make_builtin("geometric", 0.75)),
    (make_builtin("harmonic", 0.5), make_builtin("harmonic", 0.5)),
    (make_builtin("parallel_sum"), make_builtin("parallel_sum")),
]


class TestConditioning:
    @pytest.mark.parametrize("dim", [4, 16, 64])
    @pytest.mark.parametrize("cond", [1e0, 1e4, 1e8])
    def test_ill_conditioned_left_matches_swapped(self, dim, cond):
        # A sigma B taken around an ill-conditioned A agrees with the same
        # value taken around a well-conditioned B.
        rng = np.random.default_rng([320, dim, int(np.log10(cond))])
        u = _rotation(dim, rng)
        a = SymMatrix((u * np.logspace(0.0, -np.log10(cond), dim)) @ u.T)
        b = SymMatrix(_well_conditioned_pd(dim, rng))
        for conn, swapped in _SWAPPED_PAIRS:
            got = apply(conn, a, b).data
            want = apply(swapped, b, a).data
            assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want), conn

    @pytest.mark.parametrize("dim", range(2, 9))
    @pytest.mark.parametrize("half", [False, True])
    def test_singular_left_pd_right_limit(self, dim, half):
        # For rank-deficient A and PD B, A sigma B = B^{1/2} g(M) B^{1/2} with
        # M = B^{-1/2} A B^{-1/2} and g(x) = x f(1/x).  The dim - rank null
        # directions of M get g(0) = lim f(y)/y, which is 0 for each
        # connection here.  The logarithmic mean is left out: its limit
        # converges only like 1/|log eps| (ROADMAP item 1).
        rank = (dim + 1) // 2 if half else dim - 1
        rng = np.random.default_rng([321, dim, rank])
        u = _rotation(dim, rng)
        w = np.zeros(dim)
        w[dim - rank :] = rng.uniform(0.5, 2.0, rank)
        a = (u * w) @ u.T
        b = _well_conditioned_pd(dim, rng)
        wb, qb = np.linalg.eigh(b)
        root = (qb * np.sqrt(wb)) @ qb.T
        inv_root = (qb / np.sqrt(wb)) @ qb.T
        lam, v = np.linalg.eigh(inv_root @ a @ inv_root)
        lam[: dim - rank] = 0.0
        conns = [
            make_builtin("geometric", 0.25),
            make_builtin("geometric", 0.5),
            make_builtin("harmonic", 0.5),
            make_builtin("parallel_sum"),
            connection_from_measure(measure_of_builtin("geometric", 0.5)),
        ]
        for conn in conns:
            g = np.array([x * conn.fn(1.0 / x) if x > 0.0 else 0.0 for x in lam])
            want = root @ (v * g) @ v.T @ root
            got = apply(conn, SymMatrix(a), SymMatrix(b)).data
            assert np.linalg.norm(got - want) <= 1e-5 * max(1.0, np.linalg.norm(want)), conn


def _rank_deficient_pairs():
    """30 seeded (A, B) with A of rank r < n at dims 2-8 and B positive
    definite, each also given in the swapped order."""
    for i in range(30):
        rng = np.random.default_rng([310, i])
        n = 2 + i % 7
        g = rng.standard_normal((n, int(rng.integers(1, n))))
        h = rng.standard_normal((n, n))
        a, b = SymMatrix(g @ g.T), SymMatrix(h @ h.T + 0.1 * np.eye(n))
        yield a, b
        yield b, a


class TestAffineKinds:
    @pytest.mark.parametrize(
        "conn,scale",
        [
            (make_builtin("arithmetic", 0.5), 0.5),
            (make_builtin("sum"), 1.0),
            (connection_from_measure(BorelMeasure(atoms=((0.0, 0.5), (1.0, 0.5)))), 0.5),
        ],
        ids=["arithmetic", "sum", "boundary_atoms"],
    )
    def test_exact_on_singular_operands(self, conn, scale):
        for a, b in _rank_deficient_pairs():
            want = (a + b) * scale
            assert frobenius(apply(conn, a, b) - want) <= 1e-14 * frobenius(want)

    def test_left_trivial_returns_left_exactly_for_singular_right(self):
        conn = make_builtin("left_trivial")
        for b, a in _rank_deficient_pairs():
            assert np.array_equal(apply(conn, a, b).data, a.data)

    @pytest.mark.parametrize("kind", ["sum", "arithmetic", "left_trivial"])
    def test_both_operands_not_psd_blames_left(self, kind):
        a = np.diag([1.0, -0.5])
        b = np.diag([-2.0, 1.0])
        with pytest.raises(NotPSDError) as alone:
            _psd_scale(np.linalg.eigvalsh(a), DEFAULT_TOL, "left operand")
        with pytest.raises(NotPSDError) as both:
            apply(make_builtin(kind, 0.5), SymMatrix(a), SymMatrix(b))
        assert str(both.value) == str(alone.value)
        assert both.value.min_eigenvalue == -0.5

    @pytest.mark.parametrize("failing", ["left", "right"])
    def test_eigensolver_failure_names_the_operand(self, monkeypatch, failing):
        eigvalsh = np.linalg.eigvalsh
        marker = 7.25

        def flaky(x):
            if np.any(x == marker):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvalsh(x)

        monkeypatch.setattr(np.linalg, "eigvalsh", flaky)
        operands = {"left": np.eye(2), "right": np.eye(2)}
        operands[failing][1, 1] = marker
        with pytest.raises(EigenSolverError) as info:
            apply(
                make_builtin("sum"),
                SymMatrix(operands["left"]),
                SymMatrix(operands["right"]),
            )
        assert str(info.value) == (
            f"eigendecomposition failed for {failing} operand (dim 2, entries "
            f"{operands[failing].tolist()}): Eigenvalues did not converge"
        )

    def test_left_not_psd_blamed_before_right_solver_failure(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        marker = 7.25

        def flaky(x):
            if np.any(x == marker):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvalsh(x)

        a = np.diag([1.0, -0.5])
        with pytest.raises(NotPSDError) as alone:
            _psd_scale(eigvalsh(a), DEFAULT_TOL, "left operand")
        monkeypatch.setattr(np.linalg, "eigvalsh", flaky)
        with pytest.raises(NotPSDError) as both:
            apply(make_builtin("sum"), SymMatrix(a), SymMatrix(np.diag([1.0, marker])))
        assert str(both.value) == str(alone.value)

    def test_coefficients_match_representing_function(self):
        curved = {("logarithmic", None), ("parallel_sum", None)}
        curved |= {(kind, w) for kind in ("geometric", "harmonic") for w in (0.25, 0.5)}
        conns = []
        for kind in BUILTIN_KINDS:
            for weight in (0.0, 0.25, 0.5, 1.0) if kind in WEIGHTED_KINDS else (None,):
                conn = make_builtin(kind, weight)
                assert (conn._affine is None) is ((kind, weight) in curved), conn
                conns.append(conn)
        conns += [
            connection_from_measure(BorelMeasure(atoms=((0.0, 0.3), (1.0, 0.7)))),
            connection_from_measure(BorelMeasure(atoms=((1.0, 2.0),))),
            connection_from_measure(BorelMeasure()),
        ]
        for conn in conns:
            if conn._affine is None:
                continue
            alpha, beta = conn._affine
            for x in AUDIT_GRID:
                assert alpha + beta * x == pytest.approx(conn.fn(x), rel=1e-15), conn

    def test_coefficients_unset_for_curved_connections(self):
        arcsine = measure_of_builtin("geometric", 0.5, nodes=16)
        for conn in (
            connection_from_function(lambda x: (1.0 + x) / 2.0),
            connection_from_measure(BorelMeasure(atoms=((0.5, 1.0),))),
            connection_from_measure(BorelMeasure(atoms=((0.0, 0.5), (0.25, 0.5)))),
            connection_from_measure(arcsine),
        ):
            assert conn._affine is None, conn


class _RawOnly(Connection):
    """Defines only ``_apply_raw``, so stacks take the base per-pair loop."""

    def fn(self, x):
        return (1.0 + x) / 2.0

    def _apply_raw(self, a, b, tol):
        return (a + b) / 2.0


_THREE_ATOMS = BorelMeasure(atoms=((0.0, 0.25), (0.5, 0.5), (1.0, 0.25)))


def _stack_cases():
    cases = list(standard_battery())
    cases += [
        ("arcsine", connection_from_measure(measure_of_builtin("geometric", 0.5))),
        ("three_atoms", connection_from_measure(_THREE_ATOMS)),
        ("transpose_geometric(0.25)", transpose(make_builtin("geometric", 0.25))),
        ("function_sqrt", connection_from_function(math.sqrt)),
        ("raw_only", _RawOnly()),
    ]
    return cases


def _pd_stack(k, dim, seed):
    rng = np.random.default_rng(seed)
    a = np.stack([random_pd(dim, rng).data for _ in range(k)])
    b = np.stack([random_pd(dim, rng).data for _ in range(k)])
    return a, b


def _assert_items_match_pairs(conn, a, b, out):
    assert out.shape == a.shape
    for i in range(len(a)):
        want = conn._apply_raw(a[i], b[i], DEFAULT_TOL)
        assert np.linalg.norm(out[i] - want) <= 1e-14 * np.linalg.norm(want), i


class TestStackedEvaluation:
    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    @pytest.mark.parametrize(
        "conn", [c for _, c in _stack_cases()], ids=[n for n, _ in _stack_cases()]
    )
    def test_matches_per_pair_apply(self, conn, dim):
        a, b = _pd_stack(30, dim, [320, dim])
        _assert_items_match_pairs(conn, a, b, conn._apply_stack(a, b, DEFAULT_TOL))

    def test_singular_left_item_takes_its_own_limit(self):
        conn = make_builtin("harmonic", 0.5)
        a, b = _pd_stack(6, 2, 321)
        a[2] = [[1.0, 0.0], [0.0, 0.0]]
        out = conn._apply_stack(a, b, DEFAULT_TOL)
        assert np.array_equal(out[2], conn._apply_raw(a[2], b[2], DEFAULT_TOL))
        _assert_items_match_pairs(conn, a, b, out)

    @pytest.mark.parametrize("kind", ["geometric", "arithmetic"])
    def test_non_psd_left_item_raises_as_per_item_loop(self, kind):
        a, b = _pd_stack(6, 3, 323)
        a[3] = np.diag([2.0, -1e-3, 1.0])
        a[5] = np.diag([1.0, -0.5, 1.0])
        with pytest.raises(NotPSDError) as per_item:
            for w in np.linalg.eigvalsh(a):
                _psd_scale(w, DEFAULT_TOL, "left operand")
        with pytest.raises(NotPSDError) as stacked:
            make_builtin(kind, 0.5)._apply_stack(a, b, DEFAULT_TOL)
        assert str(stacked.value) == str(per_item.value)
        assert stacked.value.min_eigenvalue == per_item.value.min_eigenvalue == -1e-3

    @pytest.mark.parametrize("kind", ["geometric", "arithmetic"])
    def test_non_psd_right_item_rejected(self, kind):
        a, b = _pd_stack(6, 2, 322)
        b[4] = np.diag([1.0, -1.0])
        with pytest.raises(NotPSDError, match="right operand"):
            make_builtin(kind, 0.5)._apply_stack(a, b, DEFAULT_TOL)


    def test_failing_callable_names_the_item(self):
        def f(x):
            if x > 3.0:
                raise ArithmeticError("out of domain")
            return math.sqrt(x)

        a = np.stack([np.eye(2)] * 4)
        b = a.copy()
        b[2] = np.diag([1.0, 5.0])
        with pytest.raises(ValueError) as info:
            connection_from_function(f)._apply_stack(a, b, DEFAULT_TOL)
        assert str(info.value) == (
            "scalar function evaluation failed on the spectrum [1.0, 5.0], "
            "item 2 of (4,): out of domain"
        )


SLACK = DEFAULT_TOL.psd_slack


def _record_limits(monkeypatch):
    """Record every epsilon-limit that ``apply`` takes."""
    calls = []
    regularize = connections._regularize_raw

    def recording(g, tol):
        calls.append(tol)
        return regularize(g, tol)

    monkeypatch.setattr(connections, "_regularize_raw", recording)
    return calls


class TestPositiveDefiniteThreshold:
    """With scale 1, diag([psd_slack, 1]) sits exactly on the threshold of
    the positive-definite rule, which it does not clear; the PSD rule admits
    a smallest eigenvalue down to -psd_slack."""

    ON = SymMatrix.diagonal([SLACK, 1.0])
    ABOVE = SymMatrix.diagonal([2.0 * SLACK, 1.0])
    PSD_EDGE = SymMatrix.diagonal([-SLACK, 1.0])
    BELOW = SymMatrix.diagonal([-2.0 * SLACK, 1.0])
    B = SymMatrix([[2.0, 0.5], [0.5, 1.0]])

    def test_on_threshold_takes_the_limit(self, monkeypatch):
        calls = _record_limits(monkeypatch)
        apply(make_builtin("geometric", 0.5), self.ON, self.B)
        assert calls == [DEFAULT_TOL]

    def test_above_threshold_takes_the_congruence(self, monkeypatch):
        calls = _record_limits(monkeypatch)
        apply(make_builtin("geometric", 0.5), self.ABOVE, self.B)
        assert calls == []

    def test_on_threshold_is_singular(self):
        with pytest.raises(SingularMatrixError):
            inv_pd(self.ON)
        with pytest.raises(SingularMatrixError):
            solve_self_mean_equation(make_builtin("geometric", 0.5), self.ON)
        inv_pd(self.ABOVE)
        solve_self_mean_equation(make_builtin("geometric", 0.5), self.ABOVE)

    @pytest.mark.parametrize("kind", ["geometric", "harmonic"])
    def test_stack_holding_it_equals_the_per_item_loop(self, kind):
        conn = make_builtin(kind, 0.5)
        a, b = _pd_stack(5, 2, 324)
        a[1] = self.ON.data
        out = conn._apply_stack(a, b, DEFAULT_TOL)
        for i in range(len(a)):
            assert np.array_equal(out[i], conn._apply_raw(a[i], b[i], DEFAULT_TOL)), i

    @pytest.mark.parametrize("kind", ["geometric", "logarithmic"])
    def test_mixed_stack_raises_its_first_failing_item(self, kind):
        # Item 1 takes the limit: geometric(1/2) converges, and the first
        # failure is item 3's right operand; the logarithmic limit raises
        # NonConvergenceError first.
        conn = make_builtin(kind, 0.5 if kind == "geometric" else None)
        a, b = _pd_stack(5, 2, 324)
        a[1] = self.ON.data
        b[3] = np.diag([1.0, -0.5])
        b[4] = np.diag([1.0, -2.0])
        with pytest.raises(Exception) as per_item:
            for x, y in zip(a, b):
                conn._apply_raw(x, y, DEFAULT_TOL)
        with pytest.raises(Exception) as stacked:
            conn._apply_stack(a, b, DEFAULT_TOL)
        assert type(stacked.value) is type(per_item.value)
        assert str(stacked.value) == str(per_item.value)

    def test_psd_edge_passes_every_check(self):
        w = spectrum(self.PSD_EDGE)
        assert is_psd(self.PSD_EDGE)
        assert _psd_scale(w, DEFAULT_TOL, "left operand") == 1.0
        assert _check_spectra(w[None], DEFAULT_TOL, "left operand").tolist() == [1.0]
        eye = SymMatrix.identity(2)
        for kind in ("geometric", "arithmetic"):
            conn = make_builtin(kind, 0.5)
            apply(conn, self.PSD_EDGE, eye)
            apply(conn, eye, self.PSD_EDGE)

    def test_below_psd_edge_fails_every_check(self):
        w = spectrum(self.BELOW)
        assert not is_psd(self.BELOW)
        with pytest.raises(NotPSDError):
            _psd_scale(w, DEFAULT_TOL, "left operand")
        with pytest.raises(NotPSDError):
            _check_spectra(w[None], DEFAULT_TOL, "left operand")
        eye = SymMatrix.identity(2)
        for kind in ("geometric", "arithmetic"):
            conn = make_builtin(kind, 0.5)
            with pytest.raises(NotPSDError, match="left operand"):
                apply(conn, self.BELOW, eye)
            with pytest.raises(NotPSDError, match="right operand"):
                apply(conn, eye, self.BELOW)


class TestArrayForm:
    POINTS = sorted(AUDIT_GRID) + [0.0, 1.0 - 1e-5, 1.0 + 1e-5, 1e-300]

    CONNECTIONS = {
        f"{kind}({weight})": make_builtin(kind, weight)
        for kind in BUILTIN_KINDS
        for weight in ((0.25, 0.5, 0.75) if kind in WEIGHTED_KINDS else (None,))
    }
    CONNECTIONS["arcsine"] = connection_from_measure(measure_of_builtin("geometric", 0.5))
    CONNECTIONS["three_atoms"] = connection_from_measure(_THREE_ATOMS)

    @pytest.mark.parametrize("conn", CONNECTIONS.values(), ids=CONNECTIONS.keys())
    def test_matches_scalar_fn(self, conn):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = conn._fn_array(np.array(self.POINTS))
        want = np.array([conn.fn(x) for x in self.POINTS])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        for x in self.POINTS:
            assert type(conn.fn(x)) is float, x
            assert type(repr_fn_eval(conn, x)) is float, x


class TestReprFnEvalConsistency:
    def test_matches_one_by_one_apply(self):
        for name, conn in standard_battery():
            for x in (0.0, 0.25, 1.0, 2.0, 7.5):
                via_fn = repr_fn_eval(conn, x)
                via_apply = apply(conn, SymMatrix([[1.0]]), SymMatrix([[x]])).data[0, 0]
                assert via_fn == pytest.approx(via_apply, abs=2e-8, rel=1e-8), (name, x)


class TestTranspose:
    def test_transpose_of_left_trivial_acts_as_right(self):
        t = transpose(make_builtin("left_trivial"))
        assert t.fn(5.0) == pytest.approx(5.0)

    def test_transpose_geometric_quarter(self):
        t = transpose(make_builtin("geometric", 0.25))
        # x * (1/x)^{1/4} = x^{3/4}; 4^{3/4} = 2 * sqrt(2)
        assert t.fn(4.0) == pytest.approx(2.8284271247461903, rel=1e-14)

    def test_transpose_arithmetic_flips_weight(self):
        t = transpose(make_builtin("arithmetic", 0.3))
        direct = make_builtin("arithmetic", 0.7)
        for x in AUDIT_GRID:
            assert t.fn(x) == pytest.approx(direct.fn(x), rel=1e-12)

    def test_apply_swaps_arguments(self):
        geo = make_builtin("geometric", 0.25)
        t = transpose(geo)
        rng = np.random.default_rng(400)
        a, b = random_pd(4, rng), random_pd(4, rng)
        assert frobenius(apply(t, a, b) - apply(geo, b, a)) <= DEFAULT_TOL.eq_tol * max(
            1.0, frobenius(a)
        )

    def test_double_transpose_matches_original(self):
        for name, conn in standard_battery():
            tt = transpose(transpose(conn))
            for x in AUDIT_GRID:
                assert tt.fn(x) == pytest.approx(conn.fn(x), rel=1e-12, abs=1e-15), name

    def test_subnormal_argument_never_gives_inf(self):
        # g(x) = x * f(1/x) needs 1/x, which overflows below about 5.6e-309;
        # g must then name x rather than return inf.  Just above, it is exact.
        t = transpose(make_builtin("geometric", 0.25))
        with pytest.raises(ValueError, match="1e-310"):
            t.fn(1e-310)
        assert t.fn(1e-300) == pytest.approx(1e-300**0.75, rel=1e-12)

    def test_zero_limit(self):
        t = transpose(make_builtin("parallel_sum"))
        # g(x) = x * (1/x)/(1 + 1/x) = x/(x + 1), so g(0) = 0
        assert t.fn(0.0) == pytest.approx(0.0, abs=1e-10)


class TestClassification:
    def test_is_mean(self):
        assert is_mean(make_builtin("geometric", 0.5))
        assert not is_mean(make_builtin("parallel_sum"))  # f(1) = 1/2
        assert not is_mean(make_builtin("sum"))  # f(1) = 2

    def test_left_trivial_record(self):
        rec = classify(make_builtin("left_trivial"))
        assert rec.is_left_trivial and rec.is_mean and not rec.is_right_trivial
        assert rec.strict_left is False
        assert rec.strict_right is True
        assert rec.strict is False

    def test_right_trivial_record(self):
        rec = classify(make_builtin("right_trivial"))
        assert rec.is_right_trivial and rec.strict_right is False
        assert rec.strict_left is True and rec.strict is False

    def test_zero_record(self):
        rec = classify(make_builtin("zero"))
        assert rec.is_zero and not rec.is_mean
        assert rec.strict is None

    def test_non_trivial_means_are_strict(self):
        for kind, weight in [
            ("geometric", 0.5),
            ("arithmetic", 0.25),
            ("harmonic", 0.75),
            ("logarithmic", None),
        ]:
            rec = classify(make_builtin(kind, weight))
            assert rec.strict is True, kind
            assert not rec.is_zero and rec.is_mean

    def test_non_mean_strictness_not_applicable(self):
        rec = classify(make_builtin("sum"))
        assert rec.is_mean is False
        assert rec.strict_left is None and rec.strict_right is None

    def test_weighted_boundaries_collapse_to_trivial(self):
        assert classify(make_builtin("geometric", 0.0)).is_left_trivial
        assert classify(make_builtin("geometric", 1.0)).is_right_trivial
        assert classify(make_builtin("harmonic", 0.0)).is_left_trivial
        assert classify(make_builtin("arithmetic", 1.0)).is_right_trivial

    def test_record_serializes(self):
        d = classify(make_builtin("sum")).to_dict()
        assert d["is_mean"] is False and d["strict"] is None


class TestSolveSelfMeanEquation:
    def test_mean_returns_argument(self):
        a = SymMatrix.diagonal([2, 5])
        for name, conn in standard_means():
            x = solve_self_mean_equation(conn, a)
            np.testing.assert_allclose(x.data, a.data, atol=1e-12)

    def test_sum_halves(self):
        x = solve_self_mean_equation(make_builtin("sum"), SymMatrix.identity(2))
        np.testing.assert_allclose(x.data, 0.5 * np.eye(2))

    def test_parallel_sum_doubles(self):
        x = solve_self_mean_equation(
            make_builtin("parallel_sum"), SymMatrix.diagonal([1, 2])
        )
        np.testing.assert_allclose(x.data, np.diag([2.0, 4.0]))

    def test_solution_verifies(self):
        rng = np.random.default_rng(500)
        a = random_pd(3, rng) + SymMatrix.identity(3)
        for kind in ("geometric", "sum", "parallel_sum"):
            conn = make_builtin(kind, 0.5 if kind == "geometric" else None)
            x = solve_self_mean_equation(conn, a)
            assert frobenius(apply(conn, x, x) - a) <= DEFAULT_TOL.eq_tol * frobenius(a)

    def test_zero_connection_rejected(self):
        with pytest.raises(ZeroConnectionError):
            solve_self_mean_equation(make_builtin("zero"), SymMatrix.identity(2))

    def test_singular_argument_rejected(self):
        with pytest.raises(SingularMatrixError):
            solve_self_mean_equation(
                make_builtin("geometric", 0.5), SymMatrix.diagonal([1, 0])
            )


class TestFunctionConnection:
    def test_from_callable_matches_builtin(self):
        custom = connection_from_function(lambda x: math.sqrt(x))
        builtin = make_builtin("geometric", 0.5)
        rng = np.random.default_rng(600)
        a, b = random_pd(3, rng), random_pd(3, rng)
        assert frobenius(apply(custom, a, b) - apply(builtin, a, b)) <= 1e-10

    def test_repr_function_invariants(self):
        f = ReprFunction.from_callable(lambda x: (1.0 + x) / 2.0)
        assert f.f_at_1 == pytest.approx(f(1.0))
        assert f.f_at_0 == pytest.approx(f(1e-12))
        with pytest.raises(ValueError):
            f(-0.5)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.01, 100.0),
    b=st.floats(0.0, 100.0, allow_subnormal=False),
    alpha=st.floats(0.0, 1.0),
)
def test_scalar_geometric_consistency(a, b, alpha):
    # a^(1-alpha) b^alpha does not underflow where b / a would.
    conn = make_builtin("geometric", alpha)
    got = apply(conn, SymMatrix([[a]]), SymMatrix([[b]])).data[0, 0]
    assert got == pytest.approx(a ** (1 - alpha) * b**alpha, rel=1e-9, abs=1e-9)


def test_scalar_geometric_subnormal_quotient_error():
    # Known inaccuracy: the congruence rounds b / a = 2.5e-324 up to the
    # smallest subnormal 5e-324, so the result is 2^alpha (about 1.1%) above
    # the exact a^(1-alpha) b^alpha.
    a, b, alpha = 2.0, 5e-324, 1 / 64
    got = apply(make_builtin("geometric", alpha), SymMatrix([[a]]), SymMatrix([[b]])).data[0, 0]
    exact = a ** (1 - alpha) * b**alpha
    assert got == pytest.approx(exact * 2**alpha, rel=1e-12)
    assert got / exact - 1 > 0.01


@settings(max_examples=60, deadline=None)
@given(x=st.floats(1e-6, 1e6))
def test_transpose_involution_pointwise(x):
    conn = make_builtin("logarithmic")
    tt = transpose(transpose(conn))
    assert tt.fn(x) == pytest.approx(conn.fn(x), rel=1e-12)
