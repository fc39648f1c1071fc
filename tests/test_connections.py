"""Tests for connections, representing functions, and classification."""

import copy
import math
import traceback
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanskit import connections, linalg
from meanskit.connections import (
    AUDIT_GRID,
    BUILTIN_KINDS,
    WEIGHTED_KINDS,
    Connection,
    ReprFunction,
    ResultOverflowError,
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
    Tolerances,
    fn_calculus,
    frobenius,
    inv_pd,
    is_psd,
    regularize_limit,
    spectrum,
)
from meanskit.linalg import _certified_pd, _check_spectra, _psd_scale
from meanskit.measures import (
    BorelMeasure,
    MeasureConnection,
    connection_from_measure,
    measure_of_builtin,
)
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
        for weight in (1.5, 10**400):
            with pytest.raises(ValueError, match="out of range"):
                make_builtin("harmonic", weight)

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

    def test_audit_refuses_an_empty_grid(self):
        with pytest.raises(ValueError, match="grid must hold at least one point"):
            repr_fn_audit(make_builtin("geometric", 0.5), grid=())

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
            make_builtin("geometric", 0.5),
            make_builtin("harmonic", 0.5),
            connection_from_function(lambda x: 1.0 + x),
            connection_from_measure(BorelMeasure(atoms=((0.0, 1.0), (1.0, 1.0)))),
            transpose(sum_),
            transpose(transpose(sum_)),
        )
        # An int beyond the largest double is read as the inf it exceeds.
        for x in (math.nan, math.inf, -math.inf, -1.0, 10**400, -(10**400)):
            for conn in conns:
                with pytest.raises(ValueError, match=r"defined on \[0, inf\)"):
                    repr_fn_eval(conn, x)
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

    def test_singular_left_operand_gives_the_slope_at_infinity(self):
        # 0 sigma B = (lim f(y)/y) B, which is 0 for the geometric mean.
        conn = make_builtin("geometric", 0.5)
        b = SymMatrix([[2.0, 0.5], [0.5, 1.0]])
        out = apply(conn, SymMatrix.zeros(2), b)
        assert np.array_equal(out.data, np.zeros((2, 2)))


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
    def test_singular_left_pd_right(self, dim, half):
        # For rank-deficient A and PD B, A sigma B = B^{1/2} g(M) B^{1/2} with
        # M = B^{-1/2} A B^{-1/2} and g(x) = x f(1/x).  The dim - rank null
        # directions of M get g(0) = lim f(y)/y, which is 0 for each
        # connection here.
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
            make_builtin("logarithmic"),
            connection_from_measure(measure_of_builtin("geometric", 0.5)),
        ]
        for conn in conns:
            g = np.array([x * conn.fn(1.0 / x) if x > 0.0 else 0.0 for x in lam])
            want = root @ (v * g) @ v.T @ root
            got = apply(conn, SymMatrix(a), SymMatrix(b)).data
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), conn


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


def _fail_solver(monkeypatch, solver, fails, message):
    """Make ``linalg._lapack``, the package's one call into LAPACK, raise
    numpy's ``LinAlgError(message)`` for ``solver`` on any matrix x with
    fails(x).  Returns a list that gets one entry, the failing x, per
    raise, so a test can tell that its injected failure fired."""
    lapack = linalg._lapack
    raised = []

    def flaky(name, x, *rest):
        if name == solver and fails(x):
            raised.append(x)
            raise np.linalg.LinAlgError(message)
        return lapack(name, x, *rest)

    monkeypatch.setattr(linalg, "_lapack", flaky)
    return raised


def _fail_eigvalsh_on(monkeypatch, marker):
    """Make the eigenvalue solve fail on a matrix with an entry equal to
    ``marker``; returns ``_fail_solver``'s list of raises."""
    return _fail_solver(
        monkeypatch, "eigvalsh", lambda x: np.any(x == marker), "Eigenvalues did not converge"
    )


def _fail_cholesky_near(monkeypatch, marker):
    """Make the Cholesky factorization fail on a matrix with an entry within
    1e-6 of ``marker``: the positive-definiteness certificate factors the
    operands shifted by a tiny multiple of I, and has to fail for the
    eigenvalue checks to run."""
    _fail_solver(
        monkeypatch,
        "cholesky",
        lambda x: np.any(np.abs(x - marker) < 1e-6),
        "Matrix is not positive definite",
    )


class TestRouteAttributes:
    """Each builtin's atom-route record ``_atoms`` = (w0, w1, interior) and
    its perspective's value H(0, 1) = lim f(y)/y, which follow from its
    measure."""

    AFFINE_LEFT = ((1.0, 0.0, ()), 0.0)
    AFFINE_RIGHT = ((0.0, 1.0, ()), 1.0)
    CURVED = (None, 0.0)
    TABLE = {
        ("left_trivial", None): AFFINE_LEFT,
        ("right_trivial", None): AFFINE_RIGHT,
        ("logarithmic", None): CURVED,
        ("parallel_sum", None): ((0.0, 0.0, ((0.5, 0.5, 0.5),)), 0.0),
        ("sum", None): ((1.0, 1.0, ()), 1.0),
        ("zero", None): ((0.0, 0.0, ()), 0.0),
        ("arithmetic", 0.0): AFFINE_LEFT,
        ("arithmetic", 0.25): ((0.75, 0.25, ()), 0.25),
        ("arithmetic", 0.5): ((0.5, 0.5, ()), 0.5),
        ("arithmetic", 0.75): ((0.25, 0.75, ()), 0.75),
        ("arithmetic", 1.0): AFFINE_RIGHT,
        ("geometric", 0.0): AFFINE_LEFT,
        ("geometric", 0.25): CURVED,
        ("geometric", 0.5): CURVED,
        ("geometric", 0.75): CURVED,
        ("geometric", 1.0): AFFINE_RIGHT,
        ("harmonic", 0.0): AFFINE_LEFT,
        ("harmonic", 0.25): ((0.0, 0.0, ((0.25, 0.75, 1.0),)), 0.0),
        ("harmonic", 0.5): ((0.0, 0.0, ((0.5, 0.5, 1.0),)), 0.0),
        ("harmonic", 0.75): ((0.0, 0.0, ((0.75, 0.25, 1.0),)), 0.0),
        ("harmonic", 1.0): AFFINE_RIGHT,
    }

    @pytest.mark.parametrize("kind, weight", TABLE)
    def test_route_attributes(self, kind, weight):
        conn = make_builtin(kind, weight)
        got = (conn._atoms, float(conn._perspective(0.0, 1.0)))
        assert got == self.TABLE[kind, weight]


def _coefficients(conn):
    """(alpha, beta) of a connection whose f is alpha + beta x, read from
    its atom-route record with no interior atom, and None otherwise."""
    if conn._atoms is None or conn._atoms[2]:
        return None
    return conn._atoms[:2]


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
        marker = 7.25
        _fail_eigvalsh_on(monkeypatch, marker)
        _fail_cholesky_near(monkeypatch, marker)
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
        marker = 7.25
        a = np.diag([1.0, -0.5])
        with pytest.raises(NotPSDError) as alone:
            _psd_scale(np.linalg.eigvalsh(a), DEFAULT_TOL, "left operand")
        raised = _fail_eigvalsh_on(monkeypatch, marker)
        with pytest.raises(NotPSDError) as both:
            apply(make_builtin("sum"), SymMatrix(a), SymMatrix(np.diag([1.0, marker])))
        assert str(both.value) == str(alone.value)
        # The right operand is never solved once the left one fails.
        assert raised == []

    def test_huge_result_is_not_symmetrized(self):
        # (X + X^T) / 2 would overflow on 2e308; w0 A + w1 B needs no
        # symmetrization.
        conn = connection_from_measure(BorelMeasure(atoms=((0.0, 1e308),)))
        got = apply(conn, SymMatrix.identity(3), SymMatrix.identity(3)).data
        assert np.array_equal(got, 1e308 * np.eye(3))

    @pytest.mark.parametrize("weight", [0.0, 0.25, 0.5, 1.0])
    def test_signed_zeros_are_those_of_alpha_a_plus_beta_b(self, weight):
        a = np.array([[2.0, -0.0, 0.0], [-0.0, 1.0, -0.0], [0.0, -0.0, 3.0]])
        b = np.array([[1.0, -0.0, -0.0], [-0.0, 4.0, 0.0], [-0.0, 0.0, 2.0]])
        got = apply(make_builtin("arithmetic", weight), SymMatrix(a), SymMatrix(b)).data
        want = (1.0 - weight) * a + weight * b
        assert np.signbit(want).any()
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_coefficients_match_representing_function(self):
        curved = {("logarithmic", None), ("parallel_sum", None)}
        curved |= {(kind, w) for kind in ("geometric", "harmonic") for w in (0.25, 0.5)}
        conns = []
        for kind in BUILTIN_KINDS:
            for weight in (0.0, 0.25, 0.5, 1.0) if kind in WEIGHTED_KINDS else (None,):
                conn = make_builtin(kind, weight)
                assert (_coefficients(conn) is None) is ((kind, weight) in curved), conn
                conns.append(conn)
        conns += [
            connection_from_measure(BorelMeasure(atoms=((0.0, 0.3), (1.0, 0.7)))),
            connection_from_measure(BorelMeasure(atoms=((1.0, 2.0),))),
            connection_from_measure(BorelMeasure()),
        ]
        for conn in conns:
            if _coefficients(conn) is None:
                continue
            alpha, beta = _coefficients(conn)
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
            assert _coefficients(conn) is None, conn


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


def _sqrt_up_to_3(x):
    if x > 3.0:
        raise ArithmeticError("out of domain")
    return math.sqrt(x)


def _first_failure_cases():
    """(id, connection, a, b): stacks whose first failing pair raises
    something other than what a check of the whole stack would meet first."""
    eye = np.eye(2)
    geometric = make_builtin("geometric", 0.5)
    # Pair 0's B is PSD within slack, and its value is diag(0, 1); pair 1's
    # B is not PSD.
    clip_a = np.stack([np.diag([1e-6, 1.0]), eye])
    clip_b = np.stack([np.diag([-5e-10, 1.0]), np.diag([1.0, -1.0])])
    # f raises on pair 1's spectrum, and pair 2's B is not PSD.
    f_a = np.stack([eye] * 4)
    f_b = f_a.copy()
    f_b[1], f_b[2] = np.diag([1.0, 5.0]), np.diag([1.0, -1.0])
    f_only = f_a.copy()
    f_only[2] = np.diag([1.0, 5.0])
    # Pair 0's B is not PSD, and pair 1's A is not.
    bad = np.diag([1.0, -1.0])
    order_a, order_b = np.stack([eye, bad]), np.stack([bad, eye])
    # Pair 0 declines the atom route (its pivot is singular) and takes the
    # step around A + B; pair 1's B is not PSD.
    corner = np.diag([1.0, 0.0])
    declined_a, declined_b = np.stack([corner, eye]), np.stack([corner, bad])
    function = connection_from_function(_sqrt_up_to_3)
    return [
        ("around_sum", geometric, clip_a, clip_b),
        ("measure", connection_from_measure(measure_of_builtin("geometric", 0.5)), clip_a, clip_b),
        ("transpose", transpose(geometric), clip_b, clip_a),
        ("function_before_psd_check", function, f_a, f_b),
        ("function_on_one_pair", function, f_a, f_only),
        ("affine", make_builtin("arithmetic", 0.5), order_a, order_b),
        ("atom_route_declined", make_builtin("harmonic", 0.5), declined_a, declined_b),
    ]


class TestStackedEvaluation:
    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    @pytest.mark.parametrize(
        "conn", [c for _, c in _stack_cases()], ids=[n for n, _ in _stack_cases()]
    )
    def test_matches_per_pair_apply(self, conn, dim):
        a, b = _pd_stack(30, dim, [320, dim])
        _assert_items_match_pairs(conn, a, b, conn._apply_stack(a, b, DEFAULT_TOL))

    def test_singular_left_item_takes_its_own_route(self):
        conn = make_builtin("harmonic", 0.5)
        a, b = _pd_stack(6, 2, 321)
        a[2] = [[1.0, 0.0], [0.0, 0.0]]
        out = conn._apply_stack(a, b, DEFAULT_TOL)
        assert np.array_equal(out[2], conn._apply_raw(a[2], b[2], DEFAULT_TOL))
        want = _anderson_duffin(((0.5, 1.0),), a[2], b[2])
        assert np.linalg.norm(out[2] - want) <= 1e-12 * np.linalg.norm(want)
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
        # The stack raises what its item 2 raises alone: the spectrum that
        # f fails on, and no position in the stack.
        a = np.stack([np.eye(2)] * 4)
        b = a.copy()
        b[2] = np.diag([1.0, 5.0])
        conn = connection_from_function(_sqrt_up_to_3)
        with pytest.raises(ValueError) as alone:
            conn._apply_raw(a[2], b[2], DEFAULT_TOL)
        with pytest.raises(ValueError) as stacked:
            conn._apply_stack(a, b, DEFAULT_TOL)
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value) == (
            "scalar function evaluation failed on the spectrum "
            "[4.999999999999999, 1.0]: out of domain"
        )

    @pytest.mark.parametrize(
        "conn,a,b", [c[1:] for c in _first_failure_cases()],
        ids=[c[0] for c in _first_failure_cases()],
    )
    def test_stack_raises_what_its_first_failing_pair_raises(self, conn, a, b):
        with pytest.raises(Exception) as alone:
            for x, y in zip(a, b):
                conn._apply_raw(x, y, DEFAULT_TOL)
        with pytest.raises(Exception) as stacked:
            conn._apply_stack(a, b, DEFAULT_TOL)
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize(
        "kind,weight,dim",
        [
            ("arithmetic", 0.5, 2),
            ("arithmetic", 0.5, 16),
            ("harmonic", 0.5, 2),
            ("harmonic", 0.5, 16),
        ],
    )
    def test_first_failing_pair_is_blamed(self, kind, weight, dim):
        # Pair 0's right operand fails before pair 1's left one, as in a
        # loop over the pairs; the harmonic mean takes the atom route.
        conn = make_builtin(kind, weight)
        left_bad, right_bad = np.eye(dim), np.eye(dim)
        left_bad[1, 1], right_bad[1, 1] = -0.5, -1.0
        a, b = np.stack([np.eye(dim), left_bad]), np.stack([right_bad, np.eye(dim)])
        with pytest.raises(NotPSDError) as alone:
            for x, y in zip(a, b):
                conn._apply_raw(x, y, DEFAULT_TOL)
        with pytest.raises(NotPSDError) as stacked:
            conn._apply_stack(a, b, DEFAULT_TOL)
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value).startswith("right operand")
        assert stacked.value.min_eigenvalue == -1.0


_TWO_ATOMS = BorelMeasure(atoms=((0.0, 0.2), (0.3, 0.5), (0.7, 0.4)))


def _anderson_duffin(atoms, a, b):
    """sum of w (A !_t B) over the atoms (t, w), with A !_t B =
    (A / (1 - t)) : (B / t) inside (0, 1) and X : Y = X (X + Y)^+ Y, the
    parallel sum of Anderson and Duffin, through a pseudo-inverse."""
    out = np.zeros_like(a)
    for t, w in atoms:
        if t == 0.0:
            out += w * a
        elif t == 1.0:
            out += w * b
        else:
            x, y = a / (1.0 - t), b / t
            out += w * (x @ np.linalg.pinv(x + y) @ y)
    return (out + out.T) / 2.0


# Each connection of the atom route with its atoms.
_ATOM_ROUTE = {
    "harmonic(0.25)": (make_builtin("harmonic", 0.25), ((0.25, 1.0),)),
    "harmonic(0.5)": (make_builtin("harmonic", 0.5), ((0.5, 1.0),)),
    "harmonic(0.75)": (make_builtin("harmonic", 0.75), ((0.75, 1.0),)),
    "parallel_sum": (make_builtin("parallel_sum"), ((0.5, 0.5),)),
    "one_atom": (connection_from_measure(_THREE_ATOMS), _THREE_ATOMS.atoms),
    "two_atoms": (connection_from_measure(_TWO_ATOMS), _TWO_ATOMS.atoms),
}


def _record_atom_route(monkeypatch):
    """Record the operand shapes of every atom-route evaluation."""
    calls = []
    atom_apply = connections._atom_apply

    def recording(atoms, a, b, spectra):
        calls.append(a.shape)
        return atom_apply(atoms, a, b, spectra)

    monkeypatch.setattr(connections, "_atom_apply", recording)
    return calls


def _record_around_sum(monkeypatch):
    """Record the operand shapes of every evaluation by the step around
    A + B."""
    calls = []
    around_sum = connections._FunctionBackedConnection._around_sum

    def recording(self, a, b, tol, spectra=None):
        calls.append(a.shape)
        return around_sum(self, a, b, tol, spectra)

    monkeypatch.setattr(connections._FunctionBackedConnection, "_around_sum", recording)
    return calls


def _around_pd(fn, p, x, null=0):
    """P^{1/2} fn(M) P^{1/2} for positive-definite P and PSD X, with
    M = P^{-1/2} X P^{-1/2} and the ``null`` smallest eigenvalues of M,
    those of X's kernel, set to 0: P sigma X for the array form fn of f,
    and X sigma P for fn(y) = y f(1/y)."""
    w, q = np.linalg.eigh(p)
    root, inv_root = (q * np.sqrt(w)) @ q.T, (q / np.sqrt(w)) @ q.T
    m, u = np.linalg.eigh(inv_root @ x @ inv_root)
    m[:null] = 0.0
    out = root @ (u * fn(np.maximum(m, 0.0))) @ u.T @ root
    return (out + out.T) / 2.0


def _geometric_around_sum(alpha, a, b, null_a=0, null_b=0):
    """A #_alpha B = S^{1/2} C^{1 - alpha} (I - C)^alpha S^{1/2} for positive
    definite S = A + B and C = S^{-1/2} A S^{-1/2}, which commutes with
    I - C, with the ``null_a`` smallest eigenvalues of C set to 0 and the
    ``null_b`` largest to 1: the dims of A's and B's kernels.  Unlike a
    congruence around A or B, it keeps its accuracy where both are ill
    conditioned and their sum is not."""
    w, q = np.linalg.eigh(a + b)
    root, inv_root = (q * np.sqrt(w)) @ q.T, (q / np.sqrt(w)) @ q.T
    c, u = np.linalg.eigh(inv_root @ a @ inv_root)
    c = np.clip(c, 0.0, 1.0)
    c[:null_a] = 0.0
    c[len(c) - null_b:] = 1.0
    out = root @ (u * (c ** (1.0 - alpha) * (1.0 - c) ** alpha)) @ u.T @ root
    return (out + out.T) / 2.0


def _scalar_form(conn):
    """f's array form, one call of ``conn.fn`` per point."""
    return lambda m: np.array([conn.fn(v) for v in m])


def _record_solvers(monkeypatch):
    """The names of the Cholesky and symmetric eigenvalue solves that pass
    through ``linalg._lapack``, in order."""
    calls = []
    lapack = linalg._lapack

    def recording(name, *args):
        if name in ("cholesky", "eigh", "eigvalsh"):
            calls.append(name)
        return lapack(name, *args)

    monkeypatch.setattr(linalg, "_lapack", recording)
    return calls


def _rank_deficient(n, rank, rng):
    g = rng.standard_normal((n, rank))
    return g @ g.T


class TestAtomRoute:
    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("name", _ATOM_ROUTE)
    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16, 64])
    @pytest.mark.parametrize("cond", [1e0, 1e4, 1e8])
    def test_ill_conditioned_left_matches_anderson_duffin(self, cond, dim, name, transposed):
        conn, atoms = _ATOM_ROUTE[name]
        rng = np.random.default_rng([330, dim, int(np.log10(cond))])
        u = _rotation(dim, rng)
        a = (u * np.logspace(0.0, -np.log10(cond), dim)) @ u.T
        b = _well_conditioned_pd(dim, rng)
        a = (a + a.T) / 2.0
        if transposed:
            got = apply(transpose(conn), SymMatrix(a), SymMatrix(b)).data
            want = _anderson_duffin(atoms, b, a)
        else:
            got = apply(conn, SymMatrix(a), SymMatrix(b)).data
            want = _anderson_duffin(atoms, a, b)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("name", _ATOM_ROUTE)
    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16, 64])
    def test_rank_deficient_left_is_exact(self, monkeypatch, dim, name, transposed):
        # The atom route: the pivot t A + (1 - t) B is positive definite.
        around = _record_around_sum(monkeypatch)
        conn, atoms = _ATOM_ROUTE[name]
        for rank in (dim - 1, (dim + 1) // 2):
            rng = np.random.default_rng([331, dim, rank])
            a, b = _rank_deficient(dim, rank, rng), _well_conditioned_pd(dim, rng)
            if transposed:
                got = apply(transpose(conn), SymMatrix(a), SymMatrix(b)).data
                want = _anderson_duffin(atoms, b, a)
            else:
                got = apply(conn, SymMatrix(a), SymMatrix(b)).data
                want = _anderson_duffin(atoms, a, b)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), rank
        assert around == []

    @pytest.mark.parametrize("name", _ATOM_ROUTE)
    def test_rank_deficient_right_is_exact(self, monkeypatch, name):
        # A positive-definite A with a singular B: the pivot is positive
        # definite, so the pair takes the atom route.
        around = _record_around_sum(monkeypatch)
        conn, atoms = _ATOM_ROUTE[name]
        for dim in range(2, 16):
            for rank in (dim - 1, (dim + 1) // 2):
                rng = np.random.default_rng([340, dim, rank])
                a, b = _well_conditioned_pd(dim, rng), _rank_deficient(dim, rank, rng)
                got = apply(conn, SymMatrix(a), SymMatrix(b)).data
                want = _anderson_duffin(atoms, a, b)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (dim, rank)
        assert around == []

    @pytest.mark.parametrize("name", _ATOM_ROUTE)
    def test_positive_definite_left_takes_the_atom_route_at_every_dim(
        self, monkeypatch, name
    ):
        atom_apply = connections._atom_apply
        calls = _record_atom_route(monkeypatch)
        conn, _ = _ATOM_ROUTE[name]
        for dim in range(1, 17):
            rng = np.random.default_rng([332, dim])
            a, b = random_pd(dim, rng), random_pd(dim, rng)
            want = SymMatrix(atom_apply(conn._atoms, a.data, b.data, None)).data
            calls.clear()
            assert np.array_equal(apply(conn, a, b).data, want), dim
            assert calls == [(dim, dim)], dim

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 8, 15])
    def test_singular_left_tries_the_certificate_once(self, monkeypatch, dim):
        # The Cholesky certificate, which A fails, then one eigenvalue solve
        # per operand decides the pivots; A is never eigendecomposed.
        conn = make_builtin("harmonic", 0.5)
        rank = min(5, dim - 1)
        a, b = _rank_deficient(dim, rank, np.random.default_rng([337, dim])), 2.0 * np.eye(dim)
        calls = _record_solvers(monkeypatch)
        got = apply(conn, SymMatrix(a), SymMatrix(b)).data
        assert calls == ["cholesky", "eigvalsh", "eigvalsh"]
        assert np.array_equal(got, connections._atom_apply(conn._atoms, a, b, None))

    def test_declined_pair_solves_each_spectrum_once(self, monkeypatch):
        # Both operands are singular, so the atom route declines the pair,
        # and the step around A + B takes the spectra that decided it.  A
        # connection without atoms solves them in that step.
        a, b = SymMatrix.diagonal([1.0, 0.0, 1.0]), SymMatrix.diagonal([0.0, 1.0, 1.0])
        calls = _record_solvers(monkeypatch)
        got = apply(make_builtin("harmonic", 0.5), a, b).data
        assert calls == ["cholesky", "eigvalsh", "eigvalsh", "eigh", "eigh"]
        assert np.abs(got - np.diag([0.0, 0.0, 1.0])).max() <= 1e-15
        calls.clear()
        apply(make_builtin("geometric", 0.25), a, b)
        assert calls == ["eigh", "eigh", "eigvalsh", "eigvalsh"]

    @pytest.mark.parametrize("name", ["harmonic(0.25)", "parallel_sum", "two_atoms"])
    @pytest.mark.parametrize("dim", [8, 16, 33])
    def test_stack_equals_the_per_pair_evaluation(self, dim, name):
        # Rank-deficient left or right operands take the atom route; a pair
        # with both operands singular sends the stack pair by pair.
        conn, _ = _ATOM_ROUTE[name]
        a, b = _pd_stack(6, dim, [333, dim])
        rng = np.random.default_rng([334, dim])
        a[1] = _rank_deficient(dim, dim - 1, rng)
        b[3] = _rank_deficient(dim, dim // 2, rng)
        stacks = [(a, b)]
        both = a.copy(), b.copy()
        both[0][4] = both[1][4] = _rank_deficient(dim, dim // 2, rng)
        stacks.append(both)
        for x, y in stacks:
            out = conn._apply_stack(x, y, DEFAULT_TOL)
            for i in range(len(x)):
                assert np.array_equal(out[i], conn._apply_raw(x[i], y[i], DEFAULT_TOL)), i

    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_left_operand_blamed_first(self, monkeypatch, n):
        conn = make_builtin("harmonic", 0.5)
        i, j = 3 % n, 5 % n
        a, b = np.eye(n), np.eye(n)
        a[i, i], b[j, j] = -0.5, -2.0
        with pytest.raises(NotPSDError) as alone:
            _psd_scale(np.linalg.eigvalsh(a), DEFAULT_TOL, "left operand")
        for stack in (False, True):
            with pytest.raises(NotPSDError) as both:
                if stack:
                    conn._apply_stack(a[None], b[None], DEFAULT_TOL)
                else:
                    apply(conn, SymMatrix(a), SymMatrix(b))
            assert str(both.value) == str(alone.value)
        with pytest.raises(NotPSDError, match="right operand"):
            apply(conn, SymMatrix(np.eye(n)), SymMatrix(b))

        # On a failure of the stacked eigenvalue solve, the separate checks
        # still blame the left operand before the right one's solver failure.
        marker = 7.25
        _fail_eigvalsh_on(monkeypatch, marker)
        _fail_cholesky_near(monkeypatch, marker)
        b = np.eye(n)
        b[j, j] = marker
        with pytest.raises(NotPSDError) as both:
            apply(conn, SymMatrix(a), SymMatrix(b))
        assert str(both.value) == str(alone.value)
        with pytest.raises(EigenSolverError, match="right operand"):
            apply(conn, SymMatrix(np.eye(n)), SymMatrix(b))

    def test_order_of_end_atoms_does_not_matter(self):
        # The ends are summed first, w0 A + w1 B, in the record's order.
        listed = connection_from_measure(_THREE_ATOMS)
        reordered = connection_from_measure(
            BorelMeasure(atoms=((1.0, 0.25), (0.5, 0.5), (0.0, 0.25)))
        )
        for dim in range(1, 34):
            for seed in range(5):
                rng = np.random.default_rng([339, dim, seed])
                a, b = random_pd(dim, rng), random_pd(dim, rng)
                got, want = (apply(c, a, b).data.view(np.uint64) for c in (reordered, listed))
                assert np.array_equal(got, want), dim

    def test_three_interior_atoms_take_the_step_around_the_sum(self, monkeypatch):
        calls = _record_atom_route(monkeypatch)
        mu = BorelMeasure(atoms=((0.25, 0.25), (0.5, 0.5), (0.75, 0.25)))
        conn = connection_from_measure(mu)
        assert conn._atoms is None
        a, b = _pd_stack(1, 32, 335)
        got = apply(conn, SymMatrix(a[0]), SymMatrix(b[0])).data
        want = _anderson_duffin(mu.atoms, a[0], b[0])
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert calls == []

    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_near_singular_pivot_takes_the_step_around_the_sum(self, monkeypatch, n):
        # A's eigenvalue -1.01e-11 is inside the PSD slack, and B's
        # smallest, 1e-9 (1 + 1e-7), just clears the positive-definite
        # threshold; along that direction the pivot 0.99 A + 0.01 B has the
        # eigenvalue 1e-18.  Solving with it would amplify A's slack
        # eigenvalue, so the atom route declines the pair, and the step
        # around A + B counts that eigenvalue as 0.
        calls = _record_atom_route(monkeypatch)
        u = _rotation(n, np.random.default_rng(336))
        wa, wb = np.ones(n), np.ones(n)
        wa[0], wb[0] = -1.01e-11, 1.0000001e-9
        a, b = (u * wa) @ u.T, (u * wb) @ u.T
        got = apply(make_builtin("harmonic", 0.99), SymMatrix(a), SymMatrix(b)).data
        clipped = np.maximum(wa, 0.0)
        want = (u * (clipped * wb / (0.99 * clipped + 0.01 * wb))) @ u.T
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert calls == []


SLACK = DEFAULT_TOL.psd_slack

# Multiples of psd_slack * S at which a pair's smallest eigenvalue is put;
# the certificate passes pairs above 2.
_MARGIN_MULTIPLES = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)


def _certificate_scale(a, b):
    """The scale S of ``_certified_pd`` for the stack [a, b]."""
    return max(1.0, a.shape[-1] * max(np.abs(a).max(), np.abs(b).max()))


def _margin_pairs(n, cond, seed, multiples=_MARGIN_MULTIPLES):
    """(multiple, side, A, B) for each multiple c in ``multiples`` and
    each side: the operand on that side (0 left, 1 right) has eigenvalues
    in [0.5, 2] with the smallest moved to c psd_slack S, and the other has
    eigenvalues spaced geometrically from 2 / cond to 2."""
    rng = np.random.default_rng(seed)
    for c in multiples:
        for side in (0, 1):
            q = [_rotation(n, rng) for _ in range(2)]
            values = [rng.uniform(0.5, 2.0, n), np.geomspace(2.0 / cond, 2.0, n)]
            if side:
                values.reverse()
            values[side][0] = 0.0
            ops = [(u * v) @ u.T for u, v in zip(q, values)]
            values[side][0] = c * SLACK * _certificate_scale(*ops)
            a, b = (connections._sym((u * v) @ u.T) for u, v in zip(q, values))
            yield c, side, a, b


def _outcome(call):
    """The result of call(), or the type and text of what it raised."""
    try:
        return call()
    except (NotPSDError, EigenSolverError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for i, (x, y) in enumerate(zip(got, want)):
        if isinstance(y, np.ndarray):
            assert isinstance(x, np.ndarray) and np.array_equal(x, y), i
        else:
            assert x == y, i


class TestRoutingTable:
    """A stack of three pairs of one kind gives its pairs' results bit for
    bit, and takes their routes: one atom-route call for the whole stack
    when every pair takes that route; for a connection without atoms, one
    stacked step around A + B, which hands a stack with a singular operand
    to the pairs' own calls; and otherwise the pairs' own calls.  Each
    result matches its oracle."""

    # Each connection with its atoms, or None for geometric(1/4).
    CONNS = {
        "arithmetic(0.25)": (make_builtin("arithmetic", 0.25), ((0.0, 0.75), (1.0, 0.25))),
        "harmonic(0.75)": (make_builtin("harmonic", 0.75), ((0.75, 1.0),)),
        "two_atoms": (connection_from_measure(_TWO_ATOMS), _TWO_ATOMS.atoms),
        "geometric(0.25)": (make_builtin("geometric", 0.25), None),
    }

    @staticmethod
    def _record(monkeypatch):
        calls = []
        atom_apply = connections._atom_apply
        around_sum = connections._FunctionBackedConnection._around_sum

        def atom(atoms, a, b, spectra):
            calls.append(("atom", a.shape))
            return atom_apply(atoms, a, b, spectra)

        def around(self, a, b, tol, spectra=None):
            calls.append(("around_sum", a.shape))
            return around_sum(self, a, b, tol, spectra)

        monkeypatch.setattr(connections, "_atom_apply", atom)
        monkeypatch.setattr(connections._FunctionBackedConnection, "_around_sum", around)
        return calls

    @staticmethod
    def _oracle(atoms, kind, a, b):
        if atoms is not None:
            return _anderson_duffin(atoms, a, b)
        null = a.shape[0] - a.shape[0] // 2
        return _geometric_around_sum(
            0.25, a, b, null if kind == "singular_left" else 0,
            null if kind == "singular_right" else 0,
        )

    @pytest.mark.parametrize("kind", ["pd", "singular_left", "singular_right"])
    @pytest.mark.parametrize("dim", [2, 8, 16, 33])
    @pytest.mark.parametrize("name", CONNS)
    def test_stack_takes_its_pairs_routes(self, monkeypatch, name, dim, kind):
        conn, atoms = self.CONNS[name]
        calls = self._record(monkeypatch)
        rng = np.random.default_rng([338, dim])
        a, b = _pd_stack(3, dim, [339, dim])
        for i in range(3):
            if kind == "singular_left":
                a[i] = _rank_deficient(dim, dim // 2, rng)
            elif kind == "singular_right":
                b[i] = _rank_deficient(dim, dim // 2, rng)
        want = [conn._apply_raw(x, y, DEFAULT_TOL) for x, y in zip(a, b)]
        for x, y, z in zip(a, b, want):
            oracle = self._oracle(atoms, kind, x, y)
            assert np.linalg.norm(z - oracle) <= 1e-12 * np.linalg.norm(oracle)
        pair_calls = list(calls)
        calls.clear()
        _assert_same_outcomes(list(conn._apply_stack(a, b, DEFAULT_TOL)), want)
        if atoms is None:
            assert calls == [("around_sum", a.shape)] + (pair_calls if kind != "pd" else [])
        elif pair_calls == [("atom", a.shape[1:])] * 3:
            assert calls == [("atom", a.shape)]
        else:
            assert calls == pair_calls


class TestPositiveDefiniteCertificate:
    """``_certified_pd`` only saves the eigenvalue check: every result,
    route and error is the one the eigenvalue rule alone gives."""

    CONNS = (
        make_builtin("arithmetic", 0.25),
        make_builtin("harmonic", 0.75),
        connection_from_measure(_TWO_ATOMS),
    )

    def _outcomes(self, pairs, calls):
        out = []
        for conn in self.CONNS:
            for _, _, a, b in pairs:
                out.append(_outcome(lambda: conn._apply_raw(a, b, DEFAULT_TOL)))
                if conn._atoms is not None:
                    out.append(_outcome(lambda: conn._takes_atom_route(
                        connections._operand_spectra(a, b, DEFAULT_TOL), DEFAULT_TOL
                    )))
            # Each multiple's two pairs as one stack.
            for i in range(0, len(pairs), 2):
                a = np.stack([pairs[i][2], pairs[i + 1][2]])
                b = np.stack([pairs[i][3], pairs[i + 1][3]])
                out.append(_outcome(lambda: conn._apply_stack(a, b, DEFAULT_TOL)))
        out.append(list(calls))
        calls.clear()
        return out

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 16, 33, 64])
    def test_same_outcomes_as_the_eigenvalue_rule(self, monkeypatch, n):
        calls = _record_atom_route(monkeypatch)
        certified = 0
        for cond in (1.0, 1e4, 1e8, 1e12):
            pairs = list(_margin_pairs(n, cond, [330, n, int(math.log10(cond))]))
            for c, _, a, b in pairs:
                certified += _certified_pd(np.stack([a, b]), DEFAULT_TOL)
                # At exactly 2 rounding decides.
                if cond == 1.0 and c != 2.0:
                    assert _certified_pd(np.stack([a, b]), DEFAULT_TOL) == (c > 2.0)
            with monkeypatch.context() as m:
                got = self._outcomes(pairs, calls)
                m.setattr(connections, "_certified_pd", lambda x, tol: False)
                want = self._outcomes(pairs, calls)
            _assert_same_outcomes(got, want)
        assert certified > 0

    @pytest.mark.parametrize("conn", CONNS[:2] + (make_builtin("parallel_sum"),), ids=repr)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_positive_definite_pair_is_certified_at_small_dims(self, monkeypatch, conn, n):
        # The affine and the atom route check a single pair by one Cholesky
        # factorization at every dim, and solve no eigenvalues.
        rng = np.random.default_rng([342, n])
        a, b = random_pd(n, rng), random_pd(n, rng)
        calls = _record_solvers(monkeypatch)
        apply(conn, a, b)
        assert calls == ["cholesky"]

    def test_nothing_certified_where_rounding_could_reach_the_slack(self):
        assert not _certified_pd(np.eye(2)[None], Tolerances(psd_slack=0.0))
        # 4 (n + 1)^2 eps passes 1e-12 from n = 33, and 1e-9 from n = 1061.
        tight = Tolerances(psd_slack=1e-12)
        assert _certified_pd(np.eye(32), tight)
        assert not _certified_pd(np.eye(33), tight)
        assert not _certified_pd(np.eye(1061), DEFAULT_TOL)

    @pytest.mark.parametrize("n", [2, 16, 33])
    @pytest.mark.parametrize("size", [1e200, 1e307])
    def test_huge_entries_raise_no_warning(self, monkeypatch, n, size):
        # At 1e307 and dim 33, n times the largest entry overflows, and the
        # eigenvalue check decides.
        rng = np.random.default_rng([331, n])
        a, b = (x / np.abs(x).max() * size for x in (random_pd(n, rng).data for _ in "ab"))
        conn = make_builtin("arithmetic", 0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            overflows = n * size > np.finfo(float).max
            assert _certified_pd(np.stack([a, b]), DEFAULT_TOL) != overflows
            got = conn._apply_raw(a, b, DEFAULT_TOL)
            monkeypatch.setattr(connections, "_certified_pd", lambda x, tol: False)
            assert np.array_equal(got, conn._apply_raw(a, b, DEFAULT_TOL))


class TestOperandSpectra:
    """``_operand_spectra`` on pairs and stacks that the certificate does not
    vouch for: each operand's own ``np.linalg.eigvalsh``, bit for bit, or
    the error that checking the left operand and then the right one raises."""

    # The multiples of the ``apply/<name>@margin`` lines of report_digest.py.
    MULTIPLES = (-1.0, 0.0, 1.0, 1.5, 2.5, 4.0)

    @staticmethod
    def _per_operand(a, b):
        spectra = []
        for x, label in ((a, "left operand"), (b, "right operand")):
            w = np.linalg.eigvalsh(x)
            for item in w.reshape(-1, w.shape[-1]):
                _psd_scale(item, DEFAULT_TOL, label)
            spectra.append(w)
        return tuple(spectra)

    @pytest.mark.parametrize("n", [2, 16, 33])
    def test_each_operand_is_checked_alone_left_first(self, monkeypatch, n):
        pairs = [(a, b) for _, _, a, b in _margin_pairs(n, 4.0, [343, n], self.MULTIPLES)]
        # Each multiple's two pairs, with the left and then the right
        # operand at the margin, as one stack.
        stacks = [
            (np.stack([a0, a1]), np.stack([b0, b1]))
            for (a0, b0), (a1, b1) in zip(pairs[::2], pairs[1::2])
        ]
        rng = np.random.default_rng([344, n])
        pd = random_pd(n, rng).data
        singular = _rank_deficient(n, n // 2, rng)
        u = _rotation(n, rng)
        # Outside the cone, with different smallest eigenvalues.
        left_bad, right_bad = (
            connections._sym((u * np.r_[-c, np.ones(n - 1)]) @ u.T) for c in (0.5, 0.25)
        )
        pairs += [
            (singular, pd),
            (pd, singular),
            (singular, singular),
            (left_bad, pd),
            (pd, right_bad),
            (left_bad, right_bad),
        ]
        stacks.append((np.stack([left_bad, pd]), np.stack([pd, right_bad])))
        monkeypatch.setattr(connections, "_certified_pd", lambda x, tol: False)
        raised = 0
        for a, b in pairs + stacks:
            got = _outcome(lambda: connections._operand_spectra(a, b, DEFAULT_TOL))
            want = _outcome(lambda: self._per_operand(a, b))
            assert type(got) is type(want)
            if isinstance(want, str):
                raised += 1
                assert got == want
            else:
                _assert_same_outcomes(list(got), list(want))
        # The two pairs at -1 and their stack, and the four cases outside
        # the cone.
        assert raised == 7


class TestRightOperandOnTheCongruence:
    """Where C = X^+ A X^+^T of the step around S = A + B cannot vouch for
    the operands, an eigenvalue of C near 1 or beyond it among them, B's own
    spectrum is checked, so a B outside the cone is refused by name."""

    A = np.diag([1e6, 1.0])
    B = np.diag([-1e-3, 1.0])

    def test_clipped_spectrum_checks_b(self):
        geo = make_builtin("geometric", 0.5)
        with pytest.raises(NotPSDError) as info:
            apply(geo, SymMatrix(self.A), SymMatrix(self.B))
        assert str(info.value).startswith("right operand is not positive semidefinite")
        assert info.value.min_eigenvalue == -1e-3
        with pytest.raises(NotPSDError) as stacked:
            geo._apply_stack(np.stack([self.A, self.A]), np.stack([np.eye(2), self.B]), DEFAULT_TOL)
        assert str(stacked.value) == str(info.value)

    def test_singular_left_checks_b(self):
        with pytest.raises(NotPSDError, match="right operand") as info:
            apply(make_builtin("geometric", 0.5), SymMatrix.diagonal([1e6, 0.0]), SymMatrix(self.B))
        assert info.value.min_eigenvalue == -1e-3

    @pytest.mark.parametrize("case", ["pair", "stack", "singular_left"])
    def test_b_beyond_the_slack_is_blamed_by_name(self, case):
        # For a PD or a singular A, in a pair or a stack, B is named.
        geo = make_builtin("geometric", 0.5)
        b = np.diag([-1.0, 1.0])
        with pytest.raises(NotPSDError) as own:
            _psd_scale(np.linalg.eigvalsh(b), DEFAULT_TOL, "right operand")
        a = np.diag([1.0, 0.0]) if case == "singular_left" else np.array([[2.0, 0.5], [0.5, 1.0]])
        with pytest.raises(NotPSDError) as info:
            if case == "stack":
                geo._apply_stack(np.stack([a, a]), np.stack([np.eye(2), b]), DEFAULT_TOL)
            else:
                geo._apply_raw(a, b, DEFAULT_TOL)
        assert str(info.value) == str(own.value)
        assert info.value.min_eigenvalue == own.value.min_eigenvalue == -1.0

    def test_psd_b_keeps_its_value(self, monkeypatch):
        checked = []
        checked_spectrum = connections._checked_spectrum
        monkeypatch.setattr(
            connections,
            "_checked_spectrum",
            lambda x, tol, label: checked.append(x) or checked_spectrum(x, tol, label),
        )
        rng = np.random.default_rng(332)
        geo = make_builtin("geometric", 0.5)

        def assert_value(a, b, null):
            got = apply(geo, SymMatrix(a), SymMatrix(b)).data
            want = _geometric_around_sum(0.5, a, b, 0, null)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

        for n in (2, 8):
            assert_value(random_pd(n, rng).data, random_pd(n, rng).data, 0)
        # C vouches for positive-definite pairs, which skip the check.
        assert checked == []
        for n in (2, 8):
            a = random_pd(n, rng).data
            g = rng.standard_normal((n, n - 1))
            assert_value(a, g @ g.T, 1)


def _geometric_mean_2x2(a, b):
    """A # B for positive-definite 2 x 2 A and B in closed form:
    sqrt(alpha beta) M / sqrt(det M) with M = A / alpha + B / beta, alpha =
    sqrt(det A) and beta = sqrt(det B) (Bhatia, Positive Definite Matrices,
    Prop. 4.1.12)."""
    alpha, beta = np.sqrt(np.linalg.det(a)), np.sqrt(np.linalg.det(b))
    m = a / alpha + b / beta
    return np.sqrt(alpha * beta) * m / np.sqrt(np.linalg.det(m))


class TestPositiveDefiniteThreshold:
    """With scale 1, diag([psd_slack, 1]) sits exactly on the threshold of
    the positive-definite rule, which it does not clear; the PSD rule admits
    a smallest eigenvalue down to -psd_slack."""

    ON = SymMatrix.diagonal([SLACK, 1.0])
    ABOVE = SymMatrix.diagonal([2.0 * SLACK, 1.0])
    PSD_EDGE = SymMatrix.diagonal([-SLACK, 1.0])
    BELOW = SymMatrix.diagonal([-2.0 * SLACK, 1.0])
    B = SymMatrix([[2.0, 0.5], [0.5, 1.0]])

    @pytest.mark.parametrize("a", ["ON", "ABOVE"])
    def test_geometric_mean_matches_the_closed_form(self, a):
        # On the threshold and above it, A is positive definite.
        a = getattr(self, a)
        got = apply(make_builtin("geometric", 0.5), a, self.B).data
        want = _geometric_mean_2x2(a.data, self.B.data)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

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
        # Item 1, on the threshold, has a value for both kinds, and the
        # first failure is item 3's right operand.
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
    # A transpose's g of a builtin or a measure is its perspective H(x, 1),
    # a closed form on arrays.
    CONNECTIONS.update(
        {f"transpose_{name}": transpose(conn) for name, conn in CONNECTIONS.items()}
    )

    @pytest.mark.parametrize("conn", CONNECTIONS.values(), ids=CONNECTIONS.keys())
    def test_matches_scalar_fn(self, conn):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = conn.repr_function.fn(np.array(self.POINTS))
        want = np.array([conn.fn(x) for x in self.POINTS])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        for x in self.POINTS:
            assert type(conn.fn(x)) is float, x
            assert type(repr_fn_eval(conn, x)) is float, x


def _closed_form(kind, weight):
    """Each builtin's representing function as a closed form: the reference
    that the functions built from ``_builtin_atoms`` match bit for bit."""
    a = weight
    if kind == "left_trivial" or (kind == "harmonic" and a == 0.0):
        return ReprFunction(np.ones_like, 1.0, 1.0)
    if kind == "right_trivial":
        return ReprFunction(lambda x: x, 0.0, 1.0)
    if kind == "arithmetic":
        return ReprFunction(lambda x: (1.0 - a) + a * x, 1.0 - a, 1.0)
    if kind == "geometric":
        return ReprFunction(lambda x: x**a, 1.0 if a == 0.0 else 0.0, 1.0)
    if kind == "harmonic":
        return ReprFunction(lambda x: x / ((1.0 - a) * x + a), 0.0, 1.0)
    if kind == "logarithmic":
        return ReprFunction(connections._log_mean, 0.0, 1.0)
    if kind == "parallel_sum":
        return ReprFunction(lambda x: x / (1.0 + x), 0.0, 0.5)
    if kind == "sum":
        return ReprFunction(lambda x: 1.0 + x, 1.0, 2.0)
    assert kind == "zero"
    return ReprFunction(np.zeros_like, 0.0, 0.0)


class TestBuiltinFunctionsFromAtoms:
    """Every builtin's f, its array form and its values at 0 and 1 are the
    closed forms' bit for bit, where f is built from the builtin's atoms.
    -0.0 is not a point: calling f at 0 returns ``f_at_0``, and the step
    around A + B evaluates f only at points d / c with c > 0 and d >= 0."""

    POINTS = np.concatenate(
        [
            [0.0, 5e-324, 1e-310, 1e-16, 0.5, 1.0, 2.0, 1e16, 1e300, 1.7e308],
            np.exp(np.random.default_rng(25).uniform(-40.0, 40.0, 400)),
        ]
    )

    @pytest.mark.parametrize(
        "kind,weight",
        [
            (kind, weight)
            for kind in BUILTIN_KINDS
            for weight in (
                (0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.7, 0.75, 0.9, 1.0)
                if kind in WEIGHTED_KINDS
                else (None,)
            )
        ],
    )
    def test_matches_the_closed_form_bit_for_bit(self, kind, weight):
        conn = make_builtin(kind, weight)
        got, want = conn.repr_function, _closed_form(kind, weight)
        assert got.f_at_0.hex() == want.f_at_0.hex()
        assert got.f_at_1.hex() == want.f_at_1.hex()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.broadcast_to(conn._perspective(1.0, self.POINTS), self.POINTS.shape)
        reference = np.broadcast_to(want.fn(self.POINTS), self.POINTS.shape)
        assert values.dtype == np.float64
        assert np.array_equal(values.view(np.uint64), reference.view(np.uint64))
        for x in self.POINTS.tolist():
            assert float(got.fn(x)).hex() == float(want.fn(x)).hex(), x
            assert conn.fn(x).hex() == want(x).hex(), x


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

    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_double_transpose_applies_bit_for_bit(self, dim):
        # Reflecting twice gives back the connection's own route and f:
        # harmonic(0.1)'s atom would not survive, as 1 - (1 - t) != t.
        assert 1.0 - (1.0 - 0.1) != 0.1
        rng = np.random.default_rng([26, dim])
        a, b = (_well_conditioned_pd(dim, rng) for _ in range(2))
        singular = _rank_deficient(dim, dim // 2, rng)
        conns = standard_battery() + [
            ("harmonic(0.1)", make_builtin("harmonic", 0.1)),
            ("arcsine", connection_from_measure(measure_of_builtin("geometric", 0.5))),
            ("two_atoms", connection_from_measure(_TWO_ATOMS)),
            ("user_function", connection_from_function(math.sqrt)),
        ]
        for name, conn in conns:
            twice = transpose(transpose(conn))
            for x, y in ((a, b), (singular, b), (a, singular)):
                x, y = SymMatrix(x), SymMatrix(y)
                got = _outcome(lambda: apply(twice, x, y).data.view(np.uint64))
                want = _outcome(lambda: apply(conn, x, y).data.view(np.uint64))
                _assert_same_outcomes([got], [want])

    @pytest.mark.parametrize("name", TestArrayForm.CONNECTIONS)
    def test_reflected_function_is_x_f_of_reciprocal(self, name):
        conn = TestArrayForm.CONNECTIONS[name]
        g = transpose(conn)
        for x in AUDIT_GRID + (1e-300, 1e300):
            assert g.fn(x) == pytest.approx(x * conn.fn(1.0 / x), rel=1e-14), x

    def test_transpose_of_harmonic_takes_the_reflected_atom_route(self, monkeypatch):
        t = transpose(make_builtin("harmonic", 0.25))
        assert t._atoms == (0.0, 0.0, ((0.75, 0.25, 1.0),))
        seen = []
        atom_apply = connections._atom_apply

        def recording(atoms, a, b, spectra):
            seen.append(atoms)
            return atom_apply(atoms, a, b, spectra)

        monkeypatch.setattr(connections, "_atom_apply", recording)
        rng = np.random.default_rng(260)
        a, b = (_well_conditioned_pd(4, rng) for _ in range(2))
        got = apply(t, SymMatrix(a), SymMatrix(b)).data
        assert seen == [(0.0, 0.0, ((0.75, 0.25, 1.0),))]
        want = _anderson_duffin(((0.25, 1.0),), b, a)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_every_transpose_keeps_its_type_and_inner(self):
        # Through either constructor, also of a connection with its own
        # evaluator, a transpose runs the package's evaluator; a copy keeps
        # the class it copies.
        cases = [
            make_builtin("geometric", 0.25),
            connection_from_function(math.sqrt),
            _Product(),
            _OwnEvaluator(math.sqrt),
        ]
        cases += [conn for _, conn in _stack_cases()]
        for inner in cases:
            for t in (transpose(inner), connections.TransposeConnection(inner)):
                assert type(t) is connections.TransposeConnection
                assert connections._returns_symmetric(t)
                assert t.inner is inner
                clone = copy.copy(t)
                assert type(clone) is type(t) and clone.inner is inner

    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_singular_left_with_positive_definite_right_is_the_inner_on_the_swap(self, dim):
        # Where only B is positive definite, A sigma^T B = B sigma A =
        # B^{1/2} f(B^{-1/2} A B^{-1/2}) B^{1/2}, with A's kernel exactly 0.
        rng = np.random.default_rng([264, dim])
        a = _rank_deficient(dim, dim // 2, rng)
        b = _well_conditioned_pd(dim, rng)
        for conn in (
            make_builtin("geometric", 0.25),
            make_builtin("logarithmic"),
            connection_from_measure(measure_of_builtin("geometric", 0.5)),
            connection_from_function(math.sqrt),
        ):
            got = apply(transpose(conn), SymMatrix(a), SymMatrix(b)).data
            want = _around_pd(_scalar_form(conn), b, a, dim - dim // 2)
            swapped = apply(conn, SymMatrix(b), SymMatrix(a)).data
            for value in (want, swapped):
                assert np.linalg.norm(got - value) <= 1e-12 * np.linalg.norm(want), conn
        if dim == 1:
            return
        # Both singular on different eigenvectors, A + B positive definite:
        # the atom route declines the pair, and the step around A + B gives
        # B !_{1/2} A, 2 a b / (a + b) on the shared eigenvectors.
        u = _rotation(dim, rng)
        wa, wb = rng.uniform(0.5, 2.0, (2, dim))
        wa[0] = wb[1] = 0.0
        a, b = (u * wa) @ u.T, (u * wb) @ u.T
        conn = make_builtin("harmonic", 0.5)
        got = apply(transpose(conn), SymMatrix(a), SymMatrix(b)).data
        want = (u * (2.0 * wa * wb / (wa + wb))) @ u.T
        swapped = apply(conn, SymMatrix(b), SymMatrix(a)).data
        for value in (want, swapped):
            assert np.linalg.norm(got - value) <= 1e-12 * np.linalg.norm(want)

    def test_transposed_user_function_matches_it_on_the_swapped_pair(self):
        # The transpose runs the package's evaluator on the caller's own
        # pair with f's perspective swapped, d f(c/d), whose value at d = 0
        # is probed as lim f(y)/y; it is f on (B, A) to round-off.
        user, geometric = connection_from_function(math.sqrt), make_builtin("geometric", 0.5)
        rng = np.random.default_rng(263)
        a = SymMatrix(_well_conditioned_pd(4, rng))
        b = SymMatrix(_rank_deficient(4, 2, rng))
        tiny = SymMatrix.diagonal([1.0, 1e-310])
        for x, y in ((a, b), (b, a), (SymMatrix.identity(2), tiny)):
            got = apply(transpose(user), x, y).data
            want = apply(user, y, x).data
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            assert np.abs(got - apply(geometric, x, y).data).max() <= 1e-5

    @pytest.mark.parametrize("dim", [1, 2, 8])
    def test_transpose_of_an_own_evaluator_is_its_f_on_the_swapped_pair(self, dim):
        # The inner's own evaluator, A B, is not run: the transpose is
        # sqrt's perspective swapped, geometric(1/2) on (B, A).
        t, geometric = transpose(_OwnEvaluator(math.sqrt)), make_builtin("geometric", 0.5)
        rng = np.random.default_rng([265, dim])
        a, b = random_pd(dim, rng), random_pd(dim, rng)
        got, want = apply(t, a, b).data, apply(geometric, b, a).data
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_user_functions_error_on_one_point_is_its_own(self):
        # fn of a transpose, and of a double transpose, is one call of f,
        # whose error is not renamed as one on a spectrum.
        def f(x):
            if 2.0 < x < 4.0:
                raise ArithmeticError("out of domain")
            return math.sqrt(x)

        once = transpose(connection_from_function(f))
        for conn, x in ((once, 1.0 / 3.0), (transpose(once), 3.0)):
            with pytest.raises(ArithmeticError, match="^out of domain$"):
                conn.fn(x)

    def test_subnormal_argument_never_gives_inf(self):
        # A transposed user function's g(x) = x * f(1/x) needs 1/x, which
        # overflows below about 5.6e-309; g must then name x rather than
        # return inf.  Just above, it is exact.
        t = transpose(connection_from_function(lambda x: x**0.25))
        with pytest.raises(ValueError, match="1e-310"):
            t.fn(1e-310)
        assert t.fn(1e-300) == pytest.approx(1e-300**0.75, rel=1e-12)
        # A builtin's g is a closed form, x^(3/4) here, with no 1/x.
        geometric = transpose(make_builtin("geometric", 0.25))
        assert geometric.fn(1e-310) == pytest.approx(1e-310**0.75, rel=1e-12)

    def test_zero_limit(self):
        t = transpose(make_builtin("parallel_sum"))
        # g(x) = x * (1/x)/(1 + 1/x) = x/(x + 1), so g(0) = 0
        assert t.fn(0.0) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize(
        "kind,weight",
        [
            (kind, weight)
            for kind in BUILTIN_KINDS
            for weight in ((0.0, 0.25, 0.5, 0.75, 1.0) if kind in WEIGHTED_KINDS else (None,))
        ],
    )
    def test_value_at_zero_of_builtins_is_the_slope_at_infinity(self, kind, weight):
        # g(0) = lim f(y)/y: beta for affine f = alpha + beta x, 0 for the
        # curved kinds, whose f grows slower than x.
        if kind == "arithmetic":
            slope = weight
        elif kind in ("right_trivial", "sum") or weight == 1.0:
            slope = 1.0
        else:
            slope = 0.0
        assert transpose(make_builtin(kind, weight)).fn(0.0) == slope

    def test_value_at_zero_of_measures_is_the_atom_at_one(self):
        arcsine = connection_from_measure(measure_of_builtin("geometric", 0.5))
        assert transpose(arcsine).fn(0.0) == 0.0
        assert transpose(connection_from_measure(_THREE_ATOMS)).fn(0.0) == 0.25

    def test_value_at_zero_of_a_double_transpose_is_the_inner_value(self):
        three_atoms = ("three_atoms", connection_from_measure(_THREE_ATOMS))
        for name, conn in standard_battery() + [three_atoms]:
            assert transpose(transpose(conn)).fn(0.0) == conn.fn(0.0), name
        # A user callable keeps its own value at 0, read or probed once.
        user = connection_from_function(lambda x: x / math.log1p(x))
        assert transpose(transpose(user)).fn(0.0) == user.fn(0.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_builtin("geometric", 0.5),
            lambda: make_builtin("harmonic", 0.25),
            lambda: make_builtin("arithmetic", 0.3),
            lambda: connection_from_function(math.sqrt),
            lambda: _Product(),
            lambda: _OwnEvaluator(math.sqrt),
        ],
        ids=["around_sum", "atom", "affine", "user_function", "product", "own_evaluator"],
    )
    def test_not_psd_error_names_the_callers_operand(self, make):
        conn = make()
        psd, bad = np.diag([2.0, 1.0]), np.diag([1.0, -1.0])
        # Where both fail, the caller's A is named, as for every connection.
        cases = [(psd, bad, "right"), (bad, psd, "left"), (bad, bad, "left")]
        for t in (transpose(conn), transpose(transpose(transpose(conn)))):
            for a, b, named in cases:
                stacks = np.array([psd, a]), np.array([psd, b])
                calls = [
                    lambda: apply(t, SymMatrix(a), SymMatrix(b)),
                    lambda: t._apply_stack(*stacks, DEFAULT_TOL),
                ]
                for call in calls:
                    with pytest.raises(NotPSDError) as info:
                        call()
                    assert str(info.value).startswith(
                        f"{named} operand is not positive semidefinite: min eigenvalue"
                    ), (t, named)
                    assert info.value.min_eigenvalue == -1.0
                    # The traceback reaches the check that raised.
                    frames = traceback.extract_tb(info.value.__traceback__)
                    assert frames[-1].name == "_psd_scale"
                # An evaluator of its own checks nothing; a double transpose
                # is the package's evaluator on the inner's f.
                if not connections._returns_symmetric(conn):
                    conn = connection_from_function(conn.fn)
                with pytest.raises(NotPSDError) as plain:
                    apply(conn, SymMatrix(a), SymMatrix(b))
                with pytest.raises(NotPSDError) as twice:
                    apply(transpose(transpose(conn)), SymMatrix(a), SymMatrix(b))
                assert str(twice.value) == str(plain.value)

    def test_solver_error_names_the_callers_operand(self, monkeypatch):
        marker = 7.25
        _fail_eigvalsh_on(monkeypatch, marker)
        _fail_cholesky_near(monkeypatch, marker)
        eye, marked = SymMatrix.identity(2), SymMatrix(np.diag([1.0, marker]))
        t = transpose(make_builtin("arithmetic", 0.3))
        failed = "^eigendecomposition failed for {} operand "
        with pytest.raises(EigenSolverError, match=failed.format("right")):
            apply(t, eye, marked)
        with pytest.raises(EigenSolverError, match=failed.format("left")):
            apply(t, marked, eye)

    def test_first_eigendecomposition_is_of_the_sum(self, monkeypatch):
        self._assert_failed_eigh_names(monkeypatch, np.eye(2), 1, "sum of the operands")

    def test_transformed_operand_is_the_callers_left(self, monkeypatch):
        # The second eigendecomposition is of C = X^+ A X^+^T, with the
        # caller's singular A: a transpose runs on the caller's (A, B).
        self._assert_failed_eigh_names(
            monkeypatch, np.diag([1.0, 0.0]), 2, "transformed left operand"
        )

    @staticmethod
    def _assert_failed_eigh_names(monkeypatch, a, call, named):
        seen = []

        def failing_call(x):
            seen.append(x)
            return len(seen) == call

        _fail_solver(monkeypatch, "eigh", failing_call, "Eigenvalues did not converge")
        with pytest.raises(EigenSolverError, match=f"^eigendecomposition failed for {named} "):
            apply(transpose(make_builtin("geometric", 0.5)), SymMatrix(a), SymMatrix.identity(2))


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

    def test_value_at_zero_is_f_of_zero(self):
        assert connection_from_function(math.sqrt).fn(0.0) == 0.0
        # x / log(1 + x) is 0/0 at 0, where the division raises; the value
        # at the probe 1e-12 stands in for the limit 1.
        f = ReprFunction.from_callable(lambda x: x / math.log1p(x))
        assert f.f_at_0 == 1e-12 / math.log1p(1e-12)

    def test_user_sqrt_is_the_geometric_mean_on_singular_right_operands(self):
        # A clipped zero eigenvalue of M takes f_at_0, so a probe value there
        # would put sqrt(1e-12) where the geometric mean has 0.
        user, geo = connection_from_function(math.sqrt), make_builtin("geometric", 0.5)
        rng = np.random.default_rng(612)
        for n in range(2, 9):
            for _ in range(6):
                g = rng.standard_normal((n, n))
                a = SymMatrix(g @ g.T + 0.1 * np.eye(n))
                q = _rotation(n, rng)
                d = rng.uniform(0.1, 2.0, n)
                d[: n // 2] = 0.0
                b = SymMatrix((q * d) @ q.T)
                assert np.array_equal(apply(user, a, b).data, apply(geo, a, b).data)

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
    # Known inaccuracy: the step around A + B rounds b / (a + b) = 2.5e-324
    # up to the smallest subnormal 5e-324, so the result is 2^alpha (about
    # 1.1%) above the exact a^(1-alpha) b^alpha.
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


class TestHugeOperands:
    def test_geometric_mean_of_the_largest_doubles(self):
        a = SymMatrix([[1e308]])
        conn = make_builtin("geometric", 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = apply(conn, a, a).data[0, 0]
        assert got == pytest.approx(1e308, rel=4 * np.finfo(float).eps)
        # The operands were scaled by the smallest power of two that brings
        # 1e308 to at most 2**1000, so the result is the scaled evaluation
        # scaled back, bit for bit.
        scaled = apply(conn, a * 2.0**-24, a * 2.0**-24).data[0, 0]
        assert got == scaled * 2.0**24

    def test_unrepresentable_result_raises(self):
        a = SymMatrix([[1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResultOverflowError) as err:
                apply(make_builtin("sum"), a, a)
        assert err.value.exponent == 24
        assert err.value.scaled[0, 0] == 2.0 * (1e308 * 2.0**-24)

    def test_operands_below_the_threshold_keep_their_bits(self):
        rng = np.random.default_rng(613)
        a, b = (random_pd(3, rng) for _ in range(2))
        # Their squared entries sum to about 2**999, half the threshold.
        a, b = (m * (2.0**499 / frobenius(m)) for m in (a, b))
        conn = make_builtin("geometric", 0.25)
        raw = conn._apply_raw(a.data, b.data, DEFAULT_TOL)
        assert np.array_equal(apply(conn, a, b).data, raw)

    @pytest.mark.parametrize("dim", [1, 2, 8, 128])
    def test_largest_entry_up_to_2_to_the_1000_is_not_scaled(self, dim):
        rng = np.random.default_rng([614, dim])
        m = random_pd(dim, rng).data
        # A's largest entry lies in [2**999, 2**1000), and B's is 2**1000.
        a = np.ldexp(m, 1000 - math.frexp(np.abs(m).max())[1])
        b = 2.0**1000 * np.eye(dim)
        assert 2.0**999 <= np.abs(a).max() < 2.0**1000
        for conn in (make_builtin("geometric", 0.25), make_builtin("harmonic", 0.5)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = apply(conn, SymMatrix(a), SymMatrix(b)).data
                raw = conn._apply_raw(a, b, DEFAULT_TOL)
            assert np.array_equal(got, raw), conn

    @pytest.mark.parametrize("dim", [1, 2, 8])
    @pytest.mark.parametrize("s", [1e-200, 1e-300])
    def test_scaling_never_zeroes_the_smaller_operand(self, dim, s):
        # 1/s is below 2**1000, so nothing is scaled; scaling 1/s into
        # [1, 2) would take s below the smallest double.
        cases = {
            "harmonic": (make_builtin("harmonic", 0.5), ((0.5, 1.0),)),
            "parallel_sum": (make_builtin("parallel_sum"), ((0.5, 0.5),)),
            "two_atoms": (connection_from_measure(_TWO_ATOMS), _TWO_ATOMS.atoms),
        }
        small, large = SymMatrix.identity(dim) * s, SymMatrix.identity(dim) * (1.0 / s)
        # One stack holds both orders, so that one item solves for A.
        stacks = np.stack([small.data, large.data]), np.stack([large.data, small.data])
        for name, (conn, atoms) in cases.items():
            want = _exact_perspective(atoms, s, 1.0 / s)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                stack = conn._apply_stack(*stacks, DEFAULT_TOL)
                got = [
                    (apply(conn, small, large).data, want),
                    (apply(transpose(conn), large, small).data, want),
                    (stack[0], want),
                    (stack[1], _exact_perspective(atoms, 1.0 / s, s)),
                ]
            for out, x in got:
                assert np.count_nonzero(out - np.diag(np.diag(out))) == 0, name
                assert np.diag(out) == pytest.approx([x] * dim, rel=1e-12, abs=0.0), name


def _exact_perspective(atoms, a, b, nodes=((), ())):
    """a f(b/a) of the measure with the atoms (t, w) and the quadrature
    nodes ts and weights ws, in exact rational arithmetic: w a at t = 0,
    w b at t = 1 and w a b / (t a + (1 - t) b) inside (0, 1)."""
    a, b = Fraction(a), Fraction(b)
    total = Fraction(0)
    for t, w in list(atoms) + list(zip(*nodes)):
        t, w = Fraction(float(t)), Fraction(float(w))
        total += w * a * b / (t * a + (1 - t) * b)
    return float(total)


class TestSmallestOperands:
    """A = 1e-310 I and B = I: C's spectrum is 1e-310, where d/c would
    overflow.  Every builtin and measure, and its transpose on (B, A),
    returns the scalar a f(b/a) with no floating-point warning."""

    TINY = 1e-310

    @staticmethod
    def _cases():
        cases = {}
        for kind in BUILTIN_KINDS:
            for weight in (0.0, 0.25, 0.5, 0.75, 1.0) if kind in WEIGHTED_KINDS else (None,):
                cases[f"{kind}({weight})"] = make_builtin(kind, weight)
        cases["arcsine"] = connection_from_measure(measure_of_builtin("geometric", 0.5))
        cases["two_atoms"] = connection_from_measure(BorelMeasure(atoms=((0.3, 0.5), (0.7, 0.4))))
        return cases

    @staticmethod
    def _want(conn, a=TINY, b=1.0):
        if isinstance(conn, MeasureConnection):
            return _exact_perspective(conn.measure.atoms, a, b, conn.measure.density_nodes())
        if conn.kind == "logarithmic":
            return (b - a) / (math.log(b) - math.log(a))
        if conn.kind == "geometric" and 0.0 < conn.weight < 1.0:
            return a ** (1.0 - conn.weight) * b**conn.weight
        return _exact_perspective(connections._builtin_atoms(conn.kind, conn.weight), a, b)

    @pytest.mark.parametrize("name", list(_cases()))
    def test_closed_form_with_no_warning(self, name):
        conn = self._cases()[name]
        tiny, eye = SymMatrix.identity(2) * self.TINY, SymMatrix.identity(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [apply(conn, tiny, eye).data, apply(transpose(conn), eye, tiny).data]
        want = self._want(conn)
        for out in got:
            assert out[0, 1] == out[1, 0] == 0.0
            assert np.diag(out) == pytest.approx([want, want], rel=1e-12, abs=0.0)

    def test_user_function_names_the_overflowing_quotient(self):
        # Only f is given, so d/c = 1e310 has no value to take.
        tiny, eye = SymMatrix.identity(2) * self.TINY, SymMatrix.identity(2)
        user = connection_from_function(math.sqrt)
        message = "representing function: d/c overflows in c f(d/c) at c = [1e-310, 1e-310]"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for conn, a, b in ((user, tiny, eye), (transpose(user), eye, tiny)):
                with pytest.raises(ValueError) as info:
                    apply(conn, a, b)
                assert str(info.value) == message


def _route_cases(dim):
    """(route, connection, A, B, recorder name) for each route at ``dim``;
    the recorder, if any, shows that the pair took the route."""
    rng = np.random.default_rng(dim)
    a, b = random_pd(dim, rng), random_pd(dim, rng)
    singular = SymMatrix(_rank_deficient(dim, dim // 2, rng))
    geometric = make_builtin("geometric", 0.5)
    arcsine = connection_from_measure(measure_of_builtin("geometric", 0.5))
    return [
        ("affine", make_builtin("arithmetic", 0.25), a, b, None),
        ("affine_zero", make_builtin("zero"), a, b, None),
        ("atom", make_builtin("harmonic", 0.5), a, b, "atom"),
        ("around_sum", geometric, a, b, "around_sum"),
        ("around_sum_singular", geometric, singular, b, "around_sum"),
        ("scaled", geometric, a * 2.0**1010, b * 2.0**1010, None),
        ("scaled_atom", make_builtin("parallel_sum"), a * 2.0**1010, b * 2.0**1010, "atom"),
        ("transpose", transpose(make_builtin("geometric", 0.25)), a, b, None),
        ("transpose_atom", transpose(make_builtin("harmonic", 0.25)), a, b, "atom"),
        ("measure", arcsine, a, b, None),
        ("user_function", connection_from_function(math.sqrt), a, b, None),
    ]


class _Product(Connection):
    """A foreign connection whose raw result, A B, is not symmetric."""

    def fn(self, x):
        return x

    def _apply_raw(self, a, b, tol):
        return a @ b


class _OwnEvaluator(connections.FunctionConnection):
    """A user subclass that replaces the package's evaluator."""

    def _apply_raw(self, a, b, tol):
        return a @ b


class _OwnSwap(connections.TransposeConnection):
    """A transpose subclass that replaces the swap with its own."""

    def _apply_raw(self, a, b, tol):
        return self.inner._apply_raw(b, a, tol)


class TestResultWrapping:
    """``apply`` wraps the evaluator's result as it is where the package
    built it symmetric bit for bit, and symmetrizes any other result."""

    @pytest.mark.parametrize("dim", [1, 2, 8])
    def test_every_route_returns_a_bitwise_symmetric_read_only_result(
        self, monkeypatch, dim
    ):
        recorders = {
            "atom": _record_atom_route(monkeypatch),
            "around_sum": _record_around_sum(monkeypatch),
        }
        for route, conn, a, b, recorder in _route_cases(dim):
            seen = {name: len(calls) for name, calls in recorders.items()}
            out = apply(conn, a, b)
            if recorder is not None:
                assert len(recorders[recorder]) > seen[recorder], route
            if route.startswith("scaled"):
                # An entry above 2**1000 makes ``apply`` scale the pair.
                assert np.abs(a.data).max() > 2.0**1000
            assert not out.data.flags.writeable, route
            # The raw bits tell -0.0 from 0.0.
            bits = out.data.view(np.uint64)
            assert np.array_equal(bits, bits.T), route
            # Construction would map the result to itself, signed zeros included.
            assert np.array_equal(SymMatrix(out.data).data.view(np.uint64), bits), route

    def test_signed_zeros_are_kept(self):
        a = SymMatrix([[2.0, -1.0], [-1.0, 2.0]])
        out = apply(make_builtin("zero"), a, a).data
        assert np.signbit(out[0, 1]) and np.signbit(out[1, 0])

    def test_foreign_result_is_symmetrized(self):
        a, b = SymMatrix([[2.0, 1.0], [1.0, 1.0]]), SymMatrix([[1.0, 0.0], [0.0, 3.0]])
        assert not np.array_equal(a.data @ b.data, (a.data @ b.data).T)
        for conn in (_Product(), _OwnEvaluator(lambda x: x)):
            assert np.array_equal(apply(conn, a, b).data, SymMatrix(a.data @ b.data).data)
            # The transpose is the package's evaluator on f(x) = x, whose
            # transpose is left-trivial.
            got = apply(transpose(conn), a, b).data
            assert np.linalg.norm(got - a.data) <= 1e-14 * np.linalg.norm(a.data)

    def test_only_the_package_evaluators_result_is_wrapped_as_it_is(self, monkeypatch):
        a, b = SymMatrix([[2.0, 1.0], [1.0, 1.0]]), SymMatrix([[1.0, 0.0], [0.0, 3.0]])
        own = {
            "builtin": lambda: make_builtin("geometric", 0.5),
            "measure": lambda: connection_from_measure(measure_of_builtin("geometric", 0.5)),
            "user_function": lambda: connection_from_function(math.sqrt),
        }
        foreign = {
            "own_evaluator": lambda: _OwnEvaluator(math.sqrt),
            "product": _Product,
        }
        # Every transpose runs the package's evaluator.
        cases = [
            (prefix + name, wrap(make()), name in own or wrap is transpose)
            for name, make in {**own, **foreign}.items()
            for prefix, wrap in (("", lambda c: c), ("transpose ", transpose))
        ]
        cases += [
            ("double transpose builtin", transpose(transpose(own["builtin"]())), True),
            ("double transpose product", transpose(transpose(_Product())), True),
            ("own swap builtin", _OwnSwap(own["builtin"]()), False),
            ("transpose own swap builtin", transpose(_OwnSwap(own["builtin"]())), True),
        ]
        for name, conn, as_is in cases:
            # An instance attribute records the evaluator's array; the
            # wrapping rule reads the classes' ``_apply_raw``, not this one.
            raws = []
            evaluate = conn._apply_raw
            monkeypatch.setattr(
                conn, "_apply_raw", lambda x, y, tol: raws.append(evaluate(x, y, tol)) or raws[-1]
            )
            out = apply(conn, a, b)
            assert (out.data is raws[-1]) is as_is, name
            assert np.array_equal(out.data, SymMatrix(raws[-1]).data), name

    @pytest.mark.parametrize("dim", [1, 2, 8])
    @pytest.mark.parametrize("scale", [1.0, 2.0**1010])
    def test_non_finite_user_value_raises_as_construction_does(self, dim, scale):
        conn = connection_from_function(lambda x: math.nan if x > 0.0 else 0.0)
        a = SymMatrix.identity(dim) * scale
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            apply(conn, a, a)
