"""Tests for the symmetric-matrix substrate."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from meanskit import linalg
from meanskit.connections import make_builtin
from meanskit.linalg import (
    DEFAULT_TOL,
    DimensionMismatchError,
    EigenSolverError,
    NonConvergenceError,
    NotPSDError,
    SingularMatrixError,
    SymMatrix,
    Tolerances,
    congruence,
    fn_calculus,
    frobenius,
    inv_pd,
    is_psd,
    load_matrix,
    loewner_leq,
    matrix_from_dict,
    matrix_to_dict,
    opnorm,
    regularize_limit,
    save_matrix,
    spectrum,
    sqrt_psd,
)
from meanskit.linalg import _certified_pd, _check_spectra, _eigh, _eye, _psd_scale

# sqrt of [[2,1],[1,2]] by hand: eigenvalues 1, 3 with eigenvectors
# (1,-1)/sqrt2, (1,1)/sqrt2, so the entries are (sqrt3 +- 1)/2.
SQRT_2112 = np.array(
    [
        [(math.sqrt(3) + 1) / 2, (math.sqrt(3) - 1) / 2],
        [(math.sqrt(3) - 1) / 2, (math.sqrt(3) + 1) / 2],
    ]
)


class TestSymMatrix:
    def test_construction_symmetrizes(self):
        m = SymMatrix([[1.0, 4.0], [0.0, 2.0]])
        np.testing.assert_allclose(m.data, [[1.0, 2.0], [2.0, 2.0]])
        assert np.array_equal(m.data, m.data.T)

    def test_entries_read_only(self):
        m = SymMatrix.identity(2)
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            SymMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError):
            SymMatrix(np.zeros((0, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SymMatrix([[np.nan, 0.0], [0.0, 1.0]])
        # An int beyond the largest double is refused as an inf is.
        for big in (math.inf, 10**400):
            for make in (lambda: SymMatrix([[big]]), lambda: SymMatrix.diagonal([big])):
                with pytest.raises(ValueError, match="matrix entries must be finite"):
                    make()

    @pytest.mark.parametrize("big", [math.inf, 10**400], ids=["inf", "int-beyond-double"])
    @pytest.mark.parametrize(
        "op",
        [lambda a, c: a * c, lambda a, c: c * a, lambda a, c: a.shifted(c)],
        ids=["scale", "rscale", "shift"],
    )
    def test_scale_or_shift_by_non_finite_is_refused_without_warning(self, op, big):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                op(SymMatrix.identity(2), big)

    @pytest.mark.parametrize(
        "op",
        [
            lambda: SymMatrix.identity(2) / 0,
            lambda: SymMatrix([[1e300]]) * 1e300,
            lambda: SymMatrix([[1.7e308]]).shifted(1.7e308),
            lambda: SymMatrix([[1.7e308]]) + SymMatrix([[1.7e308]]),
            lambda: SymMatrix([[1.7e308]]) - SymMatrix([[-1.7e308]]),
            lambda: loewner_leq(SymMatrix([[1e308]]), SymMatrix([[-1e308]])),
        ],
        ids=["divide-by-zero", "scale", "shift", "add", "subtract", "loewner-difference"],
    )
    def test_arithmetic_beyond_the_largest_double_is_refused_without_warning(self, op):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                op()

    def test_helpers(self):
        assert SymMatrix.identity(3).dim == 3
        np.testing.assert_allclose(SymMatrix.diagonal([2, 5]).data, np.diag([2.0, 5.0]))
        np.testing.assert_allclose(
            SymMatrix.zeros(2).shifted(0.5).data, 0.5 * np.eye(2)
        )

    def test_arithmetic_checks_dims(self):
        with pytest.raises(DimensionMismatchError):
            SymMatrix.identity(2) + SymMatrix.identity(3)

    def test_scalar_arithmetic(self):
        a = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose((a * 2).data, 2 * a.data)
        np.testing.assert_allclose((a / 2).data, a.data / 2)
        np.testing.assert_allclose((a - a).data, np.zeros((2, 2)))

    @pytest.mark.parametrize("big", [math.inf, 10**400], ids=["inf", "int-beyond-double"])
    def test_division_by_non_finite_gives_zero(self, big):
        a = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
        assert np.array_equal((a / big).data, np.zeros((2, 2)))

    def test_large_finite_entries_stay_finite(self):
        big = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = SymMatrix([[1e308, big], [0.5 * big, -big]])
        assert m.data.tolist() == [[1e308, 0.75 * big], [0.75 * big, -big]]

    def test_entries_without_overflow_keep_their_bits(self):
        rng = np.random.default_rng(47)
        a = rng.standard_normal((9, 9)) * 10.0 ** rng.integers(-320, 300, (9, 9))
        a[0, 1], a[1, 0] = 1e308, 5e-324
        np.testing.assert_array_equal(
            SymMatrix(a).data.view(np.int64), ((a + a.T) * 0.5).view(np.int64)
        )

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (3, 3), elements=st.floats(-10, 10)))
    def test_construction_always_symmetric(self, entries):
        m = SymMatrix(entries)
        assert np.array_equal(m.data, m.data.T)


class TestSpectrum:
    def test_diagonal(self):
        np.testing.assert_allclose(spectrum(SymMatrix.diagonal([3, 1])), [1.0, 3.0])

    def test_identity(self):
        np.testing.assert_allclose(spectrum(SymMatrix.identity(2)), [1.0, 1.0])

    def test_off_diagonal(self):
        # characteristic polynomial lambda^2 - 1 by hand
        np.testing.assert_allclose(
            spectrum(SymMatrix([[0.0, 1.0], [1.0, 0.0]])), [-1.0, 1.0], atol=1e-14
        )

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 5, 8):
            g = rng.standard_normal((dim, dim))
            a = SymMatrix(g + g.T)
            w, q = np.linalg.eigh(a.data)
            np.testing.assert_allclose(
                (q * w) @ q.T, a.data, atol=1e-12 * max(1.0, frobenius(a))
            )
            np.testing.assert_allclose(spectrum(a), np.sort(w))


class TestEigenSolverErrors:
    @staticmethod
    def _reject_negative_corner(monkeypatch):
        # An eigensolver that fails on any item whose (0, 0) entry is negative.
        lapack = linalg._lapack

        def failing(name, a, *rest):
            if name == "eigh" and np.any(np.asarray(a)[..., 0, 0] < 0):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return lapack(name, a, *rest)

        monkeypatch.setattr(linalg, "_lapack", failing)

    def test_single_matrix_reports_its_dim_and_entries(self, monkeypatch):
        self._reject_negative_corner(monkeypatch)
        a = np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(EigenSolverError) as info:
            _eigh(a, "left operand")
        msg = str(info.value)
        assert "for left operand (dim 3, entries [[-1.0, 0.0, 0.0]," in msg
        assert "item" not in msg

    def test_stack_reports_the_failing_item(self, monkeypatch):
        # A stack whose solve fails raises what its first failing item
        # raises alone: that item's entries, and no other item's.
        self._reject_negative_corner(monkeypatch)
        a = np.stack([np.eye(2) * (k + 1.0) for k in range(5)])
        a[3, 0, 0] = -4.0
        b = np.stack([np.eye(2)] * 5)
        conn = make_builtin("geometric", 0.5)
        with pytest.raises(EigenSolverError) as alone:
            conn._apply_raw(a[3], b[3], DEFAULT_TOL)
        with pytest.raises(EigenSolverError) as stacked:
            conn._apply_stack(a, b, DEFAULT_TOL)
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)
        # The failing eigenvalue solve is that of A + B.
        assert "(dim 2, entries [[-3.0, 0.0], [0.0, 5.0]])" in str(stacked.value)


def _raised(call):
    """The exception that call() raises, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as info:
            call()
    return info.value


class TestLapack:
    """``linalg._lapack`` against the public numpy.linalg functions."""

    @staticmethod
    def _operands(name, shape, rng):
        g = rng.standard_normal(shape)
        pd = g @ g.swapaxes(-1, -2) + shape[-1] * np.eye(shape[-1])
        if name == "solve":
            return g, rng.standard_normal(shape)
        return (pd,) if name == "cholesky" else ((g + g.swapaxes(-1, -2)) * 0.5,)

    @pytest.mark.parametrize("name", ["eigh", "eigvalsh", "cholesky", "solve"])
    @pytest.mark.parametrize("n", [1, 2, 8, 33])
    @pytest.mark.parametrize("stack", [(), (3,)])
    def test_bitwise_equal_to_numpy(self, name, n, stack):
        args = self._operands(name, stack + (n, n), np.random.default_rng([350, n, len(stack)]))
        got = linalg._lapack(name, *args)
        want = getattr(np.linalg, name)(*args)
        if name == "eigh":
            assert all(np.array_equal(x, y) for x, y in zip(got, want, strict=True))
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "name, args",
        [
            ("cholesky", (-np.eye(3),)),
            # The factorization overflows before it fails; that flag must
            # not warn.
            ("cholesky", (np.array([[1e-300, 1e300], [1e300, 1.0]]),)),
            ("cholesky", (np.stack([np.eye(2), -np.eye(2)]),)),
            ("solve", (np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2))),
            ("solve", (np.zeros((2, 3, 3)), np.ones((2, 3, 1)))),
            # A stack of singular pivots with a 2-D b, which the public
            # function reads as one matrix for every pivot.
            ("solve", (np.zeros((3, 3, 3)), np.eye(3))),
        ],
    )
    def test_failure_raises_numpys_own_error(self, name, args):
        got = _raised(lambda: linalg._lapack(name, *args))
        want = _raised(lambda: getattr(np.linalg, name)(*args))
        assert type(got) is np.linalg.LinAlgError
        assert str(got) == str(want)

    @pytest.mark.parametrize(
        "name, args",
        [
            ("eigvalsh", (np.array([[2, 1], [1, 2]]),)),
            ("eigh", (np.array([[2.0, 1.0], [1.0, 2.0]], dtype=np.float32),)),
            ("cholesky", (np.array([[2, 1], [1, 2]], dtype=np.float32),)),
            ("solve", (np.array([[2, 1], [1, 3]]), np.ones((2, 1), dtype=np.float32))),
        ],
    )
    def test_other_real_dtypes_run_in_float64(self, name, args):
        got = linalg._lapack(name, *args)
        want = linalg._lapack(name, *(np.asarray(x, dtype=float) for x in args))
        for x, y in zip(got, want) if name == "eigh" else [(got, want)]:
            assert x.dtype == np.float64 and np.array_equal(x, y)

    @pytest.mark.parametrize(
        "name, args",
        [
            ("eigvalsh", (np.ones(3),)),
            ("eigh", (np.ones((2, 3)),)),
            ("cholesky", (np.ones((3, 2)),)),
            ("solve", (np.eye(2), np.ones(2))),
            ("solve", (np.eye(2), np.ones((3, 3)))),
        ],
    )
    def test_wrong_shape_raises_the_gufuncs_error(self, name, args):
        assert type(_raised(lambda: linalg._lapack(name, *args))) is ValueError

    @pytest.mark.parametrize(
        "a",
        [np.zeros((2, 3, 3)), np.stack([2.0 * np.eye(3), np.diag([1.0, 2.0, 3.0])])],
        ids=["singular", "nonsingular"],
    )
    def test_solve_with_one_dim_fewer_in_b_goes_to_numpy(self, a):
        # A 2-D b for a stack of pivots is one matrix for every pivot, in
        # the gufunc as in the public function: the answer or the error is
        # numpy's.
        b = np.arange(9.0).reshape(3, 3)
        try:
            want = np.linalg.solve(a, b)
        except Exception as exc:
            want = exc
        if isinstance(want, Exception):
            got = _raised(lambda: linalg._lapack("solve", a, b))
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert np.array_equal(linalg._lapack("solve", a, b), want)

    @staticmethod
    def _count_calls(monkeypatch, name):
        """Counts of the calls of name's gufunc and of numpy.linalg.<name>."""
        counts = {"gufunc": 0, "public": 0}
        gufunc, *rest = linalg._GUFUNCS[name]
        public = getattr(np.linalg, name)

        def counting_gufunc(*args, **kwargs):
            counts["gufunc"] += 1
            return gufunc(*args, **kwargs)

        def counting_public(*args, **kwargs):
            counts["public"] += 1
            return public(*args, **kwargs)

        monkeypatch.setitem(linalg._GUFUNCS, name, (counting_gufunc, *rest))
        monkeypatch.setattr(np.linalg, name, counting_public)
        return counts

    @pytest.mark.parametrize(
        "name, args",
        [("cholesky", (-np.eye(3),)), ("solve", (np.ones((2, 2)), np.eye(2)))],
    )
    def test_failure_factors_once(self, monkeypatch, name, args):
        counts = self._count_calls(monkeypatch, name)
        with pytest.raises(np.linalg.LinAlgError):
            linalg._lapack(name, *args)
        assert counts == {"gufunc": 1, "public": 0}

    def test_failed_certificate_factors_once(self, monkeypatch):
        counts = self._count_calls(monkeypatch, "cholesky")
        assert not _certified_pd(np.diag([1.0, -1.0]), DEFAULT_TOL)
        assert counts == {"gufunc": 1, "public": 0}
        assert _certified_pd(np.eye(2), DEFAULT_TOL)
        assert counts == {"gufunc": 2, "public": 0}


# Each public helper that factorizes, called on one raw array.
_HELPERS = {
    "spectrum": spectrum,
    "opnorm": opnorm,
    "is_psd": is_psd,
    "loewner_leq": lambda x: loewner_leq(x, x),
    "fn_calculus": lambda x: fn_calculus(math.log1p, x),
    "sqrt_psd": sqrt_psd,
    "inv_pd": inv_pd,
    "congruence": lambda x: congruence(x, x),
    "regularize_limit": lambda x: regularize_limit(lambda eps: x),
}


def _outcome(call):
    """What call() returns, as an array or a Python value, or the type and
    message of what it raises."""
    try:
        out = call()
    except Exception as exc:
        return type(exc), str(exc)
    return out.data if isinstance(out, SymMatrix) else out


class TestRawArrays:
    """The public helpers read a raw array as ``SymMatrix`` construction
    does."""

    @pytest.mark.parametrize("helper", _HELPERS.values(), ids=_HELPERS.keys())
    @pytest.mark.parametrize(
        "x",
        [
            np.ones(3),
            np.ones((2, 3)),
            np.stack([np.eye(2)] * 3),
            [[math.nan, 0.0], [0.0, 1.0]],
            [[math.inf, 0.0], [0.0, 1.0]],
        ],
        ids=["1-d", "non-square", "stacked", "nan", "inf"],
    )
    def test_malformed_array_raises_what_construction_raises(self, helper, x):
        want = _raised(lambda: SymMatrix(x))
        got = _raised(lambda: helper(x))
        assert type(got) is type(want) and str(got) == str(want)

    @pytest.mark.parametrize("helper", _HELPERS.values(), ids=_HELPERS.keys())
    def test_asymmetric_array_is_averaged(self, helper):
        x = [[1.0, 5.0], [0.0, 1.0]]
        got, want = _outcome(lambda: helper(x)), _outcome(lambda: helper(SymMatrix(x)))
        assert type(got) is type(want)
        assert np.array_equal(got, want) if isinstance(got, np.ndarray) else got == want


class TestLapackErrorState:
    """``linalg._lapack`` calls LAPACK in numpy.linalg's error state and
    leaves the caller's state as it found it."""

    SPD = np.array([[2.0, 1.0], [1.0, 2.0]])
    # Cholesky fails on each; on the second the factorization overflows
    # before it fails.
    NOT_PD = [-np.eye(3), np.array([[1e-300, 1e300], [1e300, 1.0]])]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: linalg._lapack("eigh", TestLapackErrorState.SPD),
            lambda: linalg._lapack("cholesky", -np.eye(3)),
            # The gufunc refuses a 1-D array with a ValueError.
            lambda: linalg._lapack("eigvalsh", np.ones(3)),
        ],
        ids=["success", "failure", "refused-input"],
    )
    def test_callers_error_state_is_restored(self, call):
        for state in ({}, {"all": "warn", "under": "raise"}, {"all": "ignore"}):
            with np.errstate(**state):
                before = np.geterr()
                try:
                    call()
                except (np.linalg.LinAlgError, ValueError):
                    pass
                assert np.geterr() == before

    def test_failure_is_caught_whatever_the_callers_state(self):
        # Under a caller's "ignore", a failed factorization would otherwise
        # return NaN and certify a matrix that is not positive definite.
        for state in ({"all": "ignore"}, {"all": "warn"}, {"all": "raise"}):
            with np.errstate(**state):
                for x in self.NOT_PD:
                    with pytest.raises(np.linalg.LinAlgError):
                        linalg._lapack("cholesky", x)
                    assert not _certified_pd(x, DEFAULT_TOL)
                assert np.array_equal(
                    linalg._lapack("cholesky", self.SPD), np.linalg.cholesky(self.SPD)
                )

    @pytest.mark.parametrize(
        "x",
        NOT_PD + [np.diag([1.0, -1.0]), np.zeros((2, 2)), np.stack([np.eye(2), -np.eye(2)])],
    )
    def test_failing_certificate_does_not_warn(self, x):
        with np.errstate(all="warn"), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not _certified_pd(x, DEFAULT_TOL)

    def test_other_threads_keep_their_own_error_state(self):
        # Threads that each hold np.errstate(over="raise") run beside threads
        # that call _lapack in a loop, with a short switch interval so that
        # they interleave between almost any two bytecodes.
        stop = threading.Event()
        checks, missed = [], []

        def holder():
            count = 0
            with np.errstate(over="raise"):
                while not stop.is_set():
                    try:
                        np.float64(1e300) * np.float64(1e300)
                    except FloatingPointError:
                        pass
                    else:
                        missed.append("overflow did not raise")
                    if np.geterr()["over"] != "raise":
                        missed.append(np.geterr())
                    count += 1
            checks.append(count)

        def caller():
            state = np.geterr()
            for _ in range(2000):
                linalg._lapack("eigh", self.SPD)
                try:
                    linalg._lapack("cholesky", -np.eye(2))
                except np.linalg.LinAlgError:
                    pass
                else:
                    missed.append("cholesky did not fail")
                if np.geterr() != state:
                    missed.append(np.geterr())

        before = np.geterr()
        holders = [threading.Thread(target=holder) for _ in range(2)]
        callers = [threading.Thread(target=caller) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in holders + callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            stop.set()
            for thread in holders:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in holders + callers)
        assert missed == []
        assert len(checks) == 2 and min(checks) >= 100
        assert np.geterr() == before


class TestEye:
    @pytest.mark.parametrize("n", [1, 2, 8, 128, 129])
    def test_read_only_identity(self, n):
        eye = _eye(n)
        assert eye.dtype == np.float64 and not eye.flags.writeable
        assert np.array_equal(eye, np.eye(n))
        with pytest.raises(ValueError):
            eye[0, 0] = 2.0

    def test_small_dims_share_one_array(self):
        assert _eye(5) is _eye(5)
        assert _eye(linalg._SHARED_EYE_MAX_DIM) is _eye(linalg._SHARED_EYE_MAX_DIM)


class TestCheckSpectra:
    def test_stack_scales_equal_per_item_scales(self):
        rng = np.random.default_rng(5)
        w = np.sort(rng.uniform(0.0, 1.0, (2, 3, 4)) * 10.0 ** rng.integers(-3, 4, (2, 3, 1)))
        w[0, 1, 0] = -1e-14
        scales = _check_spectra(w, DEFAULT_TOL, "left operand")
        want = [_psd_scale(item, DEFAULT_TOL, "left operand") for item in w.reshape(-1, 4)]
        assert scales.shape == (2, 3)
        assert scales.reshape(-1).tolist() == want
        # A loose slack admits an item whose scale comes from its smallest
        # eigenvalue.
        loose = Tolerances(psd_slack=1.0)
        w = np.array([[-3.0, 2.0], [0.5, 4.0], [0.0, 0.25]])
        assert _check_spectra(w, loose, "m").tolist() == [3.0, 4.0, 1.0]

    def test_single_spectrum_returns_a_float(self):
        w = np.array([0.5, 3.0])
        assert _check_spectra(w, DEFAULT_TOL, "m") == _psd_scale(w, DEFAULT_TOL, "m") == 3.0


class TestCertifiedPD:
    def test_margin_is_twice_the_slack(self):
        # S = max(1, 2 * 1) = 2, so the smallest eigenvalue must exceed
        # 2 * psd_slack * 2.
        slack = DEFAULT_TOL.psd_slack
        assert _certified_pd(np.diag([5.0 * slack, 1.0]), DEFAULT_TOL)
        assert not _certified_pd(np.diag([3.0 * slack, 1.0]), DEFAULT_TOL)
        assert not _certified_pd(np.diag([0.0, 1.0]), DEFAULT_TOL)

    def test_one_failing_item_fails_the_stack(self):
        x = np.stack([np.eye(3)] * 4)
        assert _certified_pd(x, DEFAULT_TOL)
        x[2, 1, 1] = -1e-3
        assert not _certified_pd(x, DEFAULT_TOL)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (2, 0), (3, 3)])
    def test_non_finite_entry_certifies_nothing(self, value, where):
        x = np.eye(4)
        x[where] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not _certified_pd(x, DEFAULT_TOL)


class TestLoewnerOrder:
    def test_is_psd_examples(self):
        assert is_psd(SymMatrix.diagonal([1, 0]))
        assert not is_psd(SymMatrix.diagonal([1, -1]))
        assert is_psd(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))  # eigenvalues 1 and 3

    def test_leq_examples(self):
        assert loewner_leq(SymMatrix.diagonal([1, 1]), SymMatrix.diagonal([2, 3]))
        # the orthogonal projection pair is not comparable
        assert not loewner_leq(SymMatrix.diagonal([1, 0]), SymMatrix.diagonal([0, 1]))

    def test_reflexive(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.standard_normal((4, 4))
            a = SymMatrix(g + g.T)
            assert loewner_leq(a, a)

    def test_transitive_on_chains(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            g0 = rng.standard_normal((3, 3))
            a = SymMatrix(g0 @ g0.T)
            b = a + SymMatrix(
                (lambda g: g @ g.T)(rng.standard_normal((3, 3)))
            )
            c = b + SymMatrix(
                (lambda g: g @ g.T)(rng.standard_normal((3, 3)))
            )
            assert loewner_leq(a, b) and loewner_leq(b, c) and loewner_leq(a, c)

    def test_antisymmetry_within_slack(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = rng.standard_normal((4, 4))
            a = SymMatrix(g @ g.T)
            b = SymMatrix(a.data + 1e-12 * np.eye(4))
            if loewner_leq(a, b) and loewner_leq(b, a):
                scale = max(frobenius(a), frobenius(b))
                assert frobenius(a - b) <= 2 * DEFAULT_TOL.psd_slack * scale

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            loewner_leq(SymMatrix.identity(2), SymMatrix.identity(3))


class TestFnCalculus:
    def test_square_on_diagonal(self):
        out = fn_calculus(lambda x: x * x, SymMatrix.diagonal([2, 3]))
        np.testing.assert_allclose(out.data, np.diag([4.0, 9.0]))

    def test_sqrt_hand_computed(self):
        out = fn_calculus(math.sqrt, SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(out.data, SQRT_2112, atol=1e-14)

    def test_constant_gives_identity(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((4, 4))
        a = SymMatrix(g @ g.T)
        np.testing.assert_allclose(
            fn_calculus(lambda x: 1.0, a).data, np.eye(4), atol=1e-14
        )

    def test_identity_function_returns_input(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal((5, 5))
        a = SymMatrix(g @ g.T)
        np.testing.assert_allclose(
            fn_calculus(lambda x: x, a).data,
            a.data,
            atol=DEFAULT_TOL.eq_tol * frobenius(a),
        )

    def test_spectral_mapping(self):
        rng = np.random.default_rng(13)
        for dim in (1, 3, 6):
            g = rng.standard_normal((dim, dim))
            a = SymMatrix(g @ g.T)
            f = lambda x: x / (1.0 + x)
            out = fn_calculus(f, a)
            np.testing.assert_allclose(
                spectrum(out),
                np.sort([f(x) for x in np.maximum(spectrum(a), 0.0)]),
                atol=1e-10,
            )

    def test_clips_roundoff_negatives(self):
        a = SymMatrix.diagonal([1.0, -1e-14])
        out = fn_calculus(math.sqrt, a)
        np.testing.assert_allclose(out.data, np.diag([1.0, 0.0]), atol=1e-12)

    def test_hard_error_below_slack(self):
        with pytest.raises(NotPSDError) as err:
            fn_calculus(math.sqrt, SymMatrix.diagonal([1.0, -0.5]))
        assert err.value.min_eigenvalue == pytest.approx(-0.5)

    def test_evaluation_failure_is_diagnosed(self):
        with pytest.raises(ValueError, match="evaluation failed"):
            fn_calculus(lambda x: 1.0 / (x - 1.0), SymMatrix.identity(2))

    @pytest.mark.parametrize(
        "call", [lambda a: fn_calculus(math.sqrt, a), sqrt_psd], ids=["fn", "sqrt"]
    )
    def test_stacked_array_is_not_a_matrix(self, call):
        # The calculus itself takes stacks; the returned SymMatrix must not.
        with pytest.raises(DimensionMismatchError, match=r"shape \(3, 2, 2\)"):
            call(np.stack([np.eye(2)] * 3))


class TestSqrtInvCongruence:
    def test_sqrt_diagonal(self):
        np.testing.assert_allclose(
            sqrt_psd(SymMatrix.diagonal([4, 9])).data, np.diag([2.0, 3.0])
        )

    def test_inv_diagonal(self):
        np.testing.assert_allclose(
            inv_pd(SymMatrix.diagonal([2, 4])).data, np.diag([0.5, 0.25])
        )

    def test_congruence_of_identity(self):
        out = congruence(SymMatrix.diagonal([2, 1]), SymMatrix.identity(2))
        np.testing.assert_allclose(out.data, np.diag([4.0, 1.0]))

    def test_sqrt_roundtrip_200_random(self):
        count = 0
        for i in range(200):
            rng = np.random.default_rng([100, i])
            dim = 1 + i % 8
            g = rng.standard_normal((dim, dim))
            a = SymMatrix(g @ g.T)
            r = sqrt_psd(a)
            assert is_psd(r)
            assert frobenius(SymMatrix(r.data @ r.data) - a) <= DEFAULT_TOL.eq_tol * max(
                1.0, frobenius(a)
            )
            count += 1
        assert count == 200

    def test_inv_singular_error_carries_eigenvalue(self):
        with pytest.raises(SingularMatrixError) as err:
            inv_pd(SymMatrix.diagonal([1.0, 0.0]))
        assert err.value.min_eigenvalue == pytest.approx(0.0)

    def test_inv_times_original_is_identity(self):
        rng = np.random.default_rng(21)
        g = rng.standard_normal((5, 5))
        a = SymMatrix(g @ g.T + np.eye(5))
        np.testing.assert_allclose(
            inv_pd(a).data @ a.data, np.eye(5), atol=DEFAULT_TOL.eq_tol
        )


class TestRegularizeLimit:
    def test_affine_in_eps(self):
        out = regularize_limit(lambda e: SymMatrix((1.0 + e) * np.eye(2)))
        np.testing.assert_allclose(out.data, np.eye(2), atol=1e-7)

    def test_constant_map_one_step(self):
        a = SymMatrix([[2.0, 1.0], [1.0, 3.0]])
        calls = []
        out = regularize_limit(lambda e: (calls.append(e), a)[1])
        np.testing.assert_allclose(out.data, a.data)
        assert len(calls) == 2  # first evaluation plus the single settled step

    def test_sqrt_rate_returns_final_iterate(self):
        # Closed form of the geometric mean of the shifted projection pair;
        # the iterate distance decays like sqrt(eps), so the loop exhausts
        # the schedule and returns the value at eps_K = eps0 * 2^-33, the
        # last shift before eps_min.
        g = lambda e: SymMatrix(math.sqrt(e * (1.0 + e)) * np.eye(2))
        out = regularize_limit(g)
        eps_k = DEFAULT_TOL.eps0 * 2.0**-33
        expected = math.sqrt(eps_k * (1.0 + eps_k))
        np.testing.assert_allclose(out.data, expected * np.eye(2), rtol=1e-12)
        assert frobenius(out) <= 2 * math.sqrt(DEFAULT_TOL.eps_min)

    def test_non_converging_map_raises(self):
        def oscillating(e):
            # alternates between two matrices, never settles
            k = round(math.log2(DEFAULT_TOL.eps0 / e))
            return SymMatrix.identity(2) * (1.0 + 0.5 * (k % 2))

        with pytest.raises(NonConvergenceError) as err:
            regularize_limit(oscillating)
        assert err.value.distance is not None and err.value.distance > 0.1
        # The error carries the last two iterates and the distance between them.
        assert err.value.previous is not None
        assert err.value.distance == float(
            np.linalg.norm(err.value.last - err.value.previous)
        )


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.psd_slack == 1e-9
        assert tol.eq_tol == 1e-8
        assert tol.eps0 == 1e-2
        assert tol.eps_min == 1e-12

    def test_eps_ordering_enforced(self):
        with pytest.raises(ValueError):
            Tolerances(eps0=1e-12, eps_min=1e-2)

    def test_nonnegative_enforced(self):
        with pytest.raises(ValueError):
            Tolerances(psd_slack=-1.0)
        for name in ("psd_slack", "eq_tol", "eps0", "eps_min"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    Tolerances(**{name: value})

    def test_bool_or_non_real_field_rejected(self):
        for name in ("psd_slack", "eq_tol", "eps0", "eps_min"):
            for value in (True, False, "1e-9", None, 1j):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    Tolerances(**{name: value})

    def test_int_beyond_the_largest_double_rejected(self):
        # Such an int compares below inf, but no double holds it.
        big = 10**400
        for name in ("psd_slack", "eq_tol", "eps0", "eps_min"):
            with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative"):
                Tolerances(**{name: big})
        largest = Tolerances(eps0=sys.float_info.max)
        assert largest.eps0 == sys.float_info.max

    def test_int_and_numpy_fields_accepted(self):
        tol = Tolerances(psd_slack=np.float64(1e-9), eq_tol=0, eps0=1, eps_min=np.float32(1e-3))
        assert (tol.psd_slack, tol.eq_tol, tol.eps0) == (1e-9, 0, 1)


class TestMatrixIO:
    def test_roundtrip(self, tmp_path):
        a = SymMatrix([[1.5, -0.25], [-0.25, 3.0]])
        path = tmp_path / "a.json"
        save_matrix(a, path)
        b = load_matrix(path)
        np.testing.assert_array_equal(a.data, b.data)

    def test_dict_shape(self):
        d = matrix_to_dict(SymMatrix.diagonal([1, 2]))
        assert d == {"dim": 2, "data": [1.0, 0.0, 0.0, 2.0]}
        assert all(type(v) is float for v in d["data"])

    def test_asymmetry_warns(self):
        with pytest.warns(UserWarning, match="asymmetric"):
            m = matrix_from_dict({"dim": 2, "data": [1.0, 1.0, 0.0, 1.0]})
        np.testing.assert_allclose(m.data, [[1.0, 0.5], [0.5, 1.0]])

    def test_tiny_asymmetry_silent(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            matrix_from_dict({"dim": 2, "data": [1.0, 1.0, 1.0 + 1e-15, 1.0]})

    def test_overflowing_norms_are_scaled(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m = matrix_from_dict({"dim": 1, "data": [1e308]})
            matrix_from_dict({"dim": 2, "data": [1e160, 2e160, 2e160, 1e160]})
            matrix_from_dict({"dim": 2, "data": [1.0, 1e308, -1e308, 1.0]})
            matrix_from_dict({"dim": 2, "data": [1e160, 2e160, 2.0000001e160, 1e160]})
        assert m.data.tolist() == [[1e308]]
        assert [str(w.message) for w in caught] == [
            f"matrix is asymmetric (relative asymmetry {asym} > 1e-12); symmetrizing"
            for asym in ("2.000e+00", "4.472e-08")
        ]

    def test_bad_payloads(self):
        with pytest.raises(ValueError):
            matrix_from_dict({"dim": 2, "data": [1.0, 2.0]})
        with pytest.raises(ValueError):
            matrix_from_dict({"data": [1.0]})
        with pytest.raises(ValueError):
            matrix_from_dict({"dim": 0, "data": []})

    @pytest.mark.parametrize("payload", [[], "m", 2, None])
    def test_payload_must_be_an_object(self, payload):
        with pytest.raises(ValueError) as info:
            matrix_from_dict(payload)
        assert str(info.value) == f"matrix must be an object, got {type(payload).__name__}"

    @pytest.mark.parametrize(
        "data",
        [[[2.0, 1.0], [1.0, 2.0]], "2112", None, 2.0],
        ids=["nested", "string", "null", "number"],
    )
    def test_data_must_be_a_flat_list(self, data):
        with pytest.raises(ValueError, match="^matrix data must be a flat list of numbers"):
            matrix_from_dict({"dim": 2, "data": data})

    @pytest.mark.parametrize(
        "dim,data,entry",
        [
            (1, ["1"], "'1'"),
            (1, [True], "True"),
            (1, [None], "None"),
            (2, [2.0, 1.0, False, 2.0], "False"),
            (2, [[2, 1], [1]], "[2, 1]"),
            (2, ["a", 1, 1, 2], "'a'"),
        ],
        ids=["numeric_string", "bool", "null", "bool_among_floats", "ragged", "string"],
    )
    def test_entries_must_be_numbers(self, dim, data, entry):
        with pytest.raises(ValueError) as info:
            matrix_from_dict({"dim": dim, "data": data})
        assert str(info.value) == (
            f"matrix data must be a flat list of numbers, got entry {entry}"
        )

    def test_numpy_numbers_load(self):
        data = [np.float64(2.0), np.int64(1), 1, 2.0]
        m = matrix_from_dict({"dim": 2, "data": data})
        np.testing.assert_array_equal(m.data, [[2.0, 1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("dim", [2.5, True, "2", None])
    def test_dim_must_be_whole(self, dim):
        with pytest.raises(ValueError, match="matrix dim must be a whole number"):
            matrix_from_dict({"dim": dim, "data": [1.0, 0.0, 0.0, 1.0]})

    def test_whole_float_dim_loads(self):
        m = matrix_from_dict({"dim": 2.0, "data": [1.0, 0.0, 0.0, 1.0]})
        np.testing.assert_array_equal(m.data, np.eye(2))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=6))
def test_diagonal_spectrum_is_sorted_values(values):
    np.testing.assert_allclose(
        spectrum(SymMatrix.diagonal(values)), np.sort(values), atol=1e-9
    )


def test_norm_helpers():
    a = SymMatrix.diagonal([3, -4])
    assert opnorm(a) == pytest.approx(4.0)
    assert frobenius(a) == pytest.approx(5.0)
