"""Symmetric-matrix substrate: eigendecomposition, the Loewner order,
spectral functional calculus, and epsilon-regularized limits.

Everything else in the package (connections, measures, the verification
suites, the CLI) is built on the operations defined here.  All operations
are pure functions of their inputs, ``SymMatrix`` values are immutable
after construction, and no shared mutable state exists, so everything in
this module is safe to call concurrently.

Every LAPACK call of the package goes through ``_lapack``: the symmetric
eigensolvers, the Cholesky certificate and the atom route's linear solve.
Two calls do not: ``verify._non_comparable_pair`` draws a rotation with
``np.linalg.qr``, and ``measures._leggauss`` takes its rule from
``np.polynomial.legendre.leggauss``, which solves an eigenvalue problem.
``_lapack`` calls the gufuncs that ``numpy.linalg`` itself calls, with the
same float64 signatures, and skips only that module's per-call checks and
conversions: results are bit for bit numpy.linalg's, and so are its errors.
The public helpers, ``frobenius`` aside, read a raw array as ``SymMatrix(A)``
does, so malformed input never reaches LAPACK.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy._core._ufunc_config import _extobj_contextvar
from numpy.linalg import _umath_linalg

__all__ = [
    "ASYMMETRY_WARN_REL",
    "DEFAULT_TOL",
    "DimensionMismatchError",
    "EigenSolverError",
    "NonConvergenceError",
    "NotPSDError",
    "SingularMatrixError",
    "SymMatrix",
    "Tolerances",
    "congruence",
    "fn_calculus",
    "frobenius",
    "inv_pd",
    "is_psd",
    "load_matrix",
    "loewner_leq",
    "matrix_from_dict",
    "matrix_to_dict",
    "opnorm",
    "regularize_limit",
    "save_matrix",
    "spectrum",
    "sqrt_psd",
]

# Relative asymmetry above which loading a matrix file warns before
# symmetrizing.
ASYMMETRY_WARN_REL = 1e-12

# A regularized limit that has not met the Cauchy tolerance by eps_min is
# still accepted when its last step is this many sqrt(eps_min) units small;
# square-root-rate limits (geometric mean at singular arguments) land here.
_SLOW_CONVERGENCE_FACTOR = 10.0

_EPS = float(np.finfo(float).eps)


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class NotPSDError(ValueError):
    """A matrix required to be positive semidefinite has an eigenvalue
    below the negative slack."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class SingularMatrixError(ValueError):
    """Inversion (or a positive-definite precondition) failed because the
    matrix is numerically singular."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class EigenSolverError(RuntimeError):
    """The symmetric eigensolver did not converge."""


class NonConvergenceError(RuntimeError):
    """The epsilon-regularized limit did not settle before ``eps_min``."""

    def __init__(
        self,
        message: str,
        last: np.ndarray | None = None,
        previous: np.ndarray | None = None,
        distance: float | None = None,
    ):
        super().__init__(message)
        self.last = last
        self.previous = previous
        self.distance = distance


def _is_real(value) -> bool:
    """Whether value is a real number, such as an int or a numpy float; a
    bool is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _float(value) -> float:
    """float(value), and -inf or inf for an int beyond the largest double,
    so that a range check refuses it as it refuses an inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared across the package.

    Attributes
    ----------
    psd_slack : float
        Relative eigenvalue slack for positivity tests, measured against
        max(1, spectral norm).
    eq_tol : float
        Relative Frobenius tolerance for equality tests.
    eps0 : float
        Starting value of ``regularize_limit``'s shift.
    eps_min : float
        Smallest shift tried before ``regularize_limit`` gives up.
    """

    psd_slack: float = 1e-9
    eq_tol: float = 1e-8
    eps0: float = 1e-2
    eps_min: float = 1e-12

    def __post_init__(self):
        for name in ("psd_slack", "eq_tol", "eps0", "eps_min"):
            value = getattr(self, name)
            if not (_is_real(value) and 0 <= _float(value) < math.inf):
                raise ValueError(
                    f"{name} must be finite and nonnegative, got {value!r}"
                )
        if not self.eps_min < self.eps0:
            raise ValueError("eps_min must be smaller than eps0")


DEFAULT_TOL = Tolerances()


# Identities up to this dim are shared, at most 16 of them.  A larger one is
# built per call: beside the O(n^3) work it serves, building it is cheap,
# and a cached one would hold its memory.
_SHARED_EYE_MAX_DIM = 128


def _read_only_eye(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


_shared_eye = functools.lru_cache(maxsize=16)(_read_only_eye)


def _eye(n: int) -> np.ndarray:
    """np.eye(n), read-only, and for small n one array shared by every call:
    the shifts of the certificate and the suites reuse it."""
    return _shared_eye(n) if n <= _SHARED_EYE_MAX_DIM else _read_only_eye(n)


def _sym(x: np.ndarray) -> np.ndarray:
    """(x + x^T) / 2 over the last two axes, for a matrix or a stack."""
    return (x + x.swapaxes(-1, -2)) * 0.5


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def _float_entries(entries) -> np.ndarray:
    """entries as a new float array, each int beyond the largest double read
    by ``_float`` as the inf it exceeds."""
    try:
        return np.array(entries, dtype=float)
    except OverflowError:
        objects = np.array(entries, dtype=object)
        return np.array(np.frompyfunc(_float, 1, 1)(objects), dtype=float)


def _finite_scalar(value) -> float:
    """``_float(value)``, refusing inf and NaN: scaling a matrix by such a
    value, or shifting it, would make every entry non-finite."""
    x = _float(value)
    if not math.isfinite(x):
        raise ValueError("matrix entries must be finite")
    return x


class SymMatrix:
    """A real symmetric matrix of dimension >= 1.

    Construction symmetrizes the input by averaging with its transpose;
    afterwards the stored entries are exactly symmetric and read-only.
    """

    __slots__ = ("data",)

    def __init__(self, entries):
        arr = _float_entries(entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionMismatchError(
                f"expected a square matrix with dim >= 1, got shape {arr.shape}"
            )
        # A non-finite entry makes its mean with the mirror non-finite, so
        # one test of the result covers the input as well.
        with np.errstate(over="ignore", invalid="ignore"):
            sym = _sym(arr)
        if not np.isfinite(sym).all():
            if not np.isfinite(arr).all():
                raise ValueError("matrix entries must be finite")
            # x + y overflows only when |x| and |y| are both above 2**970,
            # so halving each first is exact and rounds the mean once.
            sym = np.where(np.isfinite(sym), sym, arr * 0.5 + arr.T * 0.5)
        sym.flags.writeable = False
        self.data = sym

    @classmethod
    def _of_symmetric(cls, arr: np.ndarray) -> "SymMatrix":
        """Wrap a float (n, n) array that this package built symmetric bit
        for bit, such as a result of ``_sym``, without a copy: construction
        would map it to itself, signed zeros included.  The array becomes
        read-only; a non-finite entry raises as construction does."""
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        arr.flags.writeable = False
        out = object.__new__(cls)
        out.data = arr
        return out

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "SymMatrix":
        return cls(np.eye(dim))

    @classmethod
    def zeros(cls, dim: int) -> "SymMatrix":
        return cls(np.zeros((dim, dim)))

    @classmethod
    def diagonal(cls, values) -> "SymMatrix":
        return cls(np.diag(_float_entries(values)))

    def tolist(self) -> list[list[float]]:
        return self.data.tolist()

    # An entry of the arithmetic below that overflows or divides by zero is
    # not finite, which construction refuses; numpy would warn first.

    def shifted(self, eps: float) -> "SymMatrix":
        """Return self + eps * I."""
        eps = _finite_scalar(eps)
        with np.errstate(all="ignore"):
            return SymMatrix(self.data + eps * np.eye(self.dim))

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        if not isinstance(other, SymMatrix):
            return NotImplemented
        _check_same_dim(self.data, other.data)
        with np.errstate(all="ignore"):
            return SymMatrix(self.data + other.data)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        if not isinstance(other, SymMatrix):
            return NotImplemented
        _check_same_dim(self.data, other.data)
        with np.errstate(all="ignore"):
            return SymMatrix(self.data - other.data)

    def __mul__(self, scalar) -> "SymMatrix":
        scalar = _finite_scalar(scalar)
        with np.errstate(all="ignore"):
            return SymMatrix(self.data * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "SymMatrix":
        scalar = _float(scalar)
        with np.errstate(all="ignore"):
            return SymMatrix(self.data / scalar)

    def __neg__(self) -> "SymMatrix":
        return SymMatrix(-self.data)

    def __repr__(self) -> str:
        body = np.array2string(self.data, precision=6, separator=", ")
        return f"SymMatrix({body})"


def _is_whole(value) -> bool:
    """Whether value is an integer or an integral float; a bool is not."""
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _as_array(A) -> np.ndarray:
    """A's stored entries, a raw array read as ``SymMatrix(A)`` reads it."""
    return (A if isinstance(A, SymMatrix) else SymMatrix(A)).data


def _eigen_error(
    a: np.ndarray, label: str, exc: np.linalg.LinAlgError
) -> EigenSolverError:
    return EigenSolverError(
        f"eigendecomposition failed for {label} "
        f"(dim {a.shape[-1]}, entries {a.tolist()}): {exc}"
    )


# The gufuncs that numpy.linalg's functions of these names call, with the
# signature each passes for float64 input and its LinAlgError's message.
_GUFUNCS = {
    "eigh": (_umath_linalg.eigh_lo, "d->dd", "Eigenvalues did not converge"),
    "eigvalsh": (_umath_linalg.eigvalsh_lo, "d->d", "Eigenvalues did not converge"),
    "cholesky": (_umath_linalg.cholesky_lo, "d->d", "Matrix is not positive definite"),
    "solve": (_umath_linalg.solve, "dd->d", "Singular matrix"),
}


# numpy.linalg's error state, where LAPACK's failure flag raises and every
# other flag is ignored, built once for ``_lapack``: entering it is one set
# and one reset of numpy's context variable, the one np.errstate sets, not a
# fresh np.errstate.  It keeps the buffer size and error callback of the
# moment of import; no flag is in "call" mode, and the buffer size, which
# only chunks the loop over a stack, changes no result.
with np.errstate(all="ignore", invalid="raise"):
    _LINALG_ERRSTATE = _extobj_contextvar.get()


def _lapack(name: str, *args):
    """``numpy.linalg.<name>(*args)`` for ``name`` in ``_GUFUNCS``, by one
    call of its gufunc, without numpy.linalg's per-call wrapper.

    It runs in numpy.linalg's error state, ``_LINALG_ERRSTATE``, restores the
    caller's per-thread state on return and on a raise, and on a failure
    raises numpy.linalg's ``LinAlgError``.  Real input of another dtype runs
    in float64; a 1-D or non-square array raises the gufunc's ``ValueError``.
    """
    gufunc, signature, failure = _GUFUNCS[name]
    token = _extobj_contextvar.set(_LINALG_ERRSTATE)
    try:
        return gufunc(*args, signature=signature)
    except FloatingPointError:
        raise np.linalg.LinAlgError(failure) from None
    finally:
        _extobj_contextvar.reset(token)


def _eigh(a: np.ndarray, label: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    try:
        return _lapack("eigh", a)
    except np.linalg.LinAlgError as exc:
        raise _eigen_error(a, label, exc) from exc


def _eigvalsh(a: np.ndarray, label: str = "matrix") -> np.ndarray:
    try:
        return _lapack("eigvalsh", a)
    except np.linalg.LinAlgError as exc:
        raise _eigen_error(a, label, exc) from exc


def _spectral_scale(w: np.ndarray) -> float:
    """max(1, spectral norm) from an ascending eigenvalue array."""
    return max(1.0, abs(float(w[0])), abs(float(w[-1])))


def _psd_scale(w: np.ndarray, tol: Tolerances, label: str) -> float:
    """Spectral scale of an ascending spectrum, after checking that its
    smallest eigenvalue clears -psd_slack * scale."""
    scale = _spectral_scale(w)
    if w[0] < -tol.psd_slack * scale:
        raise NotPSDError(
            f"{label} is not positive semidefinite: min eigenvalue "
            f"{float(w[0]):.6e} below slack {-tol.psd_slack * scale:.3e}",
            min_eigenvalue=float(w[0]),
        )
    return scale


def _check_spectra(w: np.ndarray, tol: Tolerances, label: str):
    """``_psd_scale`` on each ascending spectrum in w, of shape (..., n):
    returns the scales, of shape (...).  A stack is checked in one numpy
    pass with the same float operations, and its first failing item raises
    through ``_psd_scale``, so the error is the one a per-item loop gives."""
    if w.ndim == 1:
        return _psd_scale(w, tol, label)
    items = w.reshape(-1, w.shape[-1])
    # fmax skips NaN, as Python's max in _spectral_scale does.
    scales = np.fmax(np.fmax(1.0, np.abs(items[:, 0])), np.abs(items[:, -1]))
    bad = items[:, 0] < -tol.psd_slack * scales
    if bad.any():
        _psd_scale(items[np.argmax(bad)], tol, label)
    return scales.reshape(w.shape[:-1])


def _is_pd(w: np.ndarray, tol: Tolerances) -> bool:
    """Whether an ascending spectrum's smallest eigenvalue is above
    psd_slack * max(1, spectral norm)."""
    return bool(w[0] > tol.psd_slack * _spectral_scale(w))


def _certified_pd(x: np.ndarray, tol: Tolerances) -> bool:
    """Whether one Cholesky factorization shows every item of the
    (..., n, n) stack x positive definite with room to spare, so that its
    spectrum passes ``_check_spectra`` and ``_is_pd``.  False certifies
    nothing; then the eigenvalues decide.

    It factors x - 2 psd_slack S I, with S = max(1, n max |x_ij|) over the
    whole stack.  When the factorization succeeds, x is positive definite up
    to rounding, so its largest entry is on the diagonal, and S bounds each
    item's trace and with it the largest eigenvalue.  A successful
    factorization is exact for a matrix within about n (n + 1) u S of the
    shifted one, u = eps / 2 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 10.3), so each smallest eigenvalue exceeds 2
    psd_slack S less that error.  Unless psd_slack exceeds 4 (n + 1)^2 eps,
    that error could reach the slack, and nothing is certified.  A NaN or
    infinite entry certifies nothing either: OpenBLAS lets a NaN through the
    factorization.
    """
    n = x.shape[-1]
    if tol.psd_slack <= 4.0 * (n + 1) ** 2 * _EPS:
        return False
    # In Python floats, n * inf is inf and n * nan is nan, with no warning;
    # max(nan, 1.0) is nan, and neither passes the test below.
    shift = 2.0 * tol.psd_slack * max(n * float(np.abs(x).max()), 1.0)
    if not shift < math.inf:
        return False
    try:
        _lapack("cholesky", x - shift * _eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


def frobenius(A) -> float:
    """Frobenius norm of a SymMatrix, or of any array as it is given."""
    a = A.data if isinstance(A, SymMatrix) else np.asarray(A, dtype=float)
    return float(np.linalg.norm(a))


def opnorm(A) -> float:
    """Spectral norm (largest absolute eigenvalue) of A, read as SymMatrix."""
    w = _eigvalsh(_as_array(A))
    return max(abs(float(w[0])), abs(float(w[-1])))


def spectrum(A: SymMatrix) -> np.ndarray:
    """All eigenvalues of A, read as SymMatrix, with multiplicity, ascending."""
    return _eigvalsh(_as_array(A))


def is_psd(A: SymMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether A, read as SymMatrix, is PSD within psd_slack * max(1, ||A||_2)."""
    w = _eigvalsh(_as_array(A))
    return bool(w[0] >= -tol.psd_slack * _spectral_scale(w))


def loewner_leq(A: SymMatrix, B: SymMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Loewner order test A <= B, each read as SymMatrix: B - A is PSD.  A
    difference beyond the largest double is refused as construction
    refuses a non-finite entry."""
    a, b = _as_array(A), _as_array(B)
    _check_same_dim(a, b)
    with np.errstate(over="ignore"):
        diff = b - a  # symmetric bit for bit, as a and b are
    return is_psd(SymMatrix._of_symmetric(diff), tol)


def _per_eigenvalue(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """Array form of a scalar function that calls it once per point, with a
    Python float.  A failure of fn on an array raises ValueError naming its
    points; on a 0-d array, one call of fn, fn's own error stands."""

    def array_form(w):
        try:
            return np.array([float(fn(x)) for x in w.ravel().tolist()]).reshape(w.shape)
        except Exception as exc:
            if not w.ndim or isinstance(exc, NotPSDError):
                raise
            raise ValueError(
                f"scalar function evaluation failed on the spectrum {w.tolist()}: {exc}"
            ) from exc

    return array_form


def _fn_calculus_raw(
    fn: Callable[[np.ndarray], np.ndarray], m: np.ndarray, tol: Tolerances
) -> np.ndarray:
    """f(m) for symmetric m of shape (..., n, n).  ``fn`` is the array form
    of f: it maps the clipped spectra, shape (..., n), to their values."""
    w, q = _eigh(m)
    _check_spectra(w, tol, "matrix")
    fw = fn(np.maximum(w, 0.0))
    return _sym((q * fw[..., None, :]) @ q.swapaxes(-1, -2))


def fn_calculus(
    f: Callable[[float], float], A: SymMatrix, tol: Tolerances = DEFAULT_TOL
) -> SymMatrix:
    """Spectral functional calculus f(A) = Q diag(f(lambda_i)) Q^T.

    Parameters
    ----------
    f : callable
        Scalar function defined on [0, inf).
    A : SymMatrix
        PSD matrix within slack; eigenvalues in [-psd_slack * scale, 0)
        are clipped to 0 before f is applied, so roundoff from congruence
        chains cannot poison square roots and logarithms.  An array is read
        as ``SymMatrix(A)``.
    tol : Tolerances

    Returns
    -------
    SymMatrix
        f applied on the spectrum; its eigenvalues are f of A's (clipped)
        eigenvalues.

    Raises
    ------
    NotPSDError
        If an eigenvalue lies below the negative slack.
    ValueError
        If f fails on some eigenvalue.
    """
    return SymMatrix(_fn_calculus_raw(_per_eigenvalue(f), _as_array(A), tol))


def sqrt_psd(A: SymMatrix, tol: Tolerances = DEFAULT_TOL) -> SymMatrix:
    """Principal square root of a PSD matrix A, read as SymMatrix."""
    return fn_calculus(math.sqrt, A, tol)


def inv_pd(A: SymMatrix, tol: Tolerances = DEFAULT_TOL) -> SymMatrix:
    """Inverse of a positive-definite matrix A, read as SymMatrix.

    Raises
    ------
    SingularMatrixError
        If the smallest eigenvalue does not clear psd_slack * max(1, ||A||_2);
        the error carries that eigenvalue.
    """
    w, q = _eigh(_as_array(A))
    if not _is_pd(w, tol):
        raise SingularMatrixError(
            f"matrix is numerically singular: min eigenvalue {float(w[0]):.6e}",
            min_eigenvalue=float(w[0]),
        )
    out = (q / w) @ q.T
    return SymMatrix(out)


def congruence(C: SymMatrix, X: SymMatrix) -> SymMatrix:
    """Congruence transform C X C, each read as SymMatrix."""
    c, x = _as_array(C), _as_array(X)
    _check_same_dim(c, x)
    return SymMatrix(c @ x @ c)


def _regularize_raw(
    g: Callable[[float], np.ndarray], tol: Tolerances
) -> np.ndarray:
    eps = tol.eps0
    prev = np.asarray(g(eps), dtype=float)
    before = last_distance = None
    while True:
        eps *= 0.5
        if eps < tol.eps_min:
            scale = max(1.0, float(np.linalg.norm(prev)))
            slow_tol = _SLOW_CONVERGENCE_FACTOR * math.sqrt(tol.eps_min) * scale
            if last_distance is not None and last_distance <= slow_tol:
                # Still shrinking, just slower than the Cauchy tolerance;
                # the monotone limit is within O(last step) of the iterate.
                return prev
            raise NonConvergenceError(
                f"regularized limit did not converge by eps_min={tol.eps_min:g}; "
                f"last step distance {last_distance}",
                last=prev,
                previous=before,
                distance=last_distance,
            )
        cur = np.asarray(g(eps), dtype=float)
        distance = float(np.linalg.norm(cur - prev))
        if distance <= tol.eq_tol * max(1.0, float(np.linalg.norm(cur))):
            return cur
        before, prev, last_distance = prev, cur, distance


def regularize_limit(
    g: Callable[[float], SymMatrix], tol: Tolerances = DEFAULT_TOL
) -> SymMatrix:
    """Limit of g(eps) as eps decreases to 0 along eps0 * 2^-k.

    Stops when consecutive iterates agree within eq_tol (relative
    Frobenius) and returns the last iterate.  Sequences converging at a
    square-root rate exhaust the schedule first; they are accepted if the
    final step is small on the sqrt(eps_min) scale, otherwise
    ``NonConvergenceError`` carries the last iterates and their distance.
    An iterate g(eps) that is an array is read as SymMatrix.
    """
    return SymMatrix(_regularize_raw(lambda e: _as_array(g(e)), tol))


def matrix_to_dict(A: SymMatrix) -> dict:
    """Matrix file payload: {"dim": n, "data": [n * n reals, row-major]}."""
    return {"dim": A.dim, "data": A.data.reshape(-1).tolist()}


def _relative_asymmetry(arr: np.ndarray) -> float:
    """||arr - arr^T|| / max(1, ||arr||) in the Frobenius norm, or NaN if
    arr holds a non-finite entry.  When a norm overflows, the ratio is
    taken of arr / max |arr_ij| instead, where ||arr|| > 1 makes it the same."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff, size = np.linalg.norm(arr - arr.T), np.linalg.norm(arr)
        if math.isinf(diff) or math.isinf(size):
            arr = arr / np.abs(arr).max()
            return np.linalg.norm(arr - arr.T) / np.linalg.norm(arr)
    return diff / max(1.0, size)


def matrix_from_dict(obj: dict) -> SymMatrix:
    """Parse the matrix file payload, warning if asymmetry exceeds 1e-12
    relative before symmetrizing."""
    if not isinstance(obj, dict):
        raise ValueError(f"matrix must be an object, got {type(obj).__name__}")
    try:
        dim = obj["dim"]
        data = obj["data"]
    except KeyError as exc:
        raise ValueError(f"matrix object must have 'dim' and 'data': {exc}") from exc
    if not _is_whole(dim) or dim < 1:
        raise ValueError(f"matrix dim must be a whole number >= 1, got {dim!r}")
    dim = int(dim)
    if not isinstance(data, (list, tuple)):
        raise ValueError(
            f"matrix data must be a flat list of numbers, got {type(data).__name__}"
        )
    # One pass over the entries' types: JSON numbers load as int or float.
    if not {float, int}.issuperset(map(type, data)):
        for x in data:
            if not _is_real(x):
                raise ValueError(
                    f"matrix data must be a flat list of numbers, got entry {x!r}"
                )
    try:
        arr = np.asarray(data, dtype=float)
    except OverflowError:
        raise ValueError("matrix data has an entry beyond the largest double") from None
    if arr.size != dim * dim:
        raise ValueError(
            f"matrix data has {arr.size} entries, expected dim*dim = {dim * dim}"
        )
    arr = arr.reshape(dim, dim)
    asym = _relative_asymmetry(arr)
    if asym > ASYMMETRY_WARN_REL:
        warnings.warn(
            f"matrix is asymmetric (relative asymmetry {asym:.3e} > "
            f"{ASYMMETRY_WARN_REL:g}); symmetrizing",
            stacklevel=2,
        )
    return SymMatrix(arr)


def load_matrix(path) -> SymMatrix:
    """Load a matrix from a JSON file in the matrix file format."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return matrix_from_dict(obj)


def save_matrix(A: SymMatrix, path) -> None:
    """Write a matrix to a JSON file in the matrix file format."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_dict(A), fh)
        fh.write("\n")
