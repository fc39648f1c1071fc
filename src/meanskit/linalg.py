"""Symmetric-matrix substrate: eigendecomposition, the Loewner order,
spectral functional calculus, and epsilon-regularized limits.

Everything else in the package (connections, measures, the verification
suites, the CLI) is built on the operations defined here.  All operations
are pure functions of their inputs, ``SymMatrix`` values are immutable
after construction, and no shared mutable state exists, so everything in
this module is safe to call concurrently.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
        Starting value of the regularization shift.
    eps_min : float
        Smallest shift tried before the regularized limit gives up.
    """

    psd_slack: float = 1e-9
    eq_tol: float = 1e-8
    eps0: float = 1e-2
    eps_min: float = 1e-12

    def __post_init__(self):
        for name in ("psd_slack", "eq_tol", "eps0", "eps_min"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not self.eps_min < self.eps0:
            raise ValueError("eps_min must be smaller than eps0")


DEFAULT_TOL = Tolerances()


def _sym(x: np.ndarray) -> np.ndarray:
    """(x + x^T) / 2 over the last two axes, for a matrix or a stack."""
    return (x + x.swapaxes(-1, -2)) * 0.5


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


class SymMatrix:
    """A real symmetric matrix of dimension >= 1.

    Construction symmetrizes the input by averaging with its transpose;
    afterwards the stored entries are exactly symmetric and read-only.
    """

    __slots__ = ("data",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
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
        return cls(np.diag(np.asarray(values, dtype=float)))

    def shifted(self, eps: float) -> "SymMatrix":
        """Return self + eps * I."""
        return SymMatrix(self.data + eps * np.eye(self.dim))

    def tolist(self) -> list[list[float]]:
        return self.data.tolist()

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        if not isinstance(other, SymMatrix):
            return NotImplemented
        _check_same_dim(self.data, other.data)
        return SymMatrix(self.data + other.data)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        if not isinstance(other, SymMatrix):
            return NotImplemented
        _check_same_dim(self.data, other.data)
        return SymMatrix(self.data - other.data)

    def __mul__(self, scalar) -> "SymMatrix":
        return SymMatrix(self.data * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "SymMatrix":
        return SymMatrix(self.data / float(scalar))

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
    if isinstance(A, SymMatrix):
        return A.data
    return np.asarray(A, dtype=float)


def _locate_failure(
    call, a: np.ndarray, core: int, errors
) -> tuple[str, np.ndarray]:
    """For a stack of items with ``core`` trailing dimensions, the text
    ", item i of (k,)" and the first item on which ``call`` raises one of
    ``errors``; for a single item, or when no item fails alone, "" and a."""
    lead = a.shape[: a.ndim - core]
    if lead:
        for index in np.ndindex(lead):
            try:
                call(a[index])
            except errors:
                return f", item {', '.join(map(str, index))} of {lead}", a[index]
    return "", a


def _eigen_error(
    a: np.ndarray, label: str, exc: np.linalg.LinAlgError, solver
) -> EigenSolverError:
    where, item = _locate_failure(solver, a, 2, np.linalg.LinAlgError)
    return EigenSolverError(
        f"eigendecomposition failed for {label} "
        f"(dim {a.shape[-1]}{where}, entries {item.tolist()}): {exc}"
    )


def _eigh(a: np.ndarray, label: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise _eigen_error(a, label, exc, np.linalg.eigh) from exc


def _eigvalsh(a: np.ndarray, label: str = "matrix") -> np.ndarray:
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise _eigen_error(a, label, exc, np.linalg.eigvalsh) from exc


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


def _is_pd(w: np.ndarray, tol: Tolerances, label: str | None = None):
    """Whether an ascending spectrum's smallest eigenvalue is above
    psd_slack * max(1, spectral norm).  With a ``label``, w is first checked
    by ``_check_spectra``, and a stack of shape (..., n) gives a mask."""
    scale = _spectral_scale(w) if label is None else _check_spectra(w, tol, label)
    # w[0] keeps one spectrum's test a comparison of numpy scalars, not arrays.
    return (w[0] if w.ndim == 1 else w[..., 0]) > tol.psd_slack * scale


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
        np.linalg.cholesky(x - shift * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


def frobenius(A) -> float:
    """Frobenius norm of a SymMatrix or array."""
    return float(np.linalg.norm(_as_array(A)))


def opnorm(A) -> float:
    """Spectral norm (largest absolute eigenvalue) of a symmetric matrix."""
    w = _eigvalsh(_as_array(A))
    return max(abs(float(w[0])), abs(float(w[-1])))


def spectrum(A: SymMatrix) -> np.ndarray:
    """All eigenvalues of A with multiplicity, ascending."""
    return _eigvalsh(_as_array(A))


def is_psd(A: SymMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the smallest eigenvalue clears -psd_slack * max(1, ||A||_2)."""
    w = _eigvalsh(_as_array(A))
    return bool(w[0] >= -tol.psd_slack * _spectral_scale(w))


def loewner_leq(A: SymMatrix, B: SymMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Loewner order test A <= B, i.e. B - A positive semidefinite."""
    a, b = _as_array(A), _as_array(B)
    _check_same_dim(a, b)
    return is_psd(b - a, tol)


def _per_eigenvalue(
    fn: Callable[[float], float]
) -> Callable[[np.ndarray], np.ndarray]:
    """Array form of a scalar function that calls it once per eigenvalue,
    with a Python float."""
    return lambda w: np.array([float(fn(float(x))) for x in w.flat]).reshape(w.shape)


def _fn_calculus_raw(
    fn: Callable[[np.ndarray], np.ndarray],
    m: np.ndarray,
    tol: Tolerances,
    label: str = "matrix",
    outer: np.ndarray | None = None,
    on_clip: Callable[[], None] | None = None,
) -> np.ndarray:
    """f(m) for symmetric m of shape (..., n, n).  ``fn`` is the array form
    of f: it maps the clipped spectra, shape (..., n), to their values.
    With ``outer``, of the same shape, the result is outer f(m) outer^T,
    formed from (outer U) f(lambda) (outer U)^T with m = U diag(lambda) U^T.
    ``on_clip``, if given, is called when a spectrum has an eigenvalue
    below 0, before the spectra are checked and clipped; it may raise."""
    w, q = _eigh(m, label)
    # w[0] keeps one spectrum's test a comparison of numpy scalars.
    if on_clip is not None and (w[0] if w.ndim == 1 else w[..., 0].min()) < 0.0:
        on_clip()
    _check_spectra(w, tol, label)
    w = np.maximum(w, 0.0)
    try:
        fw = fn(w)
    except NotPSDError:
        raise
    except Exception as exc:
        where, item = _locate_failure(fn, w, 1, Exception)
        raise ValueError(
            f"scalar function evaluation failed on the spectrum "
            f"{item.tolist()}{where}: {exc}"
        ) from exc
    if outer is not None:
        q = outer @ q
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
        chains cannot poison square roots and logarithms.
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
    """Principal square root of a PSD matrix."""
    return fn_calculus(math.sqrt, A, tol)


def inv_pd(A: SymMatrix, tol: Tolerances = DEFAULT_TOL) -> SymMatrix:
    """Inverse of a positive-definite matrix.

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
    """Congruence transform C X C."""
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
    try:
        dim = obj["dim"]
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"matrix object must have 'dim' and 'data': {exc}") from exc
    if not _is_whole(dim) or dim < 1:
        raise ValueError(f"matrix dim must be a whole number >= 1, got {dim!r}")
    dim = int(dim)
    arr = np.asarray(data, dtype=float)
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
