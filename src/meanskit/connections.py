"""Operator connections and Kubo-Ando means as first-class values.

A connection is a binary operation ``(A, B) -> A sigma B`` on PSD matrices
satisfying monotonicity, the transformer inequality, and continuity from
above.  Each connection is encoded by a scalar representing function f via

    A sigma B = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}

for invertible A, extended to singular A by the decreasing limit over
A + eps*I.  Connections whose f is affine, alpha + beta x, are evaluated as
alpha A + beta B instead, exactly for every PSD pair.  Builtins, measures
and user functions all share this one evaluator.  Connection values are
immutable and freely shareable across threads; ``apply`` is reentrant.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    EigenSolverError,
    NotPSDError,
    SingularMatrixError,
    SymMatrix,
    Tolerances,
    _check_same_dim,
    _check_spectra,
    _eigh,
    _eigvalsh,
    _fn_calculus_raw,
    _is_pd,
    _per_eigenvalue,
    _regularize_raw,
    _sym,
)

__all__ = [
    "AUDIT_GRID",
    "BUILTIN_KINDS",
    "WEIGHTED_KINDS",
    "BuiltinConnection",
    "ClassificationRecord",
    "Connection",
    "FunctionConnection",
    "ReprFunction",
    "TransposeConnection",
    "ZeroConnectionError",
    "apply",
    "classify",
    "connection_from_function",
    "is_mean",
    "make_builtin",
    "repr_fn_audit",
    "repr_fn_eval",
    "solve_self_mean_equation",
    "transpose",
]

# Grid used to audit representing functions for monotonicity and concavity.
AUDIT_GRID = tuple(2.0**k for k in range(-10, 11))

# Probe at which ``ReprFunction.from_callable`` takes the value "at 0 by
# continuity" of a function given only as a callable, transposes included.
_ZERO_PROBE = 1e-12

BUILTIN_KINDS = (
    "left_trivial",
    "right_trivial",
    "arithmetic",
    "geometric",
    "harmonic",
    "logarithmic",
    "parallel_sum",
    "sum",
    "zero",
)
WEIGHTED_KINDS = frozenset({"arithmetic", "geometric", "harmonic"})
# (alpha, beta) of the unweighted kinds whose f is alpha + beta x.
_AFFINE_KINDS = {
    "left_trivial": (1.0, 0.0),
    "right_trivial": (0.0, 1.0),
    "sum": (1.0, 1.0),
    "zero": (0.0, 0.0),
}


class ZeroConnectionError(ValueError):
    """The self-mean equation has no positive solution for the zero
    connection."""


@dataclass(frozen=True)
class ReprFunction:
    """A scalar representing function f: [0, inf) -> [0, inf).

    ``f_at_0`` is the value at 0 by continuity; for kernels like the
    logarithmic mean the raw formula is 0/0 there.  ``f_at_1`` decides
    whether the connection is a mean.  Calling it is the one place that
    checks x against the domain.
    """

    fn: Callable[[float], float]
    f_at_0: float
    f_at_1: float

    def __call__(self, x: float) -> float:
        if not 0.0 <= x < math.inf:
            raise ValueError(f"representing functions are defined on [0, inf), got {x}")
        if x == 0:
            return self.f_at_0
        return float(self.fn(x))

    @classmethod
    def from_callable(cls, fn: Callable[[float], float]) -> "ReprFunction":
        return cls(fn=fn, f_at_0=float(fn(_ZERO_PROBE)), f_at_1=float(fn(1.0)))


def _log_mean(x):
    # (x - 1)/log x on a float or an array, and 0 at x = 0.  The 0/0 at
    # x = 1 is bridged with the series for u/log(1+u), since direct division
    # loses digits for |x - 1| < 1e-4.  Spectra seldom hold 0 or points near
    # 1, so the common case is one division.
    x = np.asarray(x)
    u = x - 1.0
    series = np.abs(u) < 1e-4
    if not series.any() and x.min() > 0.0:
        return u / np.log(x)
    direct = ~series & (x > 0.0)
    value = np.zeros_like(x)
    us = u[series]
    value[series] = 1.0 / (1.0 + us * (-0.5 + us * (1.0 / 3.0 - 0.25 * us)))
    value[direct] = u[direct] / np.log(x[direct])
    return value


def _builtin_repr_function(kind: str, weight: float | None) -> ReprFunction:
    """A builtin's representing function.  Its ``fn`` is a numpy expression
    that takes a Python float or a whole spectrum array, so it is also the
    connection's array form of f."""
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
        return ReprFunction(_log_mean, 0.0, 1.0)
    if kind == "parallel_sum":
        return ReprFunction(lambda x: x / (1.0 + x), 0.0, 0.5)
    if kind == "sum":
        return ReprFunction(lambda x: 1.0 + x, 1.0, 2.0)
    if kind == "zero":
        return ReprFunction(np.zeros_like, 0.0, 0.0)
    raise ValueError(f"unknown builtin kind {kind!r}; expected one of {BUILTIN_KINDS}")


class Connection(ABC):
    """A binary operation on PSD matrices encoded by its representing
    function."""

    def fn(self, x: float) -> float:
        """Value of the representing function at x >= 0."""
        return self.repr_function(x)

    @abstractmethod
    def _apply_raw(
        self, a: np.ndarray, b: np.ndarray, tol: Tolerances
    ) -> np.ndarray:
        """Apply on raw arrays; used internally by the verification suites."""

    def _apply_stack(
        self, a: np.ndarray, b: np.ndarray, tol: Tolerances
    ) -> np.ndarray:
        """Apply to each pair of two (k, n, n) stacks; the suites evaluate a
        trial's operands of one dimension in one such call.  This default
        calls ``_apply_raw`` once per pair."""
        return np.stack([self._apply_raw(x, y, tol) for x, y in zip(a, b)])

    def apply(
        self, A: SymMatrix, B: SymMatrix, tol: Tolerances = DEFAULT_TOL
    ) -> SymMatrix:
        _check_same_dim(A.data, B.data)
        return SymMatrix(self._apply_raw(A.data, B.data, tol))

    def __call__(self, A: SymMatrix, B: SymMatrix, tol: Tolerances = DEFAULT_TOL):
        return self.apply(A, B, tol)


def _congruence_apply(
    w: np.ndarray,
    q: np.ndarray,
    b: np.ndarray,
    fn: Callable[[np.ndarray], np.ndarray],
    tol: Tolerances,
) -> np.ndarray:
    """A sigma B from the eigendecomposition A = Q diag(w) Q^T of
    positive-definite A, for operands of shape (..., n, n); ``fn`` is the
    array form of f.  It uses the factor X = Q diag(sqrt w) of A = X X^T in
    place of A^{1/2}: A sigma B = X f(M) X^T with M = X^{-1} B X^{-T} =
    (Q diag r)^T B (Q diag r), r = 1/sqrt(w).  M is scaled by multiplying,
    never dividing, so tiny quotients b/a stay representable.  Four n x n
    products, and no A^{1/2} or A^{-1/2} is formed."""
    sw = np.sqrt(w)[..., None, :]
    qr = q * (1.0 / sw)
    m = _sym(qr.swapaxes(-1, -2) @ b @ qr)
    return _fn_calculus_raw(fn, m, tol, label="transformed right operand", outer=q * sw)


class _FunctionBackedConnection(Connection):
    """Shared apply machinery for connections given by a representing
    function ``repr_function`` and its array form ``_fn_array``, which
    maps a spectrum array to the values of f.  For builtins and measures
    the array form is ``repr_function.fn`` itself.

    ``_affine`` holds (alpha, beta) when f is exactly alpha + beta x; such a
    connection is alpha A + beta B for every PSD pair, singular or not, and
    skips the congruence formula and its epsilon-limit.
    """

    _affine = None

    def _apply_affine(self, a, b, tol):
        # One eigenvalue solve checks both operands; the left one is blamed
        # first, as two separate checks would.  On a solver failure, the two
        # separate checks run instead, so the error names the operand.
        try:
            w = _eigvalsh(np.stack([a, b]))
        except EigenSolverError:
            _check_spectra(_eigvalsh(a, "left operand"), tol, "left operand")
            _check_spectra(_eigvalsh(b, "right operand"), tol, "right operand")
        else:
            _check_spectra(w[0], tol, "left operand")
            _check_spectra(w[1], tol, "right operand")
        alpha, beta = self._affine
        return alpha * a + beta * b

    def _apply_raw(self, a, b, tol):
        if self._affine is not None:
            return self._apply_affine(a, b, tol)
        w, q = _eigh(a, "left operand")
        pd = _is_pd(w, tol, "left operand")
        fn = self._fn_array
        try:
            if pd:
                return _congruence_apply(w, q, b, fn, tol)
            # Singular left operand: clip its spectrum to [0, inf) and take
            # the decreasing limit over a joint shift of both operands.
            wc = np.maximum(w, 0.0)
            eye = np.eye(a.shape[0])
            return _regularize_raw(
                lambda eps: _congruence_apply(wc + eps, q, b + eps * eye, fn, tol), tol
            )
        except NotPSDError:
            # Blame the right operand when it is the one out of the cone.
            _check_spectra(_eigvalsh(b, "right operand"), tol, "right operand")
            raise

    def _apply_stack(self, a, b, tol):
        """Apply to each pair of two (k, n, n) stacks.  The left operands are
        checked as ``_apply_raw`` checks them; when all are positive
        definite, the stack goes through one congruence, and otherwise
        through ``_apply_raw`` pair by pair."""
        if self._affine is not None:
            return self._apply_affine(a, b, tol)
        w, q = _eigh(a, "left operand")
        if not _is_pd(w, tol, "left operand").all():
            return super()._apply_stack(a, b, tol)
        try:
            return _congruence_apply(w, q, b, self._fn_array, tol)
        except NotPSDError:
            _check_spectra(_eigvalsh(b, "right operand"), tol, "right operand")
            raise


class BuiltinConnection(_FunctionBackedConnection):
    """One of the named connections, with exact representing-function
    constants at 0 and 1.

    The affine kinds (left/right trivial, arithmetic, sum, zero, and
    geometric or harmonic at weight 0 or 1) are applied as alpha A + beta B
    rather than through the congruence formula.  That is exact for
    singular operands, and it keeps zero betweenness margins zero instead
    of letting conditioning-amplified roundoff decide their sign.
    """

    __slots__ = ("kind", "weight", "repr_function", "_fn_array", "_affine")

    def __init__(self, kind: str, weight: float | None = None):
        if kind not in BUILTIN_KINDS:
            raise ValueError(
                f"unknown builtin kind {kind!r}; expected one of {BUILTIN_KINDS}"
            )
        if kind in WEIGHTED_KINDS:
            if weight is None:
                raise ValueError(f"builtin {kind!r} requires a weight in [0, 1]")
            weight = float(weight)
            if not 0.0 <= weight <= 1.0:
                raise ValueError(f"weight out of range [0, 1]: {weight}")
        else:
            weight = None
        self.kind = kind
        self.weight = weight
        self.repr_function = _builtin_repr_function(kind, weight)
        self._fn_array = self.repr_function.fn
        if kind == "arithmetic" or weight in (0.0, 1.0):
            self._affine = (1.0 - weight, weight)
        else:
            self._affine = _AFFINE_KINDS.get(kind)

    def __repr__(self) -> str:
        if self.weight is None:
            return f"BuiltinConnection({self.kind!r})"
        return f"BuiltinConnection({self.kind!r}, weight={self.weight})"


class FunctionConnection(_FunctionBackedConnection):
    """Connection defined by a user-supplied representing function.

    Operator monotonicity of the function is accepted on trust; it is only
    audited on the sample grid by ``repr_fn_audit``.
    """

    __slots__ = ("repr_function", "_fn_array")

    def __init__(self, f):
        if isinstance(f, ReprFunction):
            self.repr_function = f
        else:
            self.repr_function = ReprFunction.from_callable(f)
        self._fn_array = _per_eigenvalue(self.repr_function)

    def __repr__(self) -> str:
        return f"FunctionConnection({self.repr_function!r})"


class TransposeConnection(Connection):
    """The transpose (A, B) -> B sigma A of an inner connection; its
    representing function is g(x) = x * f(1/x)."""

    __slots__ = ("inner", "repr_function")

    def __init__(self, inner: Connection):
        self.inner = inner

        def g(x):
            y = 1.0 / x
            if y == math.inf:
                raise ValueError(
                    f"transposed representing function: 1/x overflows at x = {x!r}"
                )
            return x * inner.fn(y)

        self.repr_function = ReprFunction.from_callable(g)

    def _apply_raw(self, a, b, tol):
        return self.inner._apply_raw(b, a, tol)

    def _apply_stack(self, a, b, tol):
        return self.inner._apply_stack(b, a, tol)

    def __repr__(self) -> str:
        return f"TransposeConnection({self.inner!r})"


def make_builtin(kind: str, weight: float | None = None) -> BuiltinConnection:
    """Builtin connection by kind; weight applies to the weighted kinds
    (arithmetic, geometric, harmonic) and is ignored otherwise."""
    return BuiltinConnection(kind, weight)


def connection_from_function(f) -> FunctionConnection:
    """Connection from a representing function (callable or ReprFunction)."""
    return FunctionConnection(f)


def transpose(conn: Connection) -> TransposeConnection:
    """The connection (A, B) -> B sigma A."""
    return TransposeConnection(conn)


def apply(
    conn: Connection, A: SymMatrix, B: SymMatrix, tol: Tolerances = DEFAULT_TOL
) -> SymMatrix:
    """Evaluate A sigma B.

    A connection with affine f = alpha + beta x returns alpha A + beta B,
    exact for singular operands too.  Otherwise numerically
    positive-definite A takes the congruence formula and singular A the
    decreasing epsilon-limit.  Measure connections take the same routes
    with their quadrature-built f.  The result is PSD within slack, and for
    dim 1 equals the scalar a * f(b/a) (or the epsilon-limit when a = 0).
    """
    return conn.apply(A, B, tol)


def repr_fn_eval(conn: Connection, x: float, tol: Tolerances = DEFAULT_TOL) -> float:
    """Representing-function value f(x) for x >= 0.

    Consistent with ``apply`` on 1x1 matrices: f(x) = the single entry of
    [1] sigma [x].  ``tol`` is not read: f is evaluated directly, so no
    tolerance changes its value.  The tolerance flags of the CLI's
    ``function`` subcommand are validated but do not change its table.
    """
    return float(conn.fn(float(x)))


def is_mean(conn: Connection, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff f(1) = 1 within eq_tol (fixed-point property)."""
    return abs(conn.fn(1.0) - 1.0) <= tol.eq_tol


@dataclass(frozen=True)
class ClassificationRecord:
    """Outcome of classifying a connection.

    Strictness applies to means only; for non-means the three strictness
    fields are None (not applicable).
    """

    is_zero: bool
    is_mean: bool
    is_left_trivial: bool
    is_right_trivial: bool
    strict_left: bool | None
    strict_right: bool | None
    strict: bool | None

    def to_dict(self) -> dict:
        return asdict(self)


def classify(conn: Connection, tol: Tolerances = DEFAULT_TOL) -> ClassificationRecord:
    """Classify a connection from two probes of its representing function.

    f(1) decides zero-ness and mean-ness.  For a mean, a single probe at
    x = 2 decides triviality: a non-trivial mean cannot have f(2) = 1 or
    f(2) = 2, by the rigidity of operator monotone functions that are
    constant (or the identity) on an interval.
    """
    f1 = float(conn.fn(1.0))
    f2 = float(conn.fn(2.0))
    zero = f1 <= tol.eq_tol
    mean = abs(f1 - 1.0) <= tol.eq_tol
    left = mean and abs(f2 - 1.0) <= tol.eq_tol
    right = mean and abs(f2 - 2.0) <= tol.eq_tol
    if mean:
        strict_left = not left
        strict_right = not right
        strict = strict_left and strict_right
    else:
        strict_left = strict_right = strict = None
    return ClassificationRecord(
        is_zero=zero,
        is_mean=mean,
        is_left_trivial=left,
        is_right_trivial=right,
        strict_left=strict_left,
        strict_right=strict_right,
        strict=strict,
    )


def solve_self_mean_equation(
    conn: Connection, A: SymMatrix, tol: Tolerances = DEFAULT_TOL
) -> SymMatrix:
    """Unique positive-definite solution X of X sigma X = A.

    By congruence invariance X sigma X = f(1) X, so X = A / f(1); for a
    mean X = A.
    """
    w = _eigvalsh(A.data, "left operand")
    if not _is_pd(w, tol):
        raise SingularMatrixError(
            f"self-mean equation requires positive-definite A "
            f"(min eigenvalue {float(w[0]):.6e})",
            min_eigenvalue=float(w[0]),
        )
    f1 = float(conn.fn(1.0))
    if f1 <= tol.eq_tol:
        raise ZeroConnectionError(
            "the zero connection maps every X to 0; X sigma X = A has no "
            "positive solution"
        )
    return A * (1.0 / f1)


def repr_fn_audit(target, grid=AUDIT_GRID) -> dict:
    """Sampled audit of a representing function on a grid.

    Returns margins (nonnegative means the property holds on the sample):

    - ``min_value``: smallest sampled value (nonnegativity),
    - ``min_increment``: smallest f(x_{i+1}) - f(x_i) over consecutive grid
      points (monotonicity),
    - ``min_concavity_gap``: smallest f((x+y)/2) - (f(x)+f(y))/2 over grid
      pairs (midpoint concavity).
    """
    f = target.fn if isinstance(target, Connection) else target
    xs = sorted(float(x) for x in grid)
    values = [float(f(x)) for x in xs]
    min_value = min(values)
    min_increment = min(
        (values[i + 1] - values[i] for i in range(len(xs) - 1)), default=0.0
    )
    min_gap = math.inf
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            mid = float(f((xs[i] + xs[j]) / 2.0))
            min_gap = min(min_gap, mid - (values[i] + values[j]) / 2.0)
    if min_gap is math.inf:
        min_gap = 0.0
    return {
        "min_value": min_value,
        "min_increment": min_increment,
        "min_concavity_gap": min_gap,
    }
