"""Operator connections and Kubo-Ando means as first-class values.

A connection is a binary operation ``(A, B) -> A sigma B`` on PSD matrices
satisfying monotonicity, the transformer inequality, and continuity from
above.  Each connection is encoded by a scalar representing function f via

    A sigma B = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}

for invertible A, extended to singular A by the decreasing limit over
A + eps*I.  Connections whose f is affine, alpha + beta x, are evaluated as
alpha A + beta B instead, exactly for every PSD pair.  Connections whose
measure is a few atoms, f = w0 + w1 x + sum_i w_i x / ((1 - t_i) x + t_i)
(the weighted harmonic means, the parallel sum, and atom measures with at
most two atoms inside (0, 1)), are evaluated as the sum of weighted
harmonic means w0 A + w1 B + sum_i w_i A (t_i A + (1 - t_i) B)^{-1} B, one
linear solve per atom, when A or B is positive definite, at every dim.
That route needs no limit for a singular operand.  Both of these routes
check their operands with one Cholesky factorization where it certifies
them positive definite, and with their eigenvalues otherwise.  Builtins,
measures and user functions all share this one evaluator.  Connection
values are immutable and freely shareable across threads; ``apply`` is
reentrant.
"""

from __future__ import annotations

import functools
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
    _certified_pd,
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
    "ResultOverflowError",
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
# continuity" of a callable that raises at 0 or is not finite there, such
# as a 0/0 kernel or the transpose of a user function.
_ZERO_PROBE = 1e-12

# The atom route (``_atom_apply``) is taken, at every dim, only for
# measures with few enough atoms that its solves beat the congruence's two
# eigendecompositions.  At dim 128 on a 2-CPU x86_64 machine (numpy 2.4,
# OpenBLAS, one thread), with its operands checked by the Cholesky
# certificate, it costs 0.42x the congruence with one atom inside (0, 1),
# 0.67x with two, 0.92x with three and 1.18x with four (medians of 60
# interleaved pairs of calls, in CPU time).  Three would gain 8% at most,
# and no benchmark workload has three, so the limit stays.
_ATOM_ROUTE_MAX_ATOMS = 2

# Operands whose squared entries sum to more than this (or overflow) are
# scaled by a power of two for evaluation, and the result is scaled back:
# (cA) sigma (cB) = c (A sigma B) for c > 0.  Below it nothing is scaled,
# and every entry and Frobenius norm is at most 2**500.
_SCALE_ABOVE = 2.0**1000

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


class ZeroConnectionError(ValueError):
    """The self-mean equation has no positive solution for the zero
    connection."""


class ResultOverflowError(OverflowError):
    """A sigma B has an entry beyond the largest double.  ``scaled`` is the
    result computed on the operands times 2**-exponent, so the result is
    ``scaled`` times 2**exponent."""

    def __init__(self, message: str, scaled: np.ndarray, exponent: int):
        super().__init__(message)
        self.scaled = scaled
        self.exponent = exponent


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
        """``f_at_0`` is fn(0) where that is a finite number, and otherwise
        fn at ``_ZERO_PROBE``."""
        try:
            with np.errstate(all="ignore"):
                f_at_0 = float(fn(0.0))
        except Exception:  # a user callable may fail at 0 in any way
            f_at_0 = math.nan
        if not math.isfinite(f_at_0):
            f_at_0 = float(fn(_ZERO_PROBE))
        return cls(fn=fn, f_at_0=f_at_0, f_at_1=float(fn(1.0)))


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


def _builtin_atoms(kind: str, weight: float | None) -> tuple | None:
    """The atoms (t, w) of a builtin's measure on [0, 1] when that measure
    is atoms only, and None for geometric(a), 0 < a < 1, and the
    logarithmic mean, whose measures have a density.  A weighted kind is
    left-trivial at weight 0 and right-trivial at weight 1."""
    a = weight
    if kind == "left_trivial" or (kind in WEIGHTED_KINDS and a == 0.0):
        return ((0.0, 1.0),)
    if kind == "right_trivial" or (kind in WEIGHTED_KINDS and a == 1.0):
        return ((1.0, 1.0),)
    if kind == "arithmetic":
        return ((0.0, 1.0 - a), (1.0, a))
    if kind == "harmonic":
        return ((a, 1.0),)
    if kind == "parallel_sum":
        return ((0.5, 0.5),)
    if kind == "sum":
        return ((0.0, 1.0), (1.0, 1.0))
    if kind == "zero":
        return ()
    return None


class Connection(ABC):
    """A binary operation on PSD matrices encoded by its representing
    function."""

    # lim f(y)/y as y -> inf where it is known exactly, else None; it is
    # the value at 0 of the transpose's g(x) = x f(1/x).
    _slope_at_infinity = None

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

    def _returns_symmetric(self) -> bool:
        """Whether ``_apply_raw`` is known to return arrays that are
        symmetric bit for bit, so that ``apply`` wraps them as they are.
        False here: another connection's result is symmetrized."""
        return False

    def apply(
        self, A: SymMatrix, B: SymMatrix, tol: Tolerances = DEFAULT_TOL
    ) -> SymMatrix:
        a, b = A.data, B.data
        _check_same_dim(a, b)
        wrap = SymMatrix._of_symmetric if self._returns_symmetric() else SymMatrix
        if np.vdot(a, a) + np.vdot(b, b) <= _SCALE_ABOVE:
            return wrap(self._apply_raw(a, b, tol))
        # Evaluate with the largest entry scaled into [1, 2).
        exponent = math.frexp(max(np.abs(a).max(), np.abs(b).max()))[1] - 1
        scaled = self._apply_raw(np.ldexp(a, -exponent), np.ldexp(b, -exponent), tol)
        with np.errstate(over="ignore"):
            x = np.ldexp(scaled, exponent)
        if np.isinf(x).any() and np.isfinite(scaled).all():
            raise ResultOverflowError(
                f"A sigma B overflows: its largest entry is "
                f"{np.abs(scaled).max():.6g} * 2**{exponent}",
                scaled=scaled,
                exponent=exponent,
            )
        return wrap(x)

    def __call__(self, A: SymMatrix, B: SymMatrix, tol: Tolerances = DEFAULT_TOL):
        return self.apply(A, B, tol)


def _congruence_apply(
    w: np.ndarray,
    q: np.ndarray,
    b: np.ndarray,
    fn: Callable[[np.ndarray], np.ndarray],
    tol: Tolerances,
    on_clip: Callable[[], None] | None = None,
) -> np.ndarray:
    """A sigma B from the eigendecomposition A = Q diag(w) Q^T of
    positive-definite A, for operands of shape (..., n, n); ``fn`` is the
    array form of f.  It uses the factor X = Q diag(sqrt w) of A = X X^T in
    place of A^{1/2}: A sigma B = X f(M) X^T with M = X^{-1} B X^{-T} =
    (Q diag r)^T B (Q diag r), r = 1/sqrt(w).  M is scaled by multiplying,
    never dividing, so tiny quotients b/a stay representable.  Four n x n
    products, and no A^{1/2} or A^{-1/2} is formed.  ``on_clip`` runs when
    M has a negative eigenvalue, before M's spectrum is checked."""
    sw = np.sqrt(w)[..., None, :]
    qr = q * (1.0 / sw)
    m = _sym(qr.swapaxes(-1, -2) @ b @ qr)
    return _fn_calculus_raw(
        fn, m, tol, label="transformed right operand", outer=q * sw, on_clip=on_clip
    )


def _check_right(b, tol):
    """The ascending spectrum of b, once it is checked PSD as the right operand."""
    w = _eigvalsh(b, "right operand")
    _check_spectra(w, tol, "right operand")
    return w


def _checked_spectra(ab, tol):
    """The ascending spectra of the operands stacked in ab = [A, B], after
    checking that both are PSD.  One eigenvalue solve checks both; the left
    one is blamed first, as two separate checks would.  On a solver
    failure, the two separate checks run instead, so the error names the
    operand."""
    try:
        wa, wb = _eigvalsh(ab)
    except EigenSolverError:
        wa = _eigvalsh(ab[0], "left operand")
        _check_spectra(wa, tol, "left operand")
        wb = _eigvalsh(ab[1], "right operand")
    else:
        _check_spectra(wa, tol, "left operand")
    _check_spectra(wb, tol, "right operand")
    return wa, wb


def _operand_spectra(a, b, tol):
    """None when ``_certified_pd`` shows both (..., n, n) operands positive
    definite, and otherwise their ascending spectra, after checking that
    both are PSD by ``_checked_spectra``.  When a stack fails that check,
    its pairs are checked one at a time, in order, so that it raises what
    its first failing pair raises alone."""
    ab = np.array([a, b])
    if _certified_pd(ab, tol):
        return None
    try:
        return _checked_spectra(ab, tol)
    except (EigenSolverError, NotPSDError):
        if a.ndim == 2:
            raise
    n = a.shape[-1]
    pairs = ab.reshape(2, -1, n, n)
    spectra = [np.stack(_checked_spectra(pairs[:, i], tol)) for i in range(pairs.shape[1])]
    return np.stack(spectra, axis=1).reshape(2, *a.shape[:-1])


def _atom_apply(atoms: tuple, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum of w (A !_t B) over the atoms (t, w), for operands of shape
    (..., n, n): w A at t = 0, w B at t = 1, and the weighted harmonic mean
    w A (t A + (1 - t) B)^{-1} B inside (0, 1), by one linear solve per atom
    (Anderson and Duffin's parallel sum; Kubo and Ando).  It needs each
    pivot t A + (1 - t) B positive definite, and then no limit for a
    singular operand."""
    out = 0.0
    for t, w in atoms:
        if t == 0.0:
            term = a
        elif t == 1.0:
            term = b
        else:
            term = a @ np.linalg.solve(t * a + (1.0 - t) * b, b)
        out = out + w * term
    return _sym(out)


class _FunctionBackedConnection(Connection):
    """Shared apply machinery for connections given by a representing
    function ``repr_function`` and its array form ``_fn_array``, which
    maps a spectrum array to the values of f.  For builtins and measures
    the array form is ``repr_function.fn`` itself.

    ``_affine`` holds (alpha, beta) when f is exactly alpha + beta x, and
    ``_atoms`` the atoms of a measure of the atom route; ``_route_from_measure``
    sets both, and ``_apply_raw`` chooses the route from them.
    """

    _affine = None
    _atoms = None

    def _route_from_measure(self, atoms: tuple, has_density: bool) -> tuple:
        """Set ``_affine``, ``_atoms`` and ``_slope_at_infinity`` from a
        measure on [0, 1], given by its atoms (t, w) at distinct t and
        whether it has a density; the one rule from a measure to its route.

        With w0 and w1 the atoms at t = 0 and t = 1, f is
        w0 + w1 x + sum_i w_i x / ((1 - t_i) x + t_i) over the atoms t_i
        inside (0, 1) and the density.  With no mass inside (0, 1), f is
        affine, (w0, w1).  Atoms only, with at most ``_ATOM_ROUTE_MAX_ATOMS``
        inside (0, 1), take the atom route.  f(y)/y tends to w1.  Returns
        (w0, w1, the atoms inside (0, 1)).
        """
        ends = dict(atoms)
        w0, w1 = ends.get(0.0, 0.0), ends.get(1.0, 0.0)
        interior = [(t, w) for t, w in atoms if 0.0 < t < 1.0]
        if not (interior or has_density):
            self._affine = (w0, w1)
        elif not has_density and len(interior) <= _ATOM_ROUTE_MAX_ATOMS:
            self._atoms = atoms
        self._slope_at_infinity = w1
        return w0, w1, interior

    def _takes_atom_route(self, a, b, tol) -> bool:
        """Whether each pivot t A + (1 - t) B of an atom inside (0, 1) is
        positive definite, for (..., n, n) operands that
        ``_operand_spectra`` checks to be PSD.  Operands that
        ``_certified_pd`` vouches for pass without spectra: their smallest
        eigenvalues exceed twice the slack.  Otherwise ``_is_pd`` decides
        on the pivot's Weyl bounds: for the ascending spectra wa and wb,
        t wa + (1 - t) wb is ascending, its first entry bounds the pivot's
        smallest eigenvalue from below and its last the largest from above.
        That holds when A or B is positive definite and the other one's
        eigenvalues in the PSD slack below 0 are small against it; a pivot
        near singular would amplify them."""
        spectra = _operand_spectra(a, b, tol)
        if spectra is None:
            return True
        n = a.shape[-1]
        wa, wb = (w.reshape(-1, n) for w in spectra)
        return all(
            _is_pd(t * x + (1.0 - t) * y, tol)
            for x, y in zip(wa, wb)
            for t, _ in self._atoms
            if 0.0 < t < 1.0
        )

    def _apply_raw(self, a, b, tol):
        """A sigma B for one pair of (n, n) operands or each pair of two
        (k, n, n) stacks.  The route is decided here, in this order:

        1. affine f: alpha A + beta B, once ``_operand_spectra`` has
           checked both operands; exact for every PSD pair;
        2. ``_atom_apply`` when ``_takes_atom_route``, at every dim;
        3. A's eigendecomposition, and ``_is_pd`` on its spectrum;
        4. positive-definite A: the congruence around A;
        5. any other A: the decreasing epsilon-limit of the congruence.

        A stack takes steps 1, 2 and 4 in one call each.  A stack that
        declines step 2, or has a left operand that is not positive
        definite, goes through ``_apply_raw`` pair by pair, and so raises
        what its first failing pair raises alone.  The congruence checks
        B's own spectrum before it clips the transformed right operand.
        """
        if self._affine is not None:
            _operand_spectra(a, b, tol)
            alpha, beta = self._affine
            return alpha * a + beta * b
        stack = a.ndim > 2
        if self._atoms is not None:
            if self._takes_atom_route(a, b, tol):
                return _atom_apply(self._atoms, a, b)
            if stack:
                return super()._apply_stack(a, b, tol)
        w, q = _eigh(a, "left operand")
        pd = _is_pd(w, tol, "left operand")
        if stack:
            if not pd.all():
                return super()._apply_stack(a, b, tol)
        elif not pd:
            # Singular left operand: clip its spectrum to [0, inf) and take
            # the decreasing limit over a joint shift of both operands.
            wc = np.maximum(w, 0.0)
            eye = np.eye(a.shape[0])
            fn = self._fn_array
            # B is checked once, however many steps clip.
            check = functools.cache(lambda: _check_right(b, tol))
            return _regularize_raw(
                lambda eps: _congruence_apply(wc + eps, q, b + eps * eye, fn, tol, check),
                tol,
            )
        return _congruence_apply(w, q, b, self._fn_array, tol, lambda: _check_right(b, tol))

    def _returns_symmetric(self) -> bool:
        """Every route ends in ``_sym`` or in alpha A + beta B of stored
        symmetric operands, and scaling by a power of two keeps that, unless
        a subclass replaces the evaluator."""
        return type(self)._apply_raw is _FunctionBackedConnection._apply_raw

    # One body serves pairs and stacks.  The second name stays because
    # per-call wrappers of ``_apply_raw``, such as the benchmark's tracer,
    # expect 2-D operands: a stack enters through this unwrapped binding,
    # and a stack that goes pair by pair hands ``_apply_raw`` 2-D pairs.
    _apply_stack = _apply_raw


class BuiltinConnection(_FunctionBackedConnection):
    """One of the named connections, with exact representing-function
    constants at 0 and 1.

    Its route follows from its measure, as for a measure connection: the
    kinds whose measure has no mass inside (0, 1) (left/right trivial,
    arithmetic, sum, zero, and geometric or harmonic at weight 0 or 1) are
    applied as alpha A + beta B, exact for singular operands.
    """

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
        atoms = _builtin_atoms(kind, weight)
        self._route_from_measure(() if atoms is None else atoms, atoms is None)

    def __repr__(self) -> str:
        if self.weight is None:
            return f"BuiltinConnection({self.kind!r})"
        return f"BuiltinConnection({self.kind!r}, weight={self.weight})"


class FunctionConnection(_FunctionBackedConnection):
    """Connection defined by a user-supplied representing function.

    Operator monotonicity of the function is accepted on trust; it is only
    audited on the sample grid by ``repr_fn_audit``.
    """

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
    representing function is g(x) = x * f(1/x).  Its value at 0 is
    g(0) = lim f(y)/y as y -> inf, exact where the inner connection knows
    that slope (builtins, measures and transposes), and otherwise taken by
    ``ReprFunction.from_callable``."""

    def __init__(self, inner: Connection):
        self.inner = inner

        def g(x):
            y = 1.0 / x
            if y == math.inf:
                raise ValueError(
                    f"transposed representing function: 1/x overflows at x = {x!r}"
                )
            return x * inner.fn(y)

        if inner._slope_at_infinity is None:
            self.repr_function = ReprFunction.from_callable(g)
        else:
            self.repr_function = ReprFunction(g, inner._slope_at_infinity, float(g(1.0)))
        # g(y)/y = f(1/y) tends to f(0).
        self._slope_at_infinity = float(inner.fn(0.0))

    def _apply_raw(self, a, b, tol):
        return self.inner._apply_raw(b, a, tol)

    def _apply_stack(self, a, b, tol):
        return self.inner._apply_stack(b, a, tol)

    def _returns_symmetric(self) -> bool:
        return (
            type(self)._apply_raw is TransposeConnection._apply_raw
            and self.inner._returns_symmetric()
        )

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
    exact for singular operands too.  The weighted harmonic means (weight
    inside (0, 1)), the parallel sum and atom measures with at most two
    atoms inside (0, 1) return the sum of weighted harmonic means
    w0 A + w1 B + sum_i w_i A (t_i A + (1 - t_i) B)^{-1} B, one linear solve
    per atom, when A or B is positive definite, at every dim; rank-deficient
    A with positive-definite B is then exact, with no limit.  Otherwise
    numerically positive-definite A takes the congruence formula and
    singular A the decreasing epsilon-limit.  Measure connections take the
    same routes with their quadrature-built f.  The result is PSD within
    slack, and for dim 1 equals the scalar a * f(b/a) (for a = 0, b times
    lim f(y)/y on the atom route, and the epsilon-limit otherwise).
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
