"""Operator connections and Kubo-Ando means as first-class values.

A connection is a binary operation ``(A, B) -> A sigma B`` on PSD matrices
satisfying monotonicity, the transformer inequality, and continuity from
above.  Each connection is encoded by a scalar representing function f via

    A sigma B = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}

for invertible A.  f is held as its perspective H(c, d) = c f(d/c), with
H(1, x) = f(x) and H(0, d) = d lim f(y)/y, and every PSD pair is evaluated
by the form of Pusz and Woronowicz around S = A + B = X X^T,
X H(C, I - C) X^T with C = X^+ A X^+^T, which needs no limit; a transpose
swaps H's arguments.  Connections whose measure is a few atoms,
f = w0 + w1 x + sum_i w_i x / ((1 - t_i) x + t_i) (the affine kinds, the
weighted harmonic means, the parallel sum, and atom measures with at most
two atoms inside (0, 1)), are evaluated as the sum of weighted harmonic
means w0 A + w1 B + sum_i w_i A (t_i A + (1 - t_i) B)^{-1} B when A or B is
positive definite; with no atom inside (0, 1) that is alpha A + beta B,
exact for every PSD pair.  Builtins, measures, user functions and every
transpose share this one evaluator.  Connection values are immutable
and freely shareable across threads; ``apply`` is reentrant.
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
    _EPS,
    SingularMatrixError,
    SymMatrix,
    Tolerances,
    _certified_pd,
    _check_same_dim,
    _check_spectra,
    _eigh,
    _eigvalsh,
    _float,
    _is_pd,
    _lapack,
    _per_eigenvalue,
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
# as a 0/0 kernel.  The perspective of a function known only as f takes
# H(0, d) = d lim f(y)/y at y = 1 / _ZERO_PROBE.
_ZERO_PROBE = 1e-12

# The atom route (``_atom_apply``) is taken, at every dim, only for
# measures with few enough atoms that its solves beat two
# eigendecompositions.  At dim 128 on a 2-CPU x86_64 machine (numpy 2.4,
# OpenBLAS, one thread), with its operands checked by the Cholesky
# certificate, it cost 0.42x the congruence around A, which the step around
# A + B replaced, with one atom inside (0, 1), 0.67x with two, 0.92x with
# three and 1.18x with four (medians of 60 interleaved pairs of calls, in
# CPU time).  Three would gain 8% at most, so the limit stays.
_ATOM_ROUTE_MAX_ATOMS = 2

# Operands with an entry above this are scaled by the smallest power of two
# that brings their largest entry to at most this, and the result is scaled
# back: (cA) sigma (cB) = c (A sigma B) for c > 0.  Scaling no further keeps
# a small operand from underflowing to 0; ``_apply_raw`` met no overflow on
# PD pairs with entries up to 2**1010 at dims 1 to 128.
_SCALE_ABOVE = 2.0**1000

# An eigenvalue at most n times this times its spectrum's largest is 0.
_RANK_FACTOR = 8.0 * _EPS

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
    logarithmic mean the raw formula is 0/0 there.  ``f_at_1`` is the
    stored value f(1).  Calling it is the one place that checks x against
    the domain.
    """

    fn: Callable[[float], float]
    f_at_0: float
    f_at_1: float

    def __call__(self, x: float) -> float:
        x = _float(x)
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


def _quotient_perspective(f: ReprFunction) -> Callable:
    """H(c, d) = c f(d/c) of a function known only as f, f called per point
    by ``_per_eigenvalue``, and H(0, d) = d lim f(y)/y at y = 1 / _ZERO_PROBE.
    A quotient d/c beyond the largest double raises and names those c."""
    per_point = _per_eigenvalue(f)

    def h(c, d):
        c, d = np.asarray(c, float), np.asarray(d, float)
        if c.shape != d.shape:
            c, d = np.broadcast_arrays(c, d)
        # Python floats: numpy's per-call overhead would double H at n = 2.
        cs = c.ravel().tolist()
        ys = [y / x if x > 0.0 else 0.0 for x, y in zip(cs, d.ravel().tolist())]
        if math.inf in ys:
            at = [x for x, y in zip(cs, ys) if y == math.inf]
            raise ValueError(f"representing function: d/c overflows in c f(d/c) at c = {at}")
        values = c * per_point(np.array(ys).reshape(c.shape))
        if 0.0 not in cs:
            return values
        # f(0) stood in at c = 0, where H(0, d) = d lim f(y)/y.
        return np.where(c > 0.0, values, d * (_ZERO_PROBE * f(1.0 / _ZERO_PROBE)))

    return h


def _log_mean(x):
    # (x - 1)/log x on a float or an array, and 0 at x = 0.  The 0/0 at
    # x = 1 is bridged with the series for u/log(1+u), since direct division
    # loses digits for |x - 1| < 1e-4.  Spectra seldom hold 0 or points near
    # 1, so the common case is one division.
    x = np.asarray(x)
    u = x - 1.0
    series = np.abs(u) < 1e-4
    if not series.any() and (x > 0.0).all():
        return u / np.log(x)
    direct = ~series & (x > 0.0)
    value = np.zeros_like(x)
    us = u[series]
    value[series] = 1.0 / (1.0 + us * (-0.5 + us * (1.0 / 3.0 - 0.25 * us)))
    value[direct] = u[direct] / np.log(x[direct])
    return value


def _quotient_form(c, d, f, swapped):
    """H(c, d) = c f(d/c) of geometric(a) or the logarithmic mean, as a
    user's f has it, where that is finite, else ``swapped(c, d)``, c^(1-a) d^a
    or d L(c/d), which takes no d/c.  fn is f(x) = H(1, x), a transpose's fn
    swapped(x, 1).  Testing d/c first skips the error state and the swapped
    form, which double the log mean's 8 us at n = 2 (x86_64, numpy 2.4)."""
    if isinstance(c, float) and c == 1.0:
        return f(d)
    if isinstance(d, float):
        return swapped(c, d)
    if (d * 2.0**-1000 < c).all():
        return c * f(d / c)
    with np.errstate(all="ignore"):
        h = c * f(d / c)
        return np.where(np.isfinite(h), h, swapped(c, d))


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


def _kernel_sum(c, d, w0, w1, ts, us, ws):
    """H(c, d) = w0 c + w1 d + sum_i w_i c d / (t_i c + u_i d), u_i = 1 - t_i,
    ends first, on floats or arrays: the perspective of a measure with atoms
    w0 at t = 0 and w1 at t = 1 and interior atoms and quadrature nodes
    (t_i, w_i).  (c d / ...) @ w, not (w c d) / ..., keeps x / (1 + x)
    exact at the smallest subnormal x."""
    c, d = np.asarray(c), np.asarray(d)
    cs, ds = c[..., None], d[..., None]
    return w0 * c + w1 * d + ((cs * ds) / (ts * cs + us * ds)) @ ws


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
        a, b = A.data, B.data
        _check_same_dim(a, b)
        wrap = SymMatrix._of_symmetric if _returns_symmetric(self) else SymMatrix
        exponent = 0
        # No entry is above the threshold where the squares sum to at most it.
        if np.vdot(a, a) + np.vdot(b, b) > _SCALE_ABOVE:
            # r = m 2**e, m in [0.5, 1), is at most 2**(e - 1) iff m = 0.5.
            m, e = math.frexp(max(np.abs(a).max(), np.abs(b).max()) / _SCALE_ABOVE)
            exponent = max(e - (m == 0.5), 0)
        if not exponent:
            return wrap(self._apply_raw(a, b, tol))
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


def _checked_spectrum(x, tol, label):
    """The ascending spectrum of the operand x, or of each item of a
    (k, n, n) stack, once it is checked PSD; a solver failure and a
    spectrum outside the cone both name ``label``."""
    w = _eigvalsh(x, label)
    _check_spectra(w, tol, label)
    return w


def _operand_spectra(a, b, tol):
    """None when ``_certified_pd`` shows both (..., n, n) operands positive
    definite, and otherwise their ascending spectra, each checked PSD by
    ``_checked_spectrum``, the left one first."""
    if _certified_pd(np.array([a, b]), tol):
        return None
    return (
        _checked_spectrum(a, tol, "left operand"),
        _checked_spectrum(b, tol, "right operand"),
    )


def _atom_apply(atoms: tuple, a: np.ndarray, b: np.ndarray, spectra) -> np.ndarray:
    """w0 A + w1 B plus w A (t A + u B)^{-1} B, one linear solve, per
    interior atom (t, u = 1 - t, w) of the record (w0, w1, interior), for
    operands of shape (..., n, n) (Anderson and Duffin's parallel sum; Kubo
    and Ando).  It needs each pivot positive definite, and then no limit
    for a singular operand.  Only a solve needs ``_sym``; w0 A + w1 B is
    symmetric.  Where the operands' ``spectra`` (None where
    ``_certified_pd`` vouches for them, which needs them near in scale) put
    B's largest eigenvalue below eps times A's, the solve for B can
    underflow, so the equal B (t A + u B)^{-1} A is taken."""
    w0, w1, interior = atoms
    out = w0 * a + w1 * b
    left, right = a, b
    if spectra is not None and interior:
        flip = (spectra[1][..., -1:] < _EPS * spectra[0][..., -1:])[..., None]
        left, right = np.where(flip, b, a), np.where(flip, a, b)
    for t, u, w in interior:
        out = out + w * (left @ _lapack("solve", t * a + u * b, right))
    return _sym(out) if interior else out


class _FunctionBackedConnection(Connection):
    """Shared apply machinery for connections given by a representing
    function f, held as its perspective ``_perspective`` (module docstring)
    on floats or arrays c, d >= 0.

    ``_atoms`` holds the record (w0, w1, interior) of a measure of the atom
    route: its atoms at t = 0 and t = 1 and the tuple of its atoms
    (t, u = 1 - t, w) inside (0, 1).  ``_from_measure`` or a transpose sets
    it, and ``_apply_raw`` chooses the route from it.
    """

    _atoms = None

    def _take_perspective(self, h, f: ReprFunction | None = None) -> None:
        """Hold the perspective h and, as ``repr_function``, a user's own f
        or else H(1, .) with its values at 0 and 1."""
        self._perspective = h
        self.repr_function = f or ReprFunction(
            functools.partial(h, 1.0), float(h(1.0, 0.0)), float(h(1.0, 1.0))
        )

    def _from_measure(self, atoms: tuple, ts=(), ws=()) -> None:
        """The one rule from a measure on [0, 1], given by its atoms (t, w)
        at distinct t and its density's quadrature nodes ts and weights ws,
        to its route and perspective.

        With w0 and w1 the atoms at t = 0 and t = 1, H is ``_kernel_sum``
        over the atoms inside (0, 1) and the nodes.  Atoms only, with at
        most ``_ATOM_ROUTE_MAX_ATOMS`` inside (0, 1), take the atom route,
        w0 A + w1 B with none among them.
        """
        ends = dict(atoms)
        w0, w1 = ends.get(0.0, 0.0), ends.get(1.0, 0.0)
        interior = tuple((t, 1.0 - t, w) for t, w in atoms if 0.0 < t < 1.0)
        if not len(ts) and len(interior) <= _ATOM_ROUTE_MAX_ATOMS:
            self._atoms = (w0, w1, interior)
        ts = np.concatenate([np.array([t for t, _, _ in interior]), ts])
        ws = np.concatenate([np.array([w for _, _, w in interior]), ws])
        self._take_perspective(
            functools.partial(_kernel_sum, w0=w0, w1=w1, ts=ts, us=1.0 - ts, ws=ws)
        )

    def _takes_atom_route(self, spectra, tol) -> bool:
        """Whether each pivot t A + u B of an interior atom, if any, is
        positive definite, given the operands' ``spectra`` from
        ``_operand_spectra``.  Operands that ``_certified_pd`` vouches for,
        whose spectra are None, pass: their smallest eigenvalues exceed
        twice the slack.  Otherwise ``_is_pd`` decides on the pivot's Weyl
        bounds: for the ascending spectra wa and wb, t wa + u wb is
        ascending, its first entry bounds the pivot's smallest eigenvalue
        from below and its last the largest from above.  That holds when A
        or B is positive definite and the other one's eigenvalues in the
        PSD slack below 0 are small against it; a pivot near singular would
        amplify them."""
        if spectra is None:
            return True
        wa, wb = (w.reshape(-1, w.shape[-1]) for w in spectra)
        return all(
            _is_pd(t * x + u * y, tol) for x, y in zip(wa, wb) for t, u, _ in self._atoms[2]
        )

    def _around_sum(self, a, b, tol, spectra=None):
        """A sigma B = X H(C, I - C) X^T around S = A + B = X X^T (module
        docstring) for (..., n, n) operands, or None for a stack with a pair
        that needs its operands' spectra.  A null direction of S
        (``_RANK_FACTOR``) gets 0 in X and X^+.  H takes C's spectrum c and
        d = v^T X^+ B X^+^T v for C's eigenvector v, which does not cancel
        near c = 1.  Where S is regular and c lies more than 8 n eps cond(S)
        inside (0, 1), C vouches that A and B are PSD.  Otherwise the
        operands' ``spectra``, given or checked here A first, set C's
        dim ker A least eigenvalues to 0 and dim ker B - dim ker S greatest
        to 1."""
        n, stack = a.shape[-1], a.ndim > 2
        omega, q = _eigh(a + b, "sum of the operands")
        lo, cut = omega[..., 0], _RANK_FACTOR * n * omega[..., -1]
        # One pair's tests give numpy bools, whose bool() is far cheaper.
        regular = bool((lo > cut).all() if stack else lo > cut)
        if regular:
            root = np.sqrt(omega)[..., None, :]
            x, xt = q * root, q / root
        elif stack:
            return None
        else:
            null = omega <= cut
            root = np.sqrt(np.where(null, 1.0, omega))
            x, xt = q * np.where(null, 0.0, root), q * np.where(null, 0.0, 1.0 / root)
        # LAPACK reads one triangle of C.
        c, v = _eigh(xt.swapaxes(-1, -2) @ a @ xt, "transformed left operand")
        w = xt @ v
        d = np.add.reduce(w * (b @ w), axis=-2)
        # For regular S, 8 n eps cond(S) is cut / lo; d falls as c rises.
        vouched = np.minimum(c[..., 0], d[..., -1]) * lo > cut
        if not (regular and (vouched.all() if stack else vouched)):
            if stack:
                return None
            wa = spectra[0] if spectra else _checked_spectrum(a, tol, "left operand")
            wb = spectra[1] if spectra else _checked_spectrum(b, tol, "right operand")
            k_a, k_b = (int(np.count_nonzero(e <= _RANK_FACTOR * n * e[-1])) for e in (wa, wb))
            k_b -= int(np.count_nonzero(omega <= cut))
            c, d = np.clip(c, 0.0, 1.0), np.maximum(d, 0.0)
            ones = n - min(max(k_b, 0), n - k_a)
            c[:k_a], c[ones:], d[ones:] = 0.0, 1.0, 0.0
            # Where c is 0, H(0, 1) = lim f(y)/y: d = 1 - c in the range of
            # S, and outside it X is 0, where H(0, 0) could read 0/0.
            d[c == 0.0] = 1.0
        h = self._perspective(c, d)
        y = x @ v
        return _sym((y * h[..., None, :]) @ y.swapaxes(-1, -2))

    def _apply_raw(self, a, b, tol):
        """A sigma B for one pair of (n, n) operands or each pair of two
        (k, n, n) stacks.  The route is decided here, in this order:

        1. ``_atom_apply`` when ``_takes_atom_route``, at every dim; with no
           interior atom, alpha A + beta B, exact for every PSD pair;
        2. any other pair: ``_around_sum``, the step around S = A + B, which
           reuses the operands' spectra that step 1 solved.

        A stack takes either step in one call.  One rule keeps a stack's
        errors those of its pairs: a stack with a pair whose operands'
        spectra step 2 needs, or that raises anything on the way, is
        evaluated again pair by pair through ``_apply_raw``, and so raises
        what its first failing pair raises alone.
        """
        stack = a.ndim > 2
        try:
            spectra = None
            if self._atoms is not None:
                spectra = _operand_spectra(a, b, tol)
                if self._takes_atom_route(spectra, tol):
                    return _atom_apply(self._atoms, a, b, spectra)
            out = self._around_sum(a, b, tol, spectra)
            if out is not None:
                return out
        except Exception:
            # A stack's pairs run again below, and the first failing one
            # raises its own error, so no list of error types is kept here.
            if not stack:
                raise
        return super()._apply_stack(a, b, tol)

    # One body serves pairs and stacks.  The second name stays because
    # per-call wrappers of ``_apply_raw``, such as the benchmark's tracer,
    # expect 2-D operands: a stack enters through this unwrapped binding,
    # and a stack that goes pair by pair hands ``_apply_raw`` 2-D pairs.
    _apply_stack = _apply_raw


class BuiltinConnection(_FunctionBackedConnection):
    """One of the named connections.

    Its route and, where ``_builtin_atoms`` gives its measure, its f follow
    from its measure, as for a measure connection: the kinds whose measure
    has no mass inside (0, 1) (left/right trivial, arithmetic, sum, zero,
    and geometric or harmonic at weight 0 or 1) take the atom route with
    no interior atom, alpha A + beta B, exact for singular operands.
    """

    def __init__(self, kind: str, weight: float | None = None):
        if kind not in BUILTIN_KINDS:
            raise ValueError(
                f"unknown builtin kind {kind!r}; expected one of {BUILTIN_KINDS}"
            )
        if kind in WEIGHTED_KINDS:
            if weight is None:
                raise ValueError(f"builtin {kind!r} requires a weight in [0, 1]")
            weight = _float(weight)
            if not 0.0 <= weight <= 1.0:
                raise ValueError(f"weight out of range [0, 1]: {weight}")
        else:
            weight = None
        self.kind = kind
        self.weight = weight
        atoms = _builtin_atoms(kind, weight)
        if atoms is not None:
            self._from_measure(atoms)
            return
        # Geometric(a), 0 < a < 1, and the logarithmic mean have densities;
        # (d - c)/(log d - log c) would cancel near c = d.
        if kind == "logarithmic":
            f, swapped = _log_mean, lambda c, d: d * _log_mean(c / d)
        else:
            f, swapped = (lambda q: q**weight), lambda c, d: c ** (1.0 - weight) * d**weight
        self._take_perspective(functools.partial(_quotient_form, f=f, swapped=swapped))

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
        if not isinstance(f, ReprFunction):
            f = ReprFunction.from_callable(f)
        self._take_perspective(_quotient_perspective(f), f)

    def __repr__(self) -> str:
        return f"FunctionConnection({self.repr_function!r})"


class TransposeConnection(_FunctionBackedConnection):
    """The transpose (A, B) -> B sigma A of an inner connection: that of
    its measure reflected by t -> 1 - t, with g(x) = x f(1/x) (Kubo and
    Ando).  Its perspective is the inner one's swapped, H(d, c), so g is
    H(., 1), and its atom record (w1, w0, ((u, t, w), ...)) reflects the
    inner (w0, w1, ((t, u, w), ...)) exactly, twice over too.  It runs the
    package's evaluator on the caller's own (A, B), whatever evaluator the
    inner connection's class has; where the inner has no perspective, H is
    c f(d/c) of its ``fn``."""

    def __init__(self, inner: Connection):
        self.inner = inner
        if getattr(inner, "_atoms", None) is not None:
            w0, w1, interior = inner._atoms
            self._atoms = (w1, w0, tuple((u, t, w) for t, u, w in interior))
        h = getattr(inner, "_perspective", None) or _quotient_perspective(
            ReprFunction.from_callable(inner.fn)
        )
        self._take_perspective(lambda c, d: h(d, c))

    def __repr__(self) -> str:
        return f"TransposeConnection({self.inner!r})"


def _returns_symmetric(conn: Connection) -> bool:
    """Whether ``apply`` wraps the result of ``conn._apply_raw`` as it is:
    whether that is the package's evaluator, whose every route ends in
    ``_sym`` or, with no interior atom, in w0 A + w1 B of stored symmetric
    operands.  Its results are symmetric bit for bit, and scaling by a power
    of two keeps that.  Any other result is symmetrized."""
    return type(conn)._apply_raw is _FunctionBackedConnection._apply_raw


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

    Connections whose measure is atoms, at most two inside (0, 1) (the
    affine kinds, the weighted harmonic means, the parallel sum and such
    atom measures), return the sum of weighted harmonic means
    w0 A + w1 B + sum_i w_i A (t_i A + (1 - t_i) B)^{-1} B, one linear solve
    per interior atom, when A or B is positive definite, at every dim, and
    with no interior atom for every PSD pair.  Every other pair takes the
    form of Pusz and Woronowicz around A + B, X H(C, I - C) X^T, with the
    kernels of A, B and A + B counted exactly; no pair takes a limit.  Measure
    connections take the same routes with their quadrature-built f.  The
    result is PSD within slack, and for dim 1 equals the scalar a * f(b/a),
    and b lim f(y)/y for a = 0.
    """
    return conn.apply(A, B, tol)


def repr_fn_eval(conn: Connection, x: float, tol: Tolerances = DEFAULT_TOL) -> float:
    """Representing-function value f(x) for x >= 0.

    Consistent with ``apply`` on 1x1 matrices: f(x) = the single entry of
    [1] sigma [x].  ``tol`` is not read: f is evaluated directly, so no
    tolerance changes its value.  The tolerance flags of the CLI's
    ``function`` subcommand are validated but do not change its table.
    """
    return float(conn.fn(_float(x)))


def is_mean(conn: Connection, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff f(1) = 1 within eq_tol (fixed-point property)."""
    return abs(float(conn.fn(1.0)) - 1.0) <= tol.eq_tol


def _is_zero(conn: Connection, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff f(1) <= eq_tol: f is 0 at 1, and so everywhere."""
    return float(conn.fn(1.0)) <= tol.eq_tol


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
    f2 = float(conn.fn(2.0))
    mean = is_mean(conn, tol)
    left = mean and abs(f2 - 1.0) <= tol.eq_tol
    right = mean and abs(f2 - 2.0) <= tol.eq_tol
    if mean:
        strict_left = not left
        strict_right = not right
        strict = strict_left and strict_right
    else:
        strict_left = strict_right = strict = None
    return ClassificationRecord(
        is_zero=_is_zero(conn, tol),
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
    if _is_zero(conn, tol):
        raise ZeroConnectionError(
            "the zero connection maps every X to 0; X sigma X = A has no "
            "positive solution"
        )
    return A * (1.0 / float(conn.fn(1.0)))


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
    if not xs:
        raise ValueError("grid must hold at least one point")
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
