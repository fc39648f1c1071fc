"""Benchmark-side oracles for A sigma B, in plain numpy.

Nothing here calls meanskit.  A connection is described by a ``Spec``: its
representing function f on (0, inf), the exact value f(0), the exact limit
f_inf = lim f(y)/y as y -> inf, and, where one exists, a closed form that
holds for every PSD pair.  From these the oracles evaluate A sigma B by a
route chosen to differ from the one the program takes:

- congruence around whichever operand is positive definite: around A with
  f, or around B with the transposed function g(x) = x f(1/x);
- for operands with a common range U, the r x r block U (a sigma b) U^T;
- for commuting diagonal operands (the counterexample corpus), the scalar
  rule entry by entry;
- closed forms: (1-w) A + w B, the parallel sum A (A+B)^+ B (Anderson and
  Duffin 1969) and the weighted harmonic means built from it.

Operands that are singular by construction carry their rank, so the
oracle maps the known null space to f(0) exactly instead of applying f to
round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Relative Frobenius tolerance per evaluation route, as the README states
# them: eq_tol for congruence and projections, the quadrature accuracy of
# the 256-node arcsine rule, and the accuracy of the epsilon-limit.
TOLERANCES = {
    "pd": 1e-8,
    "projection": 1e-8,
    "quadrature": 1e-6,
    "limit": 1e-5,
}

# Two oracle routes for the same value must agree this closely.
SELF_CHECK_TOL = 1e-11

# Eigenvalues below this share of the largest are treated as zero by the
# pseudo-inverse in the closed forms.
_PINV_RTOL = 1e-10


class OracleError(RuntimeError):
    """An oracle was asked for a value it cannot compute, or two oracle
    routes disagree."""


@dataclass(frozen=True)
class Spec:
    """Oracle description of one connection."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    f0: float
    finf: float
    closed: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


def sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) * 0.5


def rel_err(x: np.ndarray, expected: np.ndarray) -> float:
    """Relative Frobenius distance, against max(1, ||expected||)."""
    scale = max(1.0, float(np.linalg.norm(expected)))
    return float(np.linalg.norm(x - expected)) / scale


def _pinv(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    keep = w > _PINV_RTOL * max(float(np.max(np.abs(w))), np.finfo(float).tiny)
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return sym((v * inv) @ v.T)


def parallel_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A : B = A (A+B)^+ B, valid for every PSD pair."""
    return sym(a @ _pinv(a + b) @ b)


def _log_mean(x: np.ndarray) -> np.ndarray:
    # (x - 1)/log x = expm1(L)/L with L = log x; expm1 keeps full accuracy
    # as L -> 0, where the quotient tends to 1.
    log_x = np.log(x)
    safe = np.where(log_x == 0.0, 1.0, log_x)
    return np.where(log_x == 0.0, 1.0, np.expm1(safe) / safe)


def arithmetic(w: float) -> Spec:
    return Spec(
        f"arithmetic({w:g})",
        lambda x: (1.0 - w) + w * x,
        1.0 - w,
        w,
        closed=lambda a, b: sym((1.0 - w) * a + w * b),
    )


def geometric(w: float) -> Spec:
    if not 0.0 < w < 1.0:
        raise ValueError("geometric oracle needs a weight in (0, 1)")
    return Spec(f"geometric({w:g})", lambda x: x**w, 0.0, 0.0)


def harmonic(w: float) -> Spec:
    """((1-w) A^-1 + w B^-1)^-1, which is the parallel sum of A/(1-w) and
    B/w."""
    if not 0.0 < w < 1.0:
        raise ValueError("harmonic oracle needs a weight in (0, 1)")
    return Spec(
        f"harmonic({w:g})",
        lambda x: x / ((1.0 - w) * x + w),
        0.0,
        0.0,
        closed=lambda a, b: parallel_sum(a / (1.0 - w), b / w),
    )


def logarithmic() -> Spec:
    return Spec("logarithmic", _log_mean, 0.0, 0.0)


def parallel() -> Spec:
    return Spec("parallel_sum", lambda x: x / (1.0 + x), 0.0, 0.0, closed=parallel_sum)


def combination(name: str, parts: list[tuple[float, Spec]]) -> Spec:
    """Positive combination sum(c_i sigma_i); closed when every part is."""
    closed = None
    if all(spec.closed is not None for _, spec in parts):
        def closed(a, b):
            return sym(sum(c * spec.closed(a, b) for c, spec in parts))
    return Spec(
        name,
        lambda x: sum(c * spec.f(x) for c, spec in parts),
        sum(c * spec.f0 for c, spec in parts),
        sum(c * spec.finf for c, spec in parts),
        closed=closed,
    )


def transposed(spec: Spec) -> Spec:
    """(A, B) -> B sigma A, with function g(x) = x f(1/x); g(0) = f_inf and
    g_inf = f(0)."""
    closed = None
    if spec.closed is not None:
        def closed(a, b):
            return spec.closed(b, a)
    return Spec(
        f"transpose({spec.name})",
        lambda x: x * spec.f(1.0 / x),
        spec.finf,
        spec.f0,
        closed=closed,
    )


def congruence(
    f: Callable, f0: float, p: np.ndarray, q: np.ndarray, null_dim: int = 0
) -> np.ndarray:
    """P^(1/2) f(P^(-1/2) Q P^(-1/2)) P^(1/2) for positive-definite P.

    The transformed operand has the rank of Q.  When Q is singular by
    construction with nullity ``null_dim``, that many smallest eigenvalues
    are exact zeros and map to f0.
    """
    w, v = np.linalg.eigh(p)
    if w[0] <= 0.0:
        raise OracleError(f"congruence needs a positive-definite pivot, min eig {w[0]:.3e}")
    root = np.sqrt(w)
    s = sym((v * root) @ v.T)
    r = sym((v / root) @ v.T)
    mw, mv = np.linalg.eigh(sym(r @ q @ r))
    if null_dim < mw.size and mw[null_dim] <= 0.0:
        raise OracleError("transformed operand has more null directions than stated")
    fw = np.full_like(mw, float(f0))
    fw[null_dim:] = f(mw[null_dim:])
    return sym(s @ sym((mv * fw) @ mv.T) @ s)


def around_left(spec: Spec, a, b, null_dim: int = 0) -> np.ndarray:
    """A sigma B by congruence around positive-definite A."""
    return congruence(spec.f, spec.f0, a, b, null_dim)


def around_right(spec: Spec, a, b, null_dim: int = 0) -> np.ndarray:
    """A sigma B by congruence around positive-definite B with the
    transposed function."""
    t = transposed(spec)
    return congruence(t.f, t.f0, b, a, null_dim)


def common_range(spec: Spec, u, a_r, b_r) -> np.ndarray:
    """U (a sigma b) U^T for A = U a U^T, B = U b U^T with a, b positive
    definite on the r-dimensional common range."""
    return sym(u @ around_left(spec, a_r, b_r) @ u.T)


def commuting_diagonal(spec: Spec, a_diag, b_diag) -> np.ndarray:
    """Entrywise scalar rule for diagonal PSD pairs: a f(b/a) for a > 0,
    b f_inf for a = 0."""
    out = np.zeros(len(a_diag))
    for i, (x, y) in enumerate(zip(a_diag, b_diag)):
        if x > 0.0:
            out[i] = x * float(spec.f0 if y == 0.0 else spec.f(np.array([y / x]))[0])
        else:
            out[i] = y * spec.finf
    return np.diag(out)


def random_pd(rng, n):
    """G G^T + I with standard-normal G."""
    g = rng.standard_normal((n, n))
    return sym(g @ g.T + np.eye(n))


def random_low_rank(rng, n, r):
    """G G^T with G of shape (n, r): PSD of rank r."""
    g = rng.standard_normal((n, r))
    return sym(g @ g.T)


def self_check(specs: list[Spec], seed: int = 0) -> float:
    """Cross-check the oracle routes against each other and return the
    worst disagreement; raise OracleError above SELF_CHECK_TOL."""
    rng = np.random.default_rng([seed, 0x5E1F])
    worst = 0.0
    failures = []

    def agree(label, x, y):
        nonlocal worst
        err = rel_err(x, y)
        worst = max(worst, err)
        if not err <= SELF_CHECK_TOL:
            failures.append(f"{label}: {err:.3e}")

    corpus_a, corpus_b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for spec in specs:
        for n in (1, 3, 6):
            a, b = random_pd(rng, n), random_pd(rng, n)
            agree(f"{spec.name} left/right dim {n}", around_left(spec, a, b),
                  around_right(spec, a, b))
            da, db = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
            agree(f"{spec.name} diagonal dim {n}", commuting_diagonal(spec, da, db),
                  around_left(spec, np.diag(da), np.diag(db)))
            if spec.closed is None:
                continue
            agree(f"{spec.name} closed/pd dim {n}", spec.closed(a, b), around_left(spec, a, b))
            if n < 2:
                continue
            r = n - 1
            s = random_low_rank(rng, n, r)
            agree(f"{spec.name} closed/singular-left dim {n}", spec.closed(s, b),
                  around_right(spec, s, b, null_dim=n - r))
            agree(f"{spec.name} closed/singular-right dim {n}", spec.closed(a, s),
                  around_left(spec, a, s, null_dim=n - r))
            u, _ = np.linalg.qr(rng.standard_normal((n, r)))
            a_r, b_r = random_pd(rng, r), random_pd(rng, r)
            agree(f"{spec.name} closed/common-range dim {n}",
                  spec.closed(sym(u @ a_r @ u.T), sym(u @ b_r @ u.T)),
                  common_range(spec, u, a_r, b_r))
        if spec.closed is not None:
            agree(f"{spec.name} closed/corpus",
                  spec.closed(np.diag(corpus_a), np.diag(corpus_b)),
                  commuting_diagonal(spec, corpus_a, corpus_b))
    if failures:
        raise OracleError("oracle self-check failed: " + "; ".join(failures))
    return worst
