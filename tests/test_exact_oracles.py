"""Singular and rank-deficient operands against oracles that need no
limit: closed forms on commuting pairs, the two end masses of the measure
on orthogonal projections, and exact rational values of atom connections.

Every pair here has a singular operand or a singular A + B, so apart from
the atom route it is evaluated by the step around S = A + B.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from meanskit import BorelMeasure, SymMatrix, apply, connection_from_measure, make_builtin
from meanskit.verify import standard_battery


def _rotation(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def _rotated(u, values):
    x = (u * values) @ u.T
    return (x + x.T) / 2.0


def _relative_error(got, want, a, b):
    """||got - want|| against ||want||, or against ||A|| + ||B|| where the
    exact value is 0."""
    scale = np.linalg.norm(want) or np.linalg.norm(a) + np.linalg.norm(b)
    return np.linalg.norm(got - want) / scale


# a f(b / a) in closed form for scalars a, b >= 0 with a + b > 0; a = 0
# gives b lim f(y)/y, which is 0 for each of these kinds.
def _log_mean(a, b):
    if a == 0.0 or b == 0.0:
        return 0.0
    return a if a == b else (a - b) / (math.log(a) - math.log(b))


_COMMUTING = {
    "geometric(0.25)": (make_builtin("geometric", 0.25), lambda a, b: a**0.75 * b**0.25),
    "geometric(0.5)": (make_builtin("geometric", 0.5), lambda a, b: math.sqrt(a * b)),
    "logarithmic": (make_builtin("logarithmic"), _log_mean),
    "harmonic(0.5)": (make_builtin("harmonic", 0.5), lambda a, b: 2.0 * a * b / (a + b)),
    "parallel_sum": (make_builtin("parallel_sum"), lambda a, b: a * b / (a + b)),
}


def _commuting_spectra(cls, n, rng):
    """Spectra drawn from e^U(-3, 3): B with ceil(n/2) zeros, A with as
    many, or floor(n/2) zeros in A and one in B on another eigenvector, so
    that A + B stays positive definite."""
    wa, wb = np.exp(rng.uniform(-3.0, 3.0, (2, n)))
    if cls == "singular_b":
        wb[: (n + 1) // 2] = 0.0
    elif cls == "singular_a":
        wa[: (n + 1) // 2] = 0.0
    else:
        wa[: n // 2] = 0.0
        wb[n - 1] = 0.0
    return wa, wb


@pytest.mark.parametrize("name", _COMMUTING)
def test_rotated_diagonal_pairs_match_the_closed_form(name):
    conn, mean = _COMMUTING[name]
    rng = np.random.default_rng(20261020)
    for cls in ("singular_b", "singular_a", "both"):
        for n in range(2, 9):
            for _ in range(4):
                u = _rotation(n, rng)
                wa, wb = _commuting_spectra(cls, n, rng)
                a, b = _rotated(u, wa), _rotated(u, wb)
                want = (u * [mean(x, y) for x, y in zip(wa, wb)]) @ u.T
                got = apply(conn, SymMatrix(a), SymMatrix(b)).data
                assert _relative_error(got, want, a, b) <= 1e-10, (cls, n)


def _end_masses(name):
    """(mu({0}), mu({1})) = (f(0), lim f(y)/y) of a battery connection."""
    if name.startswith("arithmetic("):
        weight = float(name[len("arithmetic("):-1])
        return 1.0 - weight, weight
    return {"left_trivial": (1.0, 0.0), "right_trivial": (0.0, 1.0), "sum": (1.0, 1.0)}.get(
        name, (0.0, 0.0)
    )


@pytest.mark.parametrize("n", range(2, 9))
def test_complementary_projections_give_the_end_masses(n):
    # P sigma Q = mu({0}) P + mu({1}) Q for orthogonal projections with
    # P + Q = I (Anderson and Duffin; Kubo and Ando).
    rng = np.random.default_rng([20261021, n])
    for r in range(1, n):
        u = _rotation(n, rng)
        p = u[:, :r] @ u[:, :r].T
        q = u[:, r:] @ u[:, r:].T
        for name, conn in standard_battery():
            w0, w1 = _end_masses(name)
            got = apply(conn, SymMatrix(p), SymMatrix(q)).data
            want = w0 * p + w1 * q
            assert np.linalg.norm(got - want) <= 1e-14 * (
                np.linalg.norm(p) + np.linalg.norm(q)
            ), (name, r)


# Atom connections: the record (w0, w1, interior atoms (t, w)) of their
# measures, all dyadic, so that the floats are the exact rationals.
_ATOMS = {
    "harmonic(0.5)": (make_builtin("harmonic", 0.5), (0, 0, ((Fraction(1, 2), 1),))),
    "parallel_sum": (make_builtin("parallel_sum"), (0, 0, ((Fraction(1, 2), Fraction(1, 2)),))),
    "two_atoms": (
        connection_from_measure(
            BorelMeasure(atoms=((0.0, 0.25), (0.25, 0.5), (0.75, 0.25), (1.0, 0.125)))
        ),
        (
            Fraction(1, 4),
            Fraction(1, 8),
            ((Fraction(1, 4), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 4))),
        ),
    ),
}


def _matmul(x, y):
    return [[sum(p * q for p, q in zip(row, col)) for col in zip(*y)] for row in x]


def _transposed(x):
    return [list(col) for col in zip(*x)]


def _pivot_columns(m):
    """The pivot columns of m's reduced row echelon form, by exact
    Gauss-Jordan elimination: a basis of its column space among its columns."""
    rows = [[Fraction(v) for v in row] for row in m]
    pivots, r = [], 0
    for j in range(len(rows[0])):
        k = next((i for i in range(r, len(rows)) if rows[i][j] != 0), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        rows[r] = [v / rows[r][j] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j] != 0:
                rows[i] = [v - rows[i][j] * p for v, p in zip(rows[i], rows[r])]
        pivots.append(j)
        r += 1
    return pivots


def _solve(k, rhs):
    """k^-1 rhs for an invertible rational k, by Gauss-Jordan elimination."""
    n = len(k)
    rows = [list(row) + list(extra) for row, extra in zip(k, rhs)]
    for j in range(n):
        p = next(i for i in range(j, n) if rows[i][j] != 0)
        rows[j], rows[p] = rows[p], rows[j]
        rows[j] = [v / rows[j][j] for v in rows[j]]
        for i in range(n):
            if i != j and rows[i][j] != 0:
                rows[i] = [v - rows[i][j] * q for v, q in zip(rows[i], rows[j])]
    return [row[n:] for row in rows]


def _exact_atom_value(record, a, b):
    """w0 A + w1 B + sum of w A (t A + (1 - t) B)^+ B, exactly, for integer
    PSD A and B.  The pivot has the range of S = A + B for 0 < t < 1, and
    with R the pivot columns of S, P^+ = R (R^T P R)^-1 R^T on that range."""
    w0, w1, interior = record
    a = [[Fraction(int(v)) for v in row] for row in a]
    b = [[Fraction(int(v)) for v in row] for row in b]
    n = len(a)
    out = [[w0 * x + w1 * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    s = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    cols = _pivot_columns(s)
    if not cols:
        return out
    r = [[s[i][j] for j in cols] for i in range(n)]
    rt = _transposed(r)
    for t, w in interior:
        pivot = [[t * x + (1 - t) * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        z = _solve(_matmul(_matmul(rt, pivot), r), _matmul(rt, b))
        term = _matmul(_matmul(a, r), z)
        out = [[o + w * v for o, v in zip(ro, rv)] for ro, rv in zip(out, term)]
    return out


def _integer_factor(n, k, rng, kernel=None):
    """An n x k matrix with entries in -3...3; with an integer vector
    ``kernel`` whose last entry is +-1, each column is orthogonal to it."""
    cols = []
    while len(cols) < k:
        v = rng.integers(-3, 4, n)
        if kernel is not None:
            v[-1] = -int(kernel[:-1] @ v[:-1]) * int(kernel[-1])
            if abs(v[-1]) > 3:
                continue
        cols.append(v)
    return np.array(cols, dtype=float).T


def _integer_gram_pair(cls, n, rng):
    """Integer Gram operands G G^T: A singular, B singular, both, or both
    orthogonal to one integer vector, so that A + B is singular too."""
    kernel = None
    ka = kb = n
    if cls in ("singular_a", "both"):
        ka = int(rng.integers(1, n))
    if cls in ("singular_b", "both"):
        kb = int(rng.integers(1, n))
    if cls == "common_kernel":
        kernel = rng.integers(-1, 2, n)
        kernel[-1] = 1
        ka, kb = int(rng.integers(1, n)), int(rng.integers(1, n))
    fa, fb = _integer_factor(n, ka, rng, kernel), _integer_factor(n, kb, rng, kernel)
    return fa @ fa.T, fb @ fb.T


@pytest.mark.parametrize("name", _ATOMS)
def test_integer_gram_pairs_match_the_exact_rational_value(name):
    conn, record = _ATOMS[name]
    rng = np.random.default_rng([20261022, len(name)])
    for cls in ("singular_a", "singular_b", "both", "common_kernel"):
        for n in range(2, 7):
            for _ in range(2):
                a, b = _integer_gram_pair(cls, n, rng)
                exact = _exact_atom_value(record, a, b)
                want = np.array([[float(v) for v in row] for row in exact])
                got = apply(conn, SymMatrix(a), SymMatrix(b)).data
                scale = np.linalg.norm(a) + np.linalg.norm(b)
                assert np.linalg.norm(got - want) <= 1e-12 * scale, (cls, n)
