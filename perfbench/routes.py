"""Which evaluation route the program takes for A sigma B, decided from
outside: by the connection's public type and attributes and by the
operands' smallest eigenvalue against ``psd_slack``.

Routes: ``pd`` (congruence, or the measure integral without inversion
problems), ``quadrature`` (the same for a measure with a density),
``limit`` (the decreasing epsilon-limit) and ``projection`` (trivial
means, returned by definition).
"""

from __future__ import annotations

import numpy as np

from meanskit import DEFAULT_TOL, BuiltinConnection, MeasureConnection, TransposeConnection


def is_pd(m: np.ndarray, tol=DEFAULT_TOL) -> bool:
    """Smallest eigenvalue above psd_slack * max(1, ||m||_2)."""
    w = np.linalg.eigvalsh(m)
    scale = max(1.0, abs(float(w[0])), abs(float(w[-1])))
    return bool(w[0] > tol.psd_slack * scale)


def _is_projection(conn: BuiltinConnection) -> bool:
    return conn.kind in ("left_trivial", "right_trivial") or conn.weight in (0.0, 1.0)


def route_of(conn, a: np.ndarray, b: np.ndarray, tol=DEFAULT_TOL) -> str:
    if isinstance(conn, TransposeConnection):
        return route_of(conn.inner, b, a, tol)
    if isinstance(conn, MeasureConnection):
        mu = conn.measure
        smooth = "quadrature" if mu.density is not None else "pd"
        if mu.density is None and all(t in (0.0, 1.0) for t, _ in mu.atoms):
            return smooth
        return smooth if is_pd(a, tol) and is_pd(b, tol) else "limit"
    if isinstance(conn, BuiltinConnection) and _is_projection(conn):
        return "projection"
    return "pd" if is_pd(a, tol) else "limit"
