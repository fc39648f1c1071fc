"""Finite Borel measures on [0, 1] and their integral representations.

A measure mu turns into a connection by spreading its mass over weighted
harmonic interpolants,

    A sigma B = integral over [0,1] of (A !_t B) d mu(t),

with scalar kernel 1 !_t x = x / ((1-t) x + t).  The connection is
evaluated through its representing function f(x) = integral of
(1 !_t x) d mu(t), which atoms contribute exactly and a density through a
precomputed quadrature plan.  ``_from_measure`` states f once, for
measures and atom builtins alike; the scalar ``repr_fn_from_measure`` and
matrix evaluation both use it, through the one function-backed evaluator,
so a matrix result is as accurate as the scalar quadrature.  A measure of
at most two atoms inside (0, 1) and no density is evaluated as the sum of
its atoms' weighted harmonic means when A or B is positive definite, by
one linear solve each.
``weighted_harmonic_kernel`` is the kernel on its own, for reference; no
evaluation path calls it.  Measures are stored unnormalized: normalization
(total mass 1) is exactly the property of being a mean, and connections
such as the sum need mass 2.  Measures and plans are immutable after
construction.  The Gauss-Legendre rule behind the density plans is computed
once per node count and shared read-only, so building a plan costs only
its O(n) transform and validation.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .connections import (
    _builtin_atoms,
    _FunctionBackedConnection,
    make_builtin,
)
from .linalg import _float, _float_entries, _is_real, _is_whole

__all__ = [
    "BorelMeasure",
    "Density",
    "MeasureConnection",
    "QuadraturePlan",
    "UnsupportedMeasureError",
    "arcsine_density",
    "connection_from_measure",
    "load_measure",
    "measure_from_dict",
    "measure_of_builtin",
    "measure_to_dict",
    "parse_atoms",
    "repr_fn_from_measure",
    "save_measure",
    "total_mass",
    "weighted_harmonic_kernel",
]

DEFAULT_QUADRATURE_NODES = 256
# Largest density node count accepted.  numpy builds the n-point rule from
# a dense n x n eigenvalue problem: 1024 nodes take about 0.16 s, 2048
# about 1 s, and the cost grows as n^3.
MAX_QUADRATURE_NODES = 1024


class UnsupportedMeasureError(ValueError):
    """No closed-form associated measure is available for this builtin."""


def _node_count(n) -> int:
    """n as an int, after checking that it is a whole number in
    [1, MAX_QUADRATURE_NODES]; bools are not counts."""
    if not _is_whole(n) or not 1 <= n <= MAX_QUADRATURE_NODES:
        raise ValueError(
            "quadrature node count n must be a whole number in "
            f"[1, {MAX_QUADRATURE_NODES}], got {n!r}"
        )
    return int(n)


@functools.lru_cache(maxsize=16)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's n-point Gauss-Legendre rule on [-1, 1], read-only.  Building
    it solves a dense n x n eigenvalue problem, so it is shared."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True, eq=False)
class QuadraturePlan:
    """Quadrature nodes and weights on the open interval (0, 1).

    ``absorbs_density`` marks plans whose weights already include the
    density they were transformed for, so the density function must not be
    evaluated again at the nodes.  Two plans are equal when their scheme,
    ``absorbs_density`` and arrays are.
    """

    scheme: str
    nodes: np.ndarray
    weights: np.ndarray
    absorbs_density: bool = False

    def __post_init__(self):
        nodes = _float_entries(self.nodes)
        weights = _float_entries(self.weights)
        if nodes.ndim != 1 or nodes.size < 1 or nodes.shape != weights.shape:
            raise ValueError("plan needs matching 1-d nodes and weights, n >= 1")
        if np.any(nodes <= 0.0) or np.any(nodes >= 1.0):
            raise ValueError("quadrature nodes must lie strictly inside (0, 1)")
        if np.any(weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __eq__(self, other):
        if not isinstance(other, QuadraturePlan):
            return NotImplemented
        return (
            self.scheme == other.scheme
            and self.absorbs_density == other.absorbs_density
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.weights, other.weights)
        )

    @property
    def n(self) -> int:
        return int(self.nodes.size)

    @classmethod
    def gauss_legendre(cls, n: int) -> "QuadraturePlan":
        """n-point Gauss-Legendre rule mapped to (0, 1)."""
        x, w = _leggauss(_node_count(n))
        return cls("gauss_legendre", (x + 1.0) / 2.0, w / 2.0)

    @classmethod
    def transformed_arcsine(cls, n: int) -> "QuadraturePlan":
        """Rule for the arcsine weight 1/(pi sqrt(t(1-t))).

        The substitution t = sin^2(theta) turns the weighted integral into
        (2/pi) * integral over [0, pi/2], removing the endpoint
        singularities exactly; Gauss-Legendre is then applied in theta.
        """
        x, w = _leggauss(_node_count(n))
        theta = (x + 1.0) * (math.pi / 4.0)
        nodes = np.sin(theta) ** 2
        weights = w * (math.pi / 4.0) * (2.0 / math.pi)
        return cls("transformed_arcsine", nodes, weights, absorbs_density=True)

    @classmethod
    def explicit(cls, nodes, weights) -> "QuadraturePlan":
        return cls("explicit", nodes, weights)


@dataclass(frozen=True)
class Density:
    """A density on (0, 1) together with the plan that integrates it.  A
    plan that absorbs its density holds the arcsine density in its weights,
    so it takes no other rho."""

    rho: Callable[[float], float]
    plan: QuadraturePlan

    def __post_init__(self):
        if self.plan.absorbs_density and self.rho is not arcsine_density:
            raise ValueError(
                f"the {self.plan.scheme!r} plan integrates the arcsine density "
                "only; give another density a plan that does not absorb it"
            )


def arcsine_density(t: float) -> float:
    """rho(t) = 1 / (pi sqrt(t (1-t))) on (0, 1)."""
    return 1.0 / (math.pi * math.sqrt(t * (1.0 - t)))


@dataclass(frozen=True)
class BorelMeasure:
    """Atoms on [0, 1] plus an optional density with a quadrature plan, of
    finite total mass."""

    atoms: tuple = ()
    density: Density | None = None

    def __post_init__(self):
        cleaned = tuple((_float(t), _float(w)) for t, w in self.atoms)
        for t, w in cleaned:
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"atom location {t} outside [0, 1]")
            if not 0.0 < w < math.inf:
                raise ValueError(f"atom weight {w} must be positive and finite")
        if len({t for t, _ in cleaned}) != len(cleaned):
            raise ValueError("atom locations must be distinct")
        object.__setattr__(self, "atoms", cleaned)
        with np.errstate(over="ignore"):
            mass = total_mass(self)
        if not math.isfinite(mass):
            raise ValueError(f"total mass {mass} of the atoms and density must be finite")

    def density_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Effective (nodes, weights) for the density part, read-only; the
        density is folded into the weights unless the plan already absorbs
        it; a negative finite value of rho at a node is refused.  They are
        computed once per measure, so rho runs once per node."""
        return self._nodes

    @functools.cached_property
    def _nodes(self) -> tuple[np.ndarray, np.ndarray]:
        if self.density is None:
            return np.empty(0), np.empty(0)
        plan = self.density.plan
        if plan.absorbs_density:
            return plan.nodes, plan.weights
        rho = self.density.rho
        values = np.array([_float(rho(float(t))) for t in plan.nodes])
        for t, v in zip(plan.nodes, values):
            if -math.inf < v < 0.0:
                raise ValueError(f"density value {v} at node t = {t} must be nonnegative")
        weights = plan.weights * values
        weights.flags.writeable = False
        return plan.nodes, weights


def total_mass(mu: BorelMeasure) -> float:
    """mu([0, 1]): atom weights plus the quadrature of the density."""
    mass = sum(w for _, w in mu.atoms)
    _, w = mu.density_nodes()
    return float(mass + w.sum())


def weighted_harmonic_kernel(x: float, t: float) -> float:
    """1 !_t x = x / ((1-t) x + t), with the boundary values t=0 -> 1,
    t=1 -> x, and x=0 -> 0 for t > 0 (1 for t = 0)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"kernel parameter t = {t} outside [0, 1]")
    if x < 0:
        raise ValueError(f"kernel argument x = {x} must be nonnegative")
    if t == 0.0:
        return 1.0
    if t == 1.0:
        return float(x)
    if x == 0.0:
        return 0.0
    return x / ((1.0 - t) * x + t)


class MeasureConnection(_FunctionBackedConnection):
    """Connection with associated measure mu, applied through its
    representing function

        f(x) = w0 + w1 x + sum_i w_i x / ((1 - t_i) x + t_i),

    where w0 and w1 are the atoms at t = 0 and t = 1 and (t_i, w_i) are the
    interior atoms and the density's quadrature nodes.  By congruence
    invariance this equals the integral of (A !_t B) d mu(t) under the
    same quadrature.  Its route, f and g follow from mu by the rule that
    atom builtins share, ``_from_measure``: for atoms only, at most two
    inside (0, 1), w0 A + w1 B and one linear solve per interior atom, so
    affine w0 A + w1 B with no mass inside (0, 1).
    """

    def __init__(self, measure: BorelMeasure):
        self.measure = measure
        self._from_measure(measure.atoms, *measure.density_nodes())

    def __repr__(self) -> str:
        return f"MeasureConnection({self.measure!r})"


def connection_from_measure(mu: BorelMeasure) -> MeasureConnection:
    """The connection with associated measure mu."""
    return MeasureConnection(mu)


def repr_fn_from_measure(mu: BorelMeasure, x: float) -> float:
    """f(x) = integral of (1 !_t x) d mu(t), atoms plus quadrature: the
    representing function of ``connection_from_measure(mu)``, bit for bit."""
    return connection_from_measure(mu).fn(x)


def measure_of_builtin(
    kind: str, weight: float | None = None, nodes: int = DEFAULT_QUADRATURE_NODES
) -> BorelMeasure:
    """Associated measure of a builtin connection, where known in closed
    form; ``kind`` and ``weight`` are checked as ``make_builtin`` checks
    them.

    Supported: left/right trivial (Dirac at 0 / 1), arithmetic(a)
    ((1-a) delta_0 + a delta_1), harmonic(a) (delta_a), geometric(0) and
    geometric(1) (delta_0 and delta_1), sum (delta_0 + delta_1), zero (the
    empty measure), parallel sum (delta_{1/2} / 2), and geometric(1/2)
    (the arcsine density).  The other geometric weights and the
    logarithmic mean have no closed-form measure here and raise
    ``UnsupportedMeasureError``.
    """
    builtin = make_builtin(kind, weight)
    atoms = _builtin_atoms(kind, builtin.weight)
    if atoms is not None:
        return BorelMeasure(atoms=atoms)
    if kind == "geometric" and builtin.weight == 0.5:
        return BorelMeasure(
            density=Density(arcsine_density, QuadraturePlan.transformed_arcsine(nodes))
        )
    raise UnsupportedMeasureError(f"no closed-form associated measure for {builtin!r}")


def measure_to_dict(mu: BorelMeasure) -> dict:
    """Measure file payload: {"atoms": [[t, w], ...], "density": null |
    {"scheme": "arcsine", "n": n}}."""
    if mu.density is None:
        density = None
    elif mu.density.plan.scheme == "transformed_arcsine":
        density = {"scheme": "arcsine", "n": mu.density.plan.n}
    else:
        raise ValueError(
            "only the arcsine density is serializable; use explicit atoms "
            "for custom measures"
        )
    return {"atoms": [[t, w] for t, w in mu.atoms], "density": density}


def _check_keys(obj, keys: tuple, what: str) -> None:
    """Refuse a payload that is not an object, or has a key not in keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}; expected only {list(keys)}")


def measure_from_dict(obj: dict) -> BorelMeasure:
    """Parse the measure file payload (see ``measure_to_dict``).  Both keys
    may be left out; {} is the zero measure."""
    _check_keys(obj, ("atoms", "density"), "measure")
    pairs = obj.get("atoms", ())
    if not isinstance(pairs, (list, tuple)):
        raise ValueError(f"measure atoms must be a list, got {type(pairs).__name__}")
    atoms = []
    for i, pair in enumerate(pairs):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(map(_is_real, pair)):
            raise ValueError(f"measure atom {pair!r} is not a [t, w] pair of numbers")
        try:
            atoms.append((float(pair[0]), float(pair[1])))
        except OverflowError:
            raise ValueError(f"measure atom {i} has a number beyond the largest double") from None
    density_obj = obj.get("density")
    density = None
    if density_obj is not None:
        _check_keys(density_obj, ("scheme", "n"), "measure density")
        scheme = density_obj.get("scheme")
        if scheme != "arcsine":
            raise ValueError(f"unsupported density scheme {scheme!r}")
        n = density_obj.get("n", DEFAULT_QUADRATURE_NODES)
        density = Density(arcsine_density, QuadraturePlan.transformed_arcsine(n))
    return BorelMeasure(atoms=atoms, density=density)


def load_measure(path) -> BorelMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        return measure_from_dict(json.load(fh))


def save_measure(mu: BorelMeasure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(measure_to_dict(mu), fh)
        fh.write("\n")


def parse_atoms(spec: str) -> tuple:
    """Parse the inline atom syntax "t:w,t:w", e.g. "0:0.5,1:0.5"."""
    atoms = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            t_str, w_str = part.split(":")
            atoms.append((float(t_str), float(w_str)))
        except ValueError as exc:
            raise ValueError(
                f"bad atom {part!r}; expected 't:w' with numeric t and w"
            ) from exc
    if not atoms:
        raise ValueError("no atoms found in spec")
    return tuple(atoms)
