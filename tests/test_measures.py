"""Tests for Borel measures and their integral representations."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanskit.connections import AUDIT_GRID, apply, is_mean, make_builtin, repr_fn_eval, transpose
from meanskit.linalg import DEFAULT_TOL, SymMatrix, frobenius
from meanskit.measures import (
    BorelMeasure,
    Density,
    QuadraturePlan,
    UnsupportedMeasureError,
    arcsine_density,
    connection_from_measure,
    load_measure,
    measure_from_dict,
    measure_of_builtin,
    measure_to_dict,
    parse_atoms,
    repr_fn_from_measure,
    save_measure,
    total_mass,
    weighted_harmonic_kernel,
)
from meanskit import measures
from meanskit.measures import _leggauss
from meanskit.verify import random_pd


def arcsine_oracle(x, panels=20000):
    """Independent quadrature of the arcsine-weighted kernel integral.

    Composite Simpson in theta after t = sin^2(theta); shares nothing with
    the Gauss-Legendre production path.
    """
    thetas = np.linspace(0.0, math.pi / 2.0, 2 * panels + 1)
    ts = np.sin(thetas) ** 2
    vals = np.array([weighted_harmonic_kernel(x, t) for t in ts])
    h = thetas[1] - thetas[0]
    weights = np.ones_like(vals)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (2.0 / math.pi) * (h / 3.0) * float(weights @ vals)


class TestKernel:
    def test_half_weight_example(self):
        # (1/2 * 1 + 1/2 * 1/2)^-1 = 4/3
        assert weighted_harmonic_kernel(2.0, 0.5) == pytest.approx(4.0 / 3.0)

    def test_boundaries(self):
        for x in (0.0, 0.5, 7.0):
            assert weighted_harmonic_kernel(x, 0.0) == 1.0
            assert weighted_harmonic_kernel(x, 1.0) == x
        assert weighted_harmonic_kernel(0.0, 0.25) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            weighted_harmonic_kernel(1.0, 1.5)
        with pytest.raises(ValueError):
            weighted_harmonic_kernel(-1.0, 0.5)

    @settings(max_examples=80, deadline=None)
    @given(x=st.floats(0.0, 1e6), t=st.floats(0.0, 1.0))
    def test_bounds(self, x, t):
        v = weighted_harmonic_kernel(x, t)
        assert 0.0 <= v <= max(1.0, x) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(0.0, 1.0), x=st.floats(0.0, 1e4), dx=st.floats(0.0, 1e4))
    def test_monotone_in_x(self, t, x, dx):
        assert weighted_harmonic_kernel(x + dx, t) >= weighted_harmonic_kernel(x, t) - 1e-12


class TestTotalMass:
    def test_dirac_at_zero(self):
        assert total_mass(BorelMeasure(atoms=((0.0, 1.0),))) == 1.0

    def test_two_atoms(self):
        assert total_mass(BorelMeasure(atoms=((0.0, 0.5), (1.0, 0.5)))) == 1.0

    def test_arcsine_density(self):
        # int_0^1 dt / (pi sqrt(t(1-t))) = 1, by t = sin^2(theta)
        mu = measure_of_builtin("geometric", 0.5)
        assert abs(total_mass(mu) - 1.0) <= 1e-10


class TestMeasureValidation:
    def test_atom_outside_interval(self):
        with pytest.raises(ValueError):
            BorelMeasure(atoms=((1.5, 1.0),))

    def test_nonpositive_weight(self):
        with pytest.raises(ValueError):
            BorelMeasure(atoms=((0.5, 0.0),))

    def test_infinite_mass(self):
        inf = float("inf")
        for w in (inf, float("nan"), 10**400):
            with pytest.raises(ValueError, match="atom weight .* must be positive and finite"):
                BorelMeasure(atoms=((0.5, w),))
        with pytest.raises(ValueError, match="atom location inf outside"):
            BorelMeasure(atoms=((10**400, 1.0),))
        with pytest.raises(ValueError, match="total mass inf .* must be finite"):
            BorelMeasure(atoms=((0.5, 1e308), (0.25, 1e308)))
        plan = QuadraturePlan.gauss_legendre(4)
        for big in (inf, 10**400):
            with pytest.raises(ValueError, match="total mass inf .* must be finite"):
                BorelMeasure(density=Density(lambda t: big, plan))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="total mass inf .* must be finite"):
                BorelMeasure(atoms=((0.0, 1e308),), density=Density(lambda t: 1e308, plan))

    @pytest.mark.parametrize("big", [math.inf, 10**400], ids=["inf", "int-beyond-double"])
    def test_unbounded_plan_weight_gives_infinite_mass(self, big):
        plan = QuadraturePlan.explicit([0.5], [big])
        with pytest.raises(ValueError, match="total mass inf .* must be finite"):
            BorelMeasure(density=Density(lambda t: 1.0, plan))

    @pytest.mark.parametrize(
        "rho", [lambda t: -1.0, lambda t: t - 0.5], ids=["negative", "negative-below-half"]
    )
    def test_negative_density_is_refused(self, rho):
        plan = QuadraturePlan.gauss_legendre(8)
        t = next(t for t in plan.nodes if rho(t) < 0.0)
        with pytest.raises(ValueError, match=rf"density value {rho(t)} at node t = {t} "):
            BorelMeasure(density=Density(rho, plan))

    def test_density_runs_once_per_plan_node(self):
        calls = []

        def rho(t):
            calls.append(t)
            return 1.0

        mu = BorelMeasure(density=Density(rho, QuadraturePlan.gauss_legendre(64)))
        conn = connection_from_measure(mu)
        total_mass(mu)
        conn.fn(2.0)
        assert len(calls) == 64

    def test_zero_density_is_legal(self):
        mu = BorelMeasure(density=Density(lambda t: 0.0, QuadraturePlan.gauss_legendre(8)))
        assert total_mass(mu) == 0.0

    def test_duplicate_locations(self):
        with pytest.raises(ValueError):
            BorelMeasure(atoms=((0.5, 1.0), (0.5, 2.0)))

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            QuadraturePlan.explicit([0.0], [1.0])  # node on the boundary
        with pytest.raises(ValueError):
            QuadraturePlan.explicit([0.5], [-1.0])

    def test_plan_that_absorbs_its_density_takes_only_the_arcsine(self):
        plan = QuadraturePlan.transformed_arcsine(64)
        with pytest.raises(ValueError, match="'transformed_arcsine'"):
            Density(lambda t: 2.0, plan)
        assert total_mass(BorelMeasure(density=Density(arcsine_density, plan))) == pytest.approx(1.0)

    def test_node_count_is_a_bounded_whole_number(self):
        cap = measures.MAX_QUADRATURE_NODES
        for n in (0, -3, cap + 1, 3.9, True, float("nan"), float("inf"), "8"):
            with pytest.raises(ValueError, match=rf"n must be .* \[1, {cap}\]"):
                QuadraturePlan.transformed_arcsine(n)
            with pytest.raises(ValueError, match=rf"n must be .* \[1, {cap}\]"):
                QuadraturePlan.gauss_legendre(n)
        for n in (1, 3.0, np.int64(5), cap):
            assert QuadraturePlan.gauss_legendre(n).n == int(n)
        mu = measure_from_dict({"atoms": [], "density": {"scheme": "arcsine", "n": 3.0}})
        assert mu.density.plan == QuadraturePlan.transformed_arcsine(3)


class TestReprFnFromMeasure:
    def test_boundary_atom_mixture(self):
        # (1-a) delta_0 + a delta_1 gives (1-a) + a x
        mu = BorelMeasure(atoms=((0.0, 0.7), (1.0, 0.3)))
        assert repr_fn_from_measure(mu, 5.0) == pytest.approx(2.2)

    def test_single_interior_atom(self):
        mu = BorelMeasure(atoms=((0.5, 1.0),))
        assert repr_fn_from_measure(mu, 2.0) == pytest.approx(4.0 / 3.0)

    def test_arcsine_reproduces_sqrt(self):
        mu = measure_of_builtin("geometric", 0.5)
        assert repr_fn_from_measure(mu, 4.0) == pytest.approx(2.0, abs=1e-6)

    def test_arcsine_matches_independent_oracle(self):
        mu = measure_of_builtin("geometric", 0.5)
        for x in (0.04, 0.5, 1.0, 4.0, 36.0):
            oracle = arcsine_oracle(x)
            assert oracle == pytest.approx(math.sqrt(x), abs=1e-6)
            assert repr_fn_from_measure(mu, x) == pytest.approx(oracle, abs=1e-8)

    def test_superposition_monotone_and_concave(self):
        measures = [
            BorelMeasure(atoms=((0.0, 0.2), (0.3, 1.1), (1.0, 0.4))),
            BorelMeasure(atoms=((0.9, 2.0),)),
            measure_of_builtin("geometric", 0.5),
            BorelMeasure(
                atoms=((0.5, 0.25),),
                density=Density(arcsine_density, QuadraturePlan.transformed_arcsine(64)),
            ),
        ]
        xs = sorted(AUDIT_GRID)
        for mu in measures:
            vals = [repr_fn_from_measure(mu, x) for x in xs]
            assert all(b - a >= -1e-10 for a, b in zip(vals, vals[1:]))
            for i in range(len(xs)):
                for j in range(i + 1, len(xs)):
                    mid = repr_fn_from_measure(mu, (xs[i] + xs[j]) / 2.0)
                    assert mid >= (vals[i] + vals[j]) / 2.0 - 1e-10

    def test_same_f_as_the_connection(self):
        # One statement of f: the scalar route is the connection's fn, bit
        # for bit, at log-uniform points over 17 decades.
        mu = BorelMeasure(atoms=((0.0, 0.25), (0.5, 0.5), (1.0, 0.25)))
        conn = connection_from_measure(mu)
        rng = np.random.default_rng(0)
        xs = np.exp(rng.uniform(math.log(2e-9), math.log(5e8), 1000))
        for x in xs.tolist():
            assert repr_fn_from_measure(mu, x) == conn.fn(x), x


class TestQuadraturePlans:
    def test_lebesgue_density_closed_form(self):
        # rho = 1 on [0,1]: f(x) = x ln x / (x - 1); at x = 2 that is 2 ln 2
        mu = BorelMeasure(
            density=Density(lambda t: 1.0, QuadraturePlan.gauss_legendre(64))
        )
        assert repr_fn_from_measure(mu, 2.0) == pytest.approx(
            1.3862943611198906, rel=1e-12
        )
        assert total_mass(mu) == pytest.approx(1.0, rel=1e-12)

    def test_explicit_plan_is_weighted_atoms(self):
        mu = BorelMeasure(
            density=Density(lambda t: 1.0, QuadraturePlan.explicit([0.5], [1.0]))
        )
        atom = BorelMeasure(atoms=((0.5, 1.0),))
        for x in (0.0, 0.5, 2.0, 9.0):
            assert repr_fn_from_measure(mu, x) == pytest.approx(
                repr_fn_from_measure(atom, x)
            )

    def test_transformed_arcsine_weights_absorb_density(self):
        plan = QuadraturePlan.transformed_arcsine(128)
        assert plan.absorbs_density
        assert plan.n == 128
        assert plan.weights.sum() == pytest.approx(1.0, rel=1e-12)

    def test_value_equality(self):
        assert QuadraturePlan.transformed_arcsine(64) == QuadraturePlan.transformed_arcsine(64)
        assert measure_of_builtin("geometric", 0.5) == measure_of_builtin("geometric", 0.5)
        assert QuadraturePlan.transformed_arcsine(64) != QuadraturePlan.transformed_arcsine(32)
        assert QuadraturePlan.gauss_legendre(8) != QuadraturePlan.transformed_arcsine(8)
        explicit = QuadraturePlan.explicit([0.25, 0.75], [0.5, 0.5])
        assert explicit == QuadraturePlan.explicit([0.25, 0.75], [0.5, 0.5])
        assert explicit != QuadraturePlan.explicit([0.25, 0.75], [0.5, 0.25])
        mu = BorelMeasure(
            atoms=((0.25, 1.0),),
            density=Density(arcsine_density, QuadraturePlan.transformed_arcsine(32)),
        )
        back = measure_from_dict(measure_to_dict(mu))
        assert back.density.plan == mu.density.plan
        assert back == mu

    @pytest.mark.parametrize("n", [1, 8, 64, 256])
    def test_rules_bitwise_from_leggauss(self, n):
        x, w = np.polynomial.legendre.leggauss(n)
        theta = (x + 1.0) * (math.pi / 4.0)
        arcsine = QuadraturePlan.transformed_arcsine(n)
        assert arcsine.nodes.tobytes() == (np.sin(theta) ** 2).tobytes()
        assert arcsine.weights.tobytes() == (w * (math.pi / 4.0) * (2.0 / math.pi)).tobytes()
        legendre = QuadraturePlan.gauss_legendre(n)
        assert legendre.nodes.tobytes() == ((x + 1.0) / 2.0).tobytes()
        assert legendre.weights.tobytes() == (w / 2.0).tobytes()

    def test_shared_rule_is_read_only(self):
        x, w = _leggauss(8)
        assert _leggauss(8)[0] is x
        for shared in (x, w):
            with pytest.raises(ValueError):
                shared[0] = 0.0


class TestConnectionFromMeasure:
    def test_dirac_zero_behaves_as_left_trivial(self):
        conn = connection_from_measure(BorelMeasure(atoms=((0.0, 1.0),)))
        for i in range(5):
            rng = np.random.default_rng([700, i])
            a, b = random_pd(3, rng), random_pd(3, rng)
            np.testing.assert_allclose(apply(conn, a, b).data, a.data, atol=1e-13)

    def test_interior_dirac_matches_builtin_harmonic(self):
        conn = connection_from_measure(BorelMeasure(atoms=((0.5, 1.0),)))
        builtin = make_builtin("harmonic", 0.5)
        for i in range(10):
            rng = np.random.default_rng([701, i])
            a, b = random_pd(4, rng), random_pd(4, rng)
            x, y = apply(conn, a, b), apply(builtin, a, b)
            assert frobenius(x - y) <= DEFAULT_TOL.eq_tol * max(1.0, frobenius(y))

    def test_arcsine_matches_builtin_geometric(self):
        conn = connection_from_measure(measure_of_builtin("geometric", 0.5))
        builtin = make_builtin("geometric", 0.5)
        for i in range(10):
            rng = np.random.default_rng([702, i])
            dim = 1 + i % 4
            a, b = random_pd(dim, rng), random_pd(dim, rng)
            x, y = apply(conn, a, b), apply(builtin, a, b)
            assert frobenius(x - y) <= 1e-5 * max(1.0, frobenius(y))

    def test_integral_and_function_representations_agree(self):
        mu = BorelMeasure(atoms=((0.0, 0.25), (0.4, 0.5), (1.0, 0.25)))
        conn = connection_from_measure(mu)
        for x in AUDIT_GRID:
            assert repr_fn_eval(conn, x) == pytest.approx(
                repr_fn_from_measure(mu, x), rel=1e-12
            )

    def test_normalization_iff_mean(self):
        cases = [
            (BorelMeasure(atoms=((0.3, 1.0),)), True),
            (BorelMeasure(atoms=((0.0, 0.5), (1.0, 0.5))), True),
            (measure_of_builtin("geometric", 0.5), True),
            (BorelMeasure(atoms=((0.5, 2.0),)), False),
            (BorelMeasure(atoms=((0.0, 0.25),)), False),
            (BorelMeasure(), False),
        ]
        for mu, expected in cases:
            conn = connection_from_measure(mu)
            assert is_mean(conn) is expected
            assert (abs(total_mass(mu) - 1.0) <= DEFAULT_TOL.eq_tol) is expected

    def test_positivity_iff_positive_mass(self):
        # f(1) equals the total mass exactly, since the kernel is 1 at x = 1
        for mu in (
            BorelMeasure(atoms=((0.25, 0.6),)),
            BorelMeasure(atoms=((0.0, 2.0),)),
            BorelMeasure(),
        ):
            f1 = repr_fn_from_measure(mu, 1.0)
            assert (total_mass(mu) > 0) is (f1 > 0)
            assert f1 == pytest.approx(total_mass(mu), rel=1e-12)

    def test_zero_measure_gives_zero_connection(self):
        conn = connection_from_measure(BorelMeasure())
        rng = np.random.default_rng(703)
        a, b = random_pd(3, rng), random_pd(3, rng)
        assert frobenius(apply(conn, a, b)) == 0.0
        # exact zero even for singular operands
        assert frobenius(apply(conn, SymMatrix.diagonal([1, 0, 0]), b)) == 0.0

    def test_singular_operands_route_through_limit(self):
        conn = connection_from_measure(BorelMeasure(atoms=((0.5, 1.0),)))
        builtin = make_builtin("harmonic", 0.5)
        a = SymMatrix.diagonal([1.0, 0.0])
        b = SymMatrix([[2.0, 0.5], [0.5, 1.0]])
        x, y = apply(conn, a, b), apply(builtin, a, b)
        assert frobenius(x - y) <= 1e-6 * max(1.0, frobenius(y))


# Every builtin whose measure is atoms only, with the weights that reach
# each of its routes.
_ATOM_BUILTINS = (
    [(kind, None) for kind in ("left_trivial", "right_trivial", "sum", "zero", "parallel_sum")]
    + [("arithmetic", w) for w in (0.0, 0.25, 1.0)]
    + [("harmonic", w) for w in (0.0, 0.25, 0.5, 1.0)]
    + [("geometric", w) for w in (0.0, 1.0)]
)


class TestMeasureOfBuiltin:
    def test_trivial_means_are_diracs(self):
        assert measure_of_builtin("left_trivial").atoms == ((0.0, 1.0),)
        assert measure_of_builtin("right_trivial").atoms == ((1.0, 1.0),)

    def test_harmonic_is_interior_dirac(self):
        assert measure_of_builtin("harmonic", 0.25).atoms == ((0.25, 1.0),)

    def test_arithmetic_splits_mass(self):
        assert measure_of_builtin("arithmetic", 0.3).atoms == ((0.0, 0.7), (1.0, 0.3))
        assert measure_of_builtin("arithmetic", 0.0).atoms == ((0.0, 1.0),)

    def test_roundtrip_on_audit_grid(self):
        for kind, weight, tol in [
            ("left_trivial", None, 1e-12),
            ("right_trivial", None, 1e-12),
            ("arithmetic", 0.25, 1e-12),
            ("harmonic", 0.75, 1e-12),
            ("geometric", 0.5, 1e-6),
        ]:
            mu = measure_of_builtin(kind, weight)
            conn = make_builtin(kind, weight)
            for x in AUDIT_GRID:
                got = repr_fn_from_measure(mu, x)
                want = conn.fn(x)
                assert got == pytest.approx(want, rel=tol, abs=tol), (kind, x)

    def test_geometric_audit_value(self):
        mu = measure_of_builtin("geometric", 0.5)
        assert repr_fn_from_measure(mu, 4.0) == pytest.approx(2.0, abs=1e-6)

    def test_unsupported_combinations(self):
        with pytest.raises(UnsupportedMeasureError):
            measure_of_builtin("geometric", 0.25)
        with pytest.raises(UnsupportedMeasureError):
            measure_of_builtin("logarithmic")
        # The arcsine measure is geometric(1/2)'s only.
        with pytest.raises(UnsupportedMeasureError):
            measure_of_builtin("geometric", 0.5 + 1e-13)
        assert measure_of_builtin("sum") == BorelMeasure(atoms=((0.0, 1.0), (1.0, 1.0)))
        assert measure_of_builtin("geometric", 0) == BorelMeasure(atoms=((0.0, 1.0),))
        assert measure_of_builtin("geometric", 1) == BorelMeasure(atoms=((1.0, 1.0),))

    @pytest.mark.parametrize(
        "kind, weight",
        _ATOM_BUILTINS,
        ids=[kind if w is None else f"{kind}({w:g})" for kind, w in _ATOM_BUILTINS],
    )
    def test_trivial_builtins_match_their_measures(self, kind, weight):
        # One rule builds both connections from the same atoms, so they share
        # their route, perspective, f and the transpose's g bit for bit, and
        # agree bit for bit at every dim.
        builtin = make_builtin(kind, weight)
        conn = connection_from_measure(measure_of_builtin(kind, weight))
        assert conn._atoms == builtin._atoms
        points = np.array(sorted(AUDIT_GRID) + [0.0, 5e-324, 1e-310])
        for got, want in [
            (conn.repr_function, builtin.repr_function),
            (transpose(conn).repr_function, transpose(builtin).repr_function),
        ]:
            assert got.f_at_0.hex() == want.f_at_0.hex()
            assert got.f_at_1.hex() == want.f_at_1.hex()
            for x in points.tolist():
                assert got(x).hex() == want(x).hex(), x
            assert np.array_equal(
                got.fn(points).view(np.uint64), want.fn(points).view(np.uint64)
            )
        for c, d in [(1.0, points), (points, 1.0), (points, points[::-1])]:
            got, want = conn._perspective(c, d), builtin._perspective(c, d)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for dim in (1, 2, 8, 16, 33):
            rng = np.random.default_rng([350, dim])
            a, b = random_pd(dim, rng), random_pd(dim, rng)
            assert np.array_equal(apply(conn, a, b).data, apply(builtin, a, b).data), dim
            x = np.stack([random_pd(dim, rng).data for _ in range(3)])
            y = np.stack([random_pd(dim, rng).data for _ in range(3)])
            assert np.array_equal(
                conn._apply_stack(x, y, DEFAULT_TOL), builtin._apply_stack(x, y, DEFAULT_TOL)
            ), dim


class TestMeasureIO:
    def test_atomic_roundtrip(self, tmp_path):
        mu = BorelMeasure(atoms=((0.0, 0.5), (1.0, 0.5)))
        path = tmp_path / "mu.json"
        save_measure(mu, path)
        back = load_measure(path)
        assert back.atoms == mu.atoms and back.density is None

    def test_arcsine_roundtrip(self):
        mu = measure_of_builtin("geometric", 0.5, nodes=128)
        d = measure_to_dict(mu)
        assert d == {"atoms": [], "density": {"scheme": "arcsine", "n": 128}}
        back = measure_from_dict(d)
        assert back.density.plan.n == 128

    def test_custom_density_not_serializable(self):
        mu = BorelMeasure(
            density=Density(lambda t: 1.0, QuadraturePlan.gauss_legendre(8))
        )
        with pytest.raises(ValueError, match="arcsine"):
            measure_to_dict(mu)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            measure_from_dict({"atoms": [], "density": {"scheme": "beta", "n": 4}})

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"atomz": [[0.5, 1.0]]}, r"measure has unknown keys \['atomz'\]"),
            ([[0.5, 1.0]], "measure must be an object, got list"),
            ({"density": "arcsine"}, "measure density must be an object, got str"),
            (
                {"density": {"scheme": "arcsine", "nodes": 8}},
                r"measure density has unknown keys \['nodes'\]",
            ),
            ({"atoms": None}, "measure atoms must be a list, got NoneType"),
            ({"atoms": [[0.5]]}, r"measure atom \[0.5\] is not a \[t, w\] pair"),
            ({"atoms": [[0.5, "1"]]}, r"measure atom \[0.5, '1'\] is not a \[t, w\] pair"),
            ({"atoms": [[0.5, True]]}, r"measure atom \[0.5, True\] is not a \[t, w\] pair"),
            ({"atoms": [0.5]}, r"measure atom 0.5 is not a \[t, w\] pair"),
        ],
    )
    def test_malformed_payload_rejected(self, payload, message):
        with pytest.raises(ValueError, match=message):
            measure_from_dict(payload)

    def test_empty_payload_is_the_zero_measure(self):
        for payload in ({}, {"atoms": []}, {"atoms": [], "density": None}):
            assert measure_from_dict(payload) == BorelMeasure()
        mu = measure_from_dict({"atoms": ((0.5, np.float64(1.0)),)})
        assert mu.atoms == ((0.5, 1.0),)

    def test_parse_atoms(self):
        assert parse_atoms("0:0.5,1:0.5") == ((0.0, 0.5), (1.0, 0.5))
        assert parse_atoms("0.25:2") == ((0.25, 2.0),)
        with pytest.raises(ValueError):
            parse_atoms("nonsense")
        with pytest.raises(ValueError):
            parse_atoms("")
