"""Randomized property suites for connections and a fixed counterexample
corpus on singular matrices.

Each suite draws its trials deterministically: trial k derives its
generator state from (seed, stream offset + k), so serial runs, repeated
runs, and any parallel split over trials produce identical reports.
Loewner assertions allow a slack of psd_slack * max(1, operand scale) on
the smallest eigenvalue of differences; equality assertions use eq_tol
relative Frobenius; strict-distinctness assertions use a separate margin.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .connections import (
    AUDIT_GRID,
    Connection,
    classify,
    is_mean,
    make_builtin,
)
from .linalg import DEFAULT_TOL, EigenSolverError, SymMatrix, Tolerances, opnorm
from .linalg import _eigvalsh, _is_whole, _sym

__all__ = [
    "COUNTEREXAMPLE_TOL",
    "REMARK_A",
    "REMARK_B",
    "Report",
    "SUITES",
    "TrialConfig",
    "check_axioms",
    "check_betweenness",
    "check_continuity_from_above",
    "check_positivity",
    "check_strictness_and_order",
    "random_ordered_pair",
    "random_pd",
    "random_psd",
    "run_counterexamples",
    "standard_battery",
    "standard_means",
]

# The 2x2 pair behind every boundary counterexample: orthogonal rank-one
# projections, PSD but singular and non-comparable.
REMARK_A = SymMatrix([[1.0, 0.0], [0.0, 0.0]])
REMARK_B = SymMatrix([[0.0, 0.0], [0.0, 1.0]])

# The geometric mean of the pair above vanishes only in the epsilon-limit,
# which converges at a square-root rate; assertions about it use this
# tolerance instead of eq_tol.
COUNTEREXAMPLE_TOL = 1e-5

# Base conditioning shift for the continuity suite: the n = 40 convergence
# assertion at eq_tol needs derivative-bounded means, which ill-conditioned
# bases do not provide (square-root kernels steepen near 0).
_CONTINUITY_SHIFT = 0.2

# Conditioning shift for the axiom suite's operands and congruence
# transforms.  Equality assertions at eq_tol = 1e-8 tolerate condition
# numbers up to ~1e6 in float64; C A C chains square the transform's
# condition number, so draws come from the PD interior.
_AXIOMS_SHIFT = 0.5

# Checkpoints for the decreasing sequences A + 2^-n P; monotonicity along a
# subsampled grid implies it along the full one by transitivity.
_CONTINUITY_STEPS = tuple(range(0, 13)) + tuple(range(14, 25, 2)) + (28, 32, 36, 40)
_CONTINUITY_SCALES = np.array([2.0**-n for n in _CONTINUITY_STEPS])[:, None, None]

_MAX_WITNESSES = 5


@dataclass(frozen=True)
class TrialConfig:
    """Shared configuration for the randomized suites."""

    dims: tuple = (1, 2, 3, 5, 8)
    trials: int = 500
    seed: int = 42
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        if not self.dims or any(not _is_whole(d) or d < 1 for d in self.dims):
            raise ValueError("dims must be nonempty with every entry a whole number >= 1")
        if not _is_whole(self.trials) or self.trials < 1:
            raise ValueError("trials must be a whole number >= 1")
        if not _is_whole(self.seed) or self.seed < 0:
            raise ValueError("seed must be a nonnegative whole number")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass
class Report:
    """Structured outcome of a property suite."""

    suite: str
    trials: int
    violations: int
    worst_margin: float
    witnesses: list = field(default_factory=list)
    seed: int = 0
    elapsed: float = 0.0

    def to_dict(self, include_elapsed: bool = True) -> dict:
        out = asdict(self)
        if not include_elapsed:
            del out["elapsed"]
        return out


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _draws(cfg: TrialConfig, count: int | None = None, offset: int = 0):
    """Yield (index, rng, dim) for draw k = 0 .. count - 1 (count defaults
    to cfg.trials): index offset + k, the generator of (seed, index), and
    dims[k % len(dims)]."""
    for k in range(cfg.trials if count is None else count):
        index = offset + k
        yield index, _trial_rng(cfg.seed, index), cfg.dims[k % len(cfg.dims)]


def _gram(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The raw draw behind every suite: G G^T for G with independent
    standard-normal entries.  numpy computes g @ g.T from one triangle, so
    the result is exactly symmetric and SymMatrix stores it unchanged."""
    g = rng.standard_normal((dim, dim))
    return g @ g.T


def _gram_pd(dim: int, rng: np.random.Generator, tol: Tolerances) -> np.ndarray:
    return _gram(dim, rng) + 10.0 * tol.psd_slack * np.eye(dim)


def _ordered_pair(
    dim: int, rng: np.random.Generator, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    a = _gram_pd(dim, rng, tol)
    return a, a + _gram(dim, rng)


def random_psd(dim: int, rng: np.random.Generator) -> SymMatrix:
    """G G^T for G with independent standard-normal entries."""
    return SymMatrix(_gram(dim, rng))


def random_pd(
    dim: int, rng: np.random.Generator, tol: Tolerances = DEFAULT_TOL
) -> SymMatrix:
    """random_psd plus a 10 * psd_slack identity shift, so the result is
    numerically positive definite."""
    return SymMatrix(_gram_pd(dim, rng, tol))


def random_ordered_pair(
    dim: int, rng: np.random.Generator, tol: Tolerances = DEFAULT_TOL
) -> tuple[SymMatrix, SymMatrix]:
    """(A, A + G G^T): the Loewner order A <= B holds by construction."""
    a, b = _ordered_pair(dim, rng, tol)
    return SymMatrix(a), SymMatrix(b)


def _congr(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _sym(c @ x @ c)


def _frobenius(x: np.ndarray) -> np.ndarray:
    # np.linalg.norm's own Frobenius formula for real input, without the
    # wrapper's dispatch.
    return np.sqrt(np.add.reduce(x * x, axis=(-2, -1)))


def _loewner_margin(p: np.ndarray, q: np.ndarray, tol: Tolerances):
    """Margin for p <= q; nonnegative means the order holds within slack.
    Stacks of shape (..., n, n) give one margin per item."""
    w = _eigvalsh(q - p)
    scale = np.maximum(1.0, np.maximum(_frobenius(p), _frobenius(q)))
    return w[..., 0] + tol.psd_slack * scale


def _equality_margin(p: np.ndarray, q: np.ndarray, tol: Tolerances):
    """Margin for p = q within eq_tol, one per item of a stack."""
    scale = np.maximum(1.0, _frobenius(q))
    return tol.eq_tol * scale - _frobenius(p - q)


def _strict_margin(w_min: float) -> float:
    """Margin for a strict > 0 requirement on an eigenvalue."""
    if w_min > 0.0:
        return w_min
    return min(w_min, -np.finfo(float).tiny)


class _SuiteRecorder:
    def __init__(self, suite: str, seed: int):
        self.suite = suite
        self.seed = seed
        self.trials = 0
        self.violations = 0
        self.worst = math.inf
        self.witnesses = []

    def add_trial(self, index, dim, checks, inputs=None):
        self.trials += 1
        failing = []
        for name, margin in checks:
            margin = float(margin)
            if math.isnan(margin):
                margin = -math.inf
            self.worst = min(self.worst, margin)
            if margin < 0.0:
                failing.append((name, margin))
        if failing:
            self.violations += 1
            failed = [
                {"property": name, "margin": margin} for name, margin in failing
            ]
            self._add_witness(index, dim, {"failed": failed}, inputs)

    def add_error(self, index, dim, exc, inputs=None):
        self.trials += 1
        self.violations += 1
        self.worst = min(self.worst, -math.inf)
        self._add_witness(index, dim, {"error": f"{type(exc).__name__}: {exc}"}, inputs)

    def _add_witness(self, index, dim, outcome, inputs):
        # Keys in order: trial, dim, failed or error, then the named input
        # matrices as nested lists.
        if len(self.witnesses) < _MAX_WITNESSES:
            witness = {"trial": index, "dim": dim, **outcome}
            if inputs is not None:
                witness["inputs"] = {name: m.tolist() for name, m in inputs.items()}
            self.witnesses.append(witness)

    def run_trial(self, index, dim, evaluate, **inputs):
        """Record the (name, margin) checks that ``evaluate()`` returns, or
        an error witness if it raises.  An empty list of checks records
        nothing.  ``inputs`` are the trial's named matrices, for its
        witness."""
        try:
            checks = evaluate()
        except Exception as exc:
            self.add_error(index, dim, exc, inputs)
            return
        if checks:
            self.add_trial(index, dim, checks, inputs)

    def report(self, elapsed: float) -> Report:
        if self.worst == math.inf:
            worst = 0.0
        elif math.isfinite(self.worst):
            worst = self.worst
        else:
            worst = -1e308
        return Report(
            suite=self.suite,
            trials=self.trials,
            violations=self.violations,
            worst_margin=float(worst),
            witnesses=self.witnesses,
            seed=self.seed,
            elapsed=elapsed,
        )


def check_axioms(conn: Connection, cfg: TrialConfig = TrialConfig()) -> Report:
    """Monotonicity, the transformer inequality, congruence invariance for
    positive-definite transforms, and dim-1 scalar consistency.

    A trial's four n x n evaluations, (A, B), (C, D) and the two congruence
    transforms of (A, B), are stacked into one call, and its two Loewner
    margins come from one eigenvalue solve."""
    rec = _SuiteRecorder("axioms", cfg.seed)
    tol = cfg.tol
    start = time.perf_counter()
    for index, rng, dim in _draws(cfg):
        shift = _AXIOMS_SHIFT * np.eye(dim)
        a = _gram(dim, rng) + shift
        c = a + _gram(dim, rng)
        b = _gram(dim, rng) + shift
        d = b + _gram(dim, rng)
        c_ineq = _gram(dim, rng) + shift
        c_pd = _gram(dim, rng) + shift
        s = float(rng.uniform(0.05, 3.0))
        u = float(rng.uniform(0.05, 3.0))

        def evaluate():
            x_ab, x_cd, rhs, rhs_pd = conn._apply_stack(
                np.stack([a, c, _congr(c_ineq, a), _congr(c_pd, a)]),
                np.stack([b, d, _congr(c_ineq, b), _congr(c_pd, b)]),
                tol,
            )
            lhs, lhs_pd = _congr(c_ineq, x_ab), _congr(c_pd, x_ab)
            try:
                mono, transformer = _loewner_margin(
                    np.stack([x_ab, lhs]), np.stack([x_cd, rhs]), tol
                )
            except EigenSolverError:
                # The separate solves raise the error that names the matrix
                # alone, not its place in the stack.
                mono = _loewner_margin(x_ab, x_cd, tol)
                transformer = _loewner_margin(lhs, rhs, tol)
            checks = [
                ("monotonicity", mono),
                ("transformer_inequality", transformer),
                ("congruence_equality", _equality_margin(lhs_pd, rhs_pd, tol)),
            ]
            got = conn._apply_raw(np.array([[s]]), np.array([[u]]), tol)[0, 0]
            expected = s * conn.fn(u / s)
            checks.append(
                (
                    "scalar_consistency",
                    tol.eq_tol * max(1.0, abs(expected)) - abs(got - expected),
                )
            )
            return checks

        rec.run_trial(index, dim, evaluate, A=a, B=b, C=c, D=d, C_ineq=c_ineq, C_pd=c_pd)
    return rec.report(time.perf_counter() - start)


def check_continuity_from_above(
    conn: Connection, cfg: TrialConfig = TrialConfig()
) -> Report:
    """Decreasing sequences A + 2^-n P, B + 2^-n Q: the connection values
    must decrease in the Loewner order and converge to the value at the
    base pair by n = 40.

    A trial evaluates the base pair and every checkpoint of the sequence in
    one stacked call, and takes the Loewner margins from one stacked
    eigenvalue solve."""
    rec = _SuiteRecorder("continuity", cfg.seed)
    tol = cfg.tol
    start = time.perf_counter()
    for index, rng, dim in _draws(cfg):
        shift = _CONTINUITY_SHIFT * np.eye(dim)
        a = _gram(dim, rng) + shift
        b = _gram(dim, rng) + shift
        p = _gram(dim, rng)
        q = _gram(dim, rng)

        def evaluate():
            x = conn._apply_stack(
                np.concatenate([a[None], a + _CONTINUITY_SCALES * p]),
                np.concatenate([b[None], b + _CONTINUITY_SCALES * q]),
                tol,
            )
            target, steps = x[0], x[1:]
            checks = [
                ("loewner_nonincreasing", margin)
                for margin in _loewner_margin(steps[1:], steps[:-1], tol)
            ]
            checks.append(("limit_reached", _equality_margin(steps[-1], target, tol)))
            return checks

        rec.run_trial(index, dim, evaluate, A=a, B=b, P=p, Q=q)
    return rec.report(time.perf_counter() - start)


def check_positivity(conn: Connection, cfg: TrialConfig = TrialConfig()) -> Report:
    """For the zero connection, everything must be exactly zero; otherwise
    positive-definite operands must give a positive-definite value, and the
    one-sided actions against the identity are bounded below through the
    representing function and its transpose."""
    rec = _SuiteRecorder("positivity", cfg.seed)
    tol = cfg.tol
    zero_conn = conn.fn(1.0) <= tol.eq_tol
    start = time.perf_counter()
    for index, rng, dim in _draws(cfg):
        a = _gram_pd(dim, rng, tol)
        b = _gram_pd(dim, rng, tol)
        eye = np.eye(dim)

        def evaluate():
            x = conn._apply_raw(a, b, tol)
            if zero_conn:
                norm = float(np.linalg.norm(x))
                return [("zero_everywhere", 0.0 if norm == 0.0 else -norm)]
            checks = [("strict_positivity", _strict_margin(float(_eigvalsh(x)[0])))]
            spec_a = _eigvalsh(a)
            f_bound = min(conn.fn(float(v)) for v in np.maximum(spec_a, 0.0))
            g_bound = min(
                float(v) * conn.fn(1.0 / float(v)) for v in spec_a if v > 0
            )
            x_ia = conn._apply_raw(eye, a, tol)
            x_ai = conn._apply_raw(a, eye, tol)
            slack = tol.eq_tol * max(1.0, f_bound)
            checks.append(
                ("identity_left_bound", float(_eigvalsh(x_ia)[0]) - f_bound + slack)
            )
            slack_g = tol.eq_tol * max(1.0, g_bound)
            checks.append(
                ("identity_right_bound", float(_eigvalsh(x_ai)[0]) - g_bound + slack_g)
            )
            return checks

        rec.run_trial(index, dim, evaluate, A=a, B=b)
    return rec.report(time.perf_counter() - start)


def check_betweenness(conn: Connection, cfg: TrialConfig = TrialConfig()) -> Report:
    """For ordered pairs A <= B: A <= A sigma B <= B, the operator-norm
    chain, and the scalar betweenness bands of the representing function on
    the audit grid.  Means pass; non-means violate (they must, since
    betweenness characterizes means)."""
    rec = _SuiteRecorder("betweenness", cfg.seed)
    tol = cfg.tol
    grid_checks = []
    for t in AUDIT_GRID:
        ft = conn.fn(float(t))
        slack = tol.eq_tol * max(1.0, t)
        if t >= 1.0:
            grid_checks.append((f"grid_lower_x={t:g}", ft - 1.0 + slack))
            grid_checks.append((f"grid_upper_x={t:g}", t - ft + slack))
        else:
            grid_checks.append((f"grid_lower_x={t:g}", ft - t + slack))
            grid_checks.append((f"grid_upper_x={t:g}", 1.0 - ft + slack))
    start = time.perf_counter()
    for index, rng, dim in _draws(cfg):
        a, b = _ordered_pair(dim, rng, tol)

        def evaluate():
            x = conn._apply_raw(a, b, tol)
            norm_a, norm_b, norm_x = opnorm(a), opnorm(b), opnorm(x)
            slack = tol.eq_tol * max(1.0, norm_b)
            checks = [
                ("left_betweenness", _loewner_margin(a, x, tol)),
                ("right_betweenness", _loewner_margin(x, b, tol)),
                ("norm_chain_lower", norm_x - norm_a + slack),
                ("norm_chain_upper", norm_b - norm_x + slack),
            ]
            if index == 0:
                checks.extend(grid_checks)
            return checks

        rec.run_trial(index, dim, evaluate, A=a, B=b)
    return rec.report(time.perf_counter() - start)


def _non_comparable_pair(
    dim: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """PD pair whose difference is indefinite with eigenvalues of size at
    least 0.5 on both sides (needs dim >= 2)."""
    a = _sym(_gram(dim, rng) + 2.0 * np.eye(dim))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    mags = rng.uniform(0.5, 1.5, size=dim)
    signs = np.ones(dim)
    signs[0] = -1.0
    delta = (q * (mags * signs)) @ q.T
    return a, _sym(a + delta)


def check_strictness_and_order(
    conn: Connection, cfg: TrialConfig = TrialConfig()
) -> Report:
    """Strictness of a mean (A sigma B collides with A or B only for A = B)
    and the order equivalences A <= B <=> A <= A sigma B <=> A sigma B <= B
    for non-trivial means, tested in both directions.

    The converse direction is sampled by rejection: draw pairs, keep those
    where the right-hand condition holds with a clear margin, then assert
    the left-hand side.  Trivial means skip the order phase (the
    equivalences assume non-triviality) and instead confirm their expected
    strictness failure.
    """
    if not is_mean(conn, cfg.tol):
        raise ValueError(
            "the strictness suite requires a mean; representing function "
            f"value at 1 is {conn.fn(1.0):.6g}"
        )
    record = classify(conn, cfg.tol)
    rec = _SuiteRecorder("strictness", cfg.seed)
    tol = cfg.tol
    start = time.perf_counter()

    for index, rng, dim in _draws(cfg):
        a = _gram_pd(dim, rng, tol)
        b = _gram_pd(dim, rng, tol)
        guard = 0
        while float(np.linalg.norm(a - b)) < 0.1 and guard < 64:
            b = _gram_pd(dim, rng, tol)
            guard += 1

        def evaluate():
            x = conn._apply_raw(a, b, tol)
            dist_a = float(np.linalg.norm(x - a))
            dist_b = float(np.linalg.norm(x - b))
            norm_a = float(np.linalg.norm(a))
            norm_b = float(np.linalg.norm(b))
            checks = []
            if record.is_left_trivial:
                checks.append(("left_trivial_returns_A", tol.eq_tol * norm_a - dist_a))
            else:
                checks.append(("strict_left", dist_a - tol.eq_tol * norm_a))
            if record.is_right_trivial:
                checks.append(("right_trivial_returns_B", tol.eq_tol * norm_b - dist_b))
            else:
                checks.append(("strict_right", dist_b - tol.eq_tol * norm_b))
            return checks

        rec.run_trial(index, dim, evaluate, A=a, B=b)

    if record.strict:
        # Forward direction of the order equivalences on constructed A <= B,
        # including the swapped forms B sigma A.
        for index, rng, dim in _draws(cfg, offset=cfg.trials):
            a, b = _ordered_pair(dim, rng, tol)

            def evaluate():
                x = conn._apply_raw(a, b, tol)
                y = conn._apply_raw(b, a, tol)
                return [
                    ("order_forward_left", _loewner_margin(a, x, tol)),
                    ("order_forward_right", _loewner_margin(x, b, tol)),
                    ("order_forward_swapped_left", _loewner_margin(a, y, tol)),
                    ("order_forward_swapped_right", _loewner_margin(y, b, tol)),
                ]

            rec.run_trial(index, dim, evaluate, A=a, B=b)

        # Converse direction by rejection over a pool mixing ordered and
        # deliberately non-comparable pairs.
        accepted_left = 0
        accepted_right = 0
        draws = 0
        for index, rng, dim in _draws(cfg, 50 * cfg.trials, 2 * cfg.trials):
            if accepted_left >= cfg.trials and accepted_right >= cfg.trials:
                break
            if draws % 2 == 0 or dim < 2:
                a, b = _ordered_pair(dim, rng, tol)
            else:
                a, b = _non_comparable_pair(dim, rng)
            draws += 1

            def evaluate():
                nonlocal accepted_left, accepted_right
                x = conn._apply_raw(a, b, tol)
                accept_scale = max(
                    1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b))
                )
                threshold = 10.0 * tol.psd_slack * accept_scale
                checks = []
                if accepted_left < cfg.trials:
                    if float(_eigvalsh(x - a)[0]) > threshold:
                        accepted_left += 1
                        checks.append(
                            ("order_converse_left", _loewner_margin(a, b, tol))
                        )
                if accepted_right < cfg.trials:
                    if float(_eigvalsh(b - x)[0]) > threshold:
                        accepted_right += 1
                        checks.append(
                            ("order_converse_right", _loewner_margin(a, b, tol))
                        )
                return checks

            rec.run_trial(index, dim, evaluate, A=a, B=b)
        if accepted_left < cfg.trials or accepted_right < cfg.trials:
            rec.add_error(
                -1,
                0,
                RuntimeError(
                    "converse order sampling fell short: accepted "
                    f"{accepted_left}/{accepted_right} of {cfg.trials} "
                    f"in {draws} draws"
                ),
            )
    return rec.report(time.perf_counter() - start)


def run_counterexamples(tol: Tolerances = DEFAULT_TOL) -> Report:
    """Reproduce the fixed boundary counterexamples for the geometric mean
    on singular matrices.

    (a) With A, B the orthogonal projections, A # B vanishes although A is
        not zero, so "A sigma B = 0 implies A = 0" fails for merely PSD B.
    (b) With A = 0, A # B = A although A differs from B, so strictness
        fails on PSD arguments.
    (c) For the same pair, A # B <= B holds while A <= B does not, so the
        order equivalences need invertibility.

    All three must reproduce; a violation means the corpus broke.  The
    vanishing checks use COUNTEREXAMPLE_TOL, since the epsilon-limit
    converges at a square-root rate.
    """
    geo = make_builtin("geometric", 0.5)
    rec = _SuiteRecorder("counterexamples", 0)
    start = time.perf_counter()
    a, b = REMARK_A.data, REMARK_B.data
    zero = np.zeros((2, 2))

    x = geo._apply_raw(a, b, tol)
    rec.add_trial(
        0,
        2,
        [
            ("vanishes_on_projection_pair", COUNTEREXAMPLE_TOL - float(np.linalg.norm(x))),
            ("left_operand_nonzero", float(np.linalg.norm(a)) - 0.5),
        ],
        dict(A=a, B=b, A_geo_B=x),
    )

    z = geo._apply_raw(zero, b, tol)
    rec.add_trial(
        1,
        2,
        [
            ("zero_fixed_without_invertibility", COUNTEREXAMPLE_TOL - float(np.linalg.norm(z - zero))),
            ("operands_differ", float(np.linalg.norm(zero - b)) - 0.5),
        ],
        dict(A=zero, B=b, A_geo_B=z),
    )

    upper = float(_eigvalsh(b - x)[0])
    order = float(_eigvalsh(b - a)[0])
    rec.add_trial(
        2,
        2,
        [
            ("upper_order_holds", upper + COUNTEREXAMPLE_TOL),
            ("full_order_fails", -order - 10.0 * tol.psd_slack),
        ],
        dict(A=a, B=b, A_geo_B=x),
    )
    return rec.report(time.perf_counter() - start)


SUITES = {
    "axioms": check_axioms,
    "continuity": check_continuity_from_above,
    "positivity": check_positivity,
    "betweenness": check_betweenness,
    "strictness": check_strictness_and_order,
}


def standard_battery() -> list[tuple[str, Connection]]:
    """The named connections exercised by the acceptance battery: both
    trivial means, the three weighted families at weights 1/4, 1/2, 3/4,
    the logarithmic mean, the parallel sum, the sum, and zero."""
    entries = [(kind, make_builtin(kind)) for kind in ("left_trivial", "right_trivial")]
    for kind in ("arithmetic", "geometric", "harmonic"):
        for weight in (0.25, 0.5, 0.75):
            entries.append((f"{kind}({weight:g})", make_builtin(kind, weight)))
    for kind in ("logarithmic", "parallel_sum", "sum", "zero"):
        entries.append((kind, make_builtin(kind)))
    return entries


def standard_means() -> list[tuple[str, Connection]]:
    """The subset of the battery that are means (f(1) = 1)."""
    return [(name, conn) for name, conn in standard_battery() if is_mean(conn)]
