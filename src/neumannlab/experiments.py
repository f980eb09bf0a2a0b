"""Desk-scale studies of the limit behavior of the eigenvalue and level maps.

Each experiment packages a family of solves plus the quantitative check the
theory suggests: continuity of Lambda along exponent paths, blow-up or
vanishing of levels as pq crosses 1 depending on the first eigenvalue,
the limit constant of Lambda^((p+1)(q+1)/(pq-1)) when the first eigenvalue
equals one, the degeneration of both exponents to zero, and upper bounds
for the genus min-max levels of the dual functional.  The studies that
move the exponents toward a limit walk their paths through run_sweep, the
one warm-started loop.  Everything is deterministic given (config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dual import (
    DualPair,
    SolverOptions,
    compute_dual,
    reconstruct_solution,
)
from .exponents import ExponentPair, Region, classify_region
from .greens import NumericalFailure, solve_neumann
from .grid import RadialGrid, interval_grid
from .report_io import write_csv_rows
from .sign import solve_scalar_sign

__all__ = [
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "ClassificationReport",
    "classify_pq_to_1",
    "FrakCReport",
    "estimate_frak_c",
    "PqToZeroReport",
    "check_pq_to_0",
    "ls_upper_bounds",
    "continuation_lambda",
]


@dataclass
class SweepSpec:
    """Parameterized exponent path t -> (p(t), q(t)) with sample points."""

    p_of: Callable[[float], float]
    q_of: Callable[[float], float]
    ts: Sequence[float]
    grid: RadialGrid
    opts: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self) -> None:
        self.ts = sorted(float(t) for t in self.ts)
        for t in self.ts:
            e = ExponentPair(self.p_of(t), self.q_of(t), self.grid.dim)
            region = classify_region(e)
            if region in (Region.SUPERCRITICAL, Region.CRITICAL_ADMISSIBLE, Region.CRITICAL_INADMISSIBLE):
                raise ValueError(f"sample t={t} is {region.value}, outside the dual solver's scope")


@dataclass
class SweepResult:
    rows: list[dict]

    def column(self, key: str) -> list:
        return [row[key] for row in self.rows]

    def write_csv(self, path) -> None:
        headers = ["t", "p", "q", "Lambda", "D", "c", "u_max", "v_max", "iterations", "converged", "stop_reason", "error"]
        write_csv_rows(path, headers, self.rows)


def _sweep_sample(spec: SweepSpec, t: float, warm: DualPair | None) -> tuple[dict, DualPair | None]:
    p, q = spec.p_of(t), spec.q_of(t)
    e = ExponentPair(p, q, spec.grid.dim)
    row: dict = {"t": t, "p": p, "q": q, "error": None}
    try:
        dp = compute_dual(e, spec.grid, spec.opts, warm_start=warm)
        row["Lambda"] = 1.0 / dp.d_estimate
        row["D"] = dp.d_estimate
        row["iterations"] = dp.iterations
        if e.on_hyperbola:
            row["c"] = None
            row["u_max"] = None
            row["v_max"] = None
            row["converged"] = True  # compute_dual raises unless it converged
        else:
            rep = reconstruct_solution(e, dp)
            row["c"] = rep.c
            row["u_max"] = rep.u.sup_norm()
            row["v_max"] = rep.v.sup_norm()
            row["converged"] = rep.converged
        row["stop_reason"] = dp.stop_reason  # a failed row leaves it empty
        return row, dp
    except (NumericalFailure, ValueError) as exc:
        d_estimate = getattr(exc, "d_estimate", None)
        row["error"] = str(exc)
        row["Lambda"] = 1.0 / d_estimate if d_estimate else None
        row["D"] = d_estimate
        row.setdefault("iterations", getattr(exc, "iterations", None))  # a failed reconstruction keeps the count
        return row, None


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Solve along the path, warm-starting each sample from the previous one.

    Failures are recorded per sample and the sweep continues; the sample
    after a failure starts cold.
    """
    rows: list[dict] = []
    warm: DualPair | None = None
    for t in spec.ts:
        row, warm = _sweep_sample(spec, t, warm)
        rows.append(row)
    return SweepResult(rows)


def _walk(spec: SweepSpec) -> list[dict]:
    """run_sweep's rows; a failed sample raises NumericalFailure naming its (p, q)."""
    rows = run_sweep(spec).rows
    for row in rows:
        if row["error"] is not None:
            raise NumericalFailure(f"path sample p={row['p']!r}, q={row['q']!r} failed: {row['error']}")
    return rows


@dataclass
class ClassificationReport:
    q: float
    length: float
    side: str
    mu1: float
    offsets: list[float]
    levels: list[float]
    sup_norms: list[float]
    monotone: bool
    expected_direction: str  # "diverge" or "vanish"
    observed_direction: str  # "diverge", "vanish", or "inconclusive"

    @property
    def consistent(self) -> bool:
        return self.observed_direction == self.expected_direction


def classify_pq_to_1(
    q: float,
    dim: int,
    side: str,
    length: float,
    n: int = 2000,
    opts: SolverOptions | None = None,
    offsets: Sequence[float] = (0.2, 0.1, 0.05, 0.025),
) -> ClassificationReport:
    """Trend of c and ||u||_inf as pq -> 1 from one side.

    The direction is diagnosed against the position of the first nonlinear
    eigenvalue mu_1 = Lambda_{1/q, q} relative to 1: above the hyperbola the
    levels blow up when mu_1 > 1 and vanish when mu_1 < 1, and conversely
    below it.  Domains are intervals of the given length (mu_1 scales with
    the domain, so the length selects the regime).
    """
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    if dim != 1:
        raise ValueError("the classification experiment runs on intervals")
    if not all(0 < s < (1 if side == "below" else math.inf) for s in offsets):
        raise ValueError(f"every offset must be > 0, and < 1 below pq = 1 so that p > 0, got {list(offsets)}")
    opts = opts or SolverOptions()
    grid = interval_grid(length=length, n=n)
    mu1 = 1.0 / compute_dual(ExponentPair(1.0 / q, q, dim), grid, opts).d_estimate
    if abs(mu1 - 1.0) < 1e-8:
        raise ValueError("mu_1 = 1: the trend is not classified on this domain")
    sgn = 1.0 if side == "above" else -1.0
    # SweepSpec visits t ascending, so t = -offset walks toward pq = 1 and
    # warm-starts each sample from the one farther out (as do the other studies)
    rows = _walk(SweepSpec(lambda t: (1.0 - sgn * t) / q, lambda t: q, [-s for s in offsets], grid, opts))
    levels = [abs(row["c"]) for row in rows]
    sups = [row["u_max"] for row in rows]
    diffs = np.diff(levels)
    increasing = bool(np.all(diffs > 0))
    decreasing = bool(np.all(diffs < 0))
    sup_diffs = np.diff(sups)
    monotone = bool(np.all(sup_diffs > 0)) or bool(np.all(sup_diffs < 0))
    if increasing:
        observed = "diverge"
    elif decreasing:
        observed = "vanish"
    else:
        observed = "inconclusive"
    blow_up = (mu1 > 1.0) == (side == "above")
    expected = "diverge" if blow_up else "vanish"
    return ClassificationReport(
        q=q,
        length=length,
        side=side,
        mu1=mu1,
        offsets=[-row["t"] for row in rows],
        levels=levels,
        sup_norms=sups,
        monotone=monotone,
        expected_direction=expected,
        observed_direction=observed,
    )


@dataclass
class FrakCReport:
    extrapolated: float
    reference: float
    e_prime: float
    ts: list[float]
    lambdas: list[float]
    log_values: list[float]
    c_over_offset: float
    c_over_offset_target: float

    @property
    def relative_gap(self) -> float:
        return abs(self.extrapolated / self.reference - 1.0)


def estimate_frak_c(
    n: int = 2000,
    opts: SolverOptions | None = None,
    ts: Sequence[float] = (0.1, 0.05, 0.025),
    p_of: Callable[[float], float] = lambda t: 1.0 + t,
    q_of: Callable[[float], float] = lambda t: 1.0,
) -> FrakCReport:
    """Limit of Lambda^((p+1)(q+1)/(pq-1)) along a path through (1, 1).

    Runs on the interval of length pi, where the first Neumann eigenvalue is
    exactly 1.  The logarithms ln(Lambda)/(pq-1) are Richardson-extrapolated
    to t = 0 (first order, per the C^1 path hypothesis) and exponentiated
    with the limit factor (p+1)(q+1) = 4.  The reference value is
    exp(-int phi_1^2 ln phi_1^2) with phi_1 the L^2-normalized eigenfunction,
    evaluated by quadrature.  Paths with e'(0) = 0 (e.g. pq constant) carry
    no first-order information and are rejected, as are ts that are not
    positive and halving: the Richardson step 2 s[i+1] - s[i] assumes it.
    """
    desc = sorted(ts, reverse=True)
    if not all(t > 0 for t in desc) or any(not math.isclose(2.0 * b, a, rel_tol=1e-12) for a, b in zip(desc, desc[1:])):
        raise ValueError(f"every t must be > 0 and, sorted descending, each half the one before, got {list(ts)}")
    opts = opts or SolverOptions()
    delta = 1e-6
    e0 = p_of(0.0) * q_of(0.0) - 1.0
    if abs(e0) > 1e-12:
        raise ValueError("the path must start on the hyperbola, p(0) q(0) = 1")
    e_prime = (p_of(delta) * q_of(delta) - 1.0 - e0) / delta
    if abs(e_prime) < 1e-8:
        raise ValueError("path with e'(0) = 0: the expansion degenerates")
    grid = interval_grid(length=math.pi, n=n)
    rows = _walk(SweepSpec(lambda t: p_of(-t), lambda t: q_of(-t), [-t for t in ts], grid, opts))
    lambdas = [row["Lambda"] for row in rows]
    logs = [math.log(row["Lambda"]) / (row["p"] * row["q"] - 1.0) for row in rows]
    seq = list(logs)
    while len(seq) > 1:
        seq = [2.0 * seq[i + 1] - seq[i] for i in range(len(seq) - 1)]
    frak_c = math.exp(4.0 * seq[0])

    phi = np.sqrt(2.0 / math.pi) * np.cos(grid.r)
    phi2 = phi**2
    integrand = phi2 * np.log(phi2, out=np.zeros_like(phi2), where=phi2 > 0.0)
    reference = math.exp(-grid.integrate_values(integrand))

    last = rows[-1]
    return FrakCReport(
        extrapolated=frak_c,
        reference=reference,
        e_prime=e_prime,
        ts=[-row["t"] for row in rows],
        lambdas=lambdas,
        log_values=logs,
        c_over_offset=last["c"] / (last["p"] * last["q"] - 1.0),
        c_over_offset_target=frak_c / 4.0,
    )


@dataclass
class PqToZeroReport:
    ps: list[float]
    levels: list[float]
    ratios: list[float]
    u_v_gaps: list[float]
    c0: float

    @property
    def monotone_toward_one(self) -> bool:
        gaps = [abs(r - 1.0) for r in self.ratios]
        return all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))


def check_pq_to_0(
    n: int = 2000,
    opts: SolverOptions | None = None,
    ps: Sequence[float] = (0.1, 0.05, 0.02, 0.01),
) -> PqToZeroReport:
    """Levels c_{p,p} on the unit interval against the scalar sign limit 2 c_0."""
    opts = opts or SolverOptions()
    grid = interval_grid(length=1.0, n=n)
    _, c0 = solve_scalar_sign(grid)
    ps = sorted(ps, reverse=True)
    levels = []
    gaps = []
    for p in ps:
        e = ExponentPair(p, p, 1)
        rep = reconstruct_solution(e, compute_dual(e, grid, opts))
        levels.append(rep.c)
        gaps.append(float(np.max(np.abs(rep.u.values - rep.v.values))) / rep.u.sup_norm())
    ratios = [c / (2.0 * c0) for c in levels]
    return PqToZeroReport(ps=list(ps), levels=levels, ratios=ratios, u_v_gaps=gaps, c0=c0)


def continuation_lambda(
    q: float,
    grid: RadialGrid,
    opts: SolverOptions | None = None,
    ps: Sequence[float] = (0.2, 0.1, 0.05, 0.025),
) -> tuple[float, list[float]]:
    """Extrapolated limit of Lambda_{p,q} as p -> 0.

    The eigenvalue expands in p and p ln p near the sign limit; fitting the
    basis {1, p, p ln p, p^2} on the four samples absorbs both slopes (plain
    Richardson overshoots on the logarithmic term).
    """
    if not all(p > 0 for p in ps):
        raise ValueError(f"every p must be > 0 for the dual solver, got {list(ps)}")
    rows = _walk(SweepSpec(lambda t: -t, lambda t: q, [-p for p in ps], grid, opts or SolverOptions()))
    lams = [row["Lambda"] for row in rows]
    parr = np.asarray([row["p"] for row in rows])
    basis = np.vstack([np.ones_like(parr), parr, parr * np.log(parr), parr**2]).T
    coeffs = np.linalg.solve(basis, np.asarray(lams))
    return float(coeffs[0]), lams


def _constraint_scale(
    alpha: float, beta: float, gamma1: float, gamma2: float, na: np.ndarray, nb: np.ndarray
) -> np.ndarray:
    """Per row, the c > 0 with gamma1 c^alpha na + gamma2 c^beta nb = 1.

    na and nb are a row's integrals of |f|^alpha and |f|^beta, so c puts f
    on the constraint sphere.  At alpha = beta (every p = q pair) the closed
    form c = ((gamma1 + gamma2) na)^(-1/alpha) is off by about |log ||f|||
    ulp through the rounding of -1/alpha (6 ulp at ||f|| ~ 1e3); one Newton
    step on the sum leaves it within 3 ulp of the sum's adjacent-float root.
    Otherwise the excess is convex and increasing in c, and at least 1 at
    min_i (gamma_i n_i / 2)^(-1/e_i), where term i alone is 2.  Newton steps
    from there decrease onto the root; they stop once no row decreases.
    """
    if beta == alpha:
        c = ((gamma1 + gamma2) * na) ** (-1.0 / alpha)
        f = gamma1 * c**alpha * na + gamma2 * c**beta * nb - 1.0
        return c * (1.0 - f / (alpha * (f + 1.0)))  # Newton: the sum's slope is alpha (f + 1) / c
    c = np.minimum((gamma1 * na / 2.0) ** (-1.0 / alpha), (gamma2 * nb / 2.0) ** (-1.0 / beta))
    while True:
        ta, tb = gamma1 * c**alpha * na, gamma2 * c**beta * nb
        nxt = c - (ta + tb - 1.0) * c / (alpha * ta + beta * tb)
        if not np.any(nxt < c):
            return c
        c = np.minimum(c, nxt)


def _power_ascent(
    a: np.ndarray, modes: np.ndarray, wmodes: np.ndarray, quad: np.ndarray, e: ExponentPair
) -> tuple[np.ndarray, np.ndarray]:
    """Maximize phi = -c^2 a.Q a from every row of a at once.

    1/c is a convex, 1-homogeneous gauge of a, so the step a <- Q^-1 grad
    (grad ~ sum_i gamma_i e_i c^e_i int |f|^(e_i-1) sgn(f) modes w),
    normalized in Q, never lowers phi and needs no step size: the nonlinear
    power method (Boyd 1974, Higham 1992).  A row stops once its gain is at
    most 1e-15 |phi|, or after 400 sweeps.  Returns each row's best a and
    the phi history (sweeps x rows, NaN once a row has stopped).
    """
    alpha, beta, gamma1, gamma2 = e.alpha, e.beta, e.gamma1, e.gamma2
    qinv = np.linalg.inv(quad)
    s, n = a.shape[0], modes.shape[1]
    vbuf, neg = np.empty((s, n)), np.empty((s, n), dtype=bool)
    best_a, best, rows, history = a.copy(), np.full(s, -np.inf), np.arange(s), []

    def moments(a: np.ndarray, expo: float) -> np.ndarray:
        # int |f|^(expo-1) sgn(f) modes w per row, with f and its powers formed in place
        p = np.matmul(a, modes, out=vbuf[: len(a)])
        sgn = np.signbit(p, out=neg[: len(a)])
        p = np.abs(p, out=p)
        p **= expo - 1.0  # numpy takes a square root for expo - 1 = 1/2
        return np.negative(p, out=p, where=sgn) @ wmodes.T

    for _ in range(400):
        ga = moments(a, alpha)
        gb = ga if beta == alpha else moments(a, beta)
        # Euler: int |f|^e w = a . int |f|^(e-1) sgn(f) modes w
        na, nb = np.einsum("ij,ij->i", a, ga), np.einsum("ij,ij->i", a, gb)
        c = _constraint_scale(alpha, beta, gamma1, gamma2, na, nb)
        phi = -(c**2) * np.einsum("ij,ij->i", a @ quad, a)
        history.append(np.full(s, np.nan))
        history[-1][rows] = phi
        gain = phi - best[rows]
        up = gain > 0.0
        best[rows[up]], best_a[rows[up]] = phi[up], a[up]
        go = gain > 1e-15 * np.abs(phi)
        if not go.any():
            break
        grad = ga[go]
        if beta != alpha:
            cg = c[go, None]
            grad = gamma1 * alpha * cg**alpha * grad + gamma2 * beta * cg**beta * gb[go]
        h = grad @ qinv
        a = h / np.sqrt(np.einsum("ij,ij->i", h, grad))[:, None]  # Q h = grad, so h.grad = h.Q h
        rows = rows[go]
    return best_a, np.vstack(history)


def ls_upper_bounds(
    e: ExponentPair,
    k_max: int,
    grid: RadialGrid,
    opts: SolverOptions | None = None,
    restarts: int = 32,
    seed: int = 0,
) -> list[float]:
    """Upper bounds for the genus min-max levels of Phi(f, g) = -int f K g.

    Genus-1 sets include every antipodal pair, so the first level is exactly
    inf Phi = -D, taken from the dual solver.  For k >= 2 the bound is
    sup Phi over the diagonal set spanned by the first k nonconstant Neumann
    cosine modes, restricted to the constraint sphere
    gamma1 ||f||_alpha^alpha + gamma2 ||f||_beta^beta = 1.  The spans nest,
    so the bounds are nondecreasing in k (and negative, as the construction
    guarantees).

    On the mode coefficients a, phi = -c^2 a.Q a, with Q the modes' Gram
    matrix under K.  All starts of one k (the previous k's best a padded
    with a zero, e_k and `restarts` seeded normals) advance as one array by
    the power iteration of _power_ascent: at k_max = 5 on n = 2000 about
    3700 start-sweeps (27 per start) in about 205 batched sweeps.
    """
    if k_max < 1 or k_max > 8:
        raise ValueError("k_max must be between 1 and 8")
    if grid.dim != 1:
        raise ValueError("the mode construction uses interval eigenfunctions")
    if classify_region(e) not in (Region.SUBCRITICAL,):
        raise ValueError("the multiplicity construction needs subcritical exponents")
    opts = opts or SolverOptions()
    bounds = [-compute_dual(e, grid, opts).d_estimate]
    if k_max == 1:
        return bounds

    modes = np.cos(np.arange(1.0, k_max + 1.0)[:, None] * math.pi * grid.r / grid.length)
    # values by keyword: perfbench's tracer reads a second positional argument as a flag
    kmodes = np.stack([solve_neumann(grid, values=m) for m in modes])
    w = grid.weights * grid.surface
    quad = np.einsum("in,n,jn->ij", modes, w, kmodes)
    quad = 0.5 * (quad + quad.T)
    wmodes = modes * w

    rng = np.random.default_rng(seed)
    nested: list[np.ndarray] = []
    for k in range(2, k_max + 1):
        starts = np.vstack(nested + [np.eye(k)[k - 1], rng.standard_normal((restarts, k))])
        a, history = _power_ascent(starts, modes[:k], wmodes[:k], quad[:k, :k], e)
        best = np.nanmax(history, axis=0)
        i = int(np.argmax(best))
        nested = [np.append(a[i], 0.0)]  # the next k starts here, so the spans nest
        bounds.append(float(best[i]))
    return bounds
