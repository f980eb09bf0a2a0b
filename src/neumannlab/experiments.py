"""Desk-scale studies of the limit behavior of the eigenvalue and level maps.

Each experiment packages a family of solves plus the quantitative check the
theory suggests: continuity of Lambda along exponent paths, blow-up or
vanishing of levels as pq crosses 1 depending on the first eigenvalue,
the limit constant of Lambda^((p+1)(q+1)/(pq-1)) when the first eigenvalue
equals one, the degeneration of both exponents to zero, and upper bounds
for the genus min-max levels of the dual functional.  Everything is
deterministic given (config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dual import (
    DualPair,
    NonConvergenceError,
    SolverOptions,
    compute_dual,
    reconstruct_solution,
)
from .exponents import ExponentPair, Region, classify_region
from .greens import _signed_power, bisect_increasing, solve_neumann
from .grid import GridFunction, RadialGrid, interval_grid
from .report_io import write_csv_rows, write_json
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
    "write_experiment",
]


@dataclass
class SweepSpec:
    """Parameterized exponent path t -> (p(t), q(t)) with sample points."""

    p_of: Callable[[float], float]
    q_of: Callable[[float], float]
    ts: Sequence[float]
    grid: RadialGrid
    opts: SolverOptions = field(default_factory=SolverOptions)
    warm_start: bool = True

    def __post_init__(self) -> None:
        self.ts = sorted(float(t) for t in self.ts)
        for t in self.ts:
            e = ExponentPair(self.p_of(t), self.q_of(t), self.grid.dim)
            if classify_region(e) == Region.SUPERCRITICAL:
                raise ValueError(f"sample t={t} leaves the admissible region")


@dataclass
class SweepResult:
    rows: list[dict]

    def column(self, key: str) -> list:
        return [row[key] for row in self.rows]

    def write_csv(self, path) -> None:
        headers = ["t", "p", "q", "Lambda", "D", "c", "u_max", "v_max", "iterations", "converged", "error"]
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
            row["converged"] = dp.converged
        else:
            rep = reconstruct_solution(e, dp)
            row["c"] = rep.c
            row["u_max"] = rep.u.sup_norm()
            row["v_max"] = rep.v.sup_norm()
            row["converged"] = rep.converged
        return row, dp
    except (NonConvergenceError, ValueError) as exc:
        row["error"] = str(exc)
        row["Lambda"] = getattr(exc, "d_estimate", None)
        return row, None


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Solve along the path, warm-starting each sample from the previous one.

    Failures are recorded per sample and the sweep continues.
    """
    rows: list[dict] = []
    warm: DualPair | None = None
    for t in spec.ts:
        row, dp = _sweep_sample(spec, t, warm)
        warm = dp if spec.warm_start else None
        rows.append(row)
    return SweepResult(rows)


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
    opts = opts or SolverOptions()
    grid = interval_grid(length=length, n=n)
    mu1 = 1.0 / compute_dual(ExponentPair(1.0 / q, q, dim), grid, opts).d_estimate
    if abs(mu1 - 1.0) < 1e-8:
        raise ValueError("mu_1 = 1: the trend is not classified on this domain")
    sgn = 1.0 if side == "above" else -1.0
    levels: list[float] = []
    sups: list[float] = []
    offs = sorted(offsets, reverse=True)
    warm = None
    for s in offs:
        e = ExponentPair((1.0 + sgn * s) / q, q, dim)
        dp = compute_dual(e, grid, opts, warm_start=warm)
        rep = reconstruct_solution(e, dp)
        levels.append(abs(rep.c))
        sups.append(rep.u.sup_norm())
        warm = dp
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
        offsets=list(offs),
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
    no first-order information and are rejected.
    """
    opts = opts or SolverOptions()
    delta = 1e-6
    e0 = p_of(0.0) * q_of(0.0) - 1.0
    if abs(e0) > 1e-12:
        raise ValueError("the path must start on the hyperbola, p(0) q(0) = 1")
    e_prime = (p_of(delta) * q_of(delta) - 1.0 - e0) / delta
    if abs(e_prime) < 1e-8:
        raise ValueError("path with e'(0) = 0: the expansion degenerates")
    grid = interval_grid(length=math.pi, n=n)
    ts = sorted(ts, reverse=True)
    lambdas = []
    logs = []
    warm = None
    for t in ts:
        e = ExponentPair(p_of(t), q_of(t), 1)
        dp = compute_dual(e, grid, opts, warm_start=warm)
        lam = 1.0 / dp.d_estimate
        lambdas.append(lam)
        logs.append(math.log(lam) / (e.p * e.q - 1.0))
        warm = dp
    seq = list(logs)
    while len(seq) > 1:
        seq = [2.0 * seq[i + 1] - seq[i] for i in range(len(seq) - 1)]
    frak_c = math.exp(4.0 * seq[0])

    phi = np.sqrt(2.0 / math.pi) * np.cos(grid.r)
    phi2 = phi**2
    integrand = phi2 * np.log(phi2, out=np.zeros_like(phi2), where=phi2 > 0.0)
    reference = math.exp(-grid.integrate_values(integrand))

    t_last = ts[-1]
    e_last = ExponentPair(p_of(t_last), q_of(t_last), 1)
    from .exponents import c_from_lambda

    c_last = c_from_lambda(e_last, lambdas[-1])
    return FrakCReport(
        extrapolated=frak_c,
        reference=reference,
        e_prime=e_prime,
        ts=list(ts),
        lambdas=lambdas,
        log_values=logs,
        c_over_offset=c_last / (e_last.p * e_last.q - 1.0),
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
    _, c0 = solve_scalar_sign(grid, opts)
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
    opts = opts or SolverOptions()
    ps = sorted(ps, reverse=True)
    lams = []
    warm = None
    for p in ps:
        dp = compute_dual(ExponentPair(p, q, grid.dim), grid, opts, warm_start=warm)
        lams.append(1.0 / dp.d_estimate)
        warm = dp
    parr = np.asarray(ps)
    basis = np.vstack([np.ones_like(parr), parr, parr * np.log(parr), parr**2]).T
    coeffs = np.linalg.solve(basis, np.asarray(lams))
    return float(coeffs[0]), lams


def _constraint_scale(
    grid: RadialGrid, e: ExponentPair, vals: np.ndarray
) -> float:
    """Positive c with gamma1 ||c f||_alpha^alpha + gamma2 ||c f||_beta^beta = 1."""
    f = GridFunction(grid, vals)
    alpha, beta, gamma1, gamma2 = e.alpha, e.beta, e.gamma1, e.gamma2
    na = f.lp_norm(alpha) ** alpha
    nb = f.lp_norm(beta) ** beta

    def excess(c: float) -> float:
        return gamma1 * c**alpha * na + gamma2 * c**beta * nb - 1.0

    lo, hi = 1.0, 1.0
    while excess(hi) < 0.0:
        hi *= 2.0
    while excess(lo) > 0.0:
        lo *= 0.5
    lo, hi = bisect_increasing(excess, lo, hi)
    return 0.5 * (lo + hi)


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
    gamma1 ||f||_alpha^alpha + gamma2 ||f||_beta^beta = 1, located by
    multistart projected ascent.  The spans nest, so the bounds are
    nondecreasing in k (and negative, as the construction guarantees).
    """
    if k_max < 1 or k_max > 8:
        raise ValueError("k_max must be between 1 and 8")
    if grid.mode != "interval":
        raise ValueError("the mode construction uses interval eigenfunctions")
    if classify_region(e) not in (Region.SUBCRITICAL,):
        raise ValueError("the multiplicity construction needs subcritical exponents")
    opts = opts or SolverOptions()
    bounds = [-compute_dual(e, grid, opts).d_estimate]
    if k_max == 1:
        return bounds

    modes = np.stack(
        [np.cos(i * math.pi * grid.r / grid.length) for i in range(1, k_max + 1)]
    )
    kmodes = np.stack(
        [solve_neumann(GridFunction(grid, m), symmetric=True).values for m in modes]
    )
    w = grid.weights * grid.surface
    quad = np.einsum("in,n,jn->ij", modes, w, kmodes)
    quad = 0.5 * (quad + quad.T)

    rng = np.random.default_rng(seed)
    prev_best_a: np.ndarray | None = None
    for k in range(2, k_max + 1):
        qk = quad[:k, :k]

        def phi_of(a: np.ndarray) -> tuple[float, np.ndarray]:
            vals = a @ modes[:k]
            c = _constraint_scale(grid, e, vals)
            return -(c**2) * float(a @ qk @ a), c * vals

        starts = [np.eye(k)[k - 1]] + [rng.standard_normal(k) for _ in range(restarts)]
        if prev_best_a is not None:
            starts.insert(0, np.concatenate([prev_best_a, [0.0]]))  # nests the spans
        best = -math.inf
        best_a = starts[0]
        for a0 in starts:
            a = a0 / np.linalg.norm(a0)
            val, fvals = phi_of(a)
            step = 0.5
            for _ in range(400):
                grad_obj = -2.0 * (qk @ a)
                pa = _signed_power(fvals, e.alpha - 1.0)
                pb = _signed_power(fvals, e.beta - 1.0)
                gc = np.array(
                    [
                        e.gamma1 * e.alpha * grid.integrate_values(pa * modes[i])
                        + e.gamma2 * e.beta * grid.integrate_values(pb * modes[i])
                        for i in range(k)
                    ]
                )
                nrm2 = float(gc @ gc)
                if nrm2 > 0:
                    grad_obj = grad_obj - (grad_obj @ gc) / nrm2 * gc
                if np.linalg.norm(grad_obj) < 1e-14:
                    break
                improved = False
                while step > 1e-13:
                    a_try = a + step * grad_obj
                    nrm = np.linalg.norm(a_try)
                    if nrm > 1e-14:
                        a_try = a_try / nrm
                        val_try, f_try = phi_of(a_try)
                        if val_try > val:
                            a, val, fvals = a_try, val_try, f_try
                            step *= 1.5
                            improved = True
                            break
                    step *= 0.5
                if not improved:
                    break
            if val > best:
                best, best_a = val, a
        prev_best_a = best_a
        bounds.append(best)
    return bounds


def _report_rows(report) -> tuple[list[str], list[dict]]:
    if isinstance(report, ClassificationReport):
        headers = ["offset", "level", "sup_norm"]
        rows = [
            {"offset": o, "level": l, "sup_norm": s}
            for o, l, s in zip(report.offsets, report.levels, report.sup_norms)
        ]
    elif isinstance(report, FrakCReport):
        headers = ["t", "Lambda", "log_value"]
        rows = [
            {"t": t, "Lambda": lam, "log_value": lv}
            for t, lam, lv in zip(report.ts, report.lambdas, report.log_values)
        ]
    elif isinstance(report, PqToZeroReport):
        headers = ["p", "level", "ratio", "u_v_gap"]
        rows = [
            {"p": p, "level": l, "ratio": r, "u_v_gap": g}
            for p, l, r, g in zip(report.ps, report.levels, report.ratios, report.u_v_gaps)
        ]
    else:
        raise TypeError(f"no CSV layout for {type(report).__name__}")
    return headers, rows


def _report_passes(report) -> dict:
    if isinstance(report, ClassificationReport):
        return {
            "direction_consistent": report.consistent,
            "sup_norms_monotone": report.monotone,
        }
    if isinstance(report, FrakCReport):
        return {
            "within_one_percent_of_reference": report.relative_gap <= 0.01,
            "level_ratio_within_three_percent": abs(
                report.c_over_offset / report.c_over_offset_target - 1.0
            )
            <= 0.03,
        }
    if isinstance(report, PqToZeroReport):
        return {
            "ratios_monotone_toward_one": report.monotone_toward_one,
            "diagonal_symmetry": all(g <= 1e-6 for g in report.u_v_gaps),
            "smallest_sample_within_two_percent": abs(report.ratios[-1] - 1.0) <= 0.02,
        }
    raise TypeError(f"no summary for {type(report).__name__}")


def write_experiment(report, outdir, name: str) -> dict:
    """Persist an experiment as name.csv plus a name.json pass/fail summary."""
    from dataclasses import asdict
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    headers, rows = _report_rows(report)
    write_csv_rows(outdir / f"{name}.csv", headers, rows)
    scalars = {
        k: v
        for k, v in asdict(report).items()
        if isinstance(v, (int, float, str, bool)) or v is None
    }
    summary = {"report": type(report).__name__, "config": scalars, "passes": _report_passes(report)}
    write_json(outdir / f"{name}.json", summary)
    return summary
