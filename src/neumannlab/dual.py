"""Dual level D and least-energy solutions for exponents p > 0.

The dual functional is the quotient R(f, g) = int f K g / (||f||_alpha ||g||_beta)
over mean-zero densities; its supremum D equals 1/Lambda, the reciprocal of
the nonlinear Neumann eigenvalue.  compute_dual runs an alternating
best-response iteration: with g fixed, the maximizing f is the normalized
signed power |K g + kappa|^(p-1) (K g + kappa) where the shift kappa makes
that power mean-zero, and symmetrically for g.  Each half-step solves its
subproblem exactly, so the quotient is nondecreasing along the sweep; a
damping safeguard still guards against rounding-level regressions.

reconstruct_solution converts a converged dual pair into a solution (u, v)
of the primal system through the D-power scalings
u = D^(-q(p+1)/(pq-1)) K_p g, v = D^(-p(q+1)/(pq-1)) K_q f,
and oracle_dual_smallgrid is an independent brute-force maximizer
(projected gradient ascent from many random starts) used to validate the
iteration on tiny grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exponents import ExponentPair, HyperbolaError, Region, classify_region, c_from_lambda
from .greens import _signed_power, kappa_shift, solve_neumann
from .grid import GridFunction, RadialGrid, discrete_radial_laplacian

__all__ = [
    "SolverOptions",
    "DualPair",
    "SolutionReport",
    "NonConvergenceError",
    "DegenerateIterateError",
    "compute_dual",
    "compute_lambda",
    "reconstruct_solution",
    "oracle_dual_smallgrid",
    "delta_lower_bound",
]


RESIDUAL_TOL = 1e-4  # relative equation-defect bound behind `converged`
CYCLE_TOL = 1e-5  # relative D envelope accepted as a limit cycle


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-10
    max_iter: int = 500
    damping: float = 1.0
    init: str = "auto"  # auto | cosine | signchange | file
    init_file: str | None = None


@dataclass
class DualPair:
    f: GridFunction
    g: GridFunction
    d_estimate: float
    iterations: int
    converged: bool
    normalization: str = "unit-norms"
    d_history: list[float] = field(default_factory=list)
    warning: str | None = None


@dataclass
class SolutionReport:
    u: GridFunction
    v: GridFunction
    lam: float
    D: float
    c: float
    c_energy: float
    residual_u: float
    residual_v: float
    iterations: int
    converged: bool
    warning: str | None = None
    zero_radius: float | None = None


class NonConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the last estimate and oscillation size."""

    def __init__(self, message: str, d_estimate: float, oscillation: float, iterations: int):
        super().__init__(message)
        self.d_estimate = d_estimate
        self.oscillation = oscillation
        self.iterations = iterations


class DegenerateIterateError(RuntimeError):
    """An iterate collapsed toward the constants (norm below 1e-14)."""


def _initial_profile(grid: RadialGrid, opts: SolverOptions) -> np.ndarray:
    mode = opts.init
    if mode == "auto":
        mode = "cosine" if grid.mode == "interval" or grid.dim == 1 else "signchange"
    if mode == "cosine":
        vals = np.cos(np.pi * grid.r / grid.length)
    elif mode == "signchange":
        vals = grid.length * 2.0 ** (-1.0 / grid.dim) - grid.r
    elif mode == "file":
        if opts.init_file is None:
            raise ValueError("init='file' needs init_file")
        data = np.loadtxt(opts.init_file, delimiter=",", skiprows=1)
        vals = np.asarray(data[:, 1], dtype=float)
        if vals.shape != grid.r.shape:
            raise ValueError("initial data does not match the grid")
    else:
        raise ValueError(f"unknown init mode {mode!r}")
    return vals - grid.mean_values(vals)


def _best_response(g: GridFunction, expo: float, norm_expo: float) -> GridFunction:
    """Maximizer of int f K g over ||f||_norm_expo = 1, int f = 0.

    The optimum is the normalized signed power of the shifted potential
    K g + kappa, with kappa the expo-type normalizing shift, which also
    makes the output mean-zero exactly.  Uses the symmetric operator so the
    sweep is exact block ascent on the discrete quotient.
    """
    w = solve_neumann(g, symmetric=True)
    kappa = kappa_shift(w, expo)
    y = _signed_power(w.values + kappa, expo)
    # for expo < 1 the kappa root carries a nodal Hoelder floor; project the
    # leftover mean so the iterate stays exactly feasible
    y -= g.grid.mean_values(y)
    f = GridFunction(g.grid, y)
    nrm = f.lp_norm(norm_expo)
    if nrm < 1e-14:
        raise DegenerateIterateError("iterate collapsed to the constants")
    return GridFunction(g.grid, y / nrm)


def compute_dual(
    e: ExponentPair,
    grid: RadialGrid,
    opts: SolverOptions | None = None,
    warm_start: DualPair | None = None,
) -> DualPair:
    """Maximize the dual quotient by alternating exact best responses.

    Terminates when both the relative change of the D estimate and the
    L^alpha x L^beta change of (f, g) drop below opts.tol.  Subcritical and
    critical-admissible exponents are accepted; critical-inadmissible ones
    run too but the result is flagged discrete-only (the continuum problem
    may lose compactness there).
    """
    opts = opts or SolverOptions()
    if e.p <= 0:
        raise ValueError("the dual method needs p > 0; use the sign-limit solver for p = 0")
    if e.dim != grid.dim and grid.mode == "ball":
        raise ValueError("exponent dimension does not match the grid")
    region = classify_region(e)
    warning = None
    if region == Region.SUPERCRITICAL:
        raise ValueError("supercritical exponents are outside the solver's scope")
    if region == Region.CRITICAL_INADMISSIBLE:
        warning = "discrete-only"  # discrete maximizer exists; the continuum one may not
    alpha, beta = e.alpha, e.beta

    if warm_start is not None:
        f = warm_start.f.copy()
        g = warm_start.g.copy()
    else:
        vals = _initial_profile(grid, opts)
        g = GridFunction(grid, vals / GridFunction(grid, vals).lp_norm(beta))
        f = GridFunction(grid, vals / GridFunction(grid, vals).lp_norm(alpha))

    history: list[float] = []
    d_prev = None
    theta = opts.damping
    stable = 0
    best = None
    for it in range(1, opts.max_iter + 1):
        f_new = _best_response(g, e.p, alpha)
        if theta < 1.0:
            mix = (1.0 - theta) * f.values + theta * f_new.values
            f_new = GridFunction(grid, mix)
            f_new = GridFunction(grid, f_new.values / f_new.lp_norm(alpha))
        if e.p == e.q:
            g_new = f_new  # identical best-response maps; keeps u = v exact
        else:
            g_new = _best_response(f_new, e.q, beta)
        kg = solve_neumann(g_new, symmetric=True)
        d_now = grid.integrate_values(f_new.values * kg.values) / (
            f_new.lp_norm(alpha) * g_new.lp_norm(beta)
        )
        history.append(d_now)
        if best is None or d_now > best[0]:
            best = (d_now, f_new, g_new)
        df = GridFunction(grid, f_new.values - f.values).lp_norm(alpha)
        dg = GridFunction(grid, g_new.values - g.values).lp_norm(beta)
        if d_prev is not None and d_now < d_prev - 1e-12:
            theta = max(theta * 0.5, 1e-3)  # rounding-level regression: damp the f step
        f, g = f_new, g_new
        d_flat = d_prev is not None and abs(d_now - d_prev) <= opts.tol * max(1.0, abs(d_now))
        stable = stable + 1 if d_flat else 0
        # exponents below one leave a rounding-scale jitter in the iterates
        # (Hoelder sensitivity of the signed power at its root); a D estimate
        # stationary over many sweeps is then the working-precision answer
        if d_flat and (df + dg <= opts.tol * 2.0 or stable >= 8):
            return DualPair(f, g, d_now, it, True, d_history=history, warning=warning)
        d_prev = d_now
        # tiny exponents can sustain a rounding-fed limit cycle; once the
        # envelope is tight the best visited pair is the answer to within
        # the cycle amplitude
        if it >= 64 and it % 8 == 0:
            tail = history[-32:]
            if max(tail) - min(tail) <= CYCLE_TOL * max(1.0, abs(d_now)):
                note = "limit-cycle" if warning is None else warning + ",limit-cycle"
                return DualPair(
                    best[1], best[2], best[0], it, True, d_history=history, warning=note
                )
    tail = history[-10:]
    raise NonConvergenceError(
        f"dual iteration did not converge in {opts.max_iter} sweeps",
        d_estimate=history[-1],
        oscillation=max(tail) - min(tail),
        iterations=opts.max_iter,
    )


def compute_lambda(
    e: ExponentPair,
    grid: RadialGrid,
    opts: SolverOptions | None = None,
    warm_start: DualPair | None = None,
) -> float:
    """Nonlinear eigenvalue Lambda = 1/D; delegates p = 0 to the sign solver."""
    if e.p == 0.0:
        from .sign import solve_sign_system

        return solve_sign_system(e.q, grid, opts).lam
    return 1.0 / compute_dual(e, grid, opts, warm_start=warm_start).d_estimate


def reconstruct_solution(e: ExponentPair, dp: DualPair) -> SolutionReport:
    """Primal solution and level from a converged dual maximizer.

    u = D^(-q(p+1)/(pq-1)) K_p g and v = D^(-p(q+1)/(pq-1)) K_q f solve
    -Lap u = |v|^(q-1) v, -Lap v = |u|^(p-1) u.  The level c is reported
    from the exact power identity; the discrete energy integral (with
    grad u . grad v integrated by parts into int |v|^(q+1)) is stored as a
    cross-check channel.
    """
    if e.on_hyperbola:
        raise HyperbolaError("no least-energy normalization on pq = 1")
    grid = dp.f.grid
    D = dp.d_estimate
    denom = e.p * e.q - 1.0
    wp = solve_neumann(dp.g)
    up = wp.shifted(kappa_shift(wp, e.p))
    wq = solve_neumann(dp.f)
    vq = wq.shifted(kappa_shift(wq, e.q))
    u_vals = D ** (-e.q * (e.p + 1.0) / denom) * up.values
    v_vals = D ** (-e.p * (e.q + 1.0) / denom) * vq.values
    if u_vals[0] < 0:
        u_vals, v_vals = -u_vals, -v_vals
    u = GridFunction(grid, u_vals)
    v = GridFunction(grid, v_vals)

    lam = 1.0 / D
    c = c_from_lambda(e, lam)
    int_u = grid.integrate_values(np.abs(u_vals) ** (e.p + 1.0))
    int_v = grid.integrate_values(np.abs(v_vals) ** (e.q + 1.0))
    c_energy = int_v - int_u / (e.p + 1.0) - int_v / (e.q + 1.0)

    rhs_u = _signed_power(v_vals, e.q)
    rhs_v = _signed_power(u_vals, e.p)
    res_u = float(np.max(np.abs(-discrete_radial_laplacian(u).values - rhs_u)))
    res_v = float(np.max(np.abs(-discrete_radial_laplacian(v).values - rhs_v)))
    scale_u = max(float(np.max(np.abs(rhs_u))), 1e-300)
    scale_v = max(float(np.max(np.abs(rhs_v))), 1e-300)
    converged = dp.converged and res_u / scale_u <= RESIDUAL_TOL and res_v / scale_v <= RESIDUAL_TOL
    return SolutionReport(
        u=u,
        v=v,
        lam=lam,
        D=D,
        c=c,
        c_energy=c_energy,
        residual_u=res_u,
        residual_v=res_v,
        iterations=dp.iterations,
        converged=converged,
        warning=dp.warning,
    )


def _k_matrix(grid: RadialGrid) -> np.ndarray:
    """Dense nodal matrix of the symmetric K on a small grid."""
    from .greens import green_apply_symmetric

    npts = grid.n + 1
    mat = np.empty((npts, npts))
    for j in range(npts):
        basis = np.zeros(npts)
        basis[j] = 1.0
        mat[:, j] = green_apply_symmetric(grid, basis)
    return mat


def oracle_dual_smallgrid(
    e: ExponentPair,
    grid: RadialGrid,
    restarts: int = 64,
    seed: int = 0,
    steps: int = 4000,
) -> float:
    """Brute-force dual level on a tiny grid.

    Projected gradient ascent on the quotient int f K g / (||f||_alpha ||g||_beta)
    over mean-zero nodal vectors, from `restarts` seeded random starts plus a
    cosine start, keeping the best value found.  Independent of the
    alternating iteration; exact gradients via the dense K matrix.
    """
    if grid.n > 12:
        raise ValueError("the brute-force oracle is for grids with at most 12 panels")
    if restarts < 1:
        raise ValueError("need at least one restart")
    alpha, beta = e.alpha, e.beta
    w = grid.weights * grid.surface
    kmat = _k_matrix(grid)
    total = w.sum()
    winv = np.divide(1.0, w, out=np.zeros_like(w), where=w > 0)  # zero-weight nodes are inert

    def project(x: np.ndarray) -> np.ndarray:
        return x - (w @ x) / total

    def norm(x: np.ndarray, s: float) -> float:
        return float(w @ np.abs(x) ** s) ** (1.0 / s)

    def quotient(f: np.ndarray, g: np.ndarray) -> float:
        return float(w @ (f * (kmat @ g))) / (norm(f, alpha) * norm(g, beta))

    def ascend(f: np.ndarray, g: np.ndarray) -> float:
        f = project(f)
        g = project(g)
        f /= norm(f, alpha)
        g /= norm(g, beta)
        if quotient(f, g) < 0:
            g = -g
        val = quotient(f, g)
        step = 0.5
        for _ in range(steps):
            kg = kmat @ g
            s = float(w @ (f * kg))
            gf = w * kg - s * w * _signed_power(f, alpha - 1.0) / norm(f, alpha) ** alpha
            gg = kmat.T @ (w * f) - s * w * _signed_power(g, beta - 1.0) / norm(g, beta) ** beta
            gf = project(winv * gf)
            gg = project(winv * gg)
            grad_norm = math.hypot(np.linalg.norm(gf), np.linalg.norm(gg))
            if grad_norm < 1e-15:
                break
            improved = False
            while step > 1e-14:
                f_try = project(f + step * gf)
                g_try = project(g + step * gg)
                nf, ng = norm(f_try, alpha), norm(g_try, beta)
                if nf > 1e-14 and ng > 1e-14:
                    f_try /= nf
                    g_try /= ng
                    val_try = quotient(f_try, g_try)
                    if val_try > val:
                        f, g, val = f_try, g_try, val_try
                        improved = True
                        step *= 1.3
                        break
                step *= 0.5
            if not improved:
                break
        return val

    rng = np.random.default_rng(seed)
    npts = grid.n + 1
    best = -math.inf
    cos0 = np.cos(np.pi * grid.r / grid.length)
    best = max(best, ascend(cos0.copy(), cos0.copy()))
    for _ in range(restarts):
        f0 = rng.standard_normal(npts)
        g0 = rng.standard_normal(npts)
        best = max(best, ascend(f0, g0))
    return best


def delta_lower_bound(e: ExponentPair, grid: RadialGrid) -> float:
    """Test-function lower bound for D from the first cosine mode.

    With psi the mean-zero cosine profile, D >= int psi K psi / (||psi||_alpha
    ||psi||_beta) by definition of the supremum.
    """
    vals = np.cos(np.pi * grid.r / grid.length)
    vals = vals - grid.mean_values(vals)
    psi = GridFunction(grid, vals)
    kpsi = solve_neumann(psi, symmetric=True)
    return grid.integrate_values(vals * kpsi.values) / (psi.lp_norm(e.alpha) * psi.lp_norm(e.beta))
