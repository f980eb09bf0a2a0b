"""Dual level D and least-energy solutions for exponents p > 0.

The dual functional is the quotient R(f, g) = int f K g / (||f||_alpha ||g||_beta)
over mean-zero densities; its supremum D equals 1/Lambda, the reciprocal of
the nonlinear Neumann eigenvalue.  compute_dual runs an alternating
best-response iteration: with g fixed, the maximizing f is the normalized
signed power |K g + kappa|^(p-1) (K g + kappa) where the shift kappa makes
that power mean-zero, and symmetrically for g.  Each half-step solves its
subproblem exactly, so in exact arithmetic the quotient is nondecreasing.
Each n-point quantity of a sweep is formed once: kappa_shift hands back the
signed power it evaluated at its root, and D is read off the two already
normalized best responses.  The loop applies K through the unchecked kernel
green_apply, because every best response is mean-zero by construction; only
the start goes through solve_neumann.  Critical pairs are refused: on the
radial grid their maximizer concentrates at the origin at grid scale, so the
discrete level is a quadrature artifact.

A cold solve starts from the first cosine mode, except on grids with
n >= 4 COARSE_N: there it first solves the pair on the COARSE_N grid of the
same domain and starts from that pair, lifted to the fine nodes by cubic
interpolation (nested iteration).  A warm start from another n of the same
domain is lifted the same way.  The returned pair records the coarse solve
and the two-grid D gap in `coarse_start`.

reconstruct_solution converts a converged dual pair into a solution (u, v)
of the primal system through the D-power scalings
u = D^(-q(p+1)/(pq-1)) K_p g, v = D^(-p(q+1)/(pq-1)) K_q f, shifting the
K g and K f the pair carries from the loop (by the loop's last q root of
K f when p != q), and oracle_dual_smallgrid is an independent brute-force
maximizer (projected gradient ascent from many random starts) used to
validate the iteration on tiny grids.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .exponents import ExponentPair, HyperbolaError, Region, classify_region, c_from_lambda
from .greens import NumericalFailure, _signed_power, green_apply, kappa_shift, solve_neumann
from .grid import GridFunction, RadialGrid, discrete_radial_laplacian, local_cubic, make_grid

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
]


COARSE_N = 2000  # n of the nested start's coarse level, taken by cold solves with n >= 4 COARSE_N
RESIDUAL_TOL = 1e-4  # relative equation-defect bound behind `converged`
ENVELOPE_TOL = 1e-5  # relative D envelope over 32 sweeps accepted as a limit cycle

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-10
    max_iter: int = 500

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol must be finite and nonnegative, got {self.tol}")


@dataclass
class DualPair:
    f: GridFunction
    g: GridFunction
    d_estimate: float
    iterations: int
    kf: np.ndarray  # K f and K g, the loop's last Green solves, reused by reconstruct_solution
    kg: np.ndarray
    d_history: list[float] = field(default_factory=list)
    stop_reason: str | None = None  # step-small | d-flat | d-envelope
    kappa_evaluations: int = 0  # moment evaluations of the loop's kappa roots
    kappa_kf: float | None = None  # the q root of kf that formed g (p != q), reused by reconstruct_solution
    coarse_start: dict | None = None  # the nested start's coarse solve (see compute_dual); None if none


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
    zero_radius: float | None = None
    stop_reason: str | None = None  # the dual loop's stop rule; None for p = 0
    kappa_evaluations: int | None = None  # the dual loop's kappa moment evaluations; None for p = 0
    coarse_start: dict | None = None  # the dual loop's nested start (DualPair.coarse_start)


class NonConvergenceError(NumericalFailure):
    """Iteration budget exhausted; carries the last estimate and oscillation size."""

    def __init__(self, message: str, d_estimate: float, oscillation: float, iterations: int):
        super().__init__(message)
        self.d_estimate = d_estimate
        self.oscillation = oscillation
        self.iterations = iterations


class DegenerateIterateError(NumericalFailure):
    """An iterate collapsed toward the constants (its mean-free part below 1e-14 of its mean)."""


def _cosine_profile(grid: RadialGrid) -> np.ndarray:
    """cos(pi r / L) minus its mean: the first nonconstant Neumann mode of an interval."""
    vals = np.cos(np.pi * grid.r / grid.length)
    return vals - grid.mean_values(vals)


def _best_response(
    grid: RadialGrid, w: np.ndarray, expo: float, norm_expo: float, guess: float | None = None
) -> tuple[np.ndarray, float, int]:
    """Maximizer of int f w over ||f||_norm_expo = 1, int f = 0, for w = K g.

    The optimum is the normalized signed power of the shifted potential
    w + kappa, with kappa the expo-type normalizing shift, which also makes
    the output mean-zero exactly.  K is self-adjoint in the quadrature
    inner product, so int f w = int g K f and the sweep is exact block
    ascent on the discrete quotient.  `guess` is the previous root for the
    same exponent.  Returns (f, kappa, moment evaluations of the root); f
    has zero mean up to rounding, so the loop hands it to green_apply
    without solve_neumann's compatibility check.
    """
    kappa, y, evaluations = kappa_shift(grid, w, expo, guess)
    # for expo < 1 the kappa root carries a nodal Hoelder floor; project the
    # leftover mean so the iterate stays exactly feasible
    mean = grid.mean_values(y)
    y -= mean
    nrm = grid.lp_norm_values(y, norm_expo)
    # a collapse to the constants leaves only rounding once the mean is gone;
    # relative, as |w + kappa|^expo scales like ||w||^expo (tiny for a large expo)
    if not nrm > 1e-14 * abs(mean):
        raise DegenerateIterateError("iterate collapsed to the constants")
    y /= nrm
    return y, kappa, evaluations


def _cosine_start(e: ExponentPair, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f and g from the mean-zero first cosine mode, unit in L^alpha and L^beta, and K g."""
    vals = _cosine_profile(grid)
    g = vals / grid.lp_norm_values(vals, e.beta)
    f = vals / grid.lp_norm_values(vals, e.alpha)
    # values by keyword: perfbench's tracer reads a second positional argument as a flag
    return f, g, solve_neumann(grid, values=g)


def _lift(fn: GridFunction, grid: RadialGrid) -> np.ndarray:
    """fn at the nodes of grid, by the 4-point cubic Lagrange interpolant on fn's
    uniform nodes (grid.local_cubic's stencils); grid has fn's dim and length."""
    x = grid.r / fn.grid.h
    starts, coeffs = local_cubic(fn.values, np.minimum(x.astype(int), fn.grid.n - 1))
    t = x - starts
    return ((coeffs[:, 3] * t + coeffs[:, 2]) * t + coeffs[:, 1]) * t + coeffs[:, 0]


def _coarse_solve(e: ExponentPair, grid: RadialGrid, opts: SolverOptions) -> DualPair:
    """The pair solved from the cosine start on the COARSE_N grid of grid's dim and length."""
    coarse = make_grid(grid.dim, COARSE_N, grid.length)
    return _ascend(e, coarse, opts, *_cosine_start(e, coarse))


def compute_dual(
    e: ExponentPair,
    grid: RadialGrid,
    opts: SolverOptions | None = None,
    warm_start: DualPair | None = None,
) -> DualPair:
    """Maximize the dual quotient by alternating exact best responses.

    The start:
    - warm_start continues from a previous pair.  A pair on another grid of
      the same dim and length is lifted to this one (below); one on another
      dim or length raises ValueError.
    - A cold solve on a grid with n >= 4 COARSE_N first solves the same pair
      on the COARSE_N grid of the same dim and length, with opts, and starts
      from that pair, lifted: nested iteration (Brandt, Math. Comp. 31,
      1977).  D converges at rate 2.5 to 4 in n, so the coarse pair is
      already close and the fine loop takes a few sweeps instead of 8 to 18.
      The coarse solve's cost breaks even near n = 6000 on the dual-cold
      pairs, hence the threshold.  If the coarse solve raises NumericalFailure, the solve
      logs one DEBUG record and takes the cosine start.
    - Any other cold solve starts f and g from the mean-zero first cosine
      mode cos(pi r / L).
    The lift evaluates f and g at the new nodes by 4-point cubic Lagrange
    interpolation on the old uniform nodes, removes their means,
    renormalizes them in L^alpha and L^beta and forms K g by solve_neumann.
    Each sweep stops the loop, with that rule as `stop_reason`, when
    - step-small: D changed by at most opts.tol relative and the
      L^alpha x L^beta change of (f, g) is at most 2 opts.tol;
    - d-flat: D changed by at most opts.tol relative over 8 sweeps in a row;
    - d-envelope: from sweep 64 on, every 8th sweep, the last 32 D values
      lie within ENVELOPE_TOL relative.
    Every rule returns the last pair, with its K f and K g, the q root of
    K f that formed g (p != q), and the number of kappa moment evaluations
    the loop took; iterations, d_history, stop_reason and kappa_evaluations
    are the fine loop's own.  `coarse_start` records the nested start as
    {n, sweeps, kappa_evaluations, D, d_gap} of the coarse solve, with
    d_gap = |D_coarse - D| / D, a two-grid gap and not an error estimate;
    it is None after a cosine or a caller's warm start.  D is int f K g of
    the two best responses, whose norms are 1 by construction.  Each kappa
    root for an exponent other than 1 first tries -mean of its potential
    and, when that misses, takes Newton steps from that exponent's root of
    the previous sweep if it lies on the root's side of that mean.  The
    loop's Green applies call the kernel green_apply directly, since best
    responses are mean-zero by construction.  A spent budget raises
    NonConvergenceError.  Only subcritical and hyperbola exponents whose N
    is grid.dim are accepted: others raise ValueError, the critical ones
    because the radial maximizer concentrates at the origin at grid scale
    there.
    """
    opts = opts or SolverOptions()
    if e.p <= 0:
        raise ValueError("the dual method needs p > 0; use the sign-limit solver for p = 0")
    if e.dim != grid.dim:
        raise ValueError("exponent dimension does not match the grid")
    region = classify_region(e)
    if region == Region.SUPERCRITICAL:
        raise ValueError("supercritical exponents are outside the solver's scope")
    if region in (Region.CRITICAL_ADMISSIBLE, Region.CRITICAL_INADMISSIBLE):
        raise ValueError(
            "critical exponents are outside the solver's scope: the radial maximizer"
            " concentrates at the origin at grid scale"
        )
    if warm_start is not None and (warm_start.f.grid.dim, warm_start.f.grid.length) != (grid.dim, grid.length):
        raise ValueError("warm start is on another grid: its dim or length differs")

    coarse = None
    if warm_start is None and grid.n >= 4 * COARSE_N:
        try:
            coarse = _coarse_solve(e, grid, opts)
        except NumericalFailure as exc:
            _log.debug("dual solve %s on n=%d: coarse start failed (%s), cosine start", e, grid.n, exc)
    start = warm_start if warm_start is not None else coarse
    if start is None:
        f, g, kg = _cosine_start(e, grid)
    elif start.f.grid == grid:
        f, g, kg = start.f.values, start.g.values, start.kg
    else:
        f, g = _lift(start.f, grid), _lift(start.g, grid)
        f -= grid.mean_values(f)
        g -= grid.mean_values(g)
        f /= grid.lp_norm_values(f, e.alpha)
        g /= grid.lp_norm_values(g, e.beta)
        kg = solve_neumann(grid, values=g)
    dp = _ascend(e, grid, opts, f, g, kg)
    if coarse is not None:
        dp.coarse_start = {
            "n": coarse.f.grid.n,
            "sweeps": coarse.iterations,
            "kappa_evaluations": coarse.kappa_evaluations,
            "D": coarse.d_estimate,
            "d_gap": abs(coarse.d_estimate - dp.d_estimate) / dp.d_estimate,
        }
    return dp


def _ascend(
    e: ExponentPair, grid: RadialGrid, opts: SolverOptions, f: np.ndarray, g: np.ndarray, kg: np.ndarray
) -> DualPair:
    """compute_dual's sweeps from (f, g) and the carried K g, to a stop rule."""
    alpha, beta = e.alpha, e.beta
    # carried: sweep k's K g_new is sweep k+1's K g, as the start's K g is the first
    history: list[float] = []
    d_prev = None
    stable = 0
    kappa_p = kappa_q = None
    evaluations = 0
    for it in range(1, opts.max_iter + 1):
        f_new, kappa_p, spent = _best_response(grid, kg, e.p, alpha, kappa_p)
        kf = green_apply(grid, f_new)
        if e.p == e.q:
            g_new, kg = f_new, kf  # identical best-response maps; keeps u = v exact
        else:
            g_new, kappa_q, spent_q = _best_response(grid, kf, e.q, beta, kappa_q)
            spent += spent_q
            kg = green_apply(grid, g_new)
        evaluations += spent
        d_now = grid.integrate_values(f_new * kg)
        history.append(d_now)
        df = grid.lp_norm_values(f_new - f, alpha)
        dg = grid.lp_norm_values(g_new - g, beta)
        f, g = f_new, g_new
        d_flat = d_prev is not None and abs(d_now - d_prev) <= opts.tol * max(1.0, abs(d_now))
        stable = stable + 1 if d_flat else 0
        # exponents below one leave a rounding-scale jitter in the iterates
        # (Hoelder sensitivity of the signed power at its root); a D estimate
        # stationary over many sweeps is then the working-precision answer
        if d_flat and (df + dg <= opts.tol * 2.0 or stable >= 8):
            stop = "step-small" if df + dg <= opts.tol * 2.0 else "d-flat"
            break
        d_prev = d_now
        # tol may be 0 or below D's rounding floor, and then neither rule above
        # fires; a D envelope tight over 32 sweeps is the answer to within it
        if it >= 64 and it % 8 == 0:
            tail = history[-32:]
            if max(tail) - min(tail) <= ENVELOPE_TOL * max(1.0, abs(d_now)):
                stop = "d-envelope"
                break
    else:
        _log.debug("dual solve %s on n=%d: no stop rule in %d sweeps, %d kappa evaluations", e, grid.n, it, evaluations)
        tail = history[-10:]
        raise NonConvergenceError(
            f"dual iteration did not converge in {opts.max_iter} sweeps",
            d_estimate=history[-1],
            oscillation=max(tail) - min(tail),
            iterations=opts.max_iter,
        )
    _log.debug("dual solve %s on n=%d: %s after %d sweeps, %d kappa evaluations", e, grid.n, stop, it, evaluations)
    f, g = GridFunction(grid, f), GridFunction(grid, g)
    return DualPair(
        f, g, d_now, it, kf, kg, d_history=history, stop_reason=stop, kappa_evaluations=evaluations, kappa_kf=kappa_q
    )


def compute_lambda(e: ExponentPair, grid: RadialGrid, opts: SolverOptions | None = None) -> float:
    """Nonlinear eigenvalue Lambda = 1/D; delegates p = 0 to the sign solver,
    which runs no iteration and so refuses opts."""
    if e.p == 0.0:
        from .sign import solve_sign_system

        if opts is not None:
            raise ValueError("p = 0 takes no solver options: the sign problem is solved without iteration")
        return solve_sign_system(e.q, grid).lam
    return 1.0 / compute_dual(e, grid, opts).d_estimate


def reconstruct_solution(e: ExponentPair, dp: DualPair) -> SolutionReport:
    """Primal solution and level from a converged dual maximizer.

    u = D^(-q(p+1)/(pq-1)) K_p g and v = D^(-p(q+1)/(pq-1)) K_q f solve
    -Lap u = |v|^(q-1) v, -Lap v = |u|^(p-1) u.  The level c is reported
    from the exact power identity; the discrete energy integral (with
    grad u . grad v integrated by parts into int |v|^(q+1)) is stored as a
    cross-check channel.  K_p g and K_q f shift the pair's carried K g and
    K f, so no Green solve runs here; for p != q the loop's last q root of
    K f is reused, so the p root of K g is the only root searched.
    """
    if e.on_hyperbola:
        raise HyperbolaError("no least-energy normalization on pq = 1")
    grid = dp.f.grid
    D = dp.d_estimate
    denom = e.p * e.q - 1.0
    u_vals = D ** (-e.q * (e.p + 1.0) / denom) * (dp.kg + kappa_shift(grid, dp.kg, e.p).kappa)
    kappa_v = dp.kappa_kf if dp.kappa_kf is not None else kappa_shift(grid, dp.kf, e.q).kappa
    v_vals = D ** (-e.p * (e.q + 1.0) / denom) * (dp.kf + kappa_v)
    if u_vals[0] < 0:
        u_vals, v_vals = -u_vals, -v_vals

    lam = 1.0 / D
    c = c_from_lambda(e, lam)
    int_u = grid.integrate_values(np.abs(u_vals) ** (e.p + 1.0))
    int_v = grid.integrate_values(np.abs(v_vals) ** (e.q + 1.0))
    c_energy = int_v - int_u / (e.p + 1.0) - int_v / (e.q + 1.0)

    rhs_u = _signed_power(v_vals, e.q)
    rhs_v = _signed_power(u_vals, e.p)
    res_u = float(np.max(np.abs(-discrete_radial_laplacian(grid, u_vals) - rhs_u)))
    res_v = float(np.max(np.abs(-discrete_radial_laplacian(grid, v_vals) - rhs_v)))
    scale_u = max(float(np.max(np.abs(rhs_u))), 1e-300)
    scale_v = max(float(np.max(np.abs(rhs_v))), 1e-300)
    converged = res_u / scale_u <= RESIDUAL_TOL and res_v / scale_v <= RESIDUAL_TOL
    return SolutionReport(
        u=GridFunction(grid, u_vals),
        v=GridFunction(grid, v_vals),
        lam=lam,
        D=D,
        c=c,
        c_energy=c_energy,
        residual_u=res_u,
        residual_v=res_v,
        iterations=dp.iterations,
        converged=converged,
        stop_reason=dp.stop_reason,
        kappa_evaluations=dp.kappa_evaluations,
        coarse_start=dp.coarse_start,
    )


def _k_matrix(grid: RadialGrid) -> np.ndarray:
    """Dense nodal matrix of K on a small grid."""
    return np.column_stack([green_apply(grid, e) for e in np.eye(grid.n + 1)])


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
    alternating iteration; exact gradients via the dense K matrix.  Raises
    ValueError when a quadrature weight is not positive, as at the origin of
    the balls with N >= 3 at these n.
    """
    if grid.n > 12:
        raise ValueError("the brute-force oracle is for grids with at most 12 panels")
    if restarts < 1:
        raise ValueError("need at least one restart")
    w = grid.weights * grid.surface
    if np.any(w <= 0):
        # the weighted |x|^s sums are then no norms, and the gradient divides by w
        raise ValueError(
            f"the brute-force oracle needs positive quadrature weights; the N = {grid.dim} grid"
            f" with n = {grid.n} has w <= 0 at nodes {np.flatnonzero(w <= 0).tolist()}"
        )
    alpha, beta = e.alpha, e.beta
    kmat = _k_matrix(grid)
    total = w.sum()
    winv = 1.0 / w

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

