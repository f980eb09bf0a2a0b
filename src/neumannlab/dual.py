"""Dual level D and least-energy solutions for exponents p > 0.

The dual functional is the quotient R(f, g) = int f K g / (||f||_alpha ||g||_beta)
over mean-zero densities; its supremum D equals 1/Lambda, the reciprocal of
the nonlinear Neumann eigenvalue.  compute_dual runs an alternating
best-response iteration: with g fixed, the maximizing f is the normalized
signed power |K g + kappa|^(p-1) (K g + kappa) where the shift kappa makes
that power mean-zero, and symmetrically for g.  Each half-step solves its
subproblem exactly, so in exact arithmetic plain alternation never lowers
the quotient; for p, q >= 1 f answers the secant mix of the last two K g
(see compute_dual), still exactly, at no Green apply.  Each n-point
quantity of a sweep is formed once, on raw arrays: kappa_shift hands back
the signed power it evaluated at its root, and D is read off the two
already normalized best responses.  The loop applies K through the
unchecked kernel green_apply, because every best response is mean-zero by
construction; only the start goes through solve_neumann.  Critical pairs
are refused: on the radial grid their maximizer concentrates at the origin
at grid scale, so the discrete level is a quadrature artifact.

A cold solve starts from g = cos(pi r / L), except on grids with
n >= 4 COARSE_N: there it first solves the pair on the COARSE_N grid of the
same domain and starts from that pair's g, lifted to the fine nodes by the
coarse grid's local cubics (nested iteration), and its last kappa roots.  A
warm start from another n of the same domain is lifted the same way.  All
three pass through one normalizer, which removes g's mean, scales g to unit
L^beta and forms K g: the best responses read g only through K g, the
loop's whole start state.  The returned pair records the coarse solve and
the two-grid D gap in `coarse_start`.

reconstruct_solution converts the loop's pair into a solution (u, v)
of the primal system through the D-power scalings
u = D^(-q(p+1)/(pq-1)) K_p g, v = D^(-p(q+1)/(pq-1)) K_q f, shifting the
K g and K f the pair carries from the loop (K g by its p root, searched
from the loop's last one, and K f by the loop's last q root when p != q),
and oracle_dual_smallgrid is an independent brute-force maximizer
(projected gradient ascent from many random starts) used to validate the
iteration on tiny grids.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .exponents import ExponentPair, HyperbolaError, Region, classify_region, c_from_lambda
from .greens import NumericalFailure, _signed_power, green_apply, kappa_shift, solve_neumann
from .grid import GridFunction, RadialGrid, discrete_radial_laplacian, make_grid

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
TOL_FLOOR = 1e-12  # smallest tol; the K-image step stalls at <= 1.5e-13 on the n = 2000 dual scan
ORACLE_STEPS = 4000  # gradient-ascent steps per start of oracle_dual_smallgrid

_log = logging.getLogger(__name__)
_TALLY = "%d sweeps (%d mixed, %d history resets), %d kappa evaluations"  # a level's DEBUG record


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-10
    max_iter: int = 500

    def __post_init__(self) -> None:
        # a bool is an Integral, and True would read 1 (max_iter) or 1.0 (tol)
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")
        if isinstance(self.tol, bool) or not (math.isfinite(self.tol) and self.tol >= TOL_FLOOR):
            raise ValueError(f"tol must be finite and at least TOL_FLOOR = {TOL_FLOOR:g}, got {self.tol}")


@dataclass
class DualPair:
    f: GridFunction
    g: GridFunction
    d_estimate: float
    iterations: int
    kf: np.ndarray  # K f and K g, the loop's last Green solves, reused by reconstruct_solution
    kg: np.ndarray
    d_history: list[float] = field(default_factory=list)
    k_step: float | None = None  # the last sweep's relative K-image step, the stop rule's certificate
    kappa_evaluations: int = 0  # moment evaluations of the loop's kappa roots
    kappa_kf: float | None = None  # the q root of kf that formed g (p != q), reused by reconstruct_solution
    kappa_kg: float | None = None  # the p root of the mixed K image that formed f; reconstruct_solution's guess
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
    k_step: float | None = None  # the dual loop's last relative K-image step (DualPair.k_step); None for p = 0
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


def _best_response(
    grid: RadialGrid, w: np.ndarray, expo: float, norm_expo: float, guess: float | None = None
) -> tuple[np.ndarray, float, int]:
    """Maximizer of int f w over ||f||_norm_expo = 1, int f = 0, for w = K g.

    The optimum is the normalized signed power of the shifted potential
    w + kappa, with kappa the expo-type normalizing shift, which also makes
    the output mean-zero exactly.  K is self-adjoint in the quadrature
    inner product, so int f w = int g K f and the sweep is exact block
    ascent on the discrete quotient.  `guess` is a root the solve holds for
    the same exponent, kappa_shift's first point.  Returns (f, kappa, moment evaluations of the root); f
    has zero mean up to rounding, so the loop hands it to green_apply
    without solve_neumann's compatibility check.
    """
    kappa, y, evaluations = kappa_shift(grid, w, expo, guess)
    # for expo < 1 the kappa root carries a nodal Hoelder floor; project the
    # leftover mean so the iterate stays exactly feasible
    mean = grid.surface * float(grid.weights @ y) / grid.domain_measure  # grid.mean_values(y)
    y -= mean
    nrm = grid.lp_norm_values(y, norm_expo)
    # a collapse to the constants leaves only rounding once the mean is gone;
    # relative, as |w + kappa|^expo scales like ||w||^expo (tiny for a large expo)
    if not nrm > 1e-14 * abs(mean):
        raise DegenerateIterateError("iterate collapsed to the constants")
    y /= nrm
    return y, kappa, evaluations


def _relative_step(step: np.ndarray, x: np.ndarray) -> float:
    """||step||_inf / ||x||_inf for step = x - x_prev, one K image's step over a sweep."""
    return float(np.abs(step).max() / np.abs(x).max())


def _start(e: ExponentPair, grid: RadialGrid, pair: DualPair | None) -> np.ndarray:
    """K g to start the loop on grid, the loop's whole start state: g is the
    first cosine mode (pair None) or pair's g at grid's nodes by
    RadialGrid.cubic_at, with its mean removed and scaled to unit L^beta,
    and K g is formed by solve_neumann.  Raises NumericalFailure when that
    norm is not positive on grid's quadrature (the negative origin weights
    of a coarse ball)."""
    if pair is None:
        g = np.cos(np.pi * grid.r / grid.length)
    else:
        g = pair.g.grid.cubic_at(pair.g.values, grid.r)
    g = g - grid.mean_values(g)
    norm = grid.lp_norm_values(g, e.beta)
    if not norm > 0.0:
        raise NumericalFailure(f"start norm {norm:.3e} is not positive on the N = {grid.dim}, n = {grid.n} grid")
    g /= norm
    # values by keyword: perfbench's tracer reads a second positional argument as a flag
    return solve_neumann(grid, values=g)


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
      already close and the fine loop takes 2 to 6 sweeps instead of up to
      12.  The coarse solve breaks even near n = 5000 on the dual-cold pairs
      (near 4000 before the secant mix, which shortens the cosine start's
      fine loop too) and saves about 20% at n = 8000.  If it raises
      NumericalFailure, the solve logs one DEBUG record and takes the cosine
      start.
    - Any other cold solve starts g from the first cosine mode cos(pi r / L).
    A pair on this grid hands over its K g, the loop's whole start state.
    Every other start goes through one normalizer, _start: the cosine mode
    or the pair's g at the new nodes (4-point cubic Lagrange interpolation
    on the old uniform nodes) loses its mean and is scaled to unit L^beta,
    and K g is formed by solve_neumann.
    For p, q >= 1 f answers the secant (Anderson depth 1) mix of the last
    two K g, K g_k - gamma (K g_k - K g_k-1) with gamma = dr.r_k / dr.dr,
    where r_k is K g_k less the K image f_k answered and dr = r_k - r_k-1
    (Anderson, J. ACM 12, 1965; Walker and Ni, SIAM J. Numer. Anal. 49,
    2011).  K is linear and a best response scale-invariant in its K image,
    so the mix needs no Green apply: f and g stay exact best responses and D
    a feasible quotient value.  A fall of D drops the history, so the next
    two sweeps answer plain K g; dr.dr = 0 skips the mix.  Exponents below 1
    are not mixed.  One rule stops the loop: from the second sweep on, it
    stops once both K-image steps ||K f - K f_prev||_inf / ||K f||_inf and
    the same for K g (exact images, never the mix) are at most opts.tol
    (>= TOL_FLOOR, where the step stalls in rounding).  The best responses
    read each other only through K f and K g, so K images that no longer
    move are the loop's fixed point.  It returns the last pair with its K f
    and K g, the larger of the two steps (k_step), the p root of the mixed K
    image that formed f (kappa_kg), the q root of K f that formed g
    (kappa_kf, p != q) and the kappa moment evaluations it took;
    iterations, d_history, k_step and kappa_evaluations are the fine loop's
    own.  Each level logs one DEBUG record: its K-image step, sweeps, mixed
    sweeps, history resets and kappa evaluations.  `coarse_start` records
    the nested start as {n, sweeps, kappa_evaluations, D, d_gap} of the
    coarse solve, with d_gap = |D_coarse - D| / D, a two-grid gap and not an
    error estimate; it is None after a cosine or a caller's warm start.
    Each kappa root for an exponent other than 1 starts at that exponent's
    root of the previous sweep, on the first sweep at the start pair's
    kappa_kg and kappa_kf, and without them (the cosine start) at -mean of
    its potential.  A spent budget raises NonConvergenceError.  Only
    subcritical and hyperbola exponents whose N is grid.dim are accepted:
    others raise ValueError, the critical ones because the radial maximizer
    concentrates at the origin at grid scale there.
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
        level = make_grid(grid.dim, COARSE_N, grid.length)
        try:
            coarse = _ascend(e, level, opts, _start(e, level, None))
        except NumericalFailure as exc:
            _log.debug("dual solve %s on n=%d: coarse start failed (%s), cosine start", e, grid.n, exc)
    start = warm_start if warm_start is not None else coarse
    kg = start.kg if start is not None and start.g.grid == grid else _start(e, grid, start)
    guesses = (None, None) if start is None else (start.kappa_kg, start.kappa_kf)
    dp = _ascend(e, grid, opts, kg, *guesses)
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
    e: ExponentPair,
    grid: RadialGrid,
    opts: SolverOptions,
    kg: np.ndarray,
    kappa_p: float | None = None,
    kappa_q: float | None = None,
) -> DualPair:
    """compute_dual's sweeps from the start's K g until both K images move
    by at most opts.tol relative over a sweep; kappa_p and kappa_q are the
    first sweep's root guesses, as each sweep's roots are the next one's;
    for p, q >= 1 f answers the secant mix (see compute_dual)."""
    alpha, beta = e.alpha, e.beta
    mix = e.p >= 1.0 and e.q >= 1.0
    # carried: sweep k's K g is sweep k+1's K g_prev, as the start's K g is the first
    kf = None  # sweep 1 has no previous K f, so the first stop test is at sweep 2
    kg_in, residual = kg, None  # the K image f answers, and the secant's history K g - kg_in
    history: list[float] = []
    evaluations = mixed = resets = 0
    for it in range(1, opts.max_iter + 1):
        kf_prev, kg_prev = kf, kg
        f, kappa_p, spent = _best_response(grid, kg_in, e.p, alpha, kappa_p)
        kf = green_apply(grid, f)
        if e.p == e.q:
            g, kg = f, kf  # identical best-response maps; keeps u = v exact
        else:
            g, kappa_q, spent_q = _best_response(grid, kf, e.q, beta, kappa_q)
            spent += spent_q
            kg = green_apply(grid, g)
        evaluations += spent
        d_now = grid.surface * float(grid.weights @ (f * kg))  # grid.integrate_values
        history.append(d_now)
        if kf_prev is not None:
            kg_step = kg - kg_prev
            k_step = max(_relative_step(kg_step if e.p == e.q else kf - kf_prev, kf), _relative_step(kg_step, kg))
            if k_step <= opts.tol:
                break
        last, residual, kg_in = residual, kg - kg_in if mix else None, kg
        if last is not None and d_now < history[-2]:
            resets, residual = resets + 1, None
        elif last is not None:
            last -= residual  # -dr
            den = float(last @ last)
            if den > 0.0:
                kg_step *= float(last @ residual) / den  # -gamma (K g_k - K g_k-1), in place
                kg_in = np.add(kg_step, kg, out=kg_step)
                mixed += 1
    else:
        _log.debug("dual solve %s on n=%d: no stop rule in " + _TALLY, e, grid.n, it, mixed, resets, evaluations)
        tail = history[-10:]
        raise NonConvergenceError(
            f"dual iteration did not converge in {opts.max_iter} sweeps",
            d_estimate=history[-1],
            oscillation=max(tail) - min(tail),
            iterations=opts.max_iter,
        )
    _log.debug(
        "dual solve %s on n=%d: K-image step %.3e after " + _TALLY, e, grid.n, k_step, it, mixed, resets, evaluations
    )
    f, g = GridFunction(grid, f), GridFunction(grid, g)
    return DualPair(
        f,
        g,
        d_now,
        it,
        kf,
        kg,
        d_history=history,
        k_step=k_step,
        kappa_evaluations=evaluations,
        kappa_kf=None if e.p == e.q else kappa_q,
        kappa_kg=kappa_p,
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


def _d_power(e: ExponentPair, D: float, power: float) -> float:
    """D^power, a scale of u, v or c; NumericalFailure unless a normal double (near pq = 1 the power is large)."""
    order = power * math.log10(D)
    scale = D**power if order < 308.0 else math.inf  # float ** raises on overflow
    if not np.finfo(float).tiny <= scale < math.inf:
        ratio = (e.p + 1.0) * (e.q + 1.0) / (e.p * e.q - 1.0)  # c = Lambda^ratio / ratio
        raise NumericalFailure(f"{e}: the scale D^{power:.6g} is about 1e{order:.0f}, outside the normal doubles; "
                               f"the level c is of order 1e{-ratio * math.log10(D) - math.log10(abs(ratio)):.0f}")
    return scale


def reconstruct_solution(e: ExponentPair, dp: DualPair) -> SolutionReport:
    """Primal solution and level from the dual loop's pair.

    u = D^(-q(p+1)/(pq-1)) K_p g and v = D^(-p(q+1)/(pq-1)) K_q f solve
    -Lap u = |v|^(q-1) v, -Lap v = |u|^(p-1) u.  The level c is reported
    from the exact power identity; the discrete energy integral (with
    grad u . grad v integrated by parts into int |v|^(q+1)) is stored as a
    cross-check channel.  K_p g and K_q f shift the pair's carried K g and
    K f, so no Green solve runs here.  The p root of K g is the only root
    searched, from the loop's last p root dp.kappa_kg, next to it: v reuses
    it for p = q, where the loop keeps one array as K f and K g, and the
    loop's last q root of K f for p != q.  `converged` gates the full
    relative stencil residual of each equation whose exponent is >= 1 at
    RESIDUAL_TOL: the u equation when q >= 1, the v equation when p >= 1.
    Below 1 the right side is only Hoelder at the zero of its argument and
    the residual decays like h^t, so it is reported, not gated; the
    loop's fixed point is certified by DualPair.k_step instead.
    """
    if e.on_hyperbola:
        raise HyperbolaError("no least-energy normalization on pq = 1")
    grid = dp.f.grid
    D = dp.d_estimate
    denom = e.p * e.q - 1.0
    powers = (-e.q * (e.p + 1.0), -e.p * (e.q + 1.0), -(e.p + 1.0) * (e.q + 1.0))  # of u, v and c, times pq - 1
    scale_u, scale_v, _ = (_d_power(e, D, power / denom) for power in powers)
    kappa_u = kappa_shift(grid, dp.kg, e.p, dp.kappa_kg).kappa
    u_vals = scale_u * (dp.kg + kappa_u)
    kappa_v = kappa_u if e.p == e.q else dp.kappa_kf
    if kappa_v is None:
        kappa_v = kappa_shift(grid, dp.kf, e.q).kappa
    v_vals = scale_v * (dp.kf + kappa_v)
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
    converged = (e.q < 1.0 or res_u / scale_u <= RESIDUAL_TOL) and (e.p < 1.0 or res_v / scale_v <= RESIDUAL_TOL)
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
        k_step=dp.k_step,
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
) -> float:
    """Brute-force dual level on a tiny grid.

    Projected gradient ascent on the quotient int f K g / (||f||_alpha ||g||_beta)
    over mean-zero nodal vectors, ORACLE_STEPS steps from each of `restarts`
    seeded random starts and a cosine start, keeping the best value found.
    Independent of the alternating iteration; exact gradients via the dense
    K matrix.  Raises ValueError when a quadrature weight is not positive,
    as at the origin of the balls with N >= 3 at these n.
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
        for _ in range(ORACLE_STEPS):
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

