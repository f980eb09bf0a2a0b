"""The p = 0 problems: sign nonlinearity and balanced level sets.

When the first exponent degenerates to zero the system becomes
-Lap u = |v|^(q-1) v, -Lap v = sign(u), whose natural constraint is the
balanced class (positive and negative level sets of equal measure) instead
of a vanishing power-mean.  The eigenvalue generalizes to
Lambda = ||Lap u||_beta / ||u||_1 over balanced u, and the level satisfies
Lambda^(-(q+1)) = -(q+1) c.  Both the coupled problem and the scalar limit
-Lap u = sign(u) (reached when q also degenerates) are solved by a
fixed-point sweep through the Green machinery: the sign pattern determines
the next iterate exactly, so iterates live in a finite state space and the
loop either reaches a fixed pattern or exposes a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import RESIDUAL_TOL, SolutionReport, SolverOptions
from .greens import _signed_power, balanced_shift, bisect_increasing, kappa_shift, solve_neumann
from .grid import GridFunction, RadialGrid, discrete_radial_laplacian

__all__ = [
    "BalancedFunction",
    "OscillationDetected",
    "sign_of",
    "certify_balanced",
    "solve_sign_system",
    "solve_scalar_sign",
]

SIGN_BAND = 1e-10  # zero band, relative to the sup norm


class OscillationDetected(RuntimeError):
    """The sign pattern entered a cycle instead of a fixed point."""

    def __init__(self, cycle_length: int):
        super().__init__(f"sign pattern cycles with period {cycle_length}")
        self.cycle_length = cycle_length


@dataclass
class BalancedFunction:
    """A grid function with certified balanced level sets."""

    u: GridFunction
    band: float
    positive_mass: float
    negative_mass: float
    zero_mass: float
    certified: bool


def sign_of(u: GridFunction) -> GridFunction:
    """Nodewise sign with a zero band |u| <= 1e-10 ||u||_inf.

    The relative band keeps nodes that straddle the interface from
    chattering between iterations.
    """
    band = SIGN_BAND * u.sup_norm()
    vals = np.where(u.values > band, 1.0, np.where(u.values < -band, -1.0, 0.0))
    return GridFunction(u.grid, vals)


def certify_balanced(u: GridFunction) -> BalancedFunction:
    """Measure the level sets of u and test balanced-class membership."""
    band = SIGN_BAND * u.sup_norm()
    grid = u.grid
    w = grid.weights * grid.surface
    pos = float(w[u.values > band].sum())
    neg = float(w[u.values < -band].sum())
    zero = float(w[np.abs(u.values) <= band].sum())
    slack = 1e-12 * grid.domain_measure
    return BalancedFunction(u, band, pos, neg, zero, abs(pos - neg) <= zero + slack)


def _pattern_key(s: np.ndarray) -> bytes:
    return s.astype(np.int8).tobytes()


def _interface_mask(sign_vals: np.ndarray, halo: int = 2) -> np.ndarray:
    """Nodes within `halo` of a sign change (where FD residuals see the kink)."""
    change = np.zeros(sign_vals.shape, dtype=bool)
    diff = np.diff(np.sign(sign_vals)) != 0
    change[:-1] |= diff
    change[1:] |= diff
    change |= sign_vals == 0
    mask = change.copy()
    for _ in range(halo):
        mask[:-1] |= mask[1:].copy()
        mask[1:] |= mask[:-1].copy()
    return mask


def _initial_profiles(grid: RadialGrid) -> list[np.ndarray]:
    a = grid.length * 2.0 ** (-1.0 / grid.dim)
    base = a - grid.r
    return [
        base,
        base + 0.1 * grid.length * np.cos(2.0 * np.pi * grid.r / grid.length),
        1.05 * a - grid.r,
    ]


def _crossing_radii(u: GridFunction) -> list[float]:
    """All sign-change radii of the nodal values, cubic-refined."""
    grid = u.grid
    vals = u.values
    r = grid.r
    nonneg = vals >= 0.0
    cells = np.nonzero(nonneg[:-1] != nonneg[1:])[0]
    roots = []
    n = grid.n
    for i in cells:
        s0 = int(np.clip(i - 1, 0, n - 3))
        coeffs = np.polyfit(r[s0 : s0 + 4], vals[s0 : s0 + 4], 3)
        candidates = [
            float(z.real)
            for z in np.roots(coeffs)
            if abs(z.imag) < 1e-10 and r[i] - 1e-12 <= z.real <= r[i + 1] + 1e-12
        ]
        if candidates:
            roots.append(min(candidates, key=lambda z: abs(z - r[i])))
        else:
            t = vals[i] / (vals[i] - vals[i + 1])
            roots.append(float(r[i] + t * (r[i + 1] - r[i])))
    return roots


def _subcell_balance_shift(u: GridFunction) -> float:
    """Constant c balancing the measures of {u + c > 0} and {u + c < 0}
    with the level sets read from the cubic interpolant.

    The nodal weighted median pins the interface to a node, an O(h)
    placement error the sign solvers cannot afford; the interpolated
    balance puts the fixed-point interface at the exact measure-median
    radius.  The map c -> signed measure difference is monotone, so
    bisection converges; the returned function still needs the nodal
    median shift afterwards if certified balanced-class membership is
    required.
    """
    grid = u.grid
    total = _weight_primitive(grid, grid.length)

    def imbalance(c: float) -> float:
        shifted = GridFunction(grid, u.values + c)
        cuts = _crossing_radii(shifted)
        lead = 1.0 if (shifted.values[0] >= 0 or not cuts) else -1.0
        marks = np.array([0.0] + cuts + [grid.length])
        seglen = np.diff(_weight_primitive(grid, marks))
        signs = lead * (-1.0) ** np.arange(len(seglen))
        return float((signs * seglen).sum())

    lo, hi = -float(np.max(u.values)), -float(np.min(u.values))
    if imbalance(lo) > 0 or imbalance(hi) < 0:
        return balanced_shift(u)
    # the shift moves values of size ||u||_inf: a few of their float spacings
    # resolve it, and a root near zero is not chased into tiny floats
    width = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    lo, hi = bisect_increasing(imbalance, lo, hi, width)
    return 0.5 * (lo + hi)


def _l1_sharp(u: GridFunction) -> float:
    """L^1 norm split at the sign changes.

    The plain quadrature of |u| loses two orders at the interface corner;
    integrating the smooth cumulative antiderivative of u between
    cubic-refined roots keeps fourth order.
    """
    grid = u.grid
    cuts = _crossing_radii(u)
    if not cuts:
        return u.lp_norm(1)
    cum = grid.cumulative_weighted(u.values)
    r = grid.r

    def cum_at(x: float) -> float:
        i = int(np.clip(np.searchsorted(r, x) - 1, 0, grid.n - 3))
        s0 = int(np.clip(i - 1, 0, grid.n - 3))
        coeffs = np.polyfit(r[s0 : s0 + 4], cum[s0 : s0 + 4], 3)
        return float(np.polyval(coeffs, x))

    marks = [0.0] + cuts + [grid.length]
    values = [cum[0]] + [cum_at(x) for x in cuts] + [cum[-1]]
    total = sum(abs(values[k + 1] - values[k]) for k in range(len(marks) - 1))
    return grid.surface * total


def _weight_primitive(grid: RadialGrid, x: np.ndarray | float):
    """W(r) = int_0^r s^(dim-1) ds for the grid's weight."""
    if grid.mode == "ball" and grid.dim > 1:
        return np.asarray(x) ** grid.dim / grid.dim
    return np.asarray(x, dtype=float)


def _solve_step(grid: RadialGrid, u: GridFunction) -> GridFunction:
    """Neumann solve with data sign(u), the step integrated exactly.

    A nodal +-1 pattern misplaces the true step by up to half a cell; since
    the data is piecewise constant by structure, the first cumulative
    integral is instead evaluated in closed form from the cubic-refined
    crossing radii of u (the step's mean is removed as a constant), and only
    the smooth outer integration runs through the panel quadrature.
    """
    cuts = _crossing_radii(u)
    if not cuts:
        raise ValueError("sign data does not change sign; the iterate degenerated")
    lead = 1.0 if u.values[0] >= 0 else -1.0
    marks = np.array([0.0] + cuts + [grid.length])
    signs = lead * (-1.0) ** np.arange(len(marks) - 1)
    Wnodes = _weight_primitive(grid, grid.r)
    Wmarks = _weight_primitive(grid, marks)
    flux = np.zeros_like(grid.r)
    for k in range(len(marks) - 1):
        seg = np.clip(Wnodes, Wmarks[k], Wmarks[k + 1])
        flux += signs[k] * (seg - Wmarks[k])
    total = float(flux[-1])  # = int of the step; removed as the data's mean
    flux -= total / Wnodes[-1] * Wnodes
    slope = np.zeros_like(flux)
    weight = grid.radial_weight
    slope[1:] = -flux[1:] / weight[1:]
    vals = grid.cumulative_plain(slope)
    vals -= grid.mean_values(vals)
    return GridFunction(grid, vals)


def _iterate_sign_system(q: float, grid: RadialGrid, u0: np.ndarray, opts: SolverOptions):
    """Run the sign-system sweep from one initial profile.

    Returns (u, v, iterations, converged); raises OscillationDetected on a
    pattern cycle.
    """
    u = GridFunction(grid, u0)
    u = u.shifted(_subcell_balance_shift(u))
    seen: dict[bytes, int] = {}
    v = None
    for it in range(1, opts.max_iter + 1):
        s = sign_of(u)
        key = _pattern_key(s.values)
        prev_it = seen.get(key)
        seen[key] = it
        v_new = _solve_step(grid, u)
        v_new = v_new.shifted(kappa_shift(v_new, q))
        rhs = GridFunction(grid, _signed_power(v_new.values, q))
        ku = solve_neumann(rhs)
        u_new = ku.shifted(_subcell_balance_shift(ku))
        l1_step = GridFunction(grid, u_new.values - u.values).lp_norm(1)
        u, v = u_new, v_new
        if l1_step <= opts.tol * max(1.0, u.lp_norm(1)):
            return u, v, it, True
        if prev_it is not None and it - prev_it > 1:
            raise OscillationDetected(it - prev_it)
    return u, v, opts.max_iter, False


def solve_sign_system(q: float, grid: RadialGrid, opts: SolverOptions | None = None) -> SolutionReport:
    """Solve -Lap u = |v|^(q-1) v, -Lap v = sign(u) with balanced u.

    Fixed point in the sign pattern: the pattern gives v through the
    q-normalized Green solve, v gives a balanced u back.  Three perturbed
    initializations are run and the lowest-Lambda fixed point is reported
    (uniqueness of the discrete fixed point is not guaranteed).  Residuals
    are sup norms away from the interface, where the exact solution's second
    derivatives jump and nodal finite differences cannot vanish.
    """
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    opts = opts or SolverOptions()
    best = None
    failure: Exception | None = None
    for u0 in _initial_profiles(grid):
        try:
            u, v, iters, ok = _iterate_sign_system(q, grid, u0, opts)
        except OscillationDetected as exc:
            failure = exc
            continue
        lam = _sign_lambda(q, grid, u, v)
        cand = (not ok, lam, u, v, iters, ok)
        if best is None or cand[:2] < best[:2]:
            best = cand
    if best is None:
        raise failure if failure is not None else RuntimeError("sign iteration produced no iterate")
    _, lam, u, v, iters, ok = best
    if u.values[0] < 0:
        u = GridFunction(grid, -u.values)
        v = GridFunction(grid, -v.values)

    beta_int = grid.integrate_values(np.abs(v.values) ** (q + 1.0))
    c = -(lam ** -(q + 1.0)) / (q + 1.0)
    c_energy = q / (q + 1.0) * beta_int - _l1_sharp(u)
    u = u.shifted(balanced_shift(u))  # pin a node so membership certifies

    smooth = ~_interface_mask(sign_of(u).values)
    res_u_all = np.abs(-discrete_radial_laplacian(u).values - _signed_power(v.values, q))
    res_v_all = np.abs(-discrete_radial_laplacian(v).values - sign_of(u).values)
    res_u = float(res_u_all[smooth].max())
    res_v = float(res_v_all[smooth].max())
    converged = ok and certify_balanced(u).certified and res_v <= RESIDUAL_TOL
    cuts = _crossing_radii(u)
    return SolutionReport(
        u=u,
        v=v,
        lam=lam,
        D=1.0 / lam,
        c=c,
        c_energy=c_energy,
        residual_u=res_u,
        residual_v=res_v,
        iterations=iters,
        converged=converged,
        zero_radius=cuts[0] if cuts else None,
    )


def _sign_lambda(q: float, grid: RadialGrid, u: GridFunction, v: GridFunction) -> float:
    """Rayleigh value ||Lap u||_beta / ||u||_1 with Lap u = -|v|^(q-1) v."""
    beta_int = grid.integrate_values(np.abs(v.values) ** (q + 1.0))
    return beta_int ** (q / (q + 1.0)) / _l1_sharp(u)


def solve_scalar_sign(grid: RadialGrid, opts: SolverOptions | None = None) -> tuple[GridFunction, float]:
    """Least-energy solution of -Lap u = sign(u) and its level.

    Fixed point u -> K(sign u) + balancing constant.  The energy
    (1/2) int |grad u|^2 - int |u| is monitored (grad-square evaluated as
    the Green quadratic form of the sign data) and must not increase;
    an increase beyond rounding engages damping of the new iterate.  At the
    fixed point the level reduces to -(1/2) int |u|.
    """
    opts = opts or SolverOptions()
    u = GridFunction(grid, grid.length * 2.0 ** (-1.0 / grid.dim) - grid.r)
    u = u.shifted(_subcell_balance_shift(u))
    seen: dict[bytes, int] = {}
    energy_prev = None
    theta = 1.0
    for it in range(1, opts.max_iter + 1):
        s = sign_of(u)
        key = _pattern_key(s.values)
        prev_it = seen.get(key)
        seen[key] = it
        ks = _solve_step(grid, u)
        grad_sq = grid.integrate_values(sign_of(u).values * ks.values)
        u_next = ks.shifted(_subcell_balance_shift(ks))
        if theta < 1.0:
            mixed = GridFunction(grid, (1.0 - theta) * u.values + theta * u_next.values)
            u_next = mixed.shifted(balanced_shift(mixed))
        energy = 0.5 * grad_sq - _l1_sharp(u_next)
        if energy_prev is not None and energy > energy_prev + 1e-12 * max(1.0, abs(energy_prev)):
            theta = max(0.5 * theta, 1e-3)
        energy_prev = energy
        step = GridFunction(grid, u_next.values - u.values).lp_norm(1)
        u = u_next
        if step <= opts.tol * max(1.0, u.lp_norm(1)):
            break
        if prev_it is not None and it - prev_it > 1:
            raise OscillationDetected(it - prev_it)
    c0 = -0.5 * _l1_sharp(u)
    u = u.shifted(balanced_shift(u))  # pin a node so membership certifies
    return u, c0
