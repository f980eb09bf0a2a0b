"""The p = 0 problems: sign nonlinearity and balanced level sets.

When the first exponent degenerates to zero the system becomes
-Lap u = |v|^(q-1) v, -Lap v = sign(u), whose natural constraint is the
balanced class (positive and negative level sets of equal measure) instead
of a vanishing power-mean.  The eigenvalue generalizes to
Lambda = ||Lap u||_beta / ||u||_1 over balanced u, and the level satisfies
Lambda^(-(q+1)) = -(q+1) c.  Both the coupled problem and the scalar limit
-Lap u = sign(u) (reached when q also degenerates) are solved by one
fixed-point loop through the Green machinery, started once from the
balanced sign-change profile a - r: the sign pattern determines the next
iterate exactly, so iterates live in a finite state space and the loop
either reaches a fixed pattern or exposes a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dual import RESIDUAL_TOL, SolutionReport, SolverOptions
from .greens import (
    BracketError,
    NumericalFailure,
    _signed_power,
    balanced_shift,
    kappa_shift,
    solve_increasing,
    solve_neumann,
)
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


class OscillationDetected(NumericalFailure):
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


def _signs(values: np.ndarray) -> np.ndarray:
    band = SIGN_BAND * float(np.max(np.abs(values)))
    return np.where(values > band, 1.0, np.where(values < -band, -1.0, 0.0))


def sign_of(u: GridFunction) -> GridFunction:
    """Nodewise sign with a zero band |u| <= 1e-10 ||u||_inf.

    The relative band keeps nodes that straddle the interface from
    chattering between iterations.
    """
    return GridFunction(u.grid, _signs(u.values))


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


def _crossing_radii(grid: RadialGrid, vals: np.ndarray) -> list[float]:
    """All sign-change radii of the nodal values, cubic-refined."""
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


def _subcell_balance_shift(grid: RadialGrid, vals: np.ndarray) -> float:
    """Constant c balancing the measures of {u + c > 0} and {u + c < 0}
    with the level sets read from the cubic interpolant.

    The nodal weighted median pins the interface to a node, an O(h)
    placement error the sign solvers cannot afford; the interpolated
    balance puts the fixed-point interface at the exact measure-median
    radius.  The map c -> signed measure difference is monotone, so
    solve_increasing converges; the returned function still needs the nodal
    median shift afterwards if certified balanced-class membership is
    required.
    """

    def imbalance(c: float) -> float:
        shifted = vals + c
        cuts = _crossing_radii(grid, shifted)
        lead = 1.0 if (shifted[0] >= 0 or not cuts) else -1.0
        marks = np.array([0.0] + cuts + [grid.length])
        seglen = np.diff(grid.weight_primitive(marks))
        signs = lead * (-1.0) ** np.arange(len(seglen))
        return float((signs * seglen).sum())

    lo, hi = -float(np.max(vals)), -float(np.min(vals))
    # the shift moves values of size ||u||_inf: a few of their float spacings
    # resolve it, and a root near zero is not chased into tiny floats
    width = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    try:
        lo, hi = solve_increasing(imbalance, lo, hi, width=width)
    except BracketError:
        return balanced_shift(GridFunction(grid, vals))
    return 0.5 * (lo + hi)


def _l1(grid: RadialGrid, vals: np.ndarray) -> float:
    return grid.integrate_values(np.abs(vals))


def _l1_sharp(grid: RadialGrid, vals: np.ndarray) -> float:
    """L^1 norm split at the sign changes.

    The plain quadrature of |u| loses two orders at the interface corner;
    integrating the smooth cumulative antiderivative of u between
    cubic-refined roots keeps fourth order.
    """
    cuts = _crossing_radii(grid, vals)
    if not cuts:
        return _l1(grid, vals)
    cum = grid.cumulative_weighted(vals)
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


def _solve_step(grid: RadialGrid, vals: np.ndarray) -> np.ndarray:
    """K applied to sign(u), the step integrated exactly.

    A nodal +-1 pattern misplaces the true step by up to half a cell; since
    the data is piecewise constant by structure, the operator is instead
    evaluated in closed form at the cubic-refined crossing radii of u.  With
    H the flux int_0^r s^(dim-1) (step - mean) ds, K step = Phi H -
    int_0^r Phi dH before the mean is removed, and both integrals are
    differences of the grid's elementary primitives W and G.
    """
    cuts = _crossing_radii(grid, vals)
    if not cuts:
        raise ValueError("sign data does not change sign; the iterate degenerated")
    lead = 1.0 if vals[0] >= 0 else -1.0
    marks = np.array([0.0] + cuts + [grid.length])
    signs = lead * (-1.0) ** np.arange(len(marks) - 1)
    # rows W and G, at the nodes and at the marks; both increase, so
    # clipping their values clips the radius
    nodes = np.stack([grid.weight_primitive(grid.r), grid.kernel_primitive(grid.r)])
    at = np.stack([grid.weight_primitive(marks), grid.kernel_primitive(marks)])[:, :, None]
    integrals = np.zeros_like(nodes)  # int_0^r step dW and int_0^r step dG
    for k in range(len(marks) - 1):
        integrals += signs[k] * (np.clip(nodes, at[:, k], at[:, k + 1]) - at[:, k])
    # the step's mean, int_0^L step dW / W(L), is removed as a constant
    flux, kernel_flux = integrals - integrals[0, -1] / nodes[0, -1] * nodes
    out = grid.phi * flux - kernel_flux
    return out - grid.mean_values(out)


def _sign_change_profile(grid: RadialGrid) -> np.ndarray:
    """a - r with a = L 2^(-1/N), the radius that halves the domain's measure."""
    return grid.length * 2.0 ** (-1.0 / grid.dim) - grid.r


def _sign_fixed_point(
    grid: RadialGrid,
    step: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | None]],
    opts: SolverOptions,
) -> tuple[np.ndarray, np.ndarray | None, int, bool]:
    """Iterate u -> step(u) + balancing constant from the sign-change profile.

    `step` maps the nodal values of u to (w, v): w is the next iterate
    before the sub-cell balance shift, v whatever the caller reports with
    it.  Stops when the L^1 step falls below tol * max(1, ||u||_1).
    Returns (u, v, iterations, converged); raises OscillationDetected when
    a sign pattern recurs after more than one sweep.
    """
    u = _sign_change_profile(grid)
    u = u + _subcell_balance_shift(grid, u)
    seen: dict[bytes, int] = {}
    v = None
    for it in range(1, opts.max_iter + 1):
        key = _pattern_key(_signs(u))
        prev_it = seen.get(key)
        seen[key] = it
        w, v = step(u)
        u_new = w + _subcell_balance_shift(grid, w)
        l1_step = _l1(grid, u_new - u)
        u = u_new
        if l1_step <= opts.tol * max(1.0, _l1(grid, u)):
            return u, v, it, True
        if prev_it is not None and it - prev_it > 1:
            raise OscillationDetected(it - prev_it)
    return u, v, opts.max_iter, False


def solve_sign_system(q: float, grid: RadialGrid, opts: SolverOptions | None = None) -> SolutionReport:
    """Solve -Lap u = |v|^(q-1) v, -Lap v = sign(u) with balanced u.

    Fixed point in the sign pattern, started from the balanced sign-change
    profile: the pattern gives v through the q-normalized Green solve, v
    gives a balanced u back.  Raises OscillationDetected when the pattern
    cycles; an exhausted budget is reported as converged=False.  Residuals
    are sup norms away from the interface, where the exact solution's second
    derivatives jump and nodal finite differences cannot vanish.
    """
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    opts = opts or SolverOptions()

    def step(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = GridFunction(grid, _solve_step(grid, u))
        v = v.shifted(kappa_shift(v, q))
        return solve_neumann(GridFunction(grid, _signed_power(v.values, q))).values, v.values

    u, v, iters, ok = _sign_fixed_point(grid, step, opts)
    lam = _sign_lambda(q, grid, u, v)
    if u[0] < 0:
        u, v = -u, -v

    beta_int = grid.integrate_values(np.abs(v) ** (q + 1.0))
    c = -(lam ** -(q + 1.0)) / (q + 1.0)
    c_energy = q / (q + 1.0) * beta_int - _l1_sharp(grid, u)
    u = GridFunction(grid, u)
    u = u.shifted(balanced_shift(u))  # pin a node so membership certifies
    v = GridFunction(grid, v)

    smooth = ~_interface_mask(sign_of(u).values)
    res_u_all = np.abs(-discrete_radial_laplacian(u).values - _signed_power(v.values, q))
    res_v_all = np.abs(-discrete_radial_laplacian(v).values - sign_of(u).values)
    res_u = float(res_u_all[smooth].max())
    res_v = float(res_v_all[smooth].max())
    converged = ok and certify_balanced(u).certified and res_v <= RESIDUAL_TOL
    cuts = _crossing_radii(grid, u.values)
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


def _sign_lambda(q: float, grid: RadialGrid, u: np.ndarray, v: np.ndarray) -> float:
    """Rayleigh value ||Lap u||_beta / ||u||_1 with Lap u = -|v|^(q-1) v."""
    beta_int = grid.integrate_values(np.abs(v) ** (q + 1.0))
    return beta_int ** (q / (q + 1.0)) / _l1_sharp(grid, u)


def solve_scalar_sign(grid: RadialGrid, opts: SolverOptions | None = None) -> tuple[GridFunction, float]:
    """Least-energy solution of -Lap u = sign(u) and its level.

    Fixed point u -> K(sign u) + balancing constant, started from the
    balanced sign-change profile.  At the fixed point the level reduces to
    -(1/2) int |u|.  Raises OscillationDetected when the pattern cycles and
    NumericalFailure when the iteration budget runs out.
    """
    opts = opts or SolverOptions()
    u, _, iters, ok = _sign_fixed_point(grid, lambda u: (_solve_step(grid, u), None), opts)
    if not ok:
        raise NumericalFailure(f"scalar sign iteration did not settle in {iters} sweeps")
    c0 = -0.5 * _l1_sharp(grid, u)
    u = GridFunction(grid, u)
    u = u.shifted(balanced_shift(u))  # pin a node so membership certifies
    return u, c0
