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

Level sets are measured below the grid scale, in one way throughout: the
crossings of u are the roots of its four-node local cubic, and {u >= 0},
{u < 0} are unions of the intervals between them, each of exact measure
sigma_N (W(b) - W(a)).  Every iterate is shifted to balance these
measures, and certify_balanced tests the returned solution with the same
measure, so the solvers return the fixed point itself and its first
crossing is the interface radius.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dual import RESIDUAL_TOL, SolutionReport, SolverOptions
from .exponents import ExponentPair, c_from_lambda
from .greens import (
    BracketError,
    NumericalFailure,
    _signed_power,
    balanced_shift,
    kappa_shift,
    solve_increasing,
    solve_neumann,
)
from .grid import GridFunction, RadialGrid, discrete_radial_laplacian, local_cubic

__all__ = [
    "BalancedFunction",
    "OscillationDetected",
    "certify_balanced",
    "solve_sign_system",
    "solve_scalar_sign",
]

SIGN_BAND = 1e-10  # zero band, relative to the sup norm

_log = logging.getLogger(__name__)


class OscillationDetected(NumericalFailure):
    """The sign pattern entered a cycle instead of a fixed point."""

    def __init__(self, cycle_length: int):
        super().__init__(f"sign pattern cycles with period {cycle_length}")
        self.cycle_length = cycle_length


@dataclass
class BalancedFunction:
    """A grid function with certified balanced level sets."""

    u: GridFunction
    positive_mass: float
    negative_mass: float
    certified: bool


def _signs(values: np.ndarray) -> np.ndarray:
    """Nodewise sign with a zero band |u| <= 1e-10 ||u||_inf.

    The relative band keeps nodes that straddle the interface from
    chattering between iterations.
    """
    band = SIGN_BAND * float(np.max(np.abs(values)))
    return np.where(values > band, 1.0, np.where(values < -band, -1.0, 0.0))


def certify_balanced(u: GridFunction) -> BalancedFunction:
    """Measure the level sets of u and test balanced-class membership.

    {u >= 0} and {u < 0} are measured between the cubic-refined crossings,
    the measure the sign solvers balance; u is certified when the two
    differ by at most 1e-12 |Omega|.
    """
    grid = u.grid
    signs, marks = _level_sets(grid, u.values)
    seglen = np.diff(grid.weight_primitive(marks))
    pos = grid.surface * float(seglen[signs > 0].sum())
    neg = grid.surface * float(seglen[signs < 0].sum())
    return BalancedFunction(u, pos, neg, abs(pos - neg) <= 1e-12 * grid.domain_measure)


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
    """All sign-change radii of the nodal values, cubic-refined.

    In each cell where vals >= 0 flips, the crossing is the root of the
    local cubic nearest the cell's left node; a cubic with no real root in
    the cell (possible only at rounding level) falls back to the chord.
    """
    nonneg = vals >= 0.0
    cells = np.nonzero(nonneg[:-1] != nonneg[1:])[0]
    starts, coeffs = local_cubic(vals, cells)
    roots = []
    for i, s0, c in zip(cells, starts, coeffs):
        left = i - s0  # the cell is t in [left, left + 1]
        inside = [
            z.real - left for z in np.roots(c[::-1]) if abs(z.imag) < 1e-8 and -1e-8 <= z.real - left <= 1.0 + 1e-8
        ]
        t = min(inside, key=abs) if inside else vals[i] / (vals[i] - vals[i + 1])
        roots.append(float(grid.r[i] + t * grid.h))
    return roots


def _level_sets(grid: RadialGrid, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The intervals between the crossings of vals: (signs, marks), where
    vals has sign signs[k] on (marks[k], marks[k + 1]) and vals >= 0 counts
    as positive."""
    cuts = _crossing_radii(grid, vals)
    lead = 1.0 if vals[0] >= 0 else -1.0
    return lead * (-1.0) ** np.arange(len(cuts) + 1), np.array([0.0] + cuts + [grid.length])


def _subcell_balance_shift(grid: RadialGrid, vals: np.ndarray) -> float:
    """Constant c balancing the measures of {u + c > 0} and {u + c < 0}
    with the level sets read from the cubic interpolant.

    The nodal weighted median pins the interface to a node, an O(h)
    placement error the sign solvers cannot afford; the interpolated
    balance puts the fixed-point interface at the exact measure-median
    radius.  The map c -> signed measure difference is monotone, so
    solve_increasing converges; data it cannot bracket (a constant, which
    no shift makes change sign) falls back to the nodal median.
    """

    def imbalance(c: float) -> float:
        signs, marks = _level_sets(grid, vals + c)
        return float((signs * np.diff(grid.weight_primitive(marks))).sum())

    lo, hi = -float(np.max(vals)), -float(np.min(vals))
    # the shift moves values of size ||u||_inf: a few of their float spacings
    # resolve it, and a root near zero is not chased into tiny floats
    width = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    try:
        lo, hi = solve_increasing(imbalance, lo, hi, width=width)
    except BracketError:
        return balanced_shift(grid, vals)
    return 0.5 * (lo + hi)


def _l1_sharp(grid: RadialGrid, vals: np.ndarray) -> float:
    """L^1 norm split at the sign changes.

    The plain quadrature of |u| loses two orders at the interface corner;
    integrating the smooth cumulative antiderivative of u between
    cubic-refined roots keeps fourth order.
    """
    cuts = np.array(_crossing_radii(grid, vals))
    if not cuts.size:
        return grid.lp_norm_values(vals, 1)
    cum = grid.cumulative_weighted(vals)
    cells = np.clip(np.searchsorted(grid.r, cuts) - 1, 0, grid.n - 1)
    starts, c = local_cubic(cum, cells)
    t = (cuts - grid.r[starts]) / grid.h
    at_cuts = ((c[:, 3] * t + c[:, 2]) * t + c[:, 1]) * t + c[:, 0]
    values = np.concatenate(([cum[0]], at_cuts, [cum[-1]]))
    return grid.surface * float(np.abs(np.diff(values)).sum())


def _solve_step(grid: RadialGrid, vals: np.ndarray) -> np.ndarray:
    """K applied to sign(u), the step integrated exactly.

    A nodal +-1 pattern misplaces the true step by up to half a cell; since
    the data is piecewise constant by structure, the operator is instead
    evaluated in closed form at the cubic-refined crossing radii of u.  With
    H the flux int_0^r s^(dim-1) (step - mean) ds, K step = Phi H -
    int_0^r Phi dH before the mean is removed, and both integrals are
    differences of the grid's elementary primitives W and G.
    """
    signs, marks = _level_sets(grid, vals)
    if len(signs) == 1:
        raise NumericalFailure("sign data does not change sign; the iterate degenerated")
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
    a sign pattern recurs after more than one sweep and NumericalFailure
    when w is not finite.
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
        if not np.all(np.isfinite(w)):
            raise NumericalFailure(f"sweep {it} produced a non-finite iterate")
        u_new = w + _subcell_balance_shift(grid, w)
        l1_step = grid.lp_norm_values(u_new - u, 1)
        u = u_new
        if l1_step <= opts.tol * max(1.0, grid.lp_norm_values(u, 1)):
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
    derivatives jump and nodal finite differences cannot vanish.  converged
    reads the loop settling, the balance certificate and residual_v; residual_u
    is not gated (at q = 0.1, N = 2..6, n = 2000 it is 5.9e-2 to 7.6e-2 of max |v|^q).
    """
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    opts = opts or SolverOptions()

    def step(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = _solve_step(grid, u)
        kappa, power, _ = kappa_shift(grid, v, q)
        # for q < 1 the kappa root carries a nodal Hoelder floor; project the
        # leftover mean so the Green solve sees compatible data
        power -= grid.mean_values(power)
        # values by keyword: perfbench's tracer reads a second positional argument as a flag
        return solve_neumann(grid, values=power), v + kappa

    u, v, iters, ok = _sign_fixed_point(grid, step, opts)
    _log.debug("sign solve q=%g, N=%d on n=%d: %d iterations, settled=%s", q, grid.dim, grid.n, iters, ok)
    if u[0] < 0:
        u, v = -u, -v
    # Lambda = ||Lap u||_beta / ||u||_1 with Lap u = -|v|^(q-1) v
    beta_int = grid.integrate_values(np.abs(v) ** (q + 1.0))
    l1 = _l1_sharp(grid, u)
    lam = beta_int ** (q / (q + 1.0)) / l1
    c = c_from_lambda(ExponentPair(0.0, q, grid.dim), lam)
    c_energy = q / (q + 1.0) * beta_int - l1

    signs = _signs(u)
    smooth = ~_interface_mask(signs)
    res_u_all = np.abs(-discrete_radial_laplacian(grid, u) - _signed_power(v, q))
    res_v_all = np.abs(-discrete_radial_laplacian(grid, v) - signs)
    res_u = float(res_u_all[smooth].max())
    res_v = float(res_v_all[smooth].max())
    cuts = _crossing_radii(grid, u)
    u = GridFunction(grid, u)
    converged = ok and certify_balanced(u).certified and res_v <= RESIDUAL_TOL
    return SolutionReport(
        u=u,
        v=GridFunction(grid, v),
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
    return GridFunction(grid, u), -0.5 * _l1_sharp(grid, u)
