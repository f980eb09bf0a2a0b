"""The p = 0 problems: sign nonlinearity and balanced level sets.

When the first exponent degenerates to zero the system becomes
-Lap u = |v|^(q-1) v, -Lap v = sign(u), whose natural constraint is the
balanced class (positive and negative level sets of equal measure) instead
of a vanishing power-mean.  The eigenvalue generalizes to
Lambda = ||Lap u||_beta / ||u||_1 over balanced u, and the level satisfies
Lambda^(-(q+1)) = -(q+1) c.  Both the coupled problem and the scalar limit
-Lap u = sign(u) (reached when q also degenerates) are fixed points of the
balanced-level-set map u -> K(data of sign u) + balancing constant.  On a
radial domain the least-energy solution is decreasing and changes sign
once, at the radius a = L 2^(-1/N) that halves the measure, so its sign is
the step +1 on r < a, -1 on r > a, and one application of the map to that
step is the solution: no iteration runs, and `iterations` reads 1.

Level sets are measured below the grid scale, in one way throughout: the
crossings of u are the roots of its four-node local cubic, and {u >= 0},
{u < 0} are unions of the intervals between them, each of exact measure
sigma_N (W(b) - W(a)).  The constructed u is shifted so that its local
cubic vanishes at a, and the fixed-point certificate reads it back: u
changes sign exactly once and certify_balanced certifies its level sets,
so its sign is the step it was built from.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dual import RESIDUAL_TOL, SolutionReport
from .exponents import ExponentPair, c_from_lambda
from .greens import NumericalFailure, _signed_power, kappa_shift, solve_neumann
from .greens import balanced_shift  # noqa: F401  -- unused; perfbench's tracer still patches sign.balanced_shift
from .grid import GridFunction, RadialGrid, discrete_radial_laplacian, local_cubic

__all__ = [
    "BalancedFunction",
    "certify_balanced",
    "solve_sign_system",
    "solve_scalar_sign",
]

SIGN_BAND = 1e-10  # zero band, relative to the sup norm

_log = logging.getLogger(__name__)


@dataclass
class BalancedFunction:
    """A grid function with certified balanced level sets."""

    u: GridFunction
    positive_mass: float
    negative_mass: float
    certified: bool


def _signs(values: np.ndarray) -> np.ndarray:
    """Nodewise sign with a zero band |u| <= 1e-10 ||u||_inf.

    The relative band keeps rounding-level values at the interface out of
    the pattern.
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


def _cubic_at(grid: RadialGrid, vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The local cubics of vals evaluated at the radii x."""
    cells = np.clip(np.searchsorted(grid.r, x) - 1, 0, grid.n - 1)
    starts, c = local_cubic(vals, cells)
    t = (x - grid.r[starts]) / grid.h
    return ((c[:, 3] * t + c[:, 2]) * t + c[:, 1]) * t + c[:, 0]


def _level_sets(grid: RadialGrid, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The intervals between the crossings of vals: (signs, marks), where
    vals has sign signs[k] on (marks[k], marks[k + 1]) and vals >= 0 counts
    as positive."""
    cuts = _crossing_radii(grid, vals)
    lead = 1.0 if vals[0] >= 0 else -1.0
    return lead * (-1.0) ** np.arange(len(cuts) + 1), np.array([0.0] + cuts + [grid.length])


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
    values = np.concatenate(([cum[0]], _cubic_at(grid, cum, cuts), [cum[-1]]))
    return grid.surface * float(np.abs(np.diff(values)).sum())


def _balanced_radius(grid: RadialGrid) -> float:
    """a = L 2^(-1/N), the radius that halves the domain's measure."""
    return grid.length * 2.0 ** (-1.0 / grid.dim)


def _zero_at_balance(grid: RadialGrid, vals: np.ndarray) -> np.ndarray:
    """vals shifted by the constant that puts a root of its local cubic at a
    (the interpolating cubic of vals + c is the cubic of vals plus c)."""
    return vals - _cubic_at(grid, vals, np.array([_balanced_radius(grid)]))[0]


def _certified(u: GridFunction) -> bool:
    """The fixed-point certificate: u changes sign exactly once, between
    balanced level sets, so its interface is at a and its sign is the step
    (or its negative) that u was built from."""
    return len(_crossing_radii(u.grid, u.values)) == 1 and certify_balanced(u).certified


def _step_potential(grid: RadialGrid) -> np.ndarray:
    """K applied to the balanced step, +1 on r < a and -1 on r > a.

    The step is integrated exactly rather than sampled at the nodes, which
    would misplace it by up to half a cell.  With H the flux
    int_0^r s^(dim-1) (step - mean) ds, K step = Phi H - int_0^r Phi dH
    before the mean is removed, and both integrals are differences of the
    grid's elementary primitives W and G.
    """
    a = _balanced_radius(grid)
    # rows W and G, at the nodes and at a; both increase from 0 at the origin,
    # so int_0^r step dW = 2 W(min(r, a)) - W(r), and likewise for G
    nodes = np.stack([grid.weight_primitive(grid.r), grid.kernel_primitive(grid.r)])
    at_a = np.array([grid.weight_primitive(a), grid.kernel_primitive(a)])[:, None]
    integrals = 2.0 * np.minimum(nodes, at_a) - nodes
    # the step's mean, int_0^L step dW / W(L), zero up to rounding, is removed as a constant
    flux, kernel_flux = integrals - integrals[0, -1] / nodes[0, -1] * nodes
    out = grid.phi * flux - kernel_flux
    return out - grid.mean_values(out)


def solve_sign_system(q: float, grid: RadialGrid) -> SolutionReport:
    """Solve -Lap u = |v|^(q-1) v, -Lap v = sign(u) with balanced u.

    One application of the balanced-level-set map to the step: v is the
    step's potential plus the q-normalizing kappa root, and u is the Green
    solve of |v|^(q-1) v, shifted so that its local cubic vanishes at a.
    Raises NumericalFailure when the Green solve is not finite and
    ValueError when the grid is too coarse to leave a node for the
    residuals.  Residuals are sup norms away from the interface, where the
    exact solution's second derivatives jump and nodal finite differences
    cannot vanish.  converged reads the fixed-point certificate and
    residual_v; residual_u is not gated (at q = 0.1, N = 2..6, n = 2000 it
    is 5.9e-2 to 7.6e-2 of max |v|^q).
    """
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    v = _step_potential(grid)
    kappa, power, _ = kappa_shift(grid, v, q)
    v = v + kappa
    # for q < 1 the kappa root carries a nodal Hoelder floor; project the
    # leftover mean so the Green solve sees compatible data
    power -= grid.mean_values(power)
    # values by keyword: perfbench's tracer reads a second positional argument as a flag
    u = solve_neumann(grid, values=power)
    if not np.all(np.isfinite(u)):
        raise NumericalFailure("the Green solve of |v|^(q-1) v is not finite")
    u = _zero_at_balance(grid, u)
    # Lambda = ||Lap u||_beta / ||u||_1 with Lap u = -|v|^(q-1) v
    beta_int = grid.integrate_values(np.abs(v) ** (q + 1.0))
    if not beta_int > 0:  # the negative origin weights of N >= 3 on a coarse grid
        raise NumericalFailure(f"the quadrature of |v|^(q+1) is {beta_int:.3e}, not positive")
    l1 = _l1_sharp(grid, u)
    lam = beta_int ** (q / (q + 1.0)) / l1
    c = c_from_lambda(ExponentPair(0.0, q, grid.dim), lam)
    c_energy = q / (q + 1.0) * beta_int - l1

    signs = _signs(u)
    smooth = ~_interface_mask(signs)
    if not smooth.any():
        raise ValueError(f"n = {grid.n} is too coarse for the residuals: every node is in the interface band of u")
    res_u = float(np.abs(-discrete_radial_laplacian(grid, u) - _signed_power(v, q))[smooth].max())
    res_v = float(np.abs(-discrete_radial_laplacian(grid, v) - signs)[smooth].max())
    cuts = _crossing_radii(grid, u)
    u = GridFunction(grid, u)
    certified = _certified(u)
    _log.debug("sign solve q=%g, N=%d on n=%d: direct construction, certified=%s", q, grid.dim, grid.n, certified)
    return SolutionReport(
        u=u,
        v=GridFunction(grid, v),
        lam=lam,
        D=1.0 / lam,
        c=c,
        c_energy=c_energy,
        residual_u=res_u,
        residual_v=res_v,
        iterations=1,
        converged=certified and res_v <= RESIDUAL_TOL,
        zero_radius=cuts[0] if cuts else None,
    )


def solve_scalar_sign(grid: RadialGrid) -> tuple[GridFunction, float]:
    """Least-energy solution of -Lap u = sign(u) and its level.

    The step's potential, shifted so that its local cubic vanishes at a.
    At the fixed point the level reduces to -(1/2) int |u|.  Raises
    NumericalFailure when the fixed-point certificate fails.
    """
    u = GridFunction(grid, _zero_at_balance(grid, _step_potential(grid)))
    if not _certified(u):
        raise NumericalFailure("the step potential fails the fixed-point certificate")
    return u, -0.5 * _l1_sharp(grid, u.values)
