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
so its sign is the step it was built from.  A solve finds the crossings of
u once, and that one list gives the certificate, the zero radius, the
sharp L^1 norm and the band of nodes within 3h of a crossing that the v
residual leaves out; one more pass, over v, gives the u residual's band.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dual import SolutionReport
from .exponents import ExponentPair, c_from_lambda
from .greens import NumericalFailure, kappa_shift, solve_neumann
from .greens import balanced_shift  # noqa: F401  -- unused; perfbench's tracer still patches sign.balanced_shift
from .grid import GridFunction, RadialGrid, discrete_radial_laplacian, local_cubic

__all__ = [
    "BalancedFunction",
    "certify_balanced",
    "solve_sign_system",
    "solve_scalar_sign",
]

_log = logging.getLogger(__name__)


@dataclass
class BalancedFunction:
    """A grid function with certified balanced level sets."""

    u: GridFunction
    positive_mass: float
    negative_mass: float
    certified: bool


def certify_balanced(u: GridFunction) -> BalancedFunction:
    """Measure the level sets of u and test balanced-class membership.

    {u >= 0} and {u < 0} are measured between the cubic-refined crossings,
    the measure the sign solvers balance; u is certified when the two
    differ by at most 1e-12 |Omega|.
    """
    return _balanced(u, _crossing_radii(u.grid, u.values))


def _balanced(u: GridFunction, cuts: list[float]) -> BalancedFunction:
    """certify_balanced on the crossings `cuts` of u: u has the sign
    signs[k] on (marks[k], marks[k + 1]), where u >= 0 counts as positive."""
    grid = u.grid
    signs = (1.0 if u.values[0] >= 0 else -1.0) * (-1.0) ** np.arange(len(cuts) + 1)
    seglen = np.diff(grid.weight_primitive(np.array([0.0] + cuts + [grid.length])))
    pos = grid.surface * float(seglen[signs > 0].sum())
    neg = grid.surface * float(seglen[signs < 0].sum())
    return BalancedFunction(u, pos, neg, abs(pos - neg) <= 1e-12 * grid.domain_measure)


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


def _off_crossings(grid: RadialGrid, cuts: list[float]) -> np.ndarray:
    """The nodes farther than 3h from every crossing, where nodal finite
    differences do not see the kink of sign(u): a crossing inside a cell
    leaves out six nodes, one on a node seven.  The 1e-8 cells of slack,
    the crossing search's own tolerance on its cell, count a crossing
    within rounding of a node as on it."""
    keep = np.ones(grid.r.shape, dtype=bool)
    for cut in cuts:
        keep &= np.abs(grid.r - cut) > (3.0 + 1e-8) * grid.h
    return keep


def _l1_sharp(grid: RadialGrid, vals: np.ndarray, cuts: list[float]) -> float:
    """L^1 norm split at the sign changes `cuts` of vals.

    The plain quadrature of |u| loses two orders at the interface corner;
    integrating the smooth cumulative antiderivative of u between
    cubic-refined roots keeps fourth order.
    """
    cuts = np.array(cuts)
    if not cuts.size:
        return grid.lp_norm_values(vals, 1)
    cum = grid.cumulative_weighted(vals)
    values = np.concatenate(([cum[0]], grid.cubic_at(cum, cuts), [cum[-1]]))
    return grid.surface * float(np.abs(np.diff(values)).sum())


def _balanced_radius(grid: RadialGrid) -> float:
    """a = L 2^(-1/N), the radius that halves the domain's measure."""
    return grid.length * 2.0 ** (-1.0 / grid.dim)


def _zero_at_balance(grid: RadialGrid, vals: np.ndarray) -> np.ndarray:
    """vals shifted by the constant that puts a root of its local cubic at a
    (the interpolating cubic of vals + c is the cubic of vals plus c)."""
    return vals - grid.cubic_at(vals, np.array([_balanced_radius(grid)]))[0]


def _certified(u: GridFunction, cuts: list[float]) -> bool:
    """The fixed-point certificate on the crossings `cuts` of u: u changes
    sign exactly once, between balanced level sets, so its interface is at a
    and its sign is the step (or its negative) that u was built from."""
    return len(cuts) == 1 and _balanced(u, cuts).certified


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
    with np.errstate(over="ignore"):  # reported below, not warned
        mean = grid.mean_values(out)
    if not np.isfinite(mean):
        raise NumericalFailure(f"the step potential overflows on length {grid.length:g}")
    return out - mean


def solve_sign_system(q: float, grid: RadialGrid) -> SolutionReport:
    """Solve -Lap u = |v|^(q-1) v, -Lap v = sign(u) with balanced u.

    One application of the balanced-level-set map to the step: v is the
    step's potential plus the q-normalizing kappa root, and u is the Green
    solve of |v|^(q-1) v, shifted so that its local cubic vanishes at a.
    Raises NumericalFailure when the Green solve is not finite and
    ValueError when the grid is too coarse to leave a node for either
    residual.  The crossings of u are found once and give the certificate,
    zero_radius and the sharp L^1 norm in Lambda.  The
    residuals are sup norms that leave out the nodes within 3h of a
    crossing (six, or seven for one on a node) of their right side's
    argument, where that side is not smooth and nodal finite differences
    cannot vanish: the v residual, against sign(u), those of u; the u
    residual, against the kappa root's |v|^(q-1) v, those of v (15h from
    u's on the disk at n = 2000).  converged is the fixed-point certificate;
    u and v are Green solves by construction, so both residuals only report
    the second-order check stencil (2.1e-4 at r = 1 on the disk at n = 50,
    q = 1; for q = 0.1 on N = 2..8 at n = 2000, 4.0e-4 to 5.0e-4 of
    max |v|^q in u), as the dual solver reports an exponent below 1.
    """
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    v = _step_potential(grid)
    kappa, power, _ = kappa_shift(grid, v, q)
    v = v + kappa
    # for q < 1 the kappa root carries a nodal Hoelder floor; the Green
    # solve gets a copy with the leftover mean projected out.  values by
    # keyword: perfbench's tracer reads a second positional argument as a flag
    u = solve_neumann(grid, values=power - grid.mean_values(power))
    u = _zero_at_balance(grid, u)
    # Lambda = ||Lap u||_beta / ||u||_1 with Lap u = -|v|^(q-1) v
    beta_int = grid.integrate_values(np.abs(v) ** (q + 1.0))
    cuts = _crossing_radii(grid, u)
    l1 = _l1_sharp(grid, u, cuts)
    lam = beta_int ** (q / (q + 1.0)) / l1
    c = c_from_lambda(ExponentPair(0.0, q, grid.dim), lam)
    c_energy = q / (q + 1.0) * beta_int - l1

    # each equation's right side has its kink at the other function's crossings
    smooth_u, smooth_v = _off_crossings(grid, _crossing_radii(grid, v)), _off_crossings(grid, cuts)
    if not (smooth_u.any() and smooth_v.any()):
        raise ValueError(f"n = {grid.n} is too coarse for the residuals: every node is in an interface band")
    res_u = float(np.abs(-discrete_radial_laplacian(grid, u) - power)[smooth_u].max())
    res_v = float(np.abs(-discrete_radial_laplacian(grid, v) - np.sign(u))[smooth_v].max())
    u = GridFunction(grid, u)
    certified = _certified(u, cuts)
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
        converged=certified,
        zero_radius=cuts[0] if cuts else None,
    )


def solve_scalar_sign(grid: RadialGrid) -> tuple[GridFunction, float]:
    """Least-energy solution of -Lap u = sign(u) and its level.

    The step's potential, shifted so that its local cubic vanishes at a.
    At the fixed point the level reduces to -(1/2) int |u|.  Raises
    NumericalFailure when the fixed-point certificate fails.
    """
    u = GridFunction(grid, _zero_at_balance(grid, _step_potential(grid)))
    cuts = _crossing_radii(grid, u.values)
    if not _certified(u, cuts):
        raise NumericalFailure("the step potential fails the fixed-point certificate")
    return u, -0.5 * _l1_sharp(grid, u.values, cuts)
