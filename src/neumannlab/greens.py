"""Inverse Neumann Laplacian on radial grids and its normalizing shifts.

solve_neumann realizes K: given mean-zero data h it returns the mean-zero
u with -Lap u = h and u'(0) = u'(L) = 0.  The solve uses the first-order
radial form: u'(r) = -r^(1-N) * int_0^r s^(N-1) h(s) ds followed by a
second cumulative quadrature, so both Neumann conditions hold
automatically once the data is compatible and there is no linear system
to condition at the origin.

kappa_shift finds the constant kappa with int |u + kappa|^(t-1) (u + kappa) = 0
(the K_t normalization) and balanced_shift finds the constant putting a
function into the balanced class (positive and negative level sets of
equal weighted measure), which is the natural normalization for the
sign-nonlinearity limit.  bisect_increasing is the one root finder behind
every monotone scalar normalization of the package.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .grid import GridFunction

__all__ = [
    "CompatibilityError",
    "KappaShiftError",
    "solve_neumann",
    "kappa_shift",
    "balanced_shift",
    "apply_K_t",
    "bisect_increasing",
]

COMPATIBILITY_TOL = 1e-10


class CompatibilityError(ValueError):
    """Data with nonzero mean cannot be inverted; project it first."""


class KappaShiftError(RuntimeError):
    """The normalizing-shift root finder failed to meet its residual target."""


def _green_forward(grid, values: np.ndarray) -> np.ndarray:
    """Nested-quadrature Neumann solve, mean removed, no compatibility check."""
    flux = grid.cumulative_weighted(values)
    slope = np.zeros_like(flux)
    weight = grid.radial_weight
    slope[1:] = -flux[1:] / weight[1:]
    u = grid.cumulative_plain(slope)
    return u - grid.mean_values(u)


def _green_transpose(grid, x: np.ndarray) -> np.ndarray:
    """Transpose of the forward solve as a nodal matrix."""
    y = x - grid.surface * grid.weights * x.sum() / grid.domain_measure
    y = grid.cumulative_plain_adjoint(y)
    z = np.zeros_like(y)
    weight = grid.radial_weight
    z[1:] = -y[1:] / weight[1:]
    return grid.cumulative_weighted_adjoint(z)


def green_apply_symmetric(grid, values: np.ndarray) -> np.ndarray:
    """Green apply symmetrized in the quadrature inner product: the mean of
    the forward solve and its metric adjoint.

    The average makes int f K g = int g K f hold to rounding for arbitrary
    nodal data, which is what makes the discrete dual maximization
    well-posed on coarse grids (the raw nested quadrature is self-adjoint
    only up to truncation).  The price is a boundary-local O(h^2) pointwise
    defect, so this variant backs the dual functional while pointwise
    reconstructions use the raw solve.  Nodes of nonpositive quadrature
    weight keep the forward value; the adjoint carries no information there.
    """
    u1 = _green_forward(grid, values)
    w = grid.weights
    # nodes whose mass is many orders below the bulk would amplify rounding
    # under the w-division; they stay on the forward branch (for interval
    # and disk grids every node clears the cut, so symmetry there is exact)
    mask = np.abs(w) > 1e-9 * np.max(w)
    kt = _green_transpose(grid, np.where(mask, w, 0.0) * values)
    u = u1.copy()
    u[mask] = 0.5 * (u1[mask] + kt[mask] / w[mask])
    u -= grid.mean_values(u)
    return u


def solve_neumann(h: GridFunction, symmetric: bool = False) -> GridFunction:
    """Apply the Neumann Green operator K to mean-zero data.

    Requires |int h| <= 1e-10 * ||h||_1.  Returns the unique mean-zero u
    with -Lap u = h and zero normal derivative at both ends.  With
    symmetric=True the exactly self-adjoint variant backs the solve.
    """
    grid = h.grid
    total = h.integral()
    scale = h.lp_norm(1)
    if abs(total) > COMPATIBILITY_TOL * scale:
        raise CompatibilityError(
            f"incompatible Neumann data: int h = {total:.3e} exceeds {COMPATIBILITY_TOL:.0e} * ||h||_1 = "
            f"{COMPATIBILITY_TOL * scale:.3e}"
        )
    if scale == 0.0:
        return GridFunction(grid, np.zeros_like(h.values))
    apply = green_apply_symmetric if symmetric else _green_forward
    return GridFunction(grid, apply(grid, h.values))


def _signed_power(values: np.ndarray, t: float) -> np.ndarray:
    return np.sign(values) * np.abs(values) ** t


def bisect_increasing(
    fn: Callable[[float], float], lo: float, hi: float, width: float = 0.0
) -> tuple[float, float]:
    """Bracket of the sign change of a nondecreasing fn, found by bisection.

    Needs fn(lo) < 0 <= fn(hi).  Each step keeps the half whose ends still
    straddle the sign change, until the bracket is no wider than `width` or
    its ends are adjacent floats.
    """
    mid = 0.5 * (lo + hi)
    while hi - lo > width and lo < mid < hi:
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo, hi


def kappa_shift(u: GridFunction, t: float) -> float:
    """Constant kappa with int |u + kappa|^(t-1) (u + kappa) = 0.

    The map kappa -> int sign(u + kappa) |u + kappa|^t is continuous and
    nondecreasing, so the root is bracketed by +-||u||_inf and found by
    bisection.
    """
    if not t > 0:
        raise ValueError(f"shift exponent must be positive, got {t}")
    grid = u.grid
    vals = u.values
    bound = float(np.max(np.abs(vals)))
    if bound == 0.0:
        return 0.0

    def moment(kappa: float) -> float:
        return grid.integrate_values(_signed_power(vals + kappa, t))

    lo, hi = -bound, bound
    if moment(lo) > 0 or moment(hi) < 0:  # can only happen through rounding at the bracket ends
        lo, hi = -2.0 * bound, 2.0 * bound
    # a few float spacings at ||u||_inf meet tol when the moment is smooth
    lo, hi = bisect_increasing(moment, lo, hi, 4.0 * np.finfo(float).eps * bound)
    tol = 1e-12 * bound**t * grid.domain_measure
    # for t < 1 a node value near the root makes the moment steeper than
    # that spacing resolves; the root then needs adjacent floats
    kappa = 0.5 * (lo + hi)
    if abs(moment(kappa)) > tol:
        lo, hi = bisect_increasing(moment, lo, hi)
        kappa = 0.5 * (lo + hi)
    # for t < 1 a node value can land exactly on the root, where the
    # integrand is only Hoelder; a bracket at rounding width is then the
    # best representable answer even though the moment cannot reach tol
    if abs(moment(kappa)) > max(tol, 1e-300) and hi - lo > 8.0 * np.finfo(float).eps * bound:
        raise KappaShiftError(
            f"normalizing shift did not converge (residual {moment(kappa):.3e}, target {tol:.3e})"
        )
    return float(kappa)


def balanced_shift(u: GridFunction) -> float:
    """Constant c making the level sets of u + c balanced.

    The weighted measures of {u + c > 0} and {u + c < 0} must differ by at
    most the measure of the zero band.  c = -m where m is a weighted median
    of the nodal values; plateaus make the admissible interval wide, and
    its midpoint is returned so the output is deterministic.
    """
    grid = u.grid
    w = grid.weights
    vals = u.values
    order = np.argsort(vals, kind="stable")
    vs = vals[order]
    ws = w[order]
    total = float(ws.sum())
    half = 0.5 * total + 1e-15 * total
    cum = np.concatenate(([0.0], np.cumsum(ws)))
    below = cum[np.searchsorted(vs, vs, side="left")]  # mass strictly below each value
    above = total - cum[np.searchsorted(vs, vs, side="right")]  # mass strictly above
    # smallest value with mass(> m) <= half, largest with mass(< m) <= half
    m_lo = vs[np.nonzero(above <= half)[0][0]]
    m_hi = vs[np.nonzero(below <= half)[0][-1]]
    return -0.5 * float(m_lo + m_hi)


def apply_K_t(h: GridFunction, t: float) -> GridFunction:
    """K_t h = K h + kappa_t: the Neumann solve renormalized so that the
    t-mean int |w|^(t-1) w of the output vanishes."""
    w = solve_neumann(h)
    kappa = kappa_shift(w, t)
    return w.shifted(kappa)
