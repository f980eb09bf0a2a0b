"""Inverse Neumann Laplacian on radial grids and its normalizing shifts.

Every function here works on nodal arrays: it takes (grid, values) and
returns an array or a float; GridFunction is built only where a result
leaves the library.

solve_neumann realizes K: given mean-zero data h it returns the mean-zero
u with -Lap u = h and u'(0) = u'(L) = 0.  The radial Neumann kernel is
-Phi(min(r, s)) s^(N-1) with Phi(x) = int_x^L t^(1-N) dt, so the discrete
K is semiseparable and green_apply, the unchecked kernel behind
solve_neumann, applies it in O(n) with two cumulative sums, taken in one
complex pass (Vandebril, Van Barel and Mastronardi, Matrix Computations and
Semiseparable Matrices, 2008).  It is self-adjoint in the quadrature inner
product by construction and needs no division by the quadrature weights.
The dual loop calls green_apply directly, on best responses that are
mean-zero by construction.

kappa_shift finds the constant kappa with int |u + kappa|^(t-1) (u + kappa) = 0
(the K_t normalization) and hands back the signed power it evaluated there,
so a caller never forms that n-point power twice.  It has one search and
one residual target for every exponent t != 1: it evaluates the caller's
guess first (a root the solve already holds), or -mean(u) without one,
against the smaller of the moment's own mass and a sup-scaled bound, and on
a miss takes guarded Newton steps from there on the side that holds the
root.  balanced_shift finds the constant putting a function into the
balanced class (positive and negative level sets of equal weighted
measure) at the nodal weighted median; the sign solvers build their
solution with its interface at the balanced radius instead, and no solver
calls it.  solve_increasing, a safeguarded Newton-bisection, is the
bracketing root finder behind kappa_shift.  It has one calling convention,
fn(x) -> (value, slope) with a NaN slope allowed, and evaluates an end of
its bracket only when it closes on one that no iterate replaced.  The
genus bounds' constraint scale (experiments._constraint_scale) runs its
own row-wise Newton iteration.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "CompatibilityError",
    "NumericalFailure",
    "KappaShiftError",
    "solve_neumann",
    "kappa_shift",
    "ShiftRoot",
    "balanced_shift",
    "solve_increasing",
    "BracketError",
]

COMPATIBILITY_TOL = 1e-10


class CompatibilityError(ValueError):
    """Data with nonzero mean cannot be inverted; project it first."""


class NumericalFailure(RuntimeError):
    """A solver or root finder failed on valid input; the CLI exits 2 on it."""


class KappaShiftError(NumericalFailure):
    """The normalizing-shift root finder failed to meet its residual target."""


class BracketError(ValueError):
    """The root finder's bracket holds no sign change."""


def green_apply(grid, values: np.ndarray) -> np.ndarray:
    """The Green operator K on nodal data, no compatibility check.

    K x = P(Phi * cumsum(w x) - cumsum(Phi w x) + d x), with w the
    quadrature weights, Phi = grid.phi, d = grid.green_diagonal and P the
    removal of the mean.  On mean-zero x the sums equal
    -sum_j w_j Phi(min(r_i, r_j)) x_j, and d corrects the quadrature at the
    kink of that kernel; P, the kernel and any diagonal are self-adjoint in
    the quadrature inner product, so K is too.  Sums from the origin, not
    tails, keep the large Phi near the origin off the rounding of the total.
    Both sums run in one pass, as the real and imaginary parts of one
    complex cumsum: complex addition adds the parts separately in the same
    order, so the result equals two real cumsums bit for bit.  The sums fill
    one complex buffer, and the mean is removed in place.
    """
    sums = np.empty(len(values), complex)
    np.multiply(grid.weights, values, out=sums.real)
    np.multiply(grid.phi, sums.real, out=sums.imag)
    sums.cumsum(out=sums)
    u = grid.phi * sums.real - sums.imag + grid.green_diagonal * values
    u -= grid.surface * float(grid.weights @ u) / grid.domain_measure  # grid.mean_values(u)
    return u


def solve_neumann(grid, values: np.ndarray) -> np.ndarray:
    """Apply the Neumann Green operator K to mean-zero nodal data h.

    Requires |int h| <= 1e-10 * ||h||_1.  Returns the unique mean-zero u
    with -Lap u = h and zero normal derivative at both ends.
    """
    total = grid.integrate_values(values)
    scale = grid.lp_norm_values(values, 1)
    if abs(total) > COMPATIBILITY_TOL * scale:
        raise CompatibilityError(
            f"incompatible Neumann data: int h = {total:.3e} exceeds {COMPATIBILITY_TOL:.0e} * ||h||_1 = "
            f"{COMPATIBILITY_TOL * scale:.3e}"
        )
    if scale == 0.0:
        return np.zeros_like(values)
    return green_apply(grid, values)


def _signed_power(values: np.ndarray, t: float) -> np.ndarray:
    """sign(x) |x|^t for t > 0 in one pass, as np.copysign(|x|^t, x); -0.0 gives -0.0."""
    return np.copysign(np.abs(values) ** t, values)


def solve_increasing(
    fn: Callable[[float], tuple[float, float]], lo: float, hi: float, tol: float = 0.0, start: float = math.nan
) -> tuple[float, float]:
    """Root of a nondecreasing f on [lo, hi]: safeguarded Newton-bisection.

    fn(x) returns (f(x), f'(x)).  The first point is `start` if it lies
    inside the bracket, else the midpoint.  Each evaluation replaces the
    end on its side, and the next point is the Newton step from it if that
    lies inside the bracket and is at most half as long as the step before,
    else the midpoint (rtsafe, Press et al., Numerical Recipes, 9.4); a
    slope that is not positive, NaN included, gives no Newton step.
    Returns (x, x) for the first x with |f(x)| <= tol, else the adjacent
    floats across the sign change, which for a monotone f are the pair
    plain bisection reaches.  An end is evaluated only if the bracket
    closes on one that no iterate replaced; BracketError if f has no sign
    change there.
    """
    flo, fhi = -math.inf, math.inf  # unevaluated ends
    step = hi - lo  # so a first Newton step may span up to half the bracket
    x = start if lo < start < hi else 0.5 * (lo + hi)
    while lo < x < hi:
        fx, slope = fn(x)
        if abs(fx) <= tol:
            return x, x
        if fx < 0.0:
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        newton = x - fx / slope if slope > 0.0 else math.nan
        if lo < newton < hi and abs(newton - x) <= 0.5 * step:
            step, x = abs(newton - x), newton
        else:
            mid = 0.5 * (lo + hi)
            step, x = abs(mid - x), mid
    if flo == -math.inf:
        flo = fn(lo)[0]
        if abs(flo) <= tol:
            return lo, lo
    if fhi == math.inf:
        fhi = fn(hi)[0]
        if abs(fhi) <= tol:
            return hi, hi
    if not flo < 0.0 < fhi:
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]: fn = {flo:.3e}, {fhi:.3e}")
    return lo, hi


class ShiftRoot(NamedTuple):
    """A kappa_shift root with what its search already computed."""

    kappa: float
    power: np.ndarray  # sign(u + kappa) |u + kappa|^t, bit for bit _signed_power(u + kappa, t)
    evaluations: int  # moment evaluations the root took (0 for the closed form at t = 1)


def kappa_shift(grid, values: np.ndarray, t: float, guess: float | None = None) -> ShiftRoot:
    """Constant kappa with int |u + kappa|^(t-1) (u + kappa) = 0, u = values.

    Returns the root together with the signed power |u + kappa|^(t-1) (u + kappa)
    evaluated there and the number of moment evaluations.  At t = 1 the
    moment int (u + kappa) is affine and the root is -mean(u) in closed form.
    Otherwise the moment M(kappa) = int sign(u + kappa) |u + kappa|^t is
    continuous and nondecreasing, and one rule serves every t.  The first
    evaluation is at kappa0: `guess`, a root the caller already holds for
    the same exponent, when it lies strictly inside +-2 ||u||_inf (where
    every node value of u + kappa has one sign), else -mean(u).  Every root,
    from a guess or not, has one residual target,
    1e-12 min(int |u + kappa0|^t, ||u||_inf^t |Omega|).  The moment's own
    mass, read off that evaluation's power array, is the smaller when u
    peaks at the origin of a ball, where the weight r^(N-1) vanishes; the
    sup-scaled bound is the smaller when kappa0 lies far from the root and
    a large t inflates that mass.  A root met at kappa0, zero data included,
    costs M and that mass alone.  On a miss the bracket is the side of
    kappa0 holding the root, up to +-2 ||u||_inf, and solve_increasing
    takes Newton-bisection steps from the Newton step at kappa0, with
    M' = t int |u + kappa|^(t-1) from the power array of the same
    evaluation.  For t < 1, M' is infinite at a nodal zero, and a node value
    near the root makes M steeper than float spacing resolves; the root is
    then the adjacent pair of floats across which M changes sign, and as
    solve_increasing signed both, the check evaluates M once more, at the
    float next to kappa outside the pair.  Raises KappaShiftError when u or
    M is not finite, when M has no sign change on the bracket or when
    kappa meets neither rule.
    """
    if not t > 0:
        raise ValueError(f"shift exponent must be positive, got {t}")
    if t == 1.0:
        kappa = -grid.mean_values(values)
        if not math.isfinite(kappa):
            raise KappaShiftError(f"mean of u is not finite: {-kappa} (t = 1)")
        return ShiftRoot(kappa, values + kappa, 0)
    # the last evaluation on each side of the root, keyed by M < 0: the
    # bracket ends solve_increasing keeps, so the root's power is one of them
    ends: dict[bool, tuple[float, np.ndarray]] = {}
    evaluations = 0

    def moment(kappa: float) -> tuple[float, np.ndarray, np.ndarray]:
        """M(kappa) with the power |u + kappa|^t and |u + kappa| it formed."""
        nonlocal evaluations
        evaluations += 1
        x = values + kappa
        size = np.abs(x)
        power = size**t
        signed = np.copysign(power, x)
        total = grid.integrate_values(signed)
        if not math.isfinite(total):
            raise KappaShiftError(
                f"moment at kappa = {kappa:.3e} is not finite: {total}"
                f" (||u||_inf = {float(np.max(np.abs(values))):.3e}, t = {t})"
            )
        ends[total < 0.0] = (kappa, signed)
        return total, power, size

    def slope(power: np.ndarray, size: np.ndarray) -> float:
        # a node at x = 0 makes the slope nan, which solve_increasing skips
        return t * grid.integrate_values(power / size)

    def with_slope(kappa: float) -> tuple[float, float]:
        total, power, size = moment(kappa)
        return total, slope(power, size)

    # overflow gives inf (the moment then raises) instead of a warning or OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        sup = float(np.abs(values).max())
        bound = 2.0 * sup
        # -mean(u) is the root at t = 1
        kappa0 = guess if guess is not None and -bound < guess < bound else -grid.mean_values(values)
        total, power, size = moment(kappa0)
        tol = min(1e-12 * grid.integrate_values(power), 1e-12 * np.power(sup, t) * grid.domain_measure)
        if abs(total) <= tol:
            return ShiftRoot(kappa0, ends[total < 0.0][1], evaluations)
        lo, hi = (kappa0, bound) if total < 0.0 else (-bound, kappa0)
        m1 = slope(power, size)
        start = kappa0 - total / m1 if m1 > 0.0 else math.nan
        try:
            lo, hi = solve_increasing(with_slope, lo, hi, tol, start=start)
        except BracketError as exc:
            raise KappaShiftError(f"normalizing shift (t = {t}): {exc}") from exc
        # kappa is lo or hi, and each is the last evaluation on its side
        kappa = 0.5 * (lo + hi)
        root_power = next(signed for at, signed in ends.values() if at == kappa)
        # lo == hi met tol; adjacent ends must have the sign change across
        # kappa, and solve_increasing already signed the end that is not kappa
        if lo < hi and not (
            moment(np.nextafter(lo, -np.inf))[0] <= 0.0 if kappa == lo else moment(np.nextafter(hi, np.inf))[0] >= 0.0
        ):
            raise KappaShiftError(
                f"normalizing shift did not converge (residual {moment(kappa)[0]:.3e}, target {tol:.3e})"
            )
    return ShiftRoot(float(kappa), root_power, evaluations)


def balanced_shift(grid, values: np.ndarray) -> float:
    """Constant c making the level sets of u + c balanced, u = values.

    The weighted measures of {u + c > 0} and {u + c < 0} must differ by at
    most the measure of the zero band.  c = -m where m is a weighted median
    of the nodal values; plateaus make the admissible interval wide, and
    its midpoint is returned so the output is deterministic.
    """
    order = np.argsort(values, kind="stable")
    vs = values[order]
    ws = grid.weights[order]
    total = float(ws.sum())
    half = 0.5 * total + 1e-15 * total
    cum = np.concatenate(([0.0], np.cumsum(ws)))
    below = cum[np.searchsorted(vs, vs, side="left")]  # mass strictly below each value
    above = total - cum[np.searchsorted(vs, vs, side="right")]  # mass strictly above
    # smallest value with mass(> m) <= half, largest with mass(< m) <= half
    m_lo = vs[np.nonzero(above <= half)[0][0]]
    m_hi = vs[np.nonzero(below <= half)[0][-1]]
    return -0.5 * float(m_lo + m_hi)

