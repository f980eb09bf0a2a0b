"""Closed-form radial solutions of the biharmonic sign problem on the unit ball.

The problem Lap^2 u = sign(u) with u'(r) = (Lap u)'(r) = 0 at r = 0, 1 has,
in the radial class, a decreasing solution with a single zero at
a = 2^(-1/N).  Solving the two nested Poisson problems in the radial
variable gives piecewise elementary formulas for u and v = -Lap u, the
radial least-energy value h1(N) in closed form, and the energy h2(N) of
an explicit nonradial competitor t (r - r^2/2) cos(theta_1).  h2(N) < h1(N)
certifies that least-energy solutions are not radial: by direct evaluation
for moderate N, and through an elementary inequality chain for N >= 9.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "zero_radius",
    "eval_u",
    "eval_v",
    "scalar_profile",
    "m_rad",
    "m_rad_quadrature",
    "competitor_energy",
    "competitor_optimal_t",
    "h2",
    "table1",
    "Table1Row",
    "TABLE1_PRINTED",
    "N2_PRINTED",
    "asymptotic_bound",
    "AsymptoticBound",
    "symmetry_breaking_verdict",
    "SymmetryVerdict",
]

def zero_radius(N: int) -> float:
    """Radius a = 2^(-1/N) where the radial solution changes sign."""
    if N < 2:
        raise ValueError("zero radius defined for N >= 2")
    return 2.0 ** (-1.0 / N)


# -- the nested solves: v = -Lap u solves -Lap v = sign(u) -------------------


def _v_inner(N: int, r):
    if N == 2:
        return (-4.0 * r**2 - 1.0 + math.log(16.0)) / 16.0
    z = 4.0 ** (-1.0 / N)
    return (0.5 * N * (z * (3.0 * N + 2.0) - N * (r**2 + 2.0)) + 2.0 * r**2) / (N * (N**2 - 4.0))


def _v_outer(N: int, r):
    if N == 2:
        return (4.0 * r**2 - 8.0 * np.log(r) - 5.0) / 16.0
    c = 2.0 ** (-(N + 2.0) / N)
    f = 4.0 ** (1.0 / N)
    return -(
        -((N + 2.0) * r ** (2.0 - N))
        - c * N * (f * N * (r**2 - 2.0) + N - 2.0)
        + 2.0 * r**2
    ) / (N * (N**2 - 4.0))


def _u_inner(N: int, r):
    if N == 2:
        return (2.0 * r**2 - 1.0) * (2.0 * r**2 + 3.0 - 8.0 * math.log(2.0)) / 256.0
    f = 4.0 ** (1.0 / N)
    return (
        2.0 ** (-4.0 / N - 3.0)
        * (f * r**2 - 1.0)
        * (f * ((N - 2.0) * r**2 + 4.0 * N) - 5.0 * N - 6.0)
        / (N * (N**2 - 4.0))
    )


def _u_outer(N: int, r):
    if N == 2:
        return (
            -4.0 * r**4
            - 12.0 * r**2
            + 32.0 * r**2 * np.log(r)
            + 8.0 * np.log(r)
            + 7.0
            + math.log(4096.0)
        ) / 256.0
    if N == 4:
        s2 = math.sqrt(2.0)
        return -(
            2.0 * r**6
            + 2.0 * (s2 - 8.0) * r**4
            + r**2 * (24.0 * np.log(r) + 8.0 * s2 - 7.0 + math.log(64.0))
            + 2.0 * s2
        ) / (384.0 * r**2)
    den = 8.0 * (N - 4.0) * (N - 2.0) * N * (N + 2.0)
    t1 = (
        -(4.0 ** ((N - 1.0) / N)) * (N - 4.0) * r ** (2.0 - N)
        + 4.0 * (N + 2.0) * r ** (4.0 - N)
        - (N - 4.0) * (N - 2.0) * r**4
    )
    t2 = 2.0 ** ((N - 2.0) / N) * (N - 4.0) * ((2.0 ** ((N + 2.0) / N) - 1.0) * N + 2.0) * r**2 + 16.0 ** (
        -1.0 / N
    ) * (3.0 * (N - 6.0) * N - 4.0 ** (1.0 / N + 1.0) * (N - 4.0) * N - 24.0)
    return (t1 + t2) / den


def _piecewise(N: int, r, inner, outer):
    arr = np.asarray(r)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    real = arr.real if np.iscomplexobj(arr) else arr
    if np.any(real < -1e-14) or np.any(real > 1.0 + 1e-14):
        raise ValueError("radius outside [0, 1]")
    a = zero_radius(N)
    out = np.empty_like(arr, dtype=arr.dtype if np.iscomplexobj(arr) else float)
    mask = real <= a
    if mask.any():
        out[mask] = inner(N, arr[mask])
    if (~mask).any():
        out[~mask] = outer(N, arr[~mask])
    return out[0] if scalar else out


def eval_u(N: int, r):
    """Radial profile u(r) of the biharmonic sign problem, zero at 2^(-1/N).

    Accepts scalars or arrays; complex arguments are allowed so derivatives
    can be taken by complex step.
    """
    return _piecewise(N, r, _u_inner, _u_outer)


def eval_v(N: int, r):
    """v(r) = -Lap u(r); continuous across the sign-change radius."""
    return _piecewise(N, r, _v_inner, _v_outer)


def _scalar_inner(N: int, r):
    a = zero_radius(N)
    return (a**2 - r**2) / (2.0 * N)


def _scalar_outer(N: int, r):
    if N == 2:
        return r**2 / 4.0 - np.log(r) / 2.0 - 1.0 / 8.0 - math.log(4.0) / 8.0
    return (
        2.0 * r ** (2.0 - N) / (N - 2.0) - 4.0 ** (-1.0 / N) * (N + 2.0) / (N - 2.0) + r**2
    ) / (2.0 * N)


def scalar_profile(N: int, r):
    """Radial solution of the second-order sign problem -Lap u = sign(u)
    on the unit ball, decreasing with its zero at 2^(-1/N) and balanced
    level sets."""
    return _piecewise(N, r, _scalar_inner, _scalar_outer)


# -- energies -----------------------------------------------------------------


def p_poly(N: int) -> float:
    """Cubic-in-N coefficient polynomial entering h1(N) for N != 2, 4."""
    f1 = 4.0 ** (1.0 / N)
    f2 = 16.0 ** (1.0 / N)
    return (
        (f1 - 1.0) ** 2 * N**3
        + 3.0 * (f2 - 1.0) * N**2
        + (2.0 ** (2.0 / N + 5.0) - 5.0 * 2.0 ** ((N + 4.0) / N) - 34.0) * N
        - 24.0
    )


def m_rad(N: int) -> float:
    """Radial least-energy value h1(N) = (1/2) int |Lap u|^2 - int |u| in closed form."""
    if N < 2:
        raise ValueError("m_rad defined for N >= 2")
    if N == 2:
        return math.pi * (24.0 * math.log(2.0) - 19.0) / 1536.0
    if N == 4:
        return -(math.pi**2) * (-57.0 + 32.0 * math.sqrt(2.0) + 18.0 * math.log(2.0)) / 4608.0
    return (
        16.0 ** (-(N + 1.0) / N)
        * p_poly(N)
        * math.pi ** (N / 2.0)
        / ((N - 4.0) * (N - 2.0) * (N + 2.0) * math.gamma(N / 2.0 + 3.0))
    )


def _simpson_piece(fn, lo: float, hi: float, panels: int) -> float:
    if panels % 2 == 1:
        panels += 1
    x = np.linspace(lo, hi, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (hi - lo) / (3.0 * panels) * float(w @ fn(x))


def m_rad_quadrature(N: int, n: int = 10_000) -> float:
    """Energy of (eval_u, eval_v) by quadrature, (sigma_N/2) int v^2 r^(N-1)
    - sigma_N int |u| r^(N-1), split at the sign-change radius so both
    pieces are smooth."""
    a = zero_radius(N)
    half = n // 2
    sigma = 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)

    def v2(r):
        return eval_v(N, r) ** 2 * r ** (N - 1)

    def absu(r):
        return np.abs(eval_u(N, r)) * r ** (N - 1)

    iv = _simpson_piece(v2, 0.0, a, half) + _simpson_piece(v2, a, 1.0, n - half)
    iu = _simpson_piece(absu, 0.0, a, half) + _simpson_piece(absu, a, 1.0, n - half)
    return 0.5 * sigma * iv - sigma * iu


def competitor_energy(N: int, t: float) -> float:
    """Energy f(t) of the nonradial trial function t (r - r^2/2) cos(theta_1)."""
    if N < 2:
        raise ValueError("competitor defined for N >= 2")
    if not t > 0:
        raise ValueError(f"competitor amplitude must be positive, got {t}")
    quad = t**2 * (N + 1.0) ** 2 * math.pi ** (N / 2.0) / (4.0 * N**2 * math.gamma(N / 2.0))
    lin = t * (N + 3.0) * math.pi ** ((N - 1.0) / 2.0) / (2.0 * (N + 2.0) * math.gamma((N + 3.0) / 2.0))
    return quad - lin


def competitor_optimal_t(N: int) -> float:
    return (
        N**2
        * (N + 3.0)
        * math.gamma(N / 2.0)
        / (math.sqrt(math.pi) * (N + 1.0) ** 2 * (N + 2.0) * math.gamma((N + 3.0) / 2.0))
    )


def h2(N: int) -> float:
    """Nonradial competitor energy bound; the fixed t = 1/4 trial function
    for N = 2, the optimized amplitude otherwise."""
    if N < 2:
        raise ValueError("h2 defined for N >= 2")
    if N == 2:
        return 9.0 * math.pi / 256.0 - 5.0 / 24.0
    return (
        -2.0
        * N
        * (N + 3.0) ** 2
        * math.pi ** (N / 2.0 - 1.0)
        * math.gamma(N / 2.0 + 1.0)
        / ((N + 1.0) ** 4 * (N + 2.0) ** 2 * math.gamma((N + 1.0) / 2.0) ** 2)
    )


class Table1Row(NamedTuple):
    N: int
    h1: float
    h2: float
    diff: float


# Reference six-digit values of (h1, h2) for N = 3..8 used by the CLI as a
# golden diff target, plus the two-dimensional pair.
TABLE1_PRINTED = {
    3: (-0.00272396, -0.0795216),
    4: (-0.00156672, -0.0619457),
    5: (-0.000908657, -0.0466251),
    6: (-0.000525701, -0.0339151),
    7: (-0.000301342, -0.0238506),
    8: (-0.000170448, -0.0162296),
}
N2_PRINTED = (-0.00483606, -0.0978867)


def table1() -> list[Table1Row]:
    """Rows (N, h1, h2, h1 - h2) for N = 3..8; the difference is positive
    exactly when radial symmetry breaks."""
    rows = []
    for N in range(3, 9):
        a, b = m_rad(N), h2(N)
        rows.append(Table1Row(N, a, b, a - b))
    return rows


class AsymptoticBound(NamedTuple):
    neg_p: float
    mid: float
    rhs: float
    verdict: bool


def asymptotic_bound(N: int) -> AsymptoticBound:
    """Inequality chain -p(N) < 54 N + 34 < 4 N (N-4) (N+1) / pi.

    Both inequalities holding implies h2(N) < h1(N) without evaluating any
    Gamma function; the chain holds for every N >= 9.
    """
    if N < 5:
        raise ValueError("the asymptotic chain needs N >= 5")
    neg_p = -p_poly(N)
    mid = 54.0 * N + 34.0
    rhs = 4.0 * N * (N - 4.0) * (N + 1.0) / math.pi
    return AsymptoticBound(neg_p, mid, rhs, neg_p < mid < rhs)


class SymmetryVerdict(NamedTuple):
    nonradial: bool
    provenance: str


def symmetry_breaking_verdict(N: int) -> SymmetryVerdict:
    """True when the nonradial competitor beats the radial level.

    Moderate dimensions (N <= 8) compare the closed-form energies directly;
    N >= 9 uses the asymptotic inequality chain.
    """
    if N < 2:
        raise ValueError("verdict defined for N >= 2")
    if N <= 8:
        return SymmetryVerdict(h2(N) < m_rad(N), "table")
    return SymmetryVerdict(asymptotic_bound(N).verdict, "bound")
