"""Radial grids on [0, L] with r^(N-1)-weighted quadrature.

The dimension decides the domain: N = 1 is the interval (0, L) (weight 1,
surface factor 1), N >= 2 the radial coordinate of the unit ball in R^N (weight
r^(N-1), surface factor sigma_N = 2 pi^(N/2) / Gamma(N/2)).  Nodes are uniform.

One discretization drives everything: on each panel the integrand's smooth
factor is replaced by the cubic through four nearby nodes and the product
with the r^(N-1) weight is integrated through exact moments.  The panel
weights are kept as four stencil rows (see _panel_table): cumulative sums of
the panels give antiderivatives, and column sums the nodal quadrature
weights, each by four shifted, contiguous slice passes.  The moments make
int_0^L r^(N-1) dr exact for every dimension and keep fourth order on
smooth data with no loss near the origin.  The interval's
coefficient pattern h * (1/3, 31/24, 5/6, 25/24, 1, ..., 1) is positive;
for N >= 3 the origin weight is negative and O(h^N), not rounding level
(N = 3: -6.1e-5 at n = 9 against the mass 1/3, -5.6e-12 at n = 2000), and
on N = 6 the weights of the two nodes nearest the origin are negative.

Each grid also carries the nodal kernel Phi and the diagonal of the Green
operator (see greens.green_apply).  GridFunction.write_csv formats the r
column, which depends on (n, L) alone, once per (n, L) per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .report_io import fmt17_cells, fmt17_csv_rows

__all__ = [
    "RadialGrid",
    "GridFunction",
    "make_grid",
    "unit_ball_grid",
    "interval_grid",
    "discrete_radial_laplacian",
    "surface_factor",
]


def surface_factor(dim: int) -> float:
    """Surface measure of the unit sphere in R^dim, 2 pi^(dim/2) / Gamma(dim/2)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


# The three cubic-panel stencil geometries g, with local node offsets g + (0, 1, 2, 3)
# (0 left end, -1 interior, -2 right end), and the inverses mapping weighted moments to weights.
_STENCIL_INV = {g: np.linalg.inv(np.vander(np.arange(4.0) + g, 4, increasing=True).T) for g in (0, -1, -2)}


def local_cubic(values: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cubic through the four stencil nodes of each cell.

    Returns (starts, coeffs): row k of coeffs holds the increasing-power
    coefficients of the cubic in t = (r - r[starts[k]]) / h.  In t the
    interpolation map is the fixed, well-conditioned inverse Vandermonde
    matrix of the left-end panel stencil; a fit in absolute r is not.
    coeffs is the transpose of a (4, m) array: each power's column is contiguous.
    """
    starts = np.clip(np.asarray(cells) - 1, 0, len(values) - 4)
    return starts, (_STENCIL_INV[0].T @ values.take(starts + np.arange(4)[:, None])).T


def _panel_table(r: np.ndarray, h: float, weight_power: int) -> tuple[np.ndarray, np.ndarray]:
    """The moment-fitted cubic panel rule as a (4, n) array, and its column sums.

    Panel j approximates int_{r_j}^{r_{j+1}} s^weight_power y(s) ds as
    sum_k wts[k, j] y[clip(j - 1, 0, n - 3) + k], the cubic's four stencil
    nodes, so on the interior panels row k meets the slice y[k : k + n - 2].
    The exact moments add by rows and map to weights by one (4 x 4) @ (4 x n)
    product per stencil geometry; the column sums add the shifted rows.
    """
    n = len(r) - 1
    mu = np.multiply.outer(h / np.arange(1.0, 5.0), r[:-1] ** weight_power)  # the binomial i = 0 term
    for i in range(1, weight_power + 1):
        coef = math.comb(weight_power, i) * r[:-1] ** (weight_power - i) * h**i
        for m in range(4):
            mu[m] += coef * (h / (m + i + 1.0))
    # every panel but the first and the last has the interior stencil (n >= 6)
    wts = _STENCIL_INV[-1] @ mu
    wts[:, :1] = _STENCIL_INV[0] @ mu[:, :1]
    wts[:, -1:] = _STENCIL_INV[-2] @ mu[:, -1:]
    # bincount's order: panel 0, the interior panels (stencil rows 3 to 0), panel n - 1
    sums = np.zeros(n + 1)
    sums[:4] += wts[:, 0]
    for k in (3, 2, 1, 0):
        sums[k : k + n - 2] += wts[k, 1:-1]
    sums[n - 3 :] += wts[:, -1]
    return wts, sums


@dataclass(frozen=True)
class RadialGrid:
    """Uniform 1-D mesh with weighted quadrature for radial domains.

    dim:     spatial dimension N >= 1; N = 1 is an interval, N >= 2 a ball
    n:       number of panels (nodes = n + 1)
    length:  interval length (1 for balls)

    The other fields derive from these three, and grids compare by them.
    """

    dim: int
    n: int
    length: float
    r: np.ndarray = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)
    surface: float = field(compare=False)
    phi: np.ndarray = field(repr=False, compare=False)
    green_diagonal: np.ndarray = field(repr=False, compare=False)
    _table_weighted: np.ndarray = field(repr=False, compare=False)

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def domain_measure(self) -> float:
        """|Omega| = surface * integral of r^(dim-1)."""
        return self.surface * self.length**self.dim / self.dim

    def integrate_values(self, values: np.ndarray) -> float:
        return self.surface * float(self.weights @ values)

    def mean_values(self, values: np.ndarray) -> float:
        return self.integrate_values(values) / self.domain_measure

    def lp_norm_values(self, values: np.ndarray, s: float) -> float:
        """(int |y|^s)^(1/s), as m (int |y/m|^s)^(1/s) with m = ||y||_inf for s > 64, where |y|^s overflows once
        m passes exp(709 / s); a negative total, which the O(h^N) negative origin weights on N >= 3 allow, reads 0."""
        if s < 1:
            raise ValueError(f"L^s norm needs s >= 1, got {s}")
        size = np.abs(values)
        m = float(size.max()) if s > 64 else 1.0
        total = self.surface * float(self.weights @ (size / m if s > 64 and m > 0.0 else size) ** s)  # integrate_values
        return m * max(total, 0.0) ** (1.0 / s)

    def cubic_at(self, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The local cubics of nodal values at the radii x in [0, L]: x in cell
        floor(x / h) (the last cell for x = L) takes that cell's local_cubic."""
        x = np.asarray(x) / self.h
        starts, coeffs = local_cubic(values, np.minimum(x.astype(int), self.n - 1))
        t = x - starts
        return ((coeffs[:, 3] * t + coeffs[:, 2]) * t + coeffs[:, 1]) * t + coeffs[:, 0]

    def quadrature_defect(self) -> float:
        """Relative defect of the exactness identity int_0^L r^(dim-1) = L^dim / dim."""
        exact = self.length**self.dim / self.dim
        return abs(float(self.weights.sum()) - exact) / exact

    def cumulative_weighted(self, values: np.ndarray) -> np.ndarray:
        """C_i = int_0^{r_i} s^(dim-1) y(s) ds."""
        wts, n = self._table_weighted, self.n
        panels = np.empty(n)
        inner = np.multiply(wts[0, 1:-1], values[: n - 2], out=panels[1:-1])
        for k in (1, 2, 3):
            inner += wts[k, 1:-1] * values[k : k + n - 2]
        for j, v in ((0, values[:4]), (n - 1, values[-4:])):  # the end panels, in the same order
            panels[j] = ((wts[0, j] * v[0] + wts[1, j] * v[1]) + wts[2, j] * v[2]) + wts[3, j] * v[3]
        return np.concatenate(([0.0], np.cumsum(panels)))

    def weight_primitive(self, x: np.ndarray | float) -> np.ndarray:
        """W(x) = int_0^x s^(dim-1) ds."""
        return np.asarray(x, dtype=float) ** self.dim / self.dim

    def kernel_primitive(self, x: np.ndarray | float) -> np.ndarray:
        """G(x) = int_0^x Phi(s) s^(dim-1) ds for the Green kernel Phi = self.phi."""
        x = np.asarray(x, dtype=float)
        power, length = self.dim - 1, self.length
        if power == 0:
            return length * x - 0.5 * x**2
        if power == 1:
            positive = np.where(x > 0.0, x, length)  # x^2 log(L/x) -> 0 at the origin
            return x**2 * (0.5 * np.log(length / positive) + 0.25)
        return (0.5 * x**2 - length ** (1 - power) * x ** (power + 1) / (power + 1)) / (power - 1)


@lru_cache(maxsize=4)  # an n = 20000 column holds 640 KB
def _csv_r_cells(n: int, length: float) -> np.ndarray:
    """The read-only r cells of GridFunction.write_csv, fmt17_cells of make_grid's
    r = linspace(0, length, n + 1), shared by every grid with this (n, length)."""
    cells = fmt17_cells(np.linspace(0.0, length, n + 1))
    cells.flags.writeable = False
    return cells


def _neumann_kernel(r: np.ndarray, length: float, power: int) -> np.ndarray:
    """Phi(r) = int_r^L t^(-power) dt at the nodes; Phi(0) = 0 for power >= 1,
    where only s^power Phi(s) enters the Green operator and it vanishes."""
    if power == 0:
        return length - r
    phi = np.zeros_like(r)
    x = r[1:]
    if power == 1:
        phi[1:] = np.log(length / x)
    else:
        phi[1:] = (x ** (1 - power) - length ** (1 - power)) / (power - 1)
    return phi


def _green_diagonal(r: np.ndarray, h: float, power: int, weights: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Diagonal d of the Green operator (see greens.green_apply).

    Row i of the sum -sum_j w_j Phi(min(r_i, r_j)) x_j misses the kink of
    its integrand at s = r_i by an O(h^2) multiple of x_i, and the singular
    origin panels add an error that is the same in every row.  d makes the
    operator before projection reproduce -r^2 / (2N), its exact image of
    constant data; the origin's constant, which the projection removes, is
    taken out by pinning the middle node at the kink correction -h^2 / 12.
    """
    constant_image = phi * np.cumsum(weights) - np.cumsum(phi * weights)
    d = -(r**2) / (2.0 * (power + 1)) - constant_image
    return d - (d[len(r) // 2] + h**2 / 12.0)


def make_grid(dim: int = 1, n: int = 2000, length: float = 1.0) -> RadialGrid:
    """Build a radial grid: the interval (0, length) for dim == 1, else the
    unit ball in R^dim, whose length must be 1."""
    if dim < 1 or dim != int(dim):
        raise ValueError(f"dimension must be a positive integer, got {dim}")
    if n < 6:
        raise ValueError("grid needs at least 6 panels")
    if dim > 1 and length != 1.0:
        raise ValueError("ball grids are on [0, 1]")
    if length <= 0:
        raise ValueError("length must be positive")
    dim = int(dim)
    r = np.linspace(0.0, length, n + 1)
    h = length / n
    power = dim - 1
    table, weights = _panel_table(r, h, power)
    phi = _neumann_kernel(r, length, power)
    return RadialGrid(
        dim=dim,
        n=n,
        length=float(length),
        r=r,
        weights=weights,
        surface=surface_factor(dim) if dim > 1 else 1.0,
        phi=phi,
        green_diagonal=_green_diagonal(r, h, power, weights, phi),
        _table_weighted=table,
    )


def unit_ball_grid(dim: int, n: int = 2000) -> RadialGrid:
    """The unit ball in R^dim; for dim == 1, the unit interval (0, 1)."""
    return make_grid(dim=dim, n=n)


def interval_grid(length: float = 1.0, n: int = 2000) -> RadialGrid:
    return make_grid(dim=1, n=n, length=length)


@dataclass
class GridFunction:
    """Real nodal values on a radial grid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.r.shape:
            raise ValueError("value array does not match the grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function has non-finite values")

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def write_csv(self, path) -> None:
        """Two-column CSV (r, value) with RFC 4180 line endings; each cell is
        the '%.17g' text of its float, written by report_io's numpy kernel
        (fmt17_csv_rows) with the r column formatted once per (n, L)."""
        with open(path, "wb") as fh:
            fh.write(b"r,value\r\n")
            fh.writelines(fmt17_csv_rows(_csv_r_cells(self.grid.n, self.grid.length), self.values))


def discrete_radial_laplacian(grid: RadialGrid, y: np.ndarray) -> np.ndarray:
    """Second-order radial Laplacian y'' + (dim-1) y'/r of nodal values y.

    One-sided stencils at both ends assume the Neumann data y'(0) = y'(L) = 0
    (even reflection); the coordinate singularity at the origin is replaced
    by the limit value dim * y''(0).
    """
    if grid.n + 1 < 4:
        raise ValueError("laplacian needs at least 4 nodes")
    h = grid.h
    out = np.empty_like(y)
    d2 = (y[:-2] - 2.0 * y[1:-1] + y[2:]) / h**2
    # origin: radial smoothness kills the odd derivatives, so the reflected
    # stencil is already second order; at r = L the third derivative does
    # not vanish in general and the Neumann-constrained cubic fit is needed
    out[0] = grid.dim * 2.0 * (y[1] - y[0]) / h**2
    out[-1] = (8.0 * (y[-2] - y[-1]) - (y[-3] - y[-1])) / (2.0 * h**2)
    d1 = (y[2:] - y[:-2]) / (2.0 * h)
    out[1:-1] = d2 + (grid.dim - 1) * d1 / grid.r[1:-1]
    return out
