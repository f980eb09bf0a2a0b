import math
import re

import numpy as np
import pytest

from neumannlab import grid as grid_module
from neumannlab.grid import (
    _STENCIL_INV,
    GridFunction,
    discrete_radial_laplacian,
    interval_grid,
    local_cubic,
    make_grid,
    unit_ball_grid,
)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8])
def test_quadrature_exactness(dim):
    grid = make_grid(dim=dim, n=2000)
    assert grid.quadrature_defect() <= 1e-12


def test_quadrature_exactness_small_grids():
    # the panel scheme integrates the weight exactly at every resolution
    for dim in (2, 3, 5):
        for n in (9, 40):
            assert make_grid(dim=dim, n=n).quadrature_defect() <= 1e-12


def test_unit_disk_area():
    grid = unit_ball_grid(2, n=1000)
    assert grid.integrate_values(np.ones_like(grid.r)) == pytest.approx(math.pi, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_weights_are_the_last_row_of_the_cumulative_map(dim):
    grid = make_grid(dim=dim, n=12)
    dense = np.column_stack([grid.cumulative_weighted(e) for e in np.eye(grid.n + 1)])
    assert np.max(np.abs(grid.weights - dense[-1])) <= 1e-14 * np.max(np.abs(dense))


def _masked_panel_weights(grid, linear=None):
    # the panel rule's weights with each stencil geometry gathered by a mask
    # and applied to its own panels, the way the table was first built; the
    # first `linear` panels take the linear interpolant's weights on their
    # two nodes, and by default as many as the first all-positive rule needs
    n, h, power = grid.n, grid.h, grid.dim - 1
    starts = np.clip(np.arange(n) - 1, 0, n - 3)
    geom = starts - np.arange(n)
    mu = np.zeros((n, 4))
    for i in range(power + 1):
        coef = math.comb(power, i) * grid.r[:-1] ** (power - i) * h**i
        mu += coef[:, None] * (h / (np.arange(4) + i + 1.0))
    cubic = np.empty((n, 4))
    for g, inv in _STENCIL_INV.items():
        mask = geom == g
        cubic[mask] = mu[mask] @ inv.T
    idx = starts[:, None] + np.arange(4)
    for m in range(n + 1) if linear is None else [linear]:
        wts = cubic.copy()
        for j in range(m):
            wts[j] = 0.0
            wts[j, j - starts[j] : j - starts[j] + 2] = mu[j, 0] - mu[j, 1], mu[j, 1]
        weights = np.bincount(idx.ravel(), weights=wts.ravel(), minlength=n + 1)
        if weights.min() > 0.0:
            break
    return wts, weights


@pytest.mark.parametrize("n", [6, 7, 200])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_panel_weights_match_the_masked_reference(dim, n):
    grid = make_grid(dim=dim, n=n)
    wts, weights = _masked_panel_weights(grid)
    assert np.array_equal(grid._table_weighted.T, wts)
    assert np.array_equal(grid.weights, weights)


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10, 11, 12, 50, 2000])
@pytest.mark.parametrize("dim", [1, 2])
def test_interval_and_disk_weights_are_the_all_cubic_rule(dim, n):
    # their cubic weights are positive, so no panel is linear
    grid = make_grid(dim=dim, n=n)
    wts, weights = _masked_panel_weights(grid, linear=0)
    assert np.array_equal(grid._table_weighted.T, wts)
    assert np.array_equal(grid.weights, weights)


@pytest.mark.parametrize("dim", range(1, 21))
def test_every_weight_is_positive_and_the_weight_exact(dim):
    for n in (6, 7, 8, 9, 10, 11, 12, 50, 2000, 20000):
        grid = make_grid(dim=dim, n=n)
        assert grid.weights.min() > 0.0, n
        assert grid.quadrature_defect() <= 1e-12, n


@pytest.mark.parametrize(
    "dim, linear", [(3, 2), (4, 2), (5, 2), (6, 3), (7, 3), (8, 4), (10, 4), (12, 5), (16, 7), (20, 9)]
)
def test_the_linear_head_is_as_short_as_positivity_allows(dim, linear):
    # at n >= 50 the count depends on N alone; one panel fewer leaves a weight <= 0
    for n in (50, 2000):
        grid = make_grid(dim=dim, n=n)
        assert np.count_nonzero(grid._table_weighted[3, :-1] == 0.0) == linear
        assert _masked_panel_weights(grid, linear - 1)[1].min() <= 0.0


def _gathered_stencils(values, cells, n):
    # the four stencil values of each cell by one (m, 4) gather, the way the
    # panel rule was first applied
    starts = np.clip(cells - 1, 0, n - 3)
    return starts, values[starts[:, None] + np.arange(4)]


@pytest.mark.parametrize("n", [6, 7, 200, 20000])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_stencil_rows_match_the_gather_formulas(dim, n):
    grid = make_grid(dim=dim, n=n)
    rng = np.random.default_rng(10 * n + dim)
    values = np.cos(3.0 * grid.r) + rng.standard_normal(n + 1)

    _, stencils = _gathered_stencils(values, np.arange(n), n)
    panels = (grid._table_weighted.T * stencils).sum(axis=1)
    assert np.array_equal(grid.cumulative_weighted(values), np.concatenate(([0.0], np.cumsum(panels))))

    x = np.concatenate((rng.uniform(0.0, grid.length, 64), grid.r))
    cells = np.minimum((x / grid.h).astype(int), n - 1)
    starts, stencils = _gathered_stencils(values, cells, n)
    coeffs = stencils @ _STENCIL_INV[0]
    got_starts, got_coeffs = local_cubic(values, cells)
    assert np.array_equal(got_starts, starts)
    assert np.array_equal(got_coeffs, coeffs)
    t = x / grid.h - starts
    horner = ((coeffs[:, 3] * t + coeffs[:, 2]) * t + coeffs[:, 1]) * t + coeffs[:, 0]
    assert np.array_equal(grid.cubic_at(values, x), horner)


def test_interval_linear_moment():
    grid = interval_grid(1.0, n=2000)
    assert grid.integrate_values(grid.r) == pytest.approx(0.5, abs=1e-12)


def test_ball3_quadratic_moment():
    # int_B r^2 = sigma_3 / 5 = 4 pi / 5
    grid = unit_ball_grid(3, n=2000)
    assert grid.integrate_values(grid.r**2) == pytest.approx(4.0 * math.pi / 5.0, rel=1e-11)


def test_quadrature_convergence_order():
    exact = math.e - 1.0
    errs = []
    for n in (50, 100, 200):
        grid = interval_grid(1.0, n=n)
        errs.append(abs(grid.integrate_values(np.exp(grid.r)) - exact))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 2.0  # spec asks k >= 2; the scheme delivers ~4


def test_weights_positive_where_it_matters():
    for dim in (1, 2):
        grid = make_grid(dim=dim, n=500)
        assert np.all(grid.weights[1:] > 0)
    # the linear origin panels keep the higher dimensions positive too
    g5 = unit_ball_grid(5, n=500)
    assert g5.weights.min() >= -1e-9 * g5.weights.max()
    assert np.all(np.diff(g5.r) > 0)


def test_lp_norm_constant():
    grid = unit_ball_grid(2, n=500)
    g = np.full_like(grid.r, 3.0)
    for s in (1.0, 2.0, 3.5):
        assert grid.lp_norm_values(g, s) == pytest.approx(3.0 * math.pi ** (1.0 / s), rel=1e-12)


def test_lp_norm_cosine():
    grid = interval_grid(1.0, n=2000)
    assert grid.lp_norm_values(np.cos(math.pi * grid.r), 2.0) == pytest.approx(math.sqrt(0.5), abs=1e-10)


def test_lp_norm_homogeneity():
    grid = interval_grid(1.0, n=300)
    rng = np.random.default_rng(3)
    g = rng.standard_normal(grid.n + 1)
    for lam in (-2.5, 0.3):
        assert grid.lp_norm_values(lam * g, 1.7) == pytest.approx(abs(lam) * grid.lp_norm_values(g, 1.7), rel=1e-13)


@pytest.mark.parametrize("s", [65.0, 3334.0, 10001.0])
def test_lp_norm_of_a_large_exponent_does_not_overflow(s):
    # |y|^s overflows once ||y||_inf passes exp(709 / s); the norm scales y by ||y||_inf first
    grid = unit_ball_grid(3, n=2000)
    g = 1.5 + np.cos(math.pi * grid.r)
    with np.errstate(over="raise", invalid="raise"):
        norm = grid.lp_norm_values(g, s)
        constant = grid.lp_norm_values(np.full_like(g, 2.5), s)
        assert constant == pytest.approx(2.5 * grid.domain_measure ** (1.0 / s), rel=1e-14)
        assert grid.lp_norm_values(-1e3 * g, s) == pytest.approx(1e3 * norm, rel=1e-14)
    assert 2.29 < norm < 2.5  # below the sup 2.5, taken at the origin, and nearing it as s grows


def test_lp_norm_rejects_s_below_one():
    grid = interval_grid(1.0, n=100)
    with pytest.raises(ValueError):
        grid.lp_norm_values(np.ones_like(grid.r), 0.5)


def test_laplacian_constant_is_zero():
    grid = unit_ball_grid(3, n=200)
    assert not discrete_radial_laplacian(grid, np.full_like(grid.r, 4.2)).any()


def test_laplacian_quadratic_interior():
    # Lap r^2 = 2 N; r^2 violates the Neumann condition so ends are excluded
    grid = unit_ball_grid(3, n=2000)
    lap = discrete_radial_laplacian(grid, grid.r**2)
    assert np.max(np.abs(lap[1:-1] - 6.0)) <= 1e-8


def test_laplacian_cosine():
    grid = interval_grid(1.0, n=2000)
    lap = discrete_radial_laplacian(grid, np.cos(math.pi * grid.r))
    exact = -math.pi**2 * np.cos(math.pi * grid.r)
    assert np.max(np.abs(lap - exact)) <= 40.0 * grid.h**2


def test_laplacian_order_two():
    errs = []
    for n in (250, 500, 1000):
        grid = interval_grid(1.0, n=n)
        lap = discrete_radial_laplacian(grid, np.cos(math.pi * grid.r))
        errs.append(np.max(np.abs(lap + math.pi**2 * np.cos(math.pi * grid.r))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(dim=0)
    with pytest.raises(ValueError):
        make_grid(dim=1, n=4)
    with pytest.raises(ValueError):
        make_grid(dim=2, n=100, length=2.0)
    with pytest.raises(ValueError):
        make_grid(dim=1, n=100, length=-1.0)
    with pytest.raises(TypeError):
        make_grid(dim=1, n=100, mode="interval")


@pytest.mark.parametrize("length", [math.inf, -math.inf, math.nan])
def test_make_grid_refuses_a_length_that_is_not_finite(length):
    with pytest.raises(ValueError, match=f"positive and finite, got {length}"):
        make_grid(dim=1, n=100, length=length)


@pytest.mark.parametrize("length", [1.4e154, 1e160, 1e300])
def test_make_grid_refuses_a_length_whose_square_overflows(length):
    # refused before the grid forms r^2 and h^2; at 1e160, h**2 alone would raise OverflowError
    with pytest.raises(ValueError, match=re.escape(f"length {length:g} is too large")):
        make_grid(dim=1, n=100, length=length)


def test_grids_compare_by_dim_n_and_length():
    assert make_grid(dim=3, n=100) == unit_ball_grid(3, n=100)
    assert interval_grid(1.0, n=100) == unit_ball_grid(1, n=100)
    assert interval_grid(1.0, n=100) != interval_grid(2.0, n=100)
    assert interval_grid(1.0, n=100) != interval_grid(1.0, n=101)
    assert unit_ball_grid(2, n=100) != unit_ball_grid(3, n=100)


def test_grid_function_validation():
    grid = interval_grid(1.0, n=100)
    with pytest.raises(ValueError):
        GridFunction(grid, np.zeros(5))
    with pytest.raises(ValueError):
        GridFunction(grid, np.full(grid.n + 1, np.nan))


def test_grid_function_csv(tmp_path):
    grid = interval_grid(1.0, n=50)
    g = GridFunction(grid, grid.r**2)
    path = tmp_path / "g.csv"
    g.write_csv(path)
    raw = path.read_bytes()
    assert raw.startswith(b"r,value\r\n")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.allclose(data[:, 0], grid.r)
    assert np.allclose(data[:, 1], g.values)


def test_grid_function_csv_bytes(tmp_path):
    grid = interval_grid(1.0, n=6)
    values = np.array([-0.0, 1e-300, 1e300, -1.0 / 3.0, 0.1, 2.0**-1074, -5e15])
    GridFunction(grid, values).write_csv(tmp_path / "g.csv")
    expected = "r,value\r\n" + "".join(f"{r:.17g},{v:.17g}\r\n" for r, v in zip(grid.r, values))
    assert (tmp_path / "g.csv").read_bytes() == expected.encode()
    assert b"\r\n0,-0\r\n" in expected.encode()


@pytest.fixture
def r_formats(monkeypatch):
    """The r columns fmt17_cells formats from here on, as (first, last, count) of each."""
    calls = []
    kernel = grid_module.fmt17_cells

    def counted(values):
        calls.append((values[0], values[-1], len(values)))
        return kernel(values)

    monkeypatch.setattr(grid_module, "fmt17_cells", counted)
    grid_module._csv_r_cells.cache_clear()
    yield calls
    grid_module._csv_r_cells.cache_clear()


def test_grid_function_csv_pair_bytes(tmp_path, r_formats):
    # u.csv and v.csv of one solve share a grid: the r column is formatted
    # once, and both files keep the bytes of the per-row f-string writer
    grid = interval_grid(1.0, n=2000)
    rng = np.random.default_rng(5)
    special = [-0.0, 0.0, 2.0**-1074, -(2.0**-1074), 1e300, -1e300, 1e-300, -1e-300, 1.0 / 3.0]
    pair = []
    for _ in range(2):
        values = rng.standard_normal(grid.n + 1) * 10.0 ** rng.integers(-300, 300, grid.n + 1)
        values[rng.choice(grid.n + 1, len(special), replace=False)] = special
        pair.append(values)
    assert r_formats == []
    for name, values in zip(("u", "v"), pair):
        GridFunction(grid, values).write_csv(tmp_path / f"{name}.csv")
        assert r_formats == [(0.0, 1.0, 2001)]
        expected = "r,value\r\n" + "".join(f"{r:.17g},{v:.17g}\r\n" for r, v in zip(grid.r.tolist(), values.tolist()))
        assert (tmp_path / f"{name}.csv").read_bytes() == expected.encode()


def test_r_column_is_formatted_once_per_n_and_length(tmp_path, r_formats):
    values = np.linspace(-1.0, 1.0, 201)
    for dim in (1, 2, 3):  # a fresh grid per write, as each CLI call makes one
        for name in ("u", "v"):
            GridFunction(make_grid(dim=dim, n=200), values).write_csv(tmp_path / f"{dim}{name}.csv")
        assert r_formats == [(0.0, 1.0, 201)]
        assert (tmp_path / f"{dim}u.csv").read_bytes() == (tmp_path / "1u.csv").read_bytes()
    GridFunction(interval_grid(0.5, n=200), values).write_csv(tmp_path / "half.csv")
    GridFunction(make_grid(dim=2, n=100), values[:101]).write_csv(tmp_path / "coarse.csv")
    assert r_formats == [(0.0, 1.0, 201), (0.0, 0.5, 201), (0.0, 1.0, 101)]


@pytest.mark.parametrize("dim, n, length", [(1, 6, 0.7), (1, 200, 1.0), (2, 200, 1.0), (3, 200, 1.0), (1, 200, 2.0)])
def test_cached_r_cells_are_read_only_and_match_the_kernel(dim, n, length):
    cells = grid_module._csv_r_cells(n, make_grid(dim=dim, n=n, length=length).length)
    assert not cells.flags.writeable
    with pytest.raises(ValueError):
        cells[0, 0] = 0
    assert np.array_equal(cells, grid_module.fmt17_cells(make_grid(dim=dim, n=n, length=length).r))


@pytest.mark.parametrize("dim, n, length", [(1, 6, 0.7), (1, 2000, 1.0), (3, 20000, 1.0)])
def test_csv_r_column_formats_each_node(dim, n, length):
    grid = make_grid(dim=dim, n=n, length=length)
    cells = grid_module._csv_r_cells(grid.n, grid.length).view(np.uint8)
    assert [row[row != 0].tobytes() for row in cells] == [b"%.17g" % x for x in grid.r]
