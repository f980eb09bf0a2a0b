import math

import numpy as np
import pytest

from neumannlab.grid import (
    GridFunction,
    discrete_radial_laplacian,
    interval_grid,
    make_grid,
    unit_ball_grid,
)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8])
def test_quadrature_exactness(dim):
    grid = make_grid(dim=dim, n=2000, mode="ball" if dim > 1 else "interval")
    assert grid.quadrature_defect() <= 1e-12


def test_quadrature_exactness_small_grids():
    # the panel scheme integrates the weight exactly at every resolution
    for dim in (2, 3, 5):
        for n in (9, 40):
            assert make_grid(dim=dim, n=n, mode="ball").quadrature_defect() <= 1e-12


def test_unit_disk_area():
    grid = unit_ball_grid(2, n=1000)
    assert GridFunction.constant(grid, 1.0).integral() == pytest.approx(math.pi, rel=1e-12)


def test_interval_linear_moment():
    grid = interval_grid(1.0, n=2000)
    g = GridFunction.from_callable(grid, lambda r: r)
    assert g.integral() == pytest.approx(0.5, abs=1e-12)


def test_ball3_quadratic_moment():
    # int_B r^2 = sigma_3 / 5 = 4 pi / 5
    grid = unit_ball_grid(3, n=2000)
    g = GridFunction.from_callable(grid, lambda r: r**2)
    assert g.integral() == pytest.approx(4.0 * math.pi / 5.0, rel=1e-11)


def test_quadrature_convergence_order():
    exact = math.e - 1.0
    errs = []
    for n in (50, 100, 200):
        grid = interval_grid(1.0, n=n)
        g = GridFunction.from_callable(grid, np.exp)
        errs.append(abs(g.integral() - exact))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 2.0  # spec asks k >= 2; the scheme delivers ~4


def test_weights_positive_where_it_matters():
    for dim in (1, 2):
        grid = make_grid(dim=dim, n=500, mode="ball" if dim > 1 else "interval")
        assert np.all(grid.weights[1:] > 0)
    # higher dimensions may undershoot by a rounding-level mass near r = 0
    g5 = unit_ball_grid(5, n=500)
    assert g5.weights.min() >= -1e-9 * g5.weights.max()
    assert np.all(np.diff(g5.r) > 0)


def test_lp_norm_constant():
    grid = unit_ball_grid(2, n=500)
    g = GridFunction.constant(grid, 3.0)
    for s in (1.0, 2.0, 3.5):
        assert g.lp_norm(s) == pytest.approx(3.0 * math.pi ** (1.0 / s), rel=1e-12)


def test_lp_norm_cosine():
    grid = interval_grid(1.0, n=2000)
    g = GridFunction.from_callable(grid, lambda r: np.cos(math.pi * r))
    assert g.lp_norm(2.0) == pytest.approx(math.sqrt(0.5), abs=1e-10)


def test_lp_norm_homogeneity():
    grid = interval_grid(1.0, n=300)
    rng = np.random.default_rng(3)
    g = GridFunction(grid, rng.standard_normal(grid.n + 1))
    for lam in (-2.5, 0.3):
        scaled = GridFunction(grid, lam * g.values)
        assert scaled.lp_norm(1.7) == pytest.approx(abs(lam) * g.lp_norm(1.7), rel=1e-13)


def test_lp_norm_rejects_s_below_one():
    grid = interval_grid(1.0, n=100)
    with pytest.raises(ValueError):
        GridFunction.constant(grid, 1.0).lp_norm(0.5)


def test_laplacian_constant_is_zero():
    grid = unit_ball_grid(3, n=200)
    g = GridFunction.constant(grid, 4.2)
    assert discrete_radial_laplacian(g).sup_norm() == 0.0


def test_laplacian_quadratic_interior():
    # Lap r^2 = 2 N; r^2 violates the Neumann condition so ends are excluded
    grid = unit_ball_grid(3, n=2000)
    g = GridFunction.from_callable(grid, lambda r: r**2)
    lap = discrete_radial_laplacian(g).values
    assert np.max(np.abs(lap[1:-1] - 6.0)) <= 1e-8


def test_laplacian_cosine():
    grid = interval_grid(1.0, n=2000)
    g = GridFunction.from_callable(grid, lambda r: np.cos(math.pi * r))
    lap = discrete_radial_laplacian(g).values
    exact = -math.pi**2 * np.cos(math.pi * grid.r)
    assert np.max(np.abs(lap - exact)) <= 40.0 * grid.h**2


def test_laplacian_order_two():
    errs = []
    for n in (250, 500, 1000):
        grid = interval_grid(1.0, n=n)
        g = GridFunction.from_callable(grid, lambda r: np.cos(math.pi * r))
        lap = discrete_radial_laplacian(g).values
        errs.append(np.max(np.abs(lap + math.pi**2 * np.cos(math.pi * grid.r))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(dim=0)
    with pytest.raises(ValueError):
        make_grid(dim=1, n=4)
    with pytest.raises(ValueError):
        make_grid(dim=2, n=100, mode="ball", length=2.0)
    with pytest.raises(ValueError):
        make_grid(dim=3, n=100, mode="interval")
    with pytest.raises(ValueError):
        make_grid(dim=1, n=100, mode="interval", length=-1.0)


def test_grid_function_validation():
    grid = interval_grid(1.0, n=100)
    with pytest.raises(ValueError):
        GridFunction(grid, np.zeros(5))
    with pytest.raises(ValueError):
        GridFunction(grid, np.full(grid.n + 1, np.nan))


def test_grid_function_csv(tmp_path):
    grid = interval_grid(1.0, n=50)
    g = GridFunction.from_callable(grid, lambda r: r**2)
    path = tmp_path / "g.csv"
    g.write_csv(path)
    raw = path.read_bytes()
    assert raw.startswith(b"r,value\r\n")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.allclose(data[:, 0], grid.r)
    assert np.allclose(data[:, 1], g.values)
