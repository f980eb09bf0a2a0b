import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumannlab.greens import (
    CompatibilityError,
    _signed_power,
    apply_K_t,
    balanced_shift,
    bisect_increasing,
    kappa_shift,
    solve_neumann,
)
from neumannlab.grid import (
    GridFunction,
    discrete_radial_laplacian,
    interval_grid,
    unit_ball_grid,
)


def _mean_zero(grid, values):
    return GridFunction(grid, values - grid.mean_values(values))


def _trig(grid, coeffs):
    vals = sum(c * np.cos((k + 1) * math.pi * grid.r / grid.length) for k, c in enumerate(coeffs))
    return _mean_zero(grid, vals)


def test_zero_data_gives_zero():
    grid = interval_grid(1.0, n=100)
    u = solve_neumann(GridFunction.constant(grid, 0.0))
    assert u.sup_norm() == 0.0


def test_cosine_eigenfunction_identity():
    grid = interval_grid(1.0, n=2000)
    h = GridFunction.from_callable(grid, lambda r: np.cos(math.pi * r))
    u = solve_neumann(h)
    exact = np.cos(math.pi * grid.r) / math.pi**2
    assert np.max(np.abs(u.values - exact)) <= 1e-8


def test_incompatible_data_rejected():
    grid = interval_grid(1.0, n=100)
    with pytest.raises(CompatibilityError):
        solve_neumann(GridFunction.constant(grid, 1.0))


def test_output_mean_zero():
    grid = unit_ball_grid(2, n=500)
    rng = np.random.default_rng(0)
    h = _trig(grid, rng.standard_normal(4))
    u = solve_neumann(h)
    assert abs(u.integral()) <= 1e-12 * h.lp_norm(1)


def test_neumann_conditions_hold():
    grid = interval_grid(1.0, n=2000)
    h = _trig(grid, [1.0, -0.4, 0.2])
    u = solve_neumann(h).values
    hh = grid.h
    # second-order one-sided derivatives ~ 0 at both ends
    left = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * hh)
    right = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * hh)
    for du in (left, right):
        assert abs(du) <= 1e-6


def test_self_adjointness_smooth():
    for grid in (interval_grid(1.0, n=2000), unit_ball_grid(2, n=2000)):
        rng = np.random.default_rng(5)
        f = _trig(grid, rng.standard_normal(5))
        g = _trig(grid, rng.standard_normal(5))
        lhs = grid.integrate_values(f.values * solve_neumann(g).values)
        rhs = grid.integrate_values(g.values * solve_neumann(f).values)
        assert abs(lhs - rhs) <= 1e-10 * f.lp_norm(2) * g.lp_norm(2)


def test_self_adjointness_symmetric_variant_rough():
    grid = interval_grid(1.0, n=300)
    rng = np.random.default_rng(11)
    f = _mean_zero(grid, rng.standard_normal(grid.n + 1))
    g = _mean_zero(grid, rng.standard_normal(grid.n + 1))
    lhs = grid.integrate_values(f.values * solve_neumann(g, symmetric=True).values)
    rhs = grid.integrate_values(g.values * solve_neumann(f, symmetric=True).values)
    assert abs(lhs - rhs) <= 1e-14 * max(1.0, f.lp_norm(2) * g.lp_norm(2))


def test_quadratic_form_positive():
    for grid in (interval_grid(1.0, n=800), unit_ball_grid(3, n=800)):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = _trig(grid, rng.standard_normal(6))
            val = grid.integrate_values(f.values * solve_neumann(f).values)
            assert val >= 0.0


def test_inverse_identity_interior():
    for grid, tol in ((interval_grid(1.0, n=1000), 5e-6), (unit_ball_grid(2, n=1000), 5e-5)):
        h = _trig(grid, [0.7, 0.3])
        u = solve_neumann(h)
        lap = discrete_radial_laplacian(u).values
        interior = slice(3, -3)
        assert np.max(np.abs(lap[interior] + h.values[interior])) <= tol


def test_kappa_shift_odd_symmetry():
    grid = interval_grid(1.0, n=400)
    u = GridFunction.from_callable(grid, lambda r: np.sin(2.0 * math.pi * r))  # odd about 1/2
    for t in (0.5, 1.0, 2.0, 3.0):
        assert abs(kappa_shift(u, t)) <= 1e-10


def test_kappa_shift_linear_case_is_mean():
    grid = unit_ball_grid(2, n=400)
    u = GridFunction.from_callable(grid, lambda r: r**2 + 0.3)
    assert kappa_shift(u, 1.0) == pytest.approx(-u.mean(), abs=1e-12)


def test_kappa_shift_cubic_closed_form():
    # solve ((1+k)^4 - k^4)/4 = 0 -> k = -1/2
    grid = interval_grid(1.0, n=1000)
    u = GridFunction.from_callable(grid, lambda r: r)
    assert kappa_shift(u, 3.0) == pytest.approx(-0.5, abs=1e-12)


def test_kappa_shift_monotone_in_data():
    grid = interval_grid(1.0, n=300)
    rng = np.random.default_rng(2)
    for t in (0.5, 1.5, 3.0):
        base = rng.standard_normal(grid.n + 1)
        u = GridFunction(grid, base)
        v = GridFunction(grid, base + np.abs(rng.standard_normal(grid.n + 1)))
        assert u.values.max() <= v.values.max() + 1e-12
        assert kappa_shift(u, t) >= kappa_shift(v, t) - 1e-10


@given(
    dim=st.integers(1, 6),
    t=st.floats(0.3, 4.0),
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda c: max(map(abs, c)) > 1e-3),
    decade=st.integers(-3, 3),
)
@settings(max_examples=150, deadline=None)
def test_bisection_and_kappa_shift_properties(dim, t, coeffs, decade):
    grid = unit_ball_grid(dim, n=200)
    a, b, c = coeffs
    vals = 10.0**decade * (a * np.cos(math.pi * grid.r) + b * np.cos(2.0 * math.pi * grid.r) + c * grid.r)
    bound = float(np.max(np.abs(vals)))

    def moment(kappa):
        return grid.integrate_values(_signed_power(vals + kappa, t))

    width = 4.0 * np.finfo(float).eps * bound
    lo, hi = bisect_increasing(moment, -bound, bound, width)
    assert moment(lo) < 0.0 <= moment(hi)
    assert hi - lo <= width
    lo, hi = bisect_increasing(moment, lo, hi)
    assert moment(lo) < 0.0 <= moment(hi)
    assert hi == np.nextafter(lo, np.inf)
    kappa = kappa_shift(GridFunction(grid, vals), t)
    # kappa_shift's own acceptance: the residual meets its target, or (t < 1
    # with a node value on the root) the moment changes sign within one float
    # spacing of kappa, so no representable shift does better
    in_tol = abs(moment(kappa)) <= 1e-12 * bound**t * grid.domain_measure
    assert in_tol or moment(np.nextafter(kappa, -np.inf)) <= 0.0 <= moment(np.nextafter(kappa, np.inf))


def test_apply_K_t_matches_plain_solve_at_t_one():
    grid = interval_grid(1.0, n=500)
    h = _trig(grid, [1.0, 0.5, -0.1])
    w1 = apply_K_t(h, 1.0)
    w2 = solve_neumann(h)
    assert np.max(np.abs(w1.values - w2.values)) <= 1e-13


def test_apply_K_t_normalization_residual():
    grid = interval_grid(1.0, n=800)
    rng = np.random.default_rng(9)
    for t in (0.5, 2.0, 3.0):
        h = _trig(grid, rng.standard_normal(4))
        w = apply_K_t(h, t)
        moment = grid.integrate_values(np.sign(w.values) * np.abs(w.values) ** t)
        assert abs(moment) <= 1e-11 * max(w.sup_norm() ** t * grid.domain_measure, 1e-30)


def test_balanced_shift_examples():
    grid = interval_grid(1.0, n=1000)
    assert balanced_shift(GridFunction.from_callable(grid, lambda r: r)) == pytest.approx(-0.5, abs=1e-12)
    assert balanced_shift(GridFunction.from_callable(grid, lambda r: r**2)) == pytest.approx(-0.25, abs=1e-12)
    cos = GridFunction.from_callable(grid, lambda r: np.cos(math.pi * r))
    assert abs(balanced_shift(cos)) <= 1e-12


def test_balanced_shift_weighted_measures():
    # on the disk the median is in the r^{N-1} measure: {r^2 + c > 0} has mass 1/2
    grid = unit_ball_grid(2, n=1000)
    u = GridFunction.from_callable(grid, lambda r: r**2)
    c = balanced_shift(u)
    # measure{r^2 > -c} = 1 - (-c) must equal 1/2 in the r dr measure
    assert c == pytest.approx(-0.5, abs=1e-3)


def test_balanced_shift_plateau_midpoint():
    grid = interval_grid(1.0, n=1000)
    vals = np.where(grid.r < 0.3, -1.0, np.where(grid.r > 0.7, 1.0, 0.0))
    # admissible interval is the plateau gap; its midpoint is deterministic
    c = balanced_shift(GridFunction(grid, vals))
    assert c == pytest.approx(0.0, abs=1e-12)
