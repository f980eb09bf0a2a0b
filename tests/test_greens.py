import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumannlab.greens import (
    BracketError,
    CompatibilityError,
    KappaShiftError,
    _signed_power,
    balanced_shift,
    green_apply,
    kappa_shift,
    solve_increasing,
    solve_neumann,
)
from neumannlab.grid import (
    RadialGrid,
    discrete_radial_laplacian,
    interval_grid,
    make_grid,
    unit_ball_grid,
)


def _mean_zero(grid, values):
    return values - grid.mean_values(values)


def _trig(grid, coeffs):
    vals = sum(c * np.cos((k + 1) * math.pi * grid.r / grid.length) for k, c in enumerate(coeffs))
    return _mean_zero(grid, vals)


def test_zero_data_gives_zero():
    grid = interval_grid(1.0, n=100)
    u = solve_neumann(grid, np.zeros_like(grid.r))
    assert u.shape == grid.r.shape and not u.any()


def test_cosine_eigenfunction_identity():
    grid = interval_grid(1.0, n=2000)
    u = solve_neumann(grid, np.cos(math.pi * grid.r))
    exact = np.cos(math.pi * grid.r) / math.pi**2
    assert np.max(np.abs(u - exact)) <= 1e-8


def test_incompatible_data_rejected():
    grid = interval_grid(1.0, n=100)
    with pytest.raises(CompatibilityError):
        solve_neumann(grid, np.ones_like(grid.r))


def test_output_mean_zero():
    grid = unit_ball_grid(2, n=500)
    rng = np.random.default_rng(0)
    h = _trig(grid, rng.standard_normal(4))
    u = solve_neumann(grid, h)
    assert abs(grid.integrate_values(u)) <= 1e-12 * grid.lp_norm_values(h, 1)


def test_neumann_conditions_hold():
    grid = interval_grid(1.0, n=2000)
    h = _trig(grid, [1.0, -0.4, 0.2])
    u = solve_neumann(grid, h)
    hh = grid.h
    # second-order one-sided derivatives ~ 0 at both ends
    left = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * hh)
    right = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * hh)
    for du in (left, right):
        assert abs(du) <= 1e-6


@pytest.mark.parametrize("n", [7, 2000])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_green_apply_equals_two_real_cumsums_bytewise(dim, n):
    # the two-cumsum formula itself is the reference: summing both prefix
    # sums in one pass must reproduce its arithmetic exactly, not to rounding
    grid = make_grid(dim=dim, n=n)
    rng = np.random.default_rng(100 * dim + n)
    for x in (_mean_zero(grid, rng.standard_normal(n + 1)), _trig(grid, [1.0])):
        wx = grid.weights * x
        u = grid.phi * np.cumsum(wx) - np.cumsum(grid.phi * wx) + grid.green_diagonal * x
        assert green_apply(grid, x).tobytes() == (u - grid.mean_values(u)).tobytes()


def test_self_adjointness_smooth():
    for grid in (interval_grid(1.0, n=2000), unit_ball_grid(2, n=2000)):
        rng = np.random.default_rng(5)
        f = _trig(grid, rng.standard_normal(5))
        g = _trig(grid, rng.standard_normal(5))
        lhs = grid.integrate_values(f * solve_neumann(grid, g))
        rhs = grid.integrate_values(g * solve_neumann(grid, f))
        assert abs(lhs - rhs) <= 1e-10 * grid.lp_norm_values(f, 2) * grid.lp_norm_values(g, 2)


def test_self_adjointness_symmetric_variant_rough():
    grid = interval_grid(1.0, n=300)
    rng = np.random.default_rng(11)
    f = _mean_zero(grid, rng.standard_normal(grid.n + 1))
    g = _mean_zero(grid, rng.standard_normal(grid.n + 1))
    lhs = grid.integrate_values(f * solve_neumann(grid, g))
    rhs = grid.integrate_values(g * solve_neumann(grid, f))
    assert abs(lhs - rhs) <= 1e-14 * max(1.0, grid.lp_norm_values(f, 2) * grid.lp_norm_values(g, 2))


@given(
    dim=st.integers(1, 6),
    n=st.integers(12, 400),
    seed=st.integers(0, 2**32 - 1),
    decade=st.integers(-3, 3),
)
@settings(max_examples=200, deadline=None)
def test_self_adjointness_rough_property(dim, n, seed, decade):
    grid = make_grid(dim=dim, n=n)
    rng = np.random.default_rng(seed)
    f = _mean_zero(grid, 10.0**decade * rng.standard_normal(n + 1))
    g = _mean_zero(grid, rng.standard_normal(n + 1))
    lhs = grid.integrate_values(f * solve_neumann(grid, g))
    rhs = grid.integrate_values(g * solve_neumann(grid, f))
    assert abs(lhs - rhs) <= 1e-13 * grid.lp_norm_values(f, 2) * grid.lp_norm_values(g, 2)


def _manufactured(r, dim, k):
    """u with u'(0) = u'(1) = 0 and its data -Lap u on the unit ball of R^dim."""
    u = r**2 - r**4 / 2.0 + k * 3.0 * (r**4 / 4.0 - r**6 / 6.0)
    lap = 2.0 - 6.0 * r**2 + (dim - 1) * (2.0 - 2.0 * r**2)
    lap += k * 3.0 * (3.0 * r**2 - 5.0 * r**4 + (dim - 1) * (r**2 - r**4))
    return u, -lap


@pytest.mark.parametrize("n, tol", [(500, 5e-8), (2000, 1e-9), (20000, 1e-11)])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_manufactured_solutions_pointwise(dim, n, tol):
    grid = make_grid(dim=dim, n=n)
    for k in (0, 1):
        u, h = _manufactured(grid.r, dim, k)
        got = solve_neumann(grid, _mean_zero(grid, h))
        assert np.max(np.abs(got - (u - grid.mean_values(u)))) <= tol


def test_quadratic_form_positive():
    for grid in (interval_grid(1.0, n=800), unit_ball_grid(3, n=800)):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = _trig(grid, rng.standard_normal(6))
            val = grid.integrate_values(f * solve_neumann(grid, f))
            assert val >= 0.0


def test_inverse_identity_interior():
    grids = [(interval_grid(1.0, n=1000), 5e-6)] + [(unit_ball_grid(dim, n=1000), 5e-5) for dim in range(2, 7)]
    for grid, tol in grids:
        h = _trig(grid, [0.7, 0.3])
        lap = discrete_radial_laplacian(grid, solve_neumann(grid, h))
        interior = slice(3, -3)
        assert np.max(np.abs(lap[interior] + h[interior])) <= tol


def test_kappa_shift_odd_symmetry():
    grid = interval_grid(1.0, n=400)
    u = np.sin(2.0 * math.pi * grid.r)  # odd about 1/2
    for t in (0.5, 1.0, 2.0, 3.0):
        assert abs(kappa_shift(grid, u, t).kappa) <= 1e-10


def test_kappa_shift_linear_case_is_mean():
    grid = unit_ball_grid(2, n=400)
    u = grid.r**2 + 0.3
    assert kappa_shift(grid, u, 1.0).kappa == pytest.approx(-grid.mean_values(u), abs=1e-12)


def test_kappa_shift_cubic_closed_form():
    # solve ((1+k)^4 - k^4)/4 = 0 -> k = -1/2
    grid = interval_grid(1.0, n=1000)
    assert kappa_shift(grid, grid.r, 3.0).kappa == pytest.approx(-0.5, abs=1e-12)


def test_kappa_shift_monotone_in_data():
    grid = interval_grid(1.0, n=300)
    rng = np.random.default_rng(2)
    for t in (0.5, 1.5, 3.0):
        u = rng.standard_normal(grid.n + 1)
        v = u + np.abs(rng.standard_normal(grid.n + 1))
        assert u.max() <= v.max() + 1e-12
        assert kappa_shift(grid, u, t).kappa >= kappa_shift(grid, v, t).kappa - 1e-10


def _assert_sign_change(fn, lo, hi):
    if lo == hi:  # an evaluated point met the residual target
        assert fn(lo) == 0.0
    else:
        assert fn(lo) < 0.0 <= fn(hi)


@given(
    dim=st.integers(1, 6),
    t=st.floats(0.3, 4.0),
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda c: max(map(abs, c)) > 1e-3),
    decade=st.integers(-3, 3),
)
@settings(max_examples=150, deadline=None)
def test_root_solver_and_kappa_shift_properties(dim, t, coeffs, decade):
    grid = unit_ball_grid(dim, n=200)
    a, b, c = coeffs
    vals = 10.0**decade * (a * np.cos(math.pi * grid.r) + b * np.cos(2.0 * math.pi * grid.r) + c * grid.r)
    bound = float(np.max(np.abs(vals)))

    def moment(kappa):
        return grid.integrate_values(_signed_power(vals + kappa, t))

    def moment_and_slope(kappa):
        with np.errstate(divide="ignore"):  # t < 1 with a node on the root: an infinite slope
            return moment(kappa), t * grid.integrate_values(np.abs(vals + kappa) ** (t - 1.0))

    # without a slope or a start: bisection steps only
    lo, hi = solve_increasing(lambda kappa: (moment(kappa), math.nan), -2.0 * bound, 2.0 * bound)
    _assert_sign_change(moment, lo, hi)
    assert lo == hi or hi == np.nextafter(lo, np.inf)
    start = -grid.mean_values(vals)
    lo, hi = solve_increasing(moment_and_slope, -2.0 * bound, 2.0 * bound, start=start)
    _assert_sign_change(moment, lo, hi)
    assert lo == hi or hi == np.nextafter(lo, np.inf)
    kappa = kappa_shift(grid, vals, t).kappa
    # kappa_shift's own acceptance: the residual meets its target, or (t < 1
    # with a node value on the root) the moment changes sign within one float
    # spacing of kappa, so no representable shift does better
    in_tol = abs(moment(kappa)) <= 1e-12 * bound**t * grid.domain_measure
    assert in_tol or moment(np.nextafter(kappa, -np.inf)) <= 0.0 <= moment(np.nextafter(kappa, np.inf))


def _lopsided(root, seen):
    # lopsided data: from the flat side the true slope 1e-10 sends the
    # Newton step out of the bracket, so the search bisects; it reaches the
    # adjacent floats across the root in 53 evaluations without a slope and
    # in 51 with the true one
    def fn(x):
        value = 1e10 * (x - root) if x > root else -1e-10
        seen.append((x, value))
        return value

    return fn


def _assert_halves_every_five_steps(seen, lo, hi):
    widths = [hi - lo]
    for x, value in seen:
        if lo < x < hi:  # a step; an end evaluated again after the loop is not
            lo, hi = (x, hi) if value < 0.0 else (lo, x)
            widths.append(hi - lo)
    assert all(widths[k + 5] <= 0.5 * widths[k] for k in range(len(widths) - 5))


def test_root_solver_halves_the_bracket_every_five_steps():
    root = 0.9
    seen = []
    fn = _lopsided(root, seen)
    lo, hi = solve_increasing(lambda x: (fn(x), math.nan), 0.0, 1.0)
    assert lo == root and hi == np.nextafter(root, np.inf)
    _assert_halves_every_five_steps(seen, 0.0, 1.0)


WRONG_SLOPES = {
    "zero": lambda s: 0.0,
    "negative": lambda s: -s,
    "nan": lambda s: math.nan,
    "1e6x": lambda s: 1e6 * s,
}


@pytest.mark.parametrize("wrong", WRONG_SLOPES)
@pytest.mark.parametrize("start", [0.3, 0.95])
def test_root_solver_survives_a_wrong_slope(wrong, start):
    # a slope the Newton step cannot use leaves the bracket and its halving intact
    root = 0.9
    seen = []
    fn = _lopsided(root, seen)

    def with_slope(x):
        value = fn(x)
        return value, WRONG_SLOPES[wrong](1e10 if x > root else 1e-10)

    lo, hi = solve_increasing(with_slope, 0.0, 1.0, start=start)
    assert lo == root and hi == np.nextafter(root, np.inf)
    _assert_halves_every_five_steps(seen, 0.0, 1.0)
    # a smooth function: the returned bracket still holds the sign change
    def cubic(x):
        return (x - 0.3) ** 3 + 1e-3 * (x - 0.3)

    def cubic_with_slope(x):
        return cubic(x), WRONG_SLOPES[wrong](3.0 * (x - 0.3) ** 2 + 1e-3)

    lo, hi = solve_increasing(cubic_with_slope, 0.0, 1.0, start=start)
    _assert_sign_change(cubic, lo, hi)
    assert lo == hi or hi == np.nextafter(lo, np.inf)


def test_root_solver_with_slope_checks_the_ends_it_never_replaced():
    # every iterate lies above the root, so the bracket closes on lo, which
    # is then evaluated: no sign change raises, a root there is returned
    with pytest.raises(BracketError, match="no sign change"):
        solve_increasing(lambda x: (x + 1.0, 1.0), 0.0, 1.0, start=0.5)
    assert solve_increasing(lambda x: (x, 1.0), 0.0, 1.0, start=0.5) == (0.0, 0.0)
    with pytest.raises(BracketError, match="no sign change"):
        solve_increasing(lambda x: (x - 2.0, 1.0), 0.0, 1.0, start=0.5)


def test_root_solver_never_tests_a_stored_end_against_tol_again():
    # every value is at least 1 in size, above tol: an end stores the value
    # fn returned there, so the search closes on the adjacent floats across
    # the root without evaluating any point twice
    root = 0.9
    seen = []

    def fn(x):
        seen.append(x)
        return (1.0 + 1e10 * (x - root) if x > root else -1.0), math.nan

    assert solve_increasing(fn, 0.0, 1.0, tol=0.9) == (root, np.nextafter(root, np.inf))
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("start", [0.31, 0.2999999, 0.9, math.nan])
def test_root_solver_survives_newton_steps_that_always_overshoot(start):
    # f(x) = cbrt(x - r) with its true slope: every Newton step lands twice
    # as far from r, on the other side.  The true root r = 0.3 + 1e-17 lies
    # strictly between two floats, so no iterate meets f = 0
    low = 0.3
    seen = []

    def fn(x, slope=True):
        d = (x - low) - 1e-17
        seen.append(x)
        return float(np.cbrt(d)), abs(d) ** (-2.0 / 3.0) / 3.0 if slope else math.nan

    across = (low, np.nextafter(low, np.inf))
    assert solve_increasing(lambda x: fn(x, slope=False), 0.0, 1.0) == across
    bisections = len(seen)  # 54
    seen.clear()
    assert solve_increasing(fn, 0.0, 1.0, start=start) == across
    # an overshooting Newton step is never followed by another, and the
    # search stays within one evaluation of plain bisection
    assert len(seen) <= bisections + 1


def _kappa_shift_quadratures(grid, t, monkeypatch):
    # the search's quadratures: one for the start -mean(u), then two per
    # moment evaluation (M and M'); plain bisection to the residual target
    # takes about 57.  The target int |u - mean(u)|^t costs one more
    # quadrature per root, which is not counted
    u = np.cos(math.pi * grid.r) + 0.3 * np.cos(2.0 * math.pi * grid.r)
    calls = []
    integrate = RadialGrid.integrate_values

    def counted(self, values):
        calls.append(1)
        return integrate(self, values)

    monkeypatch.setattr(RadialGrid, "integrate_values", counted)
    kappa = kappa_shift(grid, u, t).kappa
    monkeypatch.undo()
    assert abs(kappa) > 0.05
    target = 1e-12 * grid.integrate_values(np.abs(u - grid.mean_values(u)) ** t)
    assert abs(grid.integrate_values(_signed_power(u + kappa, t))) <= target
    return len(calls) - 1


@pytest.mark.parametrize("t", [1.5, 2.0, 3.0])
def test_kappa_shift_moment_evaluations(t, monkeypatch):
    # Newton-bisection from -mean(u) takes 9 quadratures at each t
    assert _kappa_shift_quadratures(interval_grid(1.0, n=2000), t, monkeypatch) <= 9


@pytest.mark.parametrize("dim, t, bound", [(2, 2.0, 11), (2, 3.0, 11), (3, 2.0, 13), (3, 3.0, 13)])
def test_kappa_shift_moment_evaluations_on_balls(dim, t, bound, monkeypatch):
    # Newton-bisection from -mean(u) takes 11 at both t on the disk and 13 on the 3-ball.
    # On the 3-ball at t = 2 the fifth evaluation's residual 6e-12 meets the sup-scaled
    # target 1e-12 ||u||_inf^t |Omega| = 7e-12 but not 1e-12 int |u - mean(u)|^t = 4e-13,
    # so a sixth evaluation (two more quadratures) follows
    assert _kappa_shift_quadratures(unit_ball_grid(dim, n=2000), t, monkeypatch) <= bound


def test_kappa_shift_rejects_non_finite_moment():
    grid = interval_grid(1.0, n=200)
    with pytest.raises(KappaShiftError, match="not finite"):
        kappa_shift(grid, 1e100 * (grid.r - 0.3), 4.0)


def test_kappa_shift_rejects_a_root_without_sign_change(monkeypatch):
    # u = 1/2 puts every node at 1/2 + kappa, and t = 1/2 makes the moment's
    # integrand sqrt(1/2 + kappa) there.  The stand-in moment is -1 below the
    # root kappa = -1/2 and +1 above it, except at the float just above, where
    # it dips back to -1: the solver ends at the adjacent pair around -1/2,
    # but the moment does not change sign across the floats next to it
    grid = interval_grid(1.0, n=50)
    t = 0.5

    def step_moment(dip):
        return lambda self, values: 1.0 if values[0] >= 0.0 and values[0] != dip else -1.0

    monkeypatch.setattr(RadialGrid, "integrate_values", step_moment((0.5 + np.nextafter(-0.5, np.inf)) ** t))
    with pytest.raises(KappaShiftError, match="did not converge"):
        kappa_shift(grid, np.full_like(grid.r, 0.5), t)
    # without the dip the same adjacent pair is accepted
    monkeypatch.setattr(RadialGrid, "integrate_values", step_moment(None))
    assert kappa_shift(grid, np.full_like(grid.r, 0.5), t).kappa == -0.5


def _shift_profiles():
    # an interval profile and an origin-peaked 3-ball profile, neither with a root at -mean
    line = interval_grid(1.0, n=2000)
    ball = unit_ball_grid(3, n=2000)
    return [
        (line, np.cos(math.pi * line.r) + 0.3 * np.cos(2.0 * math.pi * line.r)),
        (ball, np.cos(math.pi * ball.r) + 0.3 * np.cos(2.0 * math.pi * ball.r)),
    ]


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 3.0])
def test_kappa_shift_returns_the_signed_power_at_its_root(t):
    for grid, u in _shift_profiles():
        kappa, power, evaluations = kappa_shift(grid, u, t)
        assert np.array_equal(power, _signed_power(u + kappa, t))
        assert (evaluations == 0) == (t == 1.0)  # only t = 1 has a closed form


def test_kappa_shift_at_t_one_is_minus_the_mean():
    rng = np.random.default_rng(5)
    for grid in (interval_grid(1.0, n=500), unit_ball_grid(2, n=500), unit_ball_grid(5, n=500)):
        for decade in (-3, 0, 3):
            u = 10.0**decade * rng.standard_normal(grid.n + 1) + rng.standard_normal()
            kappa, power, evaluations = kappa_shift(grid, u, 1.0)
            assert kappa == -grid.mean_values(u) and evaluations == 0
            # the residual target the root search used to meet
            assert abs(grid.integrate_values(u + kappa)) <= 1e-12 * np.max(np.abs(u)) * grid.domain_measure
        for bad in (np.nan, np.inf):
            u = np.cos(math.pi * grid.r)
            u[7] = bad
            with pytest.raises(KappaShiftError, match="not finite"):
                kappa_shift(grid, u, 1.0)


@pytest.mark.parametrize("t", [1.5, 2.0, 3.0])
def test_kappa_shift_warm_start_meets_the_target_from_any_guess(t):
    grid, u = _shift_profiles()[1]
    bound = float(np.max(np.abs(u)))
    target = 1e-12 * bound**t * grid.domain_measure
    cold = kappa_shift(grid, u, t)
    assert cold.evaluations > 1  # -mean(u) misses, so the guess is used
    for guess in [*np.linspace(-2.0 * bound, 2.0 * bound, 41)[1:-1], cold.kappa, np.nextafter(cold.kappa, np.inf)]:
        kappa, power, evaluations = kappa_shift(grid, u, t, guess)
        assert abs(grid.integrate_values(power)) <= target
        assert np.array_equal(power, _signed_power(u + kappa, t))
        assert evaluations <= 20
    # the guess is the first evaluation, so a guess at the previous root meets the target there
    assert kappa_shift(grid, u, t, cold.kappa).evaluations == 1


@pytest.mark.parametrize("dim", [1, 2])
def test_kappa_shift_without_a_guess_meets_the_sup_scaled_bound(dim):
    # a steep profile at a large t: the moment's mass at -mean(u) lies 1e5 to
    # 1e6 times above the bound, which a guess-free root must meet as well
    grid = make_grid(dim, 2000)
    u = np.tanh(40.0 * (grid.r - 0.9))
    kappa, power, _ = kappa_shift(grid, u, 29.0)
    assert abs(grid.integrate_values(power)) <= 1e-12 * np.max(np.abs(u)) ** 29 * grid.domain_measure


@pytest.mark.parametrize("t", [0.3, 0.5, 0.9])
def test_kappa_shift_below_one_meets_its_rule_from_any_guess(t):
    for grid, u in _shift_profiles():
        bound = float(np.max(np.abs(u)))
        target = 1e-12 * bound**t * grid.domain_measure

        def moment(kappa):
            return grid.integrate_values(_signed_power(u + kappa, t))

        cold = kappa_shift(grid, u, t)
        for guess in [*np.linspace(-2.0 * bound, 2.0 * bound, 41)[1:-1], cold.kappa, np.nextafter(cold.kappa, np.inf)]:
            kappa, power, evaluations = kappa_shift(grid, u, t, guess)
            assert np.array_equal(power, _signed_power(u + kappa, t))
            below, above = np.nextafter(kappa, -np.inf), np.nextafter(kappa, np.inf)
            assert abs(moment(kappa)) <= target or moment(below) <= 0.0 <= moment(above)
            assert evaluations <= 20
        # Newton steps from the previous root: a guess at the root is met at once
        assert kappa_shift(grid, u, t, cold.kappa).evaluations <= 2


@pytest.mark.parametrize("t", [0.3, 0.5, 0.9, 1.5, 3.0])
def test_kappa_shift_meets_a_root_at_minus_the_mean_in_one_evaluation(t):
    # cos(pi r) on (0, 1) is odd about 1/2, so kappa = 0 = -mean(u) is the
    # root for every t; the first evaluation meets the target there
    grid = interval_grid(1.0, n=2001)
    u = np.cos(math.pi * grid.r)
    kappa, power, evaluations = kappa_shift(grid, u, t)
    assert evaluations == 1
    assert abs(kappa) <= 1e-15
    assert np.array_equal(power, _signed_power(u + kappa, t))
    # zero data: the moment and its mass vanish at -mean(u) = 0
    kappa, power, evaluations = kappa_shift(grid, np.zeros_like(u), t)
    assert kappa == 0.0 and evaluations == 1 and not np.any(power)


@pytest.mark.parametrize("t, on_line, on_ball", [(0.1, 13, 24), (0.3, 7, 10), (0.5, 6, 7), (0.7, 6, 6), (0.9, 5, 5)])
def test_kappa_shift_below_one_cold_evaluations(t, on_line, on_ball):
    # a cold root starts from the Newton step at -mean(u) on the side that
    # holds the root; Newton-bisection takes 12, 6, 5, 5, 4 evaluations on
    # the interval and 21, 9, 6, 5, 4 on the 3-ball
    for (grid, u), bound in zip(_shift_profiles(), (on_line, on_ball)):
        kappa, power, evaluations = kappa_shift(grid, u, t)
        assert evaluations <= bound
        moment = grid.integrate_values(power)
        below = grid.integrate_values(_signed_power(u + np.nextafter(kappa, -np.inf), t))
        above = grid.integrate_values(_signed_power(u + np.nextafter(kappa, np.inf), t))
        target = 1e-12 * grid.integrate_values(np.abs(u - grid.mean_values(u)) ** t)
        assert abs(moment) <= target or below <= 0.0 <= above


def test_kappa_shift_matches_bisection_on_an_origin_peaked_large_power():
    # on a ball a profile peaked at the origin has int |u|^29 far below
    # ||u||_inf^29 |Omega|, where the weight r^4 vanishes; a residual target
    # on that sup scale accepted a kappa about 4e-4 off the root
    grid = unit_ball_grid(5, n=2000)
    u = _mean_zero(grid, np.exp(-8.0 * grid.r**2))
    t = 29.0

    def moment(kappa):
        return grid.integrate_values(_signed_power(u + kappa, t))

    bound = float(np.max(np.abs(u)))
    lo, hi = -2.0 * bound, 2.0 * bound
    while lo < 0.5 * (lo + hi) < hi:  # plain bisection to adjacent floats
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if moment(mid) < 0.0 else (lo, mid)
    kappa, power, _ = kappa_shift(grid, u, t)
    assert abs(kappa - hi) <= 1e-10 * abs(hi)
    assert np.array_equal(power, _signed_power(u + kappa, t))


def _apply_K_t(grid, h, t):
    """K_t h = K h + kappa_t: the Neumann solve renormalized so that the
    t-mean int |w|^(t-1) w of the output vanishes."""
    w = solve_neumann(grid, h)
    return w + kappa_shift(grid, w, t).kappa


def test_apply_K_t_matches_plain_solve_at_t_one():
    grid = interval_grid(1.0, n=500)
    h = _trig(grid, [1.0, 0.5, -0.1])
    w1 = _apply_K_t(grid, h, 1.0)
    w2 = solve_neumann(grid, h)
    assert np.max(np.abs(w1 - w2)) <= 1e-13


def test_apply_K_t_normalization_residual():
    grid = interval_grid(1.0, n=800)
    rng = np.random.default_rng(9)
    for t in (0.5, 2.0, 3.0):
        h = _trig(grid, rng.standard_normal(4))
        w = _apply_K_t(grid, h, t)
        moment = grid.integrate_values(np.sign(w) * np.abs(w) ** t)
        assert abs(moment) <= 1e-11 * max(np.max(np.abs(w)) ** t * grid.domain_measure, 1e-30)


def test_balanced_shift_examples():
    grid = interval_grid(1.0, n=1000)
    assert balanced_shift(grid, grid.r) == pytest.approx(-0.5, abs=1e-12)
    assert balanced_shift(grid, grid.r**2) == pytest.approx(-0.25, abs=1e-12)
    assert abs(balanced_shift(grid, np.cos(math.pi * grid.r))) <= 1e-12


def test_balanced_shift_weighted_measures():
    # on the disk the median is in the r^{N-1} measure: {r^2 + c > 0} has mass 1/2
    grid = unit_ball_grid(2, n=1000)
    c = balanced_shift(grid, grid.r**2)
    # measure{r^2 > -c} = 1 - (-c) must equal 1/2 in the r dr measure
    assert c == pytest.approx(-0.5, abs=1e-3)


def test_balanced_shift_plateau_midpoint():
    grid = interval_grid(1.0, n=1000)
    vals = np.where(grid.r < 0.3, -1.0, np.where(grid.r > 0.7, 1.0, 0.0))
    # admissible interval is the plateau gap; its midpoint is deterministic
    c = balanced_shift(grid, vals)
    assert c == pytest.approx(0.0, abs=1e-12)
