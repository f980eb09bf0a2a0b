import dataclasses
import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumannlab import dual, greens
from neumannlab.dual import (
    DegenerateIterateError,
    NonConvergenceError,
    SolverOptions,
    _best_response,
    compute_dual,
    compute_lambda,
    oracle_dual_smallgrid,
    reconstruct_solution,
)
from neumannlab.exponents import ExponentPair, HyperbolaError, Region, classify_region
from neumannlab.greens import KappaShiftError, NumericalFailure, kappa_shift
from neumannlab.grid import GridFunction, RadialGrid, interval_grid, make_grid, unit_ball_grid

J11 = 3.8317059702075125  # first positive root of J_1


@pytest.fixture(scope="module")
def line():
    return interval_grid(1.0, n=2000)


@pytest.fixture(scope="module")
def disk():
    return unit_ball_grid(2, n=2000)


def test_interval_linear_eigenvalue(line):
    dp = compute_dual(ExponentPair(1.0, 1.0, 1), line)
    assert dp.d_estimate == pytest.approx(1.0 / math.pi**2, rel=1e-6)


def test_disk_radial_bessel_eigenvalue(disk):
    dp = compute_dual(ExponentPair(1.0, 1.0, 2), disk)
    assert 1.0 / dp.d_estimate == pytest.approx(J11**2, rel=1e-5)


def test_unit_norm_invariant(line):
    e = ExponentPair(2.0, 3.0, 1)
    dp = compute_dual(e, line)
    assert line.lp_norm_values(dp.f.values, e.alpha) == pytest.approx(1.0, abs=1e-12)
    assert line.lp_norm_values(dp.g.values, e.beta) == pytest.approx(1.0, abs=1e-12)


def test_swap_symmetry(line):
    d1 = compute_dual(ExponentPair(2.0, 3.0, 1), line).d_estimate
    d2 = compute_dual(ExponentPair(3.0, 2.0, 1), line).d_estimate
    assert d1 == pytest.approx(d2, rel=1e-8)


@given(dim=st.integers(1, 3), p=st.floats(1.25, 4.0), q=st.floats(1.25, 4.0))
@settings(max_examples=20, deadline=None)
def test_swap_symmetry_property(dim, p, q):
    grid = make_grid(dim=dim, n=200)
    d1 = compute_dual(ExponentPair(p, q, dim), grid).d_estimate
    d2 = compute_dual(ExponentPair(q, p, dim), grid).d_estimate
    assert d1 == pytest.approx(d2, rel=1e-8)


def test_delta_lower_bound_never_violated(line):
    """D is a supremum, so the quotient of the mean-zero first cosine mode bounds it below."""
    grids = [line] + [unit_ball_grid(N, n=800) for N in range(2, 7)]
    for grid in grids:
        psi = np.cos(math.pi * grid.r / grid.length)
        psi -= grid.mean_values(psi)
        psi_k_psi = grid.integrate_values(psi * greens.solve_neumann(grid, psi))
        for p, q in [(1.0, 1.0), (2.0, 3.0), (0.5, 2.0)]:
            e = ExponentPair(p, q, grid.dim)
            if classify_region(e) == Region.SUPERCRITICAL:
                continue  # (2, 3) on N = 5, 6
            d = compute_dual(e, grid).d_estimate
            bound = psi_k_psi / (grid.lp_norm_values(psi, e.alpha) * grid.lp_norm_values(psi, e.beta))
            assert d >= bound - 1e-12, (grid.dim, p, q)


def test_quotient_history_feasible(line):
    dp = compute_dual(ExponentPair(2.0, 2.0, 1), line)
    assert max(dp.d_history) <= dp.d_estimate + 1e-9


def test_lambda_is_reciprocal(line):
    e = ExponentPair(2.0, 2.0, 1)
    dp = compute_dual(e, line)
    lam = compute_lambda(e, line)
    assert lam * dp.d_estimate == pytest.approx(1.0, rel=1e-12)


def test_mu1_is_lambda_of_inverse_exponent(line):
    # mu_{1,q} = Lambda_{1/q, q}: same code path, here exercised at q = 2
    e = ExponentPair(0.5, 2.0, 1)
    assert compute_lambda(e, line) == pytest.approx(
        1.0 / compute_dual(e, line).d_estimate, rel=1e-12
    )


def test_reconstruction_identities(line):
    e = ExponentPair(3.0, 3.0, 1)
    rep = reconstruct_solution(e, compute_dual(e, line))
    assert rep.converged
    assert rep.u.values[0] > 0  # sign convention
    assert rep.lam * rep.D == pytest.approx(1.0, rel=1e-12)
    # u = v for p = q
    assert np.max(np.abs(rep.u.values - rep.v.values)) <= 1e-6 * rep.u.sup_norm()
    # c = ((pq-1)/((p+1)(q+1))) int |u|^{p+1}
    int_u = line.integrate_values(np.abs(rep.u.values) ** 4)
    assert rep.c == pytest.approx(0.5 * int_u, rel=1e-8)
    assert rep.c_energy == pytest.approx(rep.c, rel=1e-8)


def test_reconstruction_residuals_small(line):
    e = ExponentPair(3.0, 2.0, 1)
    rep = reconstruct_solution(e, compute_dual(e, line))
    scale = np.max(np.abs(rep.v.values)) ** e.q
    assert rep.residual_u <= 1e-4 * scale
    assert rep.converged


@pytest.mark.parametrize("n", [2000, 20000])
@pytest.mark.parametrize("p, q, dim", [(2.0, 3.0, 3), (1.5, 1.5, 4), (1.5, 1.5, 5), (1.5, 1.5, 6)])
def test_reconstruction_converges_on_higher_balls(p, q, dim, n):
    e = ExponentPair(p, q, dim)
    rep = reconstruct_solution(e, compute_dual(e, unit_ball_grid(dim, n)))
    assert rep.converged


def test_residual_refinement_order():
    e = ExponentPair(3.0, 2.0, 1)
    res = []
    for n in (250, 500, 1000):
        grid = interval_grid(1.0, n=n)
        rep = reconstruct_solution(e, compute_dual(e, grid))
        res.append(max(rep.residual_u, rep.residual_v))
    orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


@pytest.mark.parametrize("p, q, dim", [(3.0, 2.0, 1), (0.5, 3.0, 2), (2.0, 2.0, 3)])
def test_reconstruction_flips_a_negated_pair_back_bit_for_bit(p, q, dim):
    # (-f, -g) is as good a maximizer; the kappa roots of -K g and -K f are the
    # negated roots, so exactly one of the two pairs takes the u(0) < 0 flip
    e = ExponentPair(p, q, dim)
    dp = compute_dual(e, make_grid(dim, 2000))
    grid = dp.f.grid
    negated = dataclasses.replace(
        dp,
        f=GridFunction(grid, -dp.f.values),
        g=GridFunction(grid, -dp.g.values),
        kf=-dp.kf,
        kg=-dp.kg,
        kappa_kf=None if dp.kappa_kf is None else -dp.kappa_kf,
        kappa_kg=-dp.kappa_kg,
    )
    rep, flipped = reconstruct_solution(e, dp), reconstruct_solution(e, negated)
    assert rep.u.values[0] > 0.0
    assert np.array_equal(flipped.u.values, rep.u.values) and np.array_equal(flipped.v.values, rep.v.values)


@pytest.mark.parametrize("p, q, dim, n", [(2.0, 29.0, 3, 10), (29.0, 1.0, 4, 9)])
def test_a_kappa_bracket_without_a_sign_change_is_a_kappa_shift_error(p, q, dim, n):
    # every grid weight is positive, so the moment changes sign on the bracket;
    # an origin weight replaced by -1 keeps the t = 29 moment of the start
    # potential, which peaks at the origin, below 0 up to kappa = 2 ||K g||_inf
    e = ExponentPair(p, q, dim)
    grid = make_grid(dim, n)
    kg = dual._start(e, grid, None)
    assert compute_dual(e, grid).d_estimate > 0.0
    skewed = dataclasses.replace(grid, weights=np.concatenate(([-1.0], grid.weights[1:])))
    with pytest.raises(KappaShiftError, match="no sign change"):
        kappa_shift(skewed, kg, max(p, q))


def test_a_negative_weighted_power_sum_is_a_numerical_failure():
    # make_grid's weights are all positive, but a caller may replace them; an origin
    # weight of -1 makes the start's weighted sum of |g|^beta negative, whose
    # (1/beta)-th power was a complex number
    grid = make_grid(3, 10)
    skewed = dataclasses.replace(grid, weights=np.concatenate(([-1.0], grid.weights[1:])))
    with pytest.raises(NumericalFailure, match="weighted sum of .* is -.* < 0: a quadrature weight is negative"):
        compute_dual(ExponentPair(2.0, 2.0, 3), skewed)


@pytest.mark.parametrize(
    "p, q, length, power, order",
    [
        (1.0, 0.999, 1.0, "1998", "-1987"),
        (0.999, 1.0, 1.0, "1999", "-1988"),
        (1.0, 0.999, 2.0 * math.pi, "1998", "1203"),
        (1.0, 0.9956, 2.0 * math.pi, "907.091", "547"),  # u and v fit, but c = D^-ratio / ratio would overflow
    ],
    ids=["underflow", "underflow-u", "overflow", "level-overflow"],
)
def test_a_scale_outside_the_doubles_near_pq_1_is_a_numerical_failure(p, q, length, power, order):
    # near pq = 1 the D-powers of u, v and c leave the doubles: no all-zero (or inf) solution may be reported
    e = ExponentPair(p, q, 1)
    dp = compute_dual(e, interval_grid(length, n=2000))
    with pytest.raises(NumericalFailure, match=rf"D\^{power} is about 1e{order}, outside the normal doubles; "):
        reconstruct_solution(e, dp)


def test_reconstruction_rejects_hyperbola(line):
    dp = compute_dual(ExponentPair(1.0, 1.0, 1), line)
    with pytest.raises(HyperbolaError):
        reconstruct_solution(ExponentPair(1.0, 1.0, 1), dp)


def test_compute_dual_rejects_sign_case(line):
    with pytest.raises(ValueError):
        compute_dual(ExponentPair(0.0, 1.0, 1), line)


@pytest.mark.parametrize(
    "p, q, dim, region",
    [
        (8.0, 8.0, 6, Region.SUPERCRITICAL),
        (5.0, 2.0, 4, Region.CRITICAL_INADMISSIBLE),  # q = 2 is below 7/3
        (2.0, 2.0, 6, Region.CRITICAL_ADMISSIBLE),
        (1.0, 5.0, 6, Region.CRITICAL_INADMISSIBLE),
        (5.0, 1.0, 6, Region.CRITICAL_INADMISSIBLE),
    ],
    ids=["supercritical", "critical-inadmissible", "critical-admissible", "critical-1-5", "critical-5-1"],
)
def test_compute_dual_rejects_supercritical(p, q, dim, region):
    # on critical pairs the radial maximizer concentrates at the origin at
    # grid scale, so the discrete level is an artifact of the origin rule
    e = ExponentPair(p, q, dim)
    assert classify_region(e) == region
    match = "supercritical" if region == Region.SUPERCRITICAL else "concentrates at the origin"
    with pytest.raises(ValueError, match=match):
        compute_dual(e, unit_ball_grid(dim, n=200))


@pytest.mark.parametrize("p, q", [(1.0, 12.0), (12.0, 1.0)])
def test_large_exponent_is_not_a_collapse(p, q):
    # |K g + kappa|^12 is about 6e-15 in absolute terms on the 3-ball, yet
    # the pair is subcritical (1/2 + 1/13 > 1/3) and the iterate is fine
    grid = unit_ball_grid(3, n=2000)
    e = ExponentPair(p, q, 3)
    dp = compute_dual(e, grid)
    assert reconstruct_solution(e, dp).converged
    swapped = compute_dual(ExponentPair(q, p, 3), grid).d_estimate
    assert dp.d_estimate == pytest.approx(swapped, rel=1e-8)


def test_best_response_scale_invariant_and_collapse_detected():
    grid = unit_ball_grid(3, n=400)
    w = np.cos(math.pi * grid.r)
    w -= grid.mean_values(w)
    f = _best_response(grid, w, 12.0, 13.0 / 12.0)[0]
    assert np.max(np.abs(_best_response(grid, 1e-3 * w, 12.0, 13.0 / 12.0)[0] - f)) <= 1e-12
    with pytest.raises(DegenerateIterateError):
        _best_response(grid, np.full(grid.n + 1, 0.3), 2.0, 1.5)


def test_nonconvergence_carries_diagnostics(line):
    with pytest.raises(NonConvergenceError) as info:
        compute_dual(ExponentPair(2.0, 3.0, 1), line, SolverOptions(max_iter=2))
    err = info.value
    assert err.iterations == 2
    assert err.d_estimate > 0
    assert err.oscillation >= 0


def test_kimage_stop_recovers_the_level_on_a_slow_pair():
    # (2, 2) on N = 5 takes the most sweeps of the dual scan, and D flattens
    # quadratically in the pair's error: a stop on D flat over 8 sweeps ends
    # it 7.3e-11 short with an operator-form defect of 6.0e-6, while the
    # K-image step must end within 1e-12 of the tightest accepted tol
    e = ExponentPair(2.0, 2.0, 5)
    grid = make_grid(dim=5, n=2000)
    dp = compute_dual(e, grid)
    tight = compute_dual(e, grid, SolverOptions(tol=dual.TOL_FLOOR))
    assert 0.0 <= dp.k_step <= SolverOptions().tol
    assert 0.0 <= tight.k_step <= dual.TOL_FLOOR
    assert dp.d_estimate == pytest.approx(tight.d_estimate, rel=1e-12)
    rep = reconstruct_solution(e, dp)
    assert rep.converged and rep.k_step == dp.k_step
    rhs = greens._signed_power(rep.v.values, e.q)
    defect = rep.u.values - grid.mean_values(rep.u.values) - greens.green_apply(grid, rhs - grid.mean_values(rhs))
    assert np.max(np.abs(defect)) <= 1e-9 * np.max(np.abs(rep.u.values))


def test_v_defect_sees_the_shift_of_u_below_p_one():
    # at p < 1 <= q `converged` gates the u equation only, whose stencil is
    # blind to a constant shift of u; the v equation's operator-form defect
    # (as scans/run.py defines it) sees one: 4.3e-5 here, at most 2.3e-4 over
    # the dual scan's p < 1 <= q solves, and 0.10 with kappa dropped from u
    e = ExponentPair(0.01, 1.0, 2)
    grid = make_grid(dim=2, n=2000)
    rep = reconstruct_solution(e, compute_dual(e, grid))
    rhs = greens._signed_power(rep.u.values, e.p)
    defect = rep.v.values - grid.mean_values(rep.v.values) - greens.green_apply(grid, rhs - grid.mean_values(rhs))
    assert np.max(np.abs(defect)) <= 1e-3 * np.max(np.abs(rep.v.values))


def test_hoelder_stencil_residual_decays_like_h_to_the_p():
    # why `converged` gates no equation whose exponent is below 1: at the
    # zero of u the right side |u|^(p-1) u is only Hoelder-p, so the full
    # stencil residual of the v equation decays like h^p, not h^2 (LeVeque,
    # Finite Difference Methods for ODEs and PDEs, 2007, ch. 2), and no
    # fixed bound on it holds at every n
    e = ExponentPair(0.5, 3.0, 1)
    rel = []
    for n in (2000, 8000):
        rep = reconstruct_solution(e, compute_dual(e, interval_grid(1.0, n)))
        assert rep.converged
        rel.append(rep.residual_v / np.max(np.abs(greens._signed_power(rep.u.values, e.p))))
    assert math.log(rel[0] / rel[1]) / math.log(4.0) >= 0.9 * e.p
    assert rel[1] > dual.RESIDUAL_TOL  # a gate at RESIDUAL_TOL would refuse this solve at every n


def test_a_cold_3_2_solve_on_the_3_ball_takes_at_most_13_sweeps():
    # plain alternation took 23 sweeps; each f answers the secant mix of the last two K g
    assert compute_dual(ExponentPair(3.0, 2.0, 3), make_grid(3, 2000)).iterations <= 13


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("p, q", [(3.0, 2.0), (2.0, 2.0), (1.0, 1.0)])
def test_a_mixed_solve_ends_at_the_tight_level(p, q, dim):
    e, grid = ExponentPair(p, q, dim), make_grid(dim, 2000)
    tight = compute_dual(e, grid, SolverOptions(tol=dual.TOL_FLOOR))
    assert compute_dual(e, grid).d_estimate == pytest.approx(tight.d_estimate, rel=1e-13)


def _mixed_sweeps(monkeypatch, e: ExponentPair, grid) -> tuple[dual.DualPair, int]:
    """The solve and its sweeps whose f answered a K image other than the previous sweep's K g."""
    inputs, images = [], []
    real_response, real_apply = dual._best_response, dual.green_apply

    def response(grid, w, expo, norm_expo, guess=None):
        if len(inputs) == len(images) // (1 if e.p == e.q else 2):
            inputs.append(w.copy())  # the sweep's first best response, f
        return real_response(grid, w, expo, norm_expo, guess)

    monkeypatch.setattr(dual, "_best_response", response)
    monkeypatch.setattr(dual, "green_apply", lambda grid, values: images.append(real_apply(grid, values)) or images[-1])
    dp = compute_dual(e, grid)
    kg = images if e.p == e.q else images[1::2]
    return dp, sum(not np.array_equal(w, k) for w, k in zip(inputs[1:], kg))


@pytest.mark.parametrize("p, q, dim", [(3.0, 2.0, 3), (2.0, 2.0, 2), (0.5, 3.0, 2), (3.0, 0.5, 1)])
def test_only_exponents_of_at_least_1_are_mixed(monkeypatch, caplog, p, q, dim):
    caplog.set_level(logging.DEBUG, logger="neumannlab")
    e = ExponentPair(p, q, dim)
    dp, mixed = _mixed_sweeps(monkeypatch, e, make_grid(dim, 2000))
    assert (mixed > 0) == (min(p, q) >= 1.0)
    (record,) = [r for r in caplog.records if r.name == "neumannlab.dual"]
    found = re.search(r"after (\d+) sweeps \((\d+) mixed, (\d+) history resets\)", record.getMessage())
    assert (int(found[1]), int(found[2])) == (dp.iterations, mixed)
    # a reset follows a drop of D, and neither the first nor the second sweep mixes
    assert int(found[3]) <= sum(b < a for a, b in zip(dp.d_history, dp.d_history[1:]))
    assert mixed + int(found[3]) <= dp.iterations - 2


def test_a_nested_solve_logs_each_levels_mixing(caplog):
    caplog.set_level(logging.DEBUG, logger="neumannlab")
    dp = compute_dual(ExponentPair(3.0, 2.0, 1), make_grid(1, 8000))
    messages = [r.getMessage() for r in caplog.records if r.name == "neumannlab.dual"]
    sweeps = [int(re.search(r"on n=%d: .* after (\d+) sweeps \(\d+ mixed, \d+ history resets\)" % n, m)[1])
              for n, m in zip((dual.COARSE_N, 8000), messages)]
    assert len(messages) == 2 and sweeps == [dp.coarse_start["sweeps"], dp.iterations]


@pytest.mark.parametrize("dim", range(1, 7))
def test_tiny_exponents_solve_without_warning(dim):
    # beta = 1 + 1/q = 10001: |g|^beta overflowed the start's norm once ||g||_inf passed 1.0001
    e = ExponentPair(1e-4, 1e-4, dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dp = compute_dual(e, make_grid(dim, 2000))
        rep = reconstruct_solution(e, dp)
    assert 0.0 <= dp.k_step <= SolverOptions().tol and dp.iterations < SolverOptions().max_iter
    assert rep.converged and math.isfinite(rep.c) and rep.c < 0.0


def _count_green_applies(monkeypatch) -> list:
    # the loop calls the kernel by the name dual imported, the cold start
    # through solve_neumann, which reaches it as greens.green_apply
    calls = []
    for owner in (dual, greens):
        real_apply = owner.green_apply

        def counted(grid, values, real_apply=real_apply):
            calls.append(1)
            return real_apply(grid, values)

        monkeypatch.setattr(owner, "green_apply", counted)
    return calls


@pytest.mark.parametrize("p, q, per_sweep", [(3.0, 2.0, 2), (2.0, 2.0, 1)])
def test_green_applies_per_sweep(line, monkeypatch, p, q, per_sweep):
    calls = _count_green_applies(monkeypatch)
    dp = compute_dual(ExponentPair(p, q, 1), line)
    assert 0 < len(calls) <= per_sweep * dp.iterations + 1  # the start's K g is carried


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("p, q", [(0.5, 3.0), (3.0, 2.0)])
def test_loop_hands_the_kernel_mean_zero_data(monkeypatch, p, q, dim):
    # the loop skips solve_neumann's compatibility check; its data must pass it
    grid = make_grid(dim, 2000)
    calls = []
    real_apply = dual.green_apply

    def checked(grid, values):
        calls.append(values.copy())
        return real_apply(grid, values)

    monkeypatch.setattr(dual, "green_apply", checked)
    dp = compute_dual(ExponentPair(p, q, dim), grid)
    assert len(calls) == 2 * dp.iterations
    for h in calls:
        assert abs(grid.integrate_values(h)) <= 1e-10 * grid.integrate_values(np.abs(h))


@pytest.mark.parametrize("p, q, dim", [(3.0, 2.0, 1), (2.0, 2.0, 3), (0.5, 3.0, 2)])
def test_reconstruction_from_the_carried_k_images(p, q, dim):
    e = ExponentPair(p, q, dim)
    grid = make_grid(dim, 1000)
    dp = compute_dual(e, grid)
    kf, kg = greens.solve_neumann(grid, dp.f.values), greens.solve_neumann(grid, dp.g.values)
    assert np.array_equal(dp.kf, kf) and np.array_equal(dp.kg, kg)
    carried = reconstruct_solution(e, dp)
    recomputed = reconstruct_solution(e, dataclasses.replace(dp, kf=kf, kg=kg))
    assert np.array_equal(carried.u.values, recomputed.u.values)
    assert np.array_equal(carried.v.values, recomputed.v.values)


@pytest.mark.parametrize("p, dim", [(2.0, 1), (0.5, 2), (3.0, 3)])
def test_a_p_equals_q_reconstruction_searches_one_kappa_root(p, dim, monkeypatch):
    # the loop keeps one array as K f and K g, so the u root serves v
    e = ExponentPair(p, p, dim)
    grid = make_grid(dim, 1000)
    dp = compute_dual(e, grid)
    # v from its own search of the q root of K f, from the guess the reconstruction takes
    kappa = dual.kappa_shift(grid, dp.kf, p, dp.kappa_kg).kappa
    v = dp.d_estimate ** (-p * (p + 1.0) / (p * p - 1.0)) * (dp.kf + kappa)
    calls = []
    real_shift = dual.kappa_shift

    def counted(grid, values, t, guess=None):
        calls.append(t)
        return real_shift(grid, values, t, guess)

    monkeypatch.setattr(dual, "kappa_shift", counted)
    rep = reconstruct_solution(e, dp)
    assert calls == [p]
    assert np.array_equal(rep.v.values, np.sign(v[0]) * v)
    assert np.array_equal(rep.u.values, rep.v.values)


def test_kappa_evaluations_add_up(line, monkeypatch):
    spent = []
    real_shift = dual.kappa_shift

    def counted(grid, values, t, guess=None):
        root = real_shift(grid, values, t, guess)
        spent.append(root.evaluations)
        return root

    monkeypatch.setattr(dual, "kappa_shift", counted)
    dp = compute_dual(ExponentPair(3.0, 2.0, 1), line)
    assert dp.kappa_evaluations == sum(spent) >= 2 * dp.iterations
    spent.clear()
    # at p = q = 1 every root is the closed form -mean(K g)
    assert compute_dual(ExponentPair(1.0, 1.0, 1), line).kappa_evaluations == 0 == sum(spent)


def test_a_nested_solve_hands_its_kappa_roots_along(monkeypatch):
    # the coarse level's last p and q roots are the fine loop's first
    # guesses, and the loop's last p root is the reconstruction's
    e = ExponentPair(3.0, 2.0, 2)
    calls = []
    real_shift = dual.kappa_shift

    def counted(grid, values, t, guess=None):
        root = real_shift(grid, values, t, guess)
        calls.append((grid.n, t, guess, root))
        return root

    monkeypatch.setattr(dual, "kappa_shift", counted)
    dp = compute_dual(e, make_grid(2, 8000))
    coarse = [(t, root.kappa) for n, t, _, root in calls if n == dual.COARSE_N]
    fine = [(t, guess, root) for n, t, guess, root in calls if n == 8000]
    assert coarse[-2:] == [(e.p, fine[0][1]), (e.q, fine[1][1])]
    assert [t for t, _, _ in fine] == [e.p, e.q] * dp.iterations
    assert (dp.kappa_kg, dp.kappa_kf) == (fine[-2][2].kappa, fine[-1][2].kappa)
    calls.clear()
    reconstruct_solution(e, dp)
    [(n, t, guess, root)] = calls
    assert (t, guess) == (e.p, dp.kappa_kg) and root.evaluations <= 2


def test_a_nested_solve_lifts_one_function(monkeypatch):
    # the fine loop starts from K g alone, so only the coarse g is lifted
    lifted = []
    real_cubic_at = RadialGrid.cubic_at

    def counted(self, values, r):
        lifted.append(len(r))
        return real_cubic_at(self, values, r)

    monkeypatch.setattr(RadialGrid, "cubic_at", counted)
    compute_dual(ExponentPair(3.0, 2.0, 2), make_grid(2, 8000))
    assert lifted.count(8001) == 1


def test_warm_start_reuses_the_carried_k_image(line, monkeypatch):
    warm = compute_dual(ExponentPair(2.0, 1.0, 1), line)
    calls = _count_green_applies(monkeypatch)
    dp = compute_dual(ExponentPair(2.1, 1.0, 1), line, warm_start=warm)
    assert 0 < len(calls) == 2 * dp.iterations


def test_warm_start_agrees_with_cold(line):
    e1 = ExponentPair(2.0, 1.0, 1)
    e2 = ExponentPair(2.1, 1.0, 1)
    warm = compute_dual(e1, line)
    lam_warm = 1.0 / compute_dual(e2, line, warm_start=warm).d_estimate
    lam_cold = 1.0 / compute_dual(e2, line).d_estimate
    assert lam_warm == pytest.approx(lam_cold, abs=1e-8 * lam_cold)


@pytest.mark.parametrize("dim, length", [(1, 2.0), (2, 1.0)], ids=["other-length", "disk-same-n"])
def test_warm_start_on_another_grid_is_rejected(line, dim, length):
    # a pair is lifted across n, never across a domain
    warm = compute_dual(ExponentPair(2.0, 1.0, 1), line)
    with pytest.raises(ValueError, match="warm start is on another grid"):
        compute_dual(ExponentPair(2.1, 1.0, dim), make_grid(dim, 2000, length), warm_start=warm)


@pytest.mark.parametrize("dim, length", [(1, 0.7), (3, 1.0)])
def test_lift_reproduces_a_cubic(dim, length):
    def cubic(r):
        x = r / length
        return 1.0 + 2.0 * x - 3.0 * x**2 + 0.5 * x**3

    coarse, fine = make_grid(dim, 200, length), make_grid(dim, 2001, length)
    lifted = coarse.cubic_at(cubic(coarse.r), fine.r)
    assert np.max(np.abs(lifted - cubic(fine.r))) <= 1e-14


@pytest.mark.parametrize("dim", [1, 3])
def test_warm_start_from_a_coarser_grid_is_lifted(dim):
    # the nested start is this warm start from the COARSE_N solve
    e = ExponentPair(3.0, 2.0, dim)
    fine = make_grid(dim, 20000)
    warm = compute_dual(e, make_grid(dim, dual.COARSE_N))
    lifted = compute_dual(e, fine, warm_start=warm)
    nested = compute_dual(e, fine)
    assert lifted.coarse_start is None  # a caller's warm start
    assert nested.coarse_start["sweeps"] == warm.iterations
    assert nested.coarse_start["D"] == warm.d_estimate
    assert lifted.d_estimate == nested.d_estimate and lifted.iterations == nested.iterations


def _cosine_pair(e: ExponentPair, grid) -> dual.DualPair:
    # compute_dual's cosine start, handed in as a warm start: the reference
    # path; a pair on the same grid hands over its K g alone
    kg = dual._start(e, grid, None)
    return dual.DualPair(GridFunction(grid, kg), GridFunction(grid, kg), 0.0, 0, kg, kg)


def _operator_defect(e: ExponentPair, dp: dual.DualPair) -> float:
    """Relative sup defect of the pair's solution in operator form, worse equation.

    Off the hyperbola: |u - K(|v|^(q-1) v - mean) - mean u|_inf / |u|_inf and
    its analogue for v.  On pq = 1 no D-power scaling exists, so the fixed
    point f = BR_p(K g), g = BR_q(K f) of the pair itself is measured.
    """
    grid = dp.f.grid
    if e.on_hyperbola:
        pairs = [
            (dp.f.values, _best_response(grid, dp.kg, e.p, e.alpha)[0]),
            (dp.g.values, _best_response(grid, dp.kf, e.q, e.beta)[0]),
        ]
    else:
        rep = reconstruct_solution(e, dp)
        pairs = []
        for y, z, t in ((rep.u.values, rep.v.values, e.q), (rep.v.values, rep.u.values, e.p)):
            rhs = greens._signed_power(z, t)
            pairs.append((y, greens.solve_neumann(grid, rhs - grid.mean_values(rhs)) + grid.mean_values(y)))
    return max(np.max(np.abs(y - image)) / np.max(np.abs(y)) for y, image in pairs)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("p, q", [(3.0, 2.0), (0.5, 3.0), (1.0, 1.0)])
def test_nested_start_agrees_with_the_cosine_start(p, q, dim):
    e = ExponentPair(p, q, dim)
    grid = make_grid(dim, 20000)
    nested = compute_dual(e, grid)
    reference = compute_dual(e, grid, warm_start=_cosine_pair(e, grid))
    assert nested.coarse_start["n"] == dual.COARSE_N and reference.coarse_start is None
    assert nested.d_estimate == pytest.approx(reference.d_estimate, rel=1e-12)
    bound = max(2.0 * _operator_defect(e, reference), 1e-12)
    assert _operator_defect(e, nested) <= bound


@pytest.mark.parametrize("n, nested", [(2000, False), (7999, False), (8000, True)])
def test_only_fine_cold_solves_start_on_the_coarse_grid(n, nested):
    e = ExponentPair(3.0, 2.0, 1)
    opts = SolverOptions(tol=1e-6)  # the coarse level runs with the caller's options
    dp = compute_dual(e, interval_grid(1.0, n), opts)
    if nested:
        coarse = compute_dual(e, interval_grid(1.0, dual.COARSE_N), opts)
        assert dp.coarse_start == {
            "n": dual.COARSE_N,
            "sweeps": coarse.iterations,
            "kappa_evaluations": coarse.kappa_evaluations,
            "D": coarse.d_estimate,
            "d_gap": abs(coarse.d_estimate - dp.d_estimate) / dp.d_estimate,
        }
    else:
        assert dp.coarse_start is None


@pytest.mark.parametrize(
    "failure",
    [NonConvergenceError("spent", 1.0, 0.0, 3), DegenerateIterateError("collapsed")],
    ids=["nonconvergence", "degenerate"],
)
def test_a_failed_coarse_solve_falls_back_to_the_cosine_start(monkeypatch, caplog, failure):
    e = ExponentPair(3.0, 2.0, 2)
    grid = make_grid(2, 8000)

    ascend = dual._ascend

    def fails_on_the_coarse_grid(e, level, *args):
        if level.n == dual.COARSE_N:
            raise failure
        return ascend(e, level, *args)

    monkeypatch.setattr(dual, "_ascend", fails_on_the_coarse_grid)
    caplog.set_level(logging.DEBUG, logger="neumannlab")
    dp = compute_dual(e, grid)
    assert dp.coarse_start is None
    assert sum("coarse start failed" in r.getMessage() for r in caplog.records) == 1
    reference = compute_dual(e, grid, warm_start=_cosine_pair(e, grid))
    assert dp.d_estimate == reference.d_estimate and dp.iterations == reference.iterations


def test_compute_dual_rejects_an_exponent_dimension_other_than_the_grids():
    # (2, 2) is subcritical on an interval but critical for N = 6; the grid decides
    with pytest.raises(ValueError, match="dimension does not match"):
        compute_dual(ExponentPair(2.0, 2.0, 3), interval_grid())
    with pytest.raises(ValueError, match="dimension does not match"):
        compute_dual(ExponentPair(2.0, 2.0, 6), interval_grid())


@pytest.mark.parametrize("pq", [(1.0, 1.0), (2.0, 3.0), (0.5, 2.0)])
def test_smallgrid_oracle_agreement(pq, smallgrid_oracle):
    grid = interval_grid(1.0, n=9)
    e = ExponentPair(pq[0], pq[1], 1)
    d_iter = compute_dual(e, grid).d_estimate
    d_oracle = smallgrid_oracle[pq]  # conftest.py
    assert d_oracle == pytest.approx(d_iter, rel=1e-6)


def test_oracle_rejects_large_grids(line):
    with pytest.raises(ValueError):
        oracle_dual_smallgrid(ExponentPair(1.0, 1.0, 1), line)


@pytest.mark.parametrize("p, q, dim", [(1.0, 1.0, 3), (2.0, 3.0, 3), (2.0, 2.0, 4), (1.0, 3.0, 4)])
def test_oracle_agrees_on_balls(p, q, dim):
    # the 3-ball's (2, 3) takes about 5200 of the ORACLE_STEPS trials; (3, 2) on N = 4
    # still crawls (2.2e-7 short after 40000 trials) and on N = 5 the discrete sup of
    # (2, 2) is an origin spike at 2.42 D, so neither is claimed
    grid = make_grid(dim, 9)
    e = ExponentPair(p, q, dim)
    assert oracle_dual_smallgrid(e, grid) == pytest.approx(compute_dual(e, grid).d_estimate, rel=1e-6)


def test_oracle_runs_on_the_disk():
    grid = make_grid(2, 9)
    e = ExponentPair(1.0, 1.0, 2)
    d_oracle = oracle_dual_smallgrid(e, grid)
    assert d_oracle == pytest.approx(compute_dual(e, grid).d_estimate, rel=1e-6)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_iter": 0},
        {"max_iter": -3},
        {"tol": -1e-10},
        {"tol": math.nan},
        {"tol": math.inf},
        {"tol": 0.0},
        {"tol": 1e-13},
        {"max_iter": 2.5},
        {"max_iter": 5.0},
        {"max_iter": True},
        {"tol": True},
    ],
    ids=[
        "max_iter=0",
        "max_iter=-3",
        "tol=-1e-10",
        "tol=nan",
        "tol=inf",
        "tol=0",
        "tol=1e-13",
        "max_iter=2.5",
        "max_iter=5.0",
        "max_iter=True",
        "tol=True",
    ],
)
def test_solver_options_reject_invalid_values(kwargs):
    with pytest.raises(ValueError):
        SolverOptions(**kwargs)


def test_compute_lambda_delegates_sign_case():
    from neumannlab.sign import solve_sign_system

    grid = interval_grid(1.0, n=800)
    lam = compute_lambda(ExponentPair(0.0, 1.0, 1), grid)
    assert lam == pytest.approx(solve_sign_system(1.0, grid).lam, rel=1e-12)


@pytest.mark.parametrize("opts", [SolverOptions(), SolverOptions(tol=1e-8), SolverOptions(max_iter=5)])
def test_compute_lambda_refuses_options_for_the_sign_case(opts):
    with pytest.raises(ValueError, match="p = 0 takes no solver options"):
        compute_lambda(ExponentPair(0.0, 1.0, 1), interval_grid(1.0, n=200), opts)


def _shooting_level(p: float, steps: int = 10000) -> float:
    """Diagonal level c_{p,p} on (0, 1) from the scalar ODE -u'' = |u|^(p-1) u.

    On the diagonal u = v, and the least-energy solution is odd about its
    zero at 1/2.  RK4 integrates u1(0) = 1, u1'(0) = 0 to its first zero R1
    (the last partial step is found by the secant method on its length),
    accumulating I1 = int_0^R1 |u1|^(p+1).  The rescaling
    u(r) = a u1(2 R1 r) with a = (2 R1)^(2/(p-1)) moves the zero to 1/2, and
    c = (p-1)/(p+1) int_0^1 |u|^(p+1) = 2(p-1)/(p+1) a^(p+1+(1-p)/2) I1.
    """

    def rhs(y):
        u, du, _ = y
        return np.array([du, -math.copysign(abs(u) ** p, u), abs(u) ** (p + 1.0)])

    def rk4(y, h):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    h = 2.0 / steps
    y, r = np.array([1.0, 0.0, 0.0]), 0.0
    nxt = rk4(y, h)
    while nxt[0] > 0.0:
        y, r = nxt, r + h
        nxt = rk4(y, h)
    s0, g0, s1, g1 = 0.0, y[0], h, nxt[0]
    while g1 != g0 and abs(s1 - s0) > 1e-15:
        s0, g0, s1 = s1, g1, s1 - g1 * (s1 - s0) / (g1 - g0)
        g1 = rk4(y, s1)[0]
    r1, i1 = r + s1, rk4(y, s1)[2]
    a = (2.0 * r1) ** (2.0 / (p - 1.0))
    return 2.0 * (p - 1.0) / (p + 1.0) * a ** (p + 1.0 + (1.0 - p) / 2.0) * i1


def test_diagonal_level_matches_shooting_oracle():
    # the criterion-8 level: reconstruction at p = q = 0.01 against an
    # independent ODE shooting computation
    e = ExponentPair(0.01, 0.01, 1)
    rep = reconstruct_solution(e, compute_dual(e, interval_grid(1.0, 2000)))
    assert rep.c == pytest.approx(_shooting_level(0.01), rel=1e-6)


def test_each_solve_logs_one_debug_record(caplog):
    caplog.set_level(logging.DEBUG, logger="neumannlab")
    e = ExponentPair(3.0, 2.0, 1)
    dp = compute_dual(e, make_grid(dim=1, n=200))
    (record,) = [r for r in caplog.records if r.name.startswith("neumannlab")]
    assert record.levelno == logging.DEBUG and record.name == "neumannlab.dual"
    message = record.getMessage()
    assert f"K-image step {dp.k_step:.3e} after {dp.iterations} sweeps" in message
    assert 0.0 <= dp.k_step <= SolverOptions().tol
    assert f"{dp.kappa_evaluations} kappa evaluations" in message
    caplog.clear()
    with pytest.raises(NonConvergenceError):
        compute_dual(e, make_grid(dim=1, n=200), SolverOptions(max_iter=2))
    (record,) = [r for r in caplog.records if r.name.startswith("neumannlab")]
    assert "no stop rule in 2 sweeps" in record.getMessage()


def test_package_logger_is_silent_by_default():
    assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("neumannlab").handlers)
