import math

import numpy as np
import pytest

from neumannlab.dual import (
    NonConvergenceError,
    SolverOptions,
    compute_dual,
    compute_lambda,
    delta_lower_bound,
    oracle_dual_smallgrid,
    reconstruct_solution,
)
from neumannlab.exponents import ExponentPair, HyperbolaError
from neumannlab.grid import interval_grid, unit_ball_grid

J11 = 3.8317059702075125  # first positive root of J_1


@pytest.fixture(scope="module")
def line():
    return interval_grid(1.0, n=2000)


@pytest.fixture(scope="module")
def disk():
    return unit_ball_grid(2, n=2000)


def test_interval_linear_eigenvalue(line):
    dp = compute_dual(ExponentPair(1.0, 1.0, 1), line)
    assert dp.converged
    assert dp.d_estimate == pytest.approx(1.0 / math.pi**2, rel=1e-6)


def test_disk_radial_bessel_eigenvalue(disk):
    dp = compute_dual(ExponentPair(1.0, 1.0, 2), disk)
    assert 1.0 / dp.d_estimate == pytest.approx(J11**2, rel=1e-5)


def test_unit_norm_invariant(line):
    e = ExponentPair(2.0, 3.0, 1)
    dp = compute_dual(e, line)
    assert dp.f.lp_norm(e.alpha) == pytest.approx(1.0, abs=1e-12)
    assert dp.g.lp_norm(e.beta) == pytest.approx(1.0, abs=1e-12)


def test_swap_symmetry(line):
    d1 = compute_dual(ExponentPair(2.0, 3.0, 1), line).d_estimate
    d2 = compute_dual(ExponentPair(3.0, 2.0, 1), line).d_estimate
    assert d1 == pytest.approx(d2, rel=1e-8)


def test_delta_lower_bound_never_violated(line):
    for p, q in [(1.0, 1.0), (2.0, 3.0), (0.5, 2.0)]:
        e = ExponentPair(p, q, 1)
        d = compute_dual(e, line).d_estimate
        assert d >= delta_lower_bound(e, line) - 1e-12


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


def test_residual_refinement_order():
    e = ExponentPair(3.0, 2.0, 1)
    res = []
    for n in (250, 500, 1000):
        grid = interval_grid(1.0, n=n)
        rep = reconstruct_solution(e, compute_dual(e, grid))
        res.append(max(rep.residual_u, rep.residual_v))
    orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


def test_reconstruction_rejects_hyperbola(line):
    dp = compute_dual(ExponentPair(1.0, 1.0, 1), line)
    with pytest.raises(HyperbolaError):
        reconstruct_solution(ExponentPair(1.0, 1.0, 1), dp)


def test_compute_dual_rejects_sign_case(line):
    with pytest.raises(ValueError):
        compute_dual(ExponentPair(0.0, 1.0, 1), line)


def test_compute_dual_rejects_supercritical():
    grid = unit_ball_grid(6, n=200)
    with pytest.raises(ValueError):
        compute_dual(ExponentPair(8.0, 8.0, 6), grid)


def test_critical_inadmissible_warns():
    grid = unit_ball_grid(4, n=400)
    p = 5.0  # (5, 2) is on the N=4 critical curve with q = 2 below 7/3
    q = 1.0 / (0.5 - 1.0 / (p + 1.0)) - 1.0
    dp = compute_dual(ExponentPair(p, q, 4), grid)
    assert dp.warning is not None and "discrete-only" in dp.warning


def test_nonconvergence_carries_diagnostics(line):
    with pytest.raises(NonConvergenceError) as info:
        compute_dual(ExponentPair(2.0, 3.0, 1), line, SolverOptions(max_iter=2))
    err = info.value
    assert err.iterations == 2
    assert err.d_estimate > 0
    assert err.oscillation >= 0


def test_warm_start_agrees_with_cold(line):
    e1 = ExponentPair(2.0, 1.0, 1)
    e2 = ExponentPair(2.1, 1.0, 1)
    warm = compute_dual(e1, line)
    lam_warm = 1.0 / compute_dual(e2, line, warm_start=warm).d_estimate
    lam_cold = 1.0 / compute_dual(e2, line).d_estimate
    assert lam_warm == pytest.approx(lam_cold, abs=1e-8 * lam_cold)


@pytest.mark.parametrize("pq", [(1.0, 1.0), (2.0, 3.0), (0.5, 2.0)])
def test_smallgrid_oracle_agreement(pq):
    grid = interval_grid(1.0, n=9)
    e = ExponentPair(pq[0], pq[1], 1)
    d_iter = compute_dual(e, grid).d_estimate
    d_oracle = oracle_dual_smallgrid(e, grid, restarts=64, seed=0)
    assert d_oracle == pytest.approx(d_iter, rel=1e-6)


def test_oracle_monotone_in_restarts():
    grid = interval_grid(1.0, n=9)
    e = ExponentPair(2.0, 3.0, 1)
    vals = [oracle_dual_smallgrid(e, grid, restarts=k, seed=1) for k in (2, 8, 32)]
    assert vals[0] <= vals[1] + 1e-15
    assert vals[1] <= vals[2] + 1e-15


def test_oracle_rejects_large_grids(line):
    with pytest.raises(ValueError):
        oracle_dual_smallgrid(ExponentPair(1.0, 1.0, 1), line)


def test_file_initialization(tmp_path, line):
    e = ExponentPair(2.0, 2.0, 1)
    dp = compute_dual(e, line)
    path = tmp_path / "g.csv"
    dp.g.write_csv(path)
    opts = SolverOptions(init="file", init_file=str(path))
    dp2 = compute_dual(e, line, opts)
    assert dp2.d_estimate == pytest.approx(dp.d_estimate, rel=1e-10)
    with pytest.raises(ValueError):
        compute_dual(e, line, SolverOptions(init="file"))


def test_compute_lambda_delegates_sign_case():
    from neumannlab.sign import solve_sign_system

    grid = interval_grid(1.0, n=800)
    lam = compute_lambda(ExponentPair(0.0, 1.0, 1), grid)
    assert lam == pytest.approx(solve_sign_system(1.0, grid).lam, rel=1e-12)


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
