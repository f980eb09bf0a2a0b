import math

import numpy as np
import pytest

from neumannlab import closed_form as cf


def test_zero_radius():
    assert cf.zero_radius(2) == pytest.approx(2.0 ** -0.5, rel=1e-15)
    assert cf.zero_radius(4) == pytest.approx(2.0 ** -0.25, rel=1e-15)
    radii = [cf.zero_radius(N) for N in range(2, 40)]
    assert all(radii[i] < radii[i + 1] < 1.0 for i in range(len(radii) - 1))
    with pytest.raises(ValueError):
        cf.zero_radius(1)


def test_eval_u_at_origin_and_zero():
    assert cf.eval_u(2, 0.0) == pytest.approx((8.0 * math.log(2.0) - 3.0) / 256.0, rel=1e-14)
    for N in range(2, 9):
        assert abs(cf.eval_u(N, cf.zero_radius(N))) <= 1e-14
    with pytest.raises(ValueError):
        cf.eval_u(2, 1.5)


def _cstep(fn, x, h=1e-30):
    return (fn(x + 1j * h)).imag / h


@pytest.mark.parametrize("N", range(2, 9))
def test_interface_continuity(N):
    a = cf.zero_radius(N)
    for inner, outer in ((cf._u_inner, cf._u_outer), (cf._v_inner, cf._v_outer)):
        left = inner(N, np.array([a + 0j]))[0]
        right = outer(N, np.array([a + 0j]))[0]
        assert abs(left - right) <= 1e-12
        # first derivatives by complex step on each branch
        dl = _cstep(lambda z: inner(N, np.array([z]))[0], a)
        dr = _cstep(lambda z: outer(N, np.array([z]))[0], a)
        assert abs(dl - dr) <= 1e-9


@pytest.mark.parametrize("N", range(2, 9))
def test_u_second_derivative_continuity(N):
    a = cf.zero_radius(N)
    delta = 1e-5

    def du(branch, x):
        return _cstep(lambda z: branch(N, np.array([z]))[0], x)

    d2l = (du(cf._u_inner, a) - du(cf._u_inner, a - delta)) / delta
    d2r = (du(cf._u_outer, a + delta) - du(cf._u_outer, a)) / delta
    assert abs(d2l - d2r) <= 1e-4 * max(1.0, abs(d2l))  # one-sided slopes, O(delta)
    d2l2 = (du(cf._u_inner, a) - du(cf._u_inner, a - 2 * delta)) / (2 * delta)
    d2r2 = (du(cf._u_outer, a + 2 * delta) - du(cf._u_outer, a)) / (2 * delta)
    # Richardson-extrapolated one-sided second derivatives agree much tighter
    left = 2 * d2l - d2l2
    right = 2 * d2r - d2r2
    assert abs(left - right) <= 1e-9 + 1e-6 * abs(left)


@pytest.mark.parametrize("N", range(2, 9))
def test_neumann_ends(N):
    for fn in (cf.eval_u, cf.eval_v):
        for x, side in ((0.0, 1.0), (1.0, -1.0)):
            d = _cstep(lambda z: fn(N, z + (1e-9 * side)), x)
            assert abs(d) <= 1e-8


@pytest.mark.parametrize("N", range(2, 9))
def test_v_is_minus_laplacian_of_u(N):
    # h balances the O(h^2) truncation against the formulas' cancellation
    # noise (their large terms cancel to a small value), which h^-2 amplifies
    a = cf.zero_radius(N)
    h = 5e-4
    radii = np.concatenate(
        [np.linspace(0.02, a - 0.02, 25), np.linspace(a + 0.02, 0.98, 25)]
    )
    for r in radii:
        upp = (cf.eval_u(N, r - h) - 2.0 * cf.eval_u(N, r) + cf.eval_u(N, r + h)) / h**2
        up = (cf.eval_u(N, r + h) - cf.eval_u(N, r - h)) / (2.0 * h)
        lap = upp + (N - 1) * up / r
        assert lap == pytest.approx(-cf.eval_v(N, r), abs=2e-6)


@pytest.mark.parametrize("N", range(2, 9))
def test_v_solves_sign_equation(N):
    # -Lap v = sign(u) = +-1 on each branch
    a = cf.zero_radius(N)
    h = 1e-5
    for r, s in ((a / 2.0, 1.0), ((a + 1.0) / 2.0, -1.0)):
        vpp = (cf.eval_v(N, r - h) - 2.0 * cf.eval_v(N, r) + cf.eval_v(N, r + h)) / h**2
        vp = (cf.eval_v(N, r + h) - cf.eval_v(N, r - h)) / (2.0 * h)
        assert vpp + (N - 1) * vp / r == pytest.approx(-s, abs=1e-5)


def test_p_poly_two_printed_forms_agree():
    for N in (3, 5, 6, 7, 8, 13):
        expanded = cf.p_poly(N)
        direct = (
            N
            * (
                N**2
                - 3.0 * N
                - 2.0 ** ((N + 2.0) / N) * (N - 4.0) * (N + 4.0)
                + 16.0 ** (1.0 / N) * (N - 2.0) * (N + 5.0)
                - 34.0
            )
            - 24.0
        )
        assert expanded == pytest.approx(direct, rel=1e-12)


def test_m_rad_printed_values():
    assert cf.m_rad(2) == pytest.approx(math.pi * (24.0 * math.log(2.0) - 19.0) / 1536.0, rel=1e-15)
    assert cf.m_rad(2) == pytest.approx(-0.00483606, rel=1e-5)
    assert cf.m_rad(3) == pytest.approx(-0.00272396, rel=1e-5)
    assert cf.m_rad(4) == pytest.approx(-0.00156672, rel=1e-5)


@pytest.mark.parametrize("N", range(2, 9))
def test_m_rad_quadrature_consistency(N):
    formula = cf.m_rad(N)
    quad = cf.m_rad_quadrature(N, n=10_000)
    assert quad == pytest.approx(formula, rel=1e-6)


def test_h2_values():
    assert cf.h2(2) == pytest.approx(9.0 * math.pi / 256.0 - 5.0 / 24.0, rel=1e-15)
    assert cf.h2(2) == pytest.approx(-0.0978867, rel=1e-5)
    assert cf.h2(4) == pytest.approx(-3136.0 / 50625.0, rel=1e-12)
    assert cf.h2(3) == pytest.approx(-0.0795216, rel=1e-5)


def test_competitor_energy_minimum():
    for N in (3, 4, 6):
        t0 = cf.competitor_optimal_t(N)
        f0 = cf.competitor_energy(N, t0)
        assert f0 == pytest.approx(cf.h2(N), rel=1e-12)
        assert f0 <= cf.competitor_energy(N, t0 / 2.0)
        assert f0 <= cf.competitor_energy(N, 2.0 * t0)
    # the two-dimensional verdict uses the fixed t = 1/4 trial function
    assert cf.competitor_energy(2, 0.25) == pytest.approx(cf.h2(2), rel=1e-14)
    with pytest.raises(ValueError):
        cf.competitor_energy(3, -1.0)


def test_table1_reproduces_printed_values():
    rows = cf.table1()
    assert [row.N for row in rows] == list(range(3, 9))
    for row in rows:
        ref1, ref2 = cf.TABLE1_PRINTED[row.N]
        assert row.h1 == pytest.approx(ref1, rel=1e-5)
        assert row.h2 == pytest.approx(ref2, rel=1e-5)
        assert row.diff > 0.0
        assert row.h1 < 0.0 and row.h2 < 0.0


def test_table1_row_examples():
    rows = {row.N: row for row in cf.table1()}
    assert rows[5].h1 == pytest.approx(-0.000908657, rel=1e-5)
    assert rows[5].h2 == pytest.approx(-0.0466251, rel=1e-5)
    assert rows[5].diff == pytest.approx(0.0457165, rel=1e-4)
    assert rows[8].h1 == pytest.approx(-0.000170448, rel=1e-5)
    assert rows[8].h2 == pytest.approx(-0.0162296, rel=1e-5)


def test_asymptotic_bound():
    b9 = cf.asymptotic_bound(9)
    assert b9.verdict
    assert b9.mid == pytest.approx(520.0)
    assert b9.rhs == pytest.approx(4.0 * 9.0 * 5.0 * 10.0 / math.pi, rel=1e-12)
    assert cf.asymptotic_bound(100).verdict
    b5 = cf.asymptotic_bound(5)
    assert not b5.verdict  # 304 is not below 120/pi
    assert b5.mid > b5.rhs
    with pytest.raises(ValueError):
        cf.asymptotic_bound(4)


def test_symmetry_breaking_verdicts():
    assert cf.symmetry_breaking_verdict(2) == (True, "table")
    assert cf.symmetry_breaking_verdict(6) == (True, "table")
    assert cf.symmetry_breaking_verdict(9) == (True, "bound")
    for N in range(2, 51):
        verdict = cf.symmetry_breaking_verdict(N)
        assert verdict.nonradial
        assert verdict.provenance == ("table" if N <= 8 else "bound")


def test_scalar_profile_basics():
    for N in (2, 3, 4, 6):
        a = cf.zero_radius(N)
        assert abs(cf.scalar_profile(N, a)) <= 1e-14
        assert cf.scalar_profile(N, 0.0) > 0.0
        assert cf.scalar_profile(N, 1.0) < 0.0
        h = 1e-6
        out = (cf.scalar_profile(N, a + h) - cf.scalar_profile(N, a - h))
        assert abs(out / (2 * h) - _cstep(lambda z: cf._scalar_inner(N, np.array([z]))[0], a)) <= 1e-4
