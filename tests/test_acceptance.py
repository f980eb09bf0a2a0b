"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Criterion 8's ratio window is asserted at its stated tolerance and
is expected to fail: the diagonal levels approach twice the scalar level
with a leading deficit kappa_1 p, where kappa_1 = 16/3 + 2 ln 2 = 6.72 on
the interval (tests/test_experiments.py::test_pq_to_zero_deficit_at_first_order);
the computed ratio at p = 0.01 is 0.9346, so a 2% window at p = 0.01 cannot
hold for any correct solver.  The shooting oracle for the reduced scalar equation in
tests/test_dual.py::test_diagonal_level_matches_shooting_oracle confirms
the computed level to 1e-6 (the gap is 4.6e-7).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from neumannlab import closed_form as cf
from neumannlab.dual import compute_dual, reconstruct_solution
from neumannlab.exponents import ExponentPair, c_from_lambda, lambda_from_c
from neumannlab.experiments import (
    check_pq_to_0,
    classify_pq_to_1,
    continuation_lambda,
    estimate_frak_c,
    ls_upper_bounds,
)
from neumannlab.grid import interval_grid, unit_ball_grid
from neumannlab.sign import solve_sign_system

J11 = 3.8317059702075125
EPS = np.finfo(float).eps


@contextmanager
def criterion(num, desc):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"\nACCEPTANCE {num}: PASS - {desc} [{time.perf_counter() - start:.2f}s]")


@pytest.fixture(scope="module")
def line():
    return interval_grid(1.0, n=2000)


@pytest.fixture(scope="module")
def disk():
    return unit_ball_grid(2, n=2000)


def test_criterion_1_table_reproduction():
    with criterion(1, "closed-form energy table matches the printed values"):
        start = time.perf_counter()
        rows = cf.table1()
        for row in rows:
            ref1, ref2 = cf.TABLE1_PRINTED[row.N]
            assert abs(row.h1 / ref1 - 1.0) <= 1e-5
            assert abs(row.h2 / ref2 - 1.0) <= 1e-5
        assert cf.m_rad(2) == pytest.approx(cf.N2_PRINTED[0], rel=1e-5)
        assert cf.h2(2) == pytest.approx(cf.N2_PRINTED[1], rel=1e-5)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_quadrature_consistency():
    with criterion(2, "formula and quadrature energies agree to 1e-6 for N = 2..8"):
        start = time.perf_counter()
        for N in range(2, 9):
            formula = cf.m_rad(N)
            quad = cf.m_rad_quadrature(N, n=10_000)
            assert abs(quad - formula) <= 1e-6 * abs(formula)
        assert time.perf_counter() - start < 10.0


def test_criterion_3_linear_eigenvalue_oracles(line, disk):
    with criterion(3, "Lambda_{1,1} matches pi^2 on the interval and j_{1,1}^2 on the disk"):
        start = time.perf_counter()
        lam_i = 1.0 / compute_dual(ExponentPair(1.0, 1.0, 1), line).d_estimate
        assert abs(lam_i / math.pi**2 - 1.0) <= 1e-5
        t_interval = time.perf_counter() - start
        assert t_interval < 5.0
        start = time.perf_counter()
        lam_d = 1.0 / compute_dual(ExponentPair(1.0, 1.0, 2), disk).d_estimate
        assert abs(lam_d / J11**2 - 1.0) <= 1e-5
        assert time.perf_counter() - start < 5.0


def test_criterion_4_smallgrid_brute_force(smallgrid_oracle):
    # the oracle values (64 restarts, seed 0) come from the session fixture
    # in conftest.py, shared with tests/test_dual.py::test_smallgrid_oracle_agreement
    with criterion(4, "alternating iteration agrees with the brute-force oracle on n = 9"):
        start = time.perf_counter()
        grid = interval_grid(1.0, n=9)
        for p, q in [(1.0, 1.0), (2.0, 3.0), (0.5, 2.0)]:
            e = ExponentPair(p, q, 1)
            d_iter = compute_dual(e, grid).d_estimate
            d_oracle = smallgrid_oracle[(p, q)]
            assert abs(d_oracle / d_iter - 1.0) <= 1e-6
        assert time.perf_counter() - start < 30.0


def test_criterion_5_exact_algebra_suite():
    with criterion(5, "level algebra and swap symmetry across 20 random admissible pairs"):
        rng = np.random.default_rng(42)
        grid = interval_grid(1.0, n=600)
        checked = 0
        while checked < 20:
            p = float(rng.uniform(0.3, 3.0))
            q = float(rng.uniform(0.3, 3.0))
            if abs(p * q - 1.0) < 0.05:
                continue
            checked += 1
            e = ExponentPair(p, q, 1)
            # gamma identities (the Young weights: gamma1 alpha = gamma2 beta = gamma)
            assert abs(e.gamma1 + e.gamma2 - 1.0) <= 4 * EPS
            assert abs(e.gamma1 * e.alpha - e.gamma) <= 4 * EPS * e.gamma
            assert abs(e.gamma2 * e.beta - e.gamma) <= 4 * EPS * e.gamma
            # Lambda <-> c round trip
            lam0 = float(rng.uniform(0.2, 5.0))
            assert lambda_from_c(e, c_from_lambda(e, lam0)) == pytest.approx(lam0, rel=1e-12)
            dp = compute_dual(e, grid)
            rep = reconstruct_solution(e, dp)
            assert rep.lam * rep.D == pytest.approx(1.0, rel=1e-12)
            # swap symmetry
            d_swap = compute_dual(ExponentPair(q, p, 1), grid).d_estimate
            assert dp.d_estimate == pytest.approx(d_swap, rel=1e-8)
            # solution-level identity
            int_u = grid.integrate_values(np.abs(rep.u.values) ** (p + 1.0))
            target = (p * q - 1.0) / ((p + 1.0) * (q + 1.0)) * int_u
            assert rep.c == pytest.approx(target, rel=1e-8)


def test_criterion_6_residual_convergence():
    with criterion(6, "equation residuals for (3,2) decrease at observed order >= 1.8"):
        e = ExponentPair(3.0, 2.0, 1)
        res = []
        for n in (500, 1000, 2000):
            grid = interval_grid(1.0, n=n)
            rep = reconstruct_solution(e, compute_dual(e, grid))
            res.append(max(rep.residual_u, rep.residual_v))
        orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8


def test_criterion_7_sign_limit_continuation(line, disk):
    with criterion(7, "direct sign solver matches the p -> 0 continuation on interval and disk"):
        for grid in (line, disk):
            lam_direct = solve_sign_system(1.0, grid).lam
            lam_cont, _ = continuation_lambda(1.0, grid)
            assert abs(lam_direct - lam_cont) / lam_direct <= 1e-3


def test_criterion_8_diagonal_limit_u_equals_v():
    with criterion(8, "u = v along the diagonal exponent path (limit levels monotone)"):
        rep = check_pq_to_0(n=2000)
        assert all(gap <= 1e-6 for gap in rep.u_v_gaps)
        assert rep.monotone_toward_one
        assert rep.c0 == pytest.approx(-1.0 / 24.0, abs=1e-7)


@pytest.mark.xfail(
    strict=True,
    reason="c_{p,p} -> 2 c_0 converges with a kappa_1 p deficit, kappa_1 = 16/3 + 2 ln 2, "
    "about 6.5% at p = 0.01, so the stated 2% window cannot hold for any correct "
    "solver; the computed level -0.07788 is confirmed to 1e-6 by the shooting "
    "oracle in tests/test_dual.py::test_diagonal_level_matches_shooting_oracle",
)
def test_criterion_8_ratio_window():
    try:
        rep = check_pq_to_0(n=2000)
        assert 0.98 <= rep.ratios[-1] <= 1.02
    except AssertionError:
        print(
            "\nACCEPTANCE 8 (ratio window): FAIL - the stated tolerance is "
            "unattainable; the limit is approached with a kappa_1 p deficit, kappa_1 = 6.72"
        )
        raise
    print("\nACCEPTANCE 8 (ratio window): PASS")


def test_criterion_9_limit_constant_at_the_hyperbola():
    with criterion(9, "extrapolated limit constant within 1% of the quadrature reference"):
        rep = estimate_frak_c(n=2000)
        assert rep.relative_gap <= 0.01
        assert abs(rep.c_over_offset / rep.c_over_offset_target - 1.0) <= 0.03


def test_criterion_10_blowup_vanishing_classification():
    with criterion(10, "levels blow up or vanish across pq = 1 exactly as the eigenvalue dictates"):
        above = classify_pq_to_1(1.0, 1, "above", 1.0, n=2000)
        assert above.mu1 > 1.0
        assert above.observed_direction == "diverge" == above.expected_direction
        assert above.levels[-1] >= 10.0 * above.levels[0]
        sups = above.sup_norms
        assert all(sups[i + 1] > sups[i] for i in range(len(sups) - 1))

        long_dom = classify_pq_to_1(1.0, 1, "above", 2.0 * math.pi, n=2000)
        assert long_dom.mu1 < 1.0
        assert long_dom.observed_direction == "vanish" == long_dom.expected_direction
        assert all(np.diff(long_dom.levels) < 0)

        below = classify_pq_to_1(1.0, 1, "below", 1.0, n=2000)
        assert below.observed_direction == "vanish" == below.expected_direction
        assert all(np.diff(below.sup_norms) < 0)


def test_criterion_11_symmetry_breaking_certification():
    with criterion(11, "nonradial verdict for N = 2..50 with table/bound provenance"):
        for N in range(2, 51):
            verdict = cf.symmetry_breaking_verdict(N)
            assert verdict.nonradial
            assert verdict.provenance == ("table" if N <= 8 else "bound")
            if N >= 9:
                b = cf.asymptotic_bound(N)
                assert b.neg_p < b.mid < b.rhs


def test_criterion_12_multiplicity_bounds(line):
    with criterion(12, "genus-level upper bounds negative, nondecreasing, first equals -D"):
        e = ExponentPair(2.0, 2.0, 1)
        bounds = ls_upper_bounds(e, 5, line)
        d = compute_dual(e, line).d_estimate
        assert abs(bounds[0] + d) <= 1e-6 * d
        assert all(b < 0.0 for b in bounds)
        assert all(bounds[i + 1] >= bounds[i] - 1e-12 for i in range(len(bounds) - 1))
