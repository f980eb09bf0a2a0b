import logging
import math

import numpy as np
import pytest

from neumannlab import sign
from neumannlab.closed_form import m_rad, scalar_profile, zero_radius
from neumannlab.greens import NumericalFailure
from neumannlab.grid import GridFunction, interval_grid, make_grid, unit_ball_grid
from neumannlab.sign import (
    certify_balanced,
    solve_scalar_sign,
    solve_sign_system,
)


def test_scalar_interval_closed_form():
    grid = interval_grid(1.0, n=4000)
    u, c0 = solve_scalar_sign(grid)
    assert c0 == pytest.approx(-1.0 / 24.0, abs=1e-8)
    exact = np.where(grid.r < 0.5, 0.125 - grid.r**2 / 2.0, (1.0 - grid.r) ** 2 / 2.0 - 0.125)
    diff = u.values - exact
    assert (diff.max() - diff.min()) / 2.0 <= 1e-7
    assert certify_balanced(u).certified


def test_scalar_disk_matches_radial_profile():
    grid = unit_ball_grid(2, n=2000)
    u, c0 = solve_scalar_sign(grid)
    diff = u.values - scalar_profile(2, grid.r)
    assert (diff.max() - diff.min()) / 2.0 <= 1e-6
    assert certify_balanced(u).certified
    # single sign change, in a cell within two cells of 2^{-1/2}
    nonneg = u.values >= 0
    sign_changes = np.nonzero(nonneg[:-1] != nonneg[1:])[0]
    assert len(sign_changes) == 1
    assert abs(grid.r[sign_changes[0]] - 2.0 ** -0.5) <= 2.0 * grid.h


def test_scalar_ball3_matches_radial_profile():
    grid = unit_ball_grid(3, n=2000)
    u, _ = solve_scalar_sign(grid)
    diff = u.values - scalar_profile(3, grid.r)
    assert (diff.max() - diff.min()) / 2.0 <= 1e-6


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_sign_system_disk_zero_radius(dim):
    # the first crossing of the returned fixed point is its sub-cell
    # interface, at the radius 2^(-1/N) that halves the ball's measure
    grid = unit_ball_grid(dim, n=2000)
    rep = solve_sign_system(1.0, grid)
    assert rep.converged
    assert abs(rep.zero_radius - zero_radius(dim)) <= 1e-10
    node_weight = float(np.max(grid.weights)) * grid.surface
    assert abs(grid.integrate_values(np.sign(rep.u.values))) <= node_weight
    assert certify_balanced(rep.u).certified


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_sign_system_disk_level_matches_closed_form(dim):
    # the q = 1 system on the ball is the biharmonic sign problem, whose
    # radial least-energy value is known exactly
    grid = unit_ball_grid(dim, n=2000)
    rep = solve_sign_system(1.0, grid)
    assert rep.c == pytest.approx(m_rad(dim), rel=1e-9)
    assert rep.c_energy == pytest.approx(rep.c, rel=1e-6)
    assert rep.lam * rep.D == pytest.approx(1.0, rel=1e-12)


def test_sign_system_interval_level():
    # nested integration of the step data on (0,1): v is the scalar profile,
    # u its double integral with u(1/2) = 0, and int |u| = 1/120, so the
    # level is -1/240 and the eigenvalue sqrt(120)
    grid = interval_grid(1.0, n=2000)
    rep = solve_sign_system(1.0, grid)
    assert rep.lam == pytest.approx(math.sqrt(120.0), rel=1e-9)
    assert rep.c == pytest.approx(-1.0 / 240.0, rel=1e-9)


def test_sign_system_general_exponent_runs():
    grid = interval_grid(1.0, n=1000)
    rep = solve_sign_system(2.0, grid)
    assert rep.lam > 0
    assert rep.c < 0
    assert certify_balanced(rep.u).certified
    moment = grid.integrate_values(np.sign(rep.v.values) * np.abs(rep.v.values) ** 2.0)
    assert abs(moment) <= 1e-9 * max(rep.v.sup_norm() ** 2 * grid.domain_measure, 1e-30)


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_sign_system_small_exponent_hands_the_green_solve_mean_zero_data(dim, monkeypatch):
    # at q = 0.01 the kappa root's Hoelder floor leaves |int |v|^q sign v| up
    # to 4e-3 of its L^1 norm, which solve_neumann refused as incompatible
    grid = unit_ball_grid(dim, n=2000)
    seen = []
    solve = sign.solve_neumann

    def recorded(grid, values):
        seen.append(abs(grid.integrate_values(values)) / grid.lp_norm_values(values, 1))
        return solve(grid, values=values)

    monkeypatch.setattr(sign, "solve_neumann", recorded)
    rep = solve_sign_system(0.01, grid)
    assert seen and max(seen) <= 1e-14
    assert rep.iterations == 1
    assert rep.c < 0 and certify_balanced(rep.u).certified


def test_sign_system_rejects_bad_exponent():
    grid = interval_grid(1.0, n=100)
    with pytest.raises(ValueError):
        solve_sign_system(0.0, grid)


def test_certify_balanced_reports_measures():
    grid = interval_grid(1.0, n=1000)
    bal = certify_balanced(GridFunction(grid, grid.r - 0.5))
    assert bal.certified
    assert bal.positive_mass == pytest.approx(0.5, abs=2e-3)
    off = certify_balanced(GridFunction(grid, grid.r - 0.1))
    assert not off.certified


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_step_solve_is_exact(dim):
    # K applied to the balanced step is the closed-form profile up to a constant
    grid = make_grid(dim=dim, n=200)
    if dim == 1:
        exact = np.where(grid.r < 0.5, -(grid.r**2) / 2.0, (1.0 - grid.r) ** 2 / 2.0 - 0.25)
    else:
        exact = scalar_profile(dim, grid.r)
    diff = sign._step_potential(grid) - exact
    assert (diff.max() - diff.min()) / 2.0 <= 1e-14


def test_crossing_radii_on_cubic_data_fine_grid():
    # a cubic fit in absolute r is ill-conditioned at this spacing and warns;
    # one in the local variable t = (r - r_s) / h is not
    grid = unit_ball_grid(2, n=200000)
    root = 0.912
    cuts = sign._crossing_radii(grid, (grid.r - root) * (1.0 + grid.r + 0.5 * grid.r**2))
    assert len(cuts) == 1
    assert abs(cuts[0] - root) <= 1e-14


def test_sign_solve_logs_one_debug_record(caplog):
    caplog.set_level(logging.DEBUG, logger="neumannlab")
    rep = solve_sign_system(1.0, unit_ball_grid(2, n=400))
    (record,) = [r for r in caplog.records if r.name.startswith("neumannlab")]
    assert record.levelno == logging.DEBUG and record.name == "neumannlab.sign"
    assert rep.iterations == 1
    assert "direct construction, certified=True" in record.getMessage()


@pytest.mark.parametrize("n", [50, 2000])
@pytest.mark.parametrize("q", [0.01, 0.1, 1.0, 5.0, 29.0])
@pytest.mark.parametrize("dim", range(1, 9))
def test_sign_system_crosses_once_at_the_balanced_radius(dim, q, n):
    grid = make_grid(dim=dim, n=n)
    rep = solve_sign_system(q, grid)
    cuts = sign._crossing_radii(grid, rep.u.values)
    assert len(cuts) == 1
    assert abs(cuts[0] - 2.0 ** (-1.0 / dim)) <= 1e-12
    assert rep.zero_radius == cuts[0]


def test_a_second_sign_change_fails_the_certificate(monkeypatch, caplog):
    # a profile with crossings at the balanced radius 1/2 and at 0.9
    caplog.set_level(logging.DEBUG, logger="neumannlab")
    grid = interval_grid(1.0, n=400)
    two_crossings = (grid.r - 0.5) * (grid.r - 0.9)
    monkeypatch.setattr(sign, "solve_neumann", lambda grid, values: two_crossings.copy())
    rep = solve_sign_system(1.0, grid)
    assert len(sign._crossing_radii(grid, rep.u.values)) == 2
    assert not rep.converged and "certified=False" in caplog.text
    monkeypatch.setattr(sign, "_step_potential", lambda grid: two_crossings.copy())
    with pytest.raises(NumericalFailure, match="certificate"):
        solve_scalar_sign(grid)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_each_sign_solve_finds_the_crossings_once(dim, monkeypatch):
    # the one list of crossings of u gives the certificate, zero_radius, the
    # sharp L^1 norm and the v equation's band; the system solve passes over
    # v once more, for the u equation's band
    calls = []
    find = sign._crossing_radii

    def counted(grid, vals):
        calls.append(vals.copy())
        return find(grid, vals)

    monkeypatch.setattr(sign, "_crossing_radii", counted)
    grid = make_grid(dim=dim, n=2000)
    rep = solve_sign_system(1.0, grid)
    assert rep.converged and len(calls) == 2
    assert np.array_equal(calls[0], rep.u.values) and np.array_equal(calls[1], rep.v.values)
    u, _ = solve_scalar_sign(grid)
    assert len(calls) == 3 and np.array_equal(calls[2], u.values)


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_the_u_residual_leaves_out_the_band_at_the_zero_of_v(dim):
    # |v|^(q-1) v is only Hoelder at v's zero, which lies off u's (on the
    # disk at r = 0.6996 against a = 0.7071, 15h away)
    rep = solve_sign_system(0.1, make_grid(dim=dim, n=2000))
    assert rep.residual_u / np.max(np.abs(rep.v.values)) ** 0.1 <= 1e-3


@pytest.mark.parametrize(
    "dim, offset, width",
    [(1, 0.0, 7), (1, 0.5, 6), (1, 0.3, 6), (2, None, 6), (3, None, 6)],
)
def test_residual_band_is_the_nodes_within_3h_of_the_crossing(dim, offset, width):
    # at n = 2000 the balanced radius 1/2 of the interval is a node, so the
    # solve's crossing sits on it (within rounding) and leaves out seven
    # nodes; a crossing inside a cell leaves out six
    grid = make_grid(dim=dim, n=2000)
    cut = solve_sign_system(1.0, grid).zero_radius
    if offset is not None:
        cut += offset * grid.h
    (left_out,) = np.nonzero(~sign._off_crossings(grid, [cut]))
    assert len(left_out) == width
    assert np.array_equal(left_out, np.arange(left_out[0], left_out[0] + width))
    assert np.all(np.abs(grid.r[left_out] - cut) <= 3.0 * grid.h + 1e-15)


def test_converged_is_the_certificate_and_the_residuals_are_reported():
    # on the disk at n = 50 the check stencil's Neumann row misses the solve's
    # own accuracy: residual_v reads 2.1e-4 there, yet the fixed point certifies
    grid = make_grid(dim=2, n=50)
    rep = solve_sign_system(1.0, grid)
    assert rep.residual_v > 1e-4
    assert rep.converged and certify_balanced(rep.u).certified
