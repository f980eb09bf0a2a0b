import math

import numpy as np
import pytest

from neumannlab.dual import SolverOptions, compute_dual
from neumannlab.exponents import ExponentPair
from neumannlab.experiments import (
    SweepSpec,
    check_pq_to_0,
    classify_pq_to_1,
    continuation_lambda,
    estimate_frak_c,
    ls_upper_bounds,
    run_sweep,
)
from neumannlab.grid import interval_grid, unit_ball_grid
from neumannlab.sign import solve_sign_system


@pytest.fixture(scope="module")
def line800():
    return interval_grid(1.0, n=800)


def test_sweep_continuity_proxy(line800):
    spec = SweepSpec(
        p_of=lambda t: t, q_of=lambda t: 1.0, ts=np.linspace(0.5, 3.0, 26), grid=line800
    )
    result = run_sweep(spec)
    assert all(row["error"] is None for row in result.rows)
    lams = result.column("Lambda")
    jumps = np.abs(np.diff(lams))
    assert jumps.max() <= 5.0 * np.median(jumps)


def test_sweep_rows_sorted_and_hyperbola_handled(line800):
    spec = SweepSpec(
        p_of=lambda t: t, q_of=lambda t: 1.0, ts=[1.5, 0.8, 1.0, 2.5], grid=line800
    )
    result = run_sweep(spec)
    ps = result.column("p")
    assert ps == sorted(ps)
    hyper = [row for row in result.rows if abs(row["p"] - 1.0) < 1e-14][0]
    assert hyper["c"] is None and hyper["Lambda"] is not None


def test_sweep_warm_cold_agreement(line800):
    ts = np.linspace(1.2, 2.2, 6)
    warm = run_sweep(SweepSpec(lambda t: t, lambda t: 1.0, ts, line800, warm_start=True))
    cold = run_sweep(SweepSpec(lambda t: t, lambda t: 1.0, ts, line800, warm_start=False))
    for a, b in zip(warm.column("Lambda"), cold.column("Lambda")):
        assert a == pytest.approx(b, abs=1e-8 * abs(b))


def test_sweep_deterministic_and_parallel_order(line800, tmp_path):
    ts = np.linspace(1.5, 2.0, 5)
    spec = SweepSpec(lambda t: t, lambda t: 1.0, ts, line800, warm_start=False)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(spec).write_csv(p1)
    run_sweep(spec).write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()  # bit-identical reruns


def test_sweep_diagonal_path_u_equals_v(line800):
    spec = SweepSpec(lambda t: t, lambda t: t, np.linspace(1.5, 2.5, 4), line800)
    result = run_sweep(spec)
    for row in result.rows:
        assert row["error"] is None
        assert row["u_max"] == pytest.approx(row["v_max"], rel=1e-6)


def test_sweep_rejects_supercritical_sample():
    grid = unit_ball_grid(6, n=100)
    with pytest.raises(ValueError):
        SweepSpec(lambda t: 8.0, lambda t: 8.0, [0.0], grid)


def test_classification_blowup_and_vanishing():
    above = classify_pq_to_1(1.0, 1, "above", 1.0, n=1200)
    assert above.mu1 == pytest.approx(math.pi**2, rel=1e-6)
    assert above.expected_direction == "diverge"
    assert above.consistent and above.monotone
    assert above.levels[-1] >= 10.0 * above.levels[0]

    below = classify_pq_to_1(1.0, 1, "below", 1.0, n=1200)
    assert below.expected_direction == "vanish"
    assert below.consistent
    assert below.sup_norms[-1] < below.sup_norms[0]

    long_domain = classify_pq_to_1(1.0, 1, "above", 2.0 * math.pi, n=1200)
    assert long_domain.mu1 == pytest.approx(0.25, rel=1e-6)
    assert long_domain.expected_direction == "vanish"
    assert long_domain.consistent


def test_classification_rejects_critical_length():
    with pytest.raises(ValueError):
        classify_pq_to_1(1.0, 1, "above", math.pi, n=300)
    with pytest.raises(ValueError):
        classify_pq_to_1(1.0, 1, "sideways", 1.0, n=300)


def test_frak_c_against_quadrature_reference():
    rep = estimate_frak_c(n=1500)
    assert rep.reference == pytest.approx(2.0 * math.pi / math.e, rel=1e-8)
    assert rep.relative_gap <= 0.01
    assert abs(rep.c_over_offset / rep.c_over_offset_target - 1.0) <= 0.03
    assert rep.e_prime == pytest.approx(1.0, rel=1e-5)


def test_frak_c_rejects_degenerate_path():
    with pytest.raises(ValueError):
        estimate_frak_c(n=300, p_of=lambda t: 1.0 + t, q_of=lambda t: 1.0 / (1.0 + t))


def test_pq_to_zero_trend():
    rep = check_pq_to_0(n=1500)
    assert rep.c0 == pytest.approx(-1.0 / 24.0, abs=1e-7)
    assert rep.monotone_toward_one
    assert all(gap <= 1e-6 for gap in rep.u_v_gaps)


@pytest.mark.xfail(
    strict=True,
    reason="the convergence of the diagonal levels to twice the scalar level "
    "has a 2p(1 + ln 12) leading deficit, about 6.7% at p = 0.01, so the "
    "window cannot hold; the level is confirmed by the shooting oracle in "
    "tests/test_dual.py::test_diagonal_level_matches_shooting_oracle",
)
def test_pq_to_zero_ratio_window_at_p_001():
    rep = check_pq_to_0(n=1500)
    assert 0.98 <= rep.ratios[-1] <= 1.02


def test_continuation_limits():
    line = interval_grid(1.0, n=1500)
    lam_cont, samples = continuation_lambda(1.0, line)
    lam_direct = solve_sign_system(1.0, line).lam
    assert abs(lam_cont / lam_direct - 1.0) <= 1e-3
    assert len(samples) == 4


def test_ls_upper_bounds_structure():
    grid = interval_grid(1.0, n=1000)
    e = ExponentPair(2.0, 2.0, 1)
    bounds = ls_upper_bounds(e, 5, grid)
    d = compute_dual(e, grid).d_estimate
    assert bounds[0] == pytest.approx(-d, rel=1e-6)
    assert all(b < 0.0 for b in bounds)
    assert all(bounds[i + 1] >= bounds[i] - 1e-12 for i in range(len(bounds) - 1))


def test_ls_upper_bounds_validation():
    grid = interval_grid(1.0, n=200)
    with pytest.raises(ValueError):
        ls_upper_bounds(ExponentPair(2.0, 2.0, 1), 9, grid)
    ball = unit_ball_grid(2, n=200)
    with pytest.raises(ValueError):
        ls_upper_bounds(ExponentPair(2.0, 2.0, 2), 3, ball)


def test_write_experiment_outputs(tmp_path):
    rep = classify_pq_to_1(1.0, 1, "above", 1.0, n=600)
    from neumannlab.experiments import write_experiment
    import json

    summary = write_experiment(rep, tmp_path, "classify")
    assert (tmp_path / "classify.csv").read_bytes().startswith(b"offset,level,sup_norm\r\n")
    loaded = json.loads((tmp_path / "classify.json").read_text())
    assert loaded["passes"]["direction_consistent"] is True
    assert summary["report"] == "ClassificationReport"
