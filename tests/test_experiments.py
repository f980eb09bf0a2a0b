import csv
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neumannlab import experiments
from neumannlab.dual import SolverOptions, compute_dual, compute_lambda, reconstruct_solution
from neumannlab.exponents import ExponentPair, c_from_lambda
from neumannlab.experiments import (
    SweepSpec,
    _constraint_scale,
    check_pq_to_0,
    classify_pq_to_1,
    continuation_lambda,
    estimate_frak_c,
    ls_upper_bounds,
    run_sweep,
)
from neumannlab.greens import NumericalFailure, solve_increasing, solve_neumann
from neumannlab.grid import interval_grid, unit_ball_grid
from neumannlab.sign import solve_scalar_sign, solve_sign_system


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
    warm = run_sweep(SweepSpec(lambda t: t, lambda t: 1.0, ts, line800))
    cold = [1.0 / compute_dual(ExponentPair(t, 1.0, 1), line800).d_estimate for t in ts]
    for a, b in zip(warm.column("Lambda"), cold):
        assert a == pytest.approx(b, abs=1e-8 * abs(b))


def test_sweep_deterministic_and_parallel_order(line800, tmp_path):
    ts = np.linspace(1.5, 2.0, 5)
    spec = SweepSpec(lambda t: t, lambda t: 1.0, ts, line800)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(spec).write_csv(p1)
    run_sweep(spec).write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()  # bit-identical reruns


def test_sweep_csv_records_the_stop_rule(line800, tmp_path):
    # 0.8 and 1.5 solve off the hyperbola, 1.0 on it
    spec = SweepSpec(lambda t: t, lambda t: 1.0, [0.8, 1.0, 1.5], line800)
    run_sweep(spec).write_csv(tmp_path / "sweep.csv")
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row in rows:
        assert row["error"] == ""  # the dual loop converged; its K-image step is recorded
        assert 0.0 <= float(row["k_step"]) <= 1e-10  # the default tol


def test_sweep_diagonal_path_u_equals_v(line800):
    spec = SweepSpec(lambda t: t, lambda t: t, np.linspace(1.5, 2.5, 4), line800)
    result = run_sweep(spec)
    for row in result.rows:
        assert row["error"] is None
        assert row["u_max"] == pytest.approx(row["v_max"], rel=1e-6)


def test_sweep_rejects_supercritical_sample():
    grid = unit_ball_grid(6, n=100)
    with pytest.raises(ValueError, match="supercritical"):
        SweepSpec(lambda t: 8.0, lambda t: 8.0, [0.0], grid)
    # critical samples too, at construction and not as error rows: (5, 5) on N = 3
    with pytest.raises(ValueError, match="critical"):
        SweepSpec(lambda t: t, lambda t: t, [4.0, 5.0], unit_ball_grid(3, n=100))


def test_sweep_rejects_sign_case_sample():
    # p = 0 is the sign solver's case; it was a failed row after the other samples' solves
    with pytest.raises(ValueError, match="sample t=0.0 is sign-case, outside the dual solver's scope"):
        SweepSpec(lambda t: t, lambda t: 2.0, [0.0, 0.5], interval_grid(1.0, n=100))


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
    "has a leading deficit kappa_1 p with kappa_1 = 16/3 + 2 ln 2 = 6.72 on the "
    "interval, about 6.5% at p = 0.01, so the window cannot hold; the level is "
    "confirmed by the shooting oracle in "
    "tests/test_dual.py::test_diagonal_level_matches_shooting_oracle",
)
def test_pq_to_zero_ratio_window_at_p_001():
    rep = check_pq_to_0(n=1500)
    assert 0.98 <= rep.ratios[-1] <= 1.02


def test_pq_to_zero_deficit_at_first_order():
    # c_pp / 2c_0 = 1 - kappa_1 p + O(p^2) with kappa_1 = 2(1 - int |u_0| ln |u_0| / int |u_0|); on the
    # interval u_0 = 1/8 - x^2/2 on [0, 1/2], odd about 1/2, which gives kappa_1 = 16/3 + 2 ln 2 in closed form
    kappa_1 = 16.0 / 3.0 + 2.0 * math.log(2.0)
    assert kappa_1 == pytest.approx(6.719627694453224, rel=1e-15)
    grid = interval_grid(1.0, n=2000)
    c0 = solve_scalar_sign(grid)[1]
    slopes = []
    for p in 0.04 / 2.0 ** np.arange(6):  # p = 0.04 down to 0.00125
        e = ExponentPair(p, p, 1)
        slopes.append((1.0 - c_from_lambda(e, compute_lambda(e, grid)) / (2.0 * c0)) / p)
    once = [2.0 * b - a for a, b in zip(slopes, slopes[1:])]  # Richardson: the O(p) error halves with p
    twice = [(4.0 * b - a) / 3.0 for a, b in zip(once, once[1:])]  # and the O(p^2) one quarters
    assert abs(slopes[-1] / kappa_1 - 1.0) > 1e-3  # the raw slope at p = 0.00125 is still 3e-3 low
    assert abs(twice[-1] / kappa_1 - 1.0) <= 1e-3
    assert abs(2.0 * (1.0 + math.log(12.0)) / kappa_1 - 1.0) > 0.03  # the older estimate is 3.7% high


def test_continuation_limits():
    line = interval_grid(1.0, n=1500)
    lam_cont, samples = continuation_lambda(1.0, line)
    lam_direct = solve_sign_system(1.0, line).lam
    assert abs(lam_cont / lam_direct - 1.0) <= 1e-3
    assert len(samples) == 4


def _warm_chain(pairs, grid):
    """compute_dual over pairs in the given order, each warm-started from the one before."""
    dps, warm = [], None
    for e in pairs:
        warm = compute_dual(e, grid, warm_start=warm)
        dps.append(warm)
    return dps


def test_studies_walk_their_paths_toward_the_limit():
    # each sample is bit for bit the sample of an explicit warm-started chain
    # run from the farthest point to the nearest, whatever order the input has
    grid = interval_grid(1.0, n=400)
    rep = classify_pq_to_1(1.0, 1, "above", 1.0, n=400, offsets=(0.05, 0.2, 0.025, 0.1))
    pairs = [ExponentPair(1.0 + s, 1.0, 1) for s in (0.2, 0.1, 0.05, 0.025)]
    reps = [reconstruct_solution(e, dp) for e, dp in zip(pairs, _warm_chain(pairs, grid))]
    assert rep.offsets == [0.2, 0.1, 0.05, 0.025]
    assert rep.levels == [abs(r.c) for r in reps]
    assert rep.sup_norms == [r.u.sup_norm() for r in reps]

    frak = estimate_frak_c(n=400, ts=(0.025, 0.1, 0.05))
    pairs = [ExponentPair(1.0 + t, 1.0, 1) for t in (0.1, 0.05, 0.025)]
    assert frak.ts == [0.1, 0.05, 0.025]
    assert frak.lambdas == [1.0 / dp.d_estimate for dp in _warm_chain(pairs, interval_grid(math.pi, n=400))]

    _, lams = continuation_lambda(1.0, grid, ps=(0.05, 0.2, 0.025, 0.1))
    pairs = [ExponentPair(p, 1.0, 1) for p in (0.2, 0.1, 0.05, 0.025)]
    assert lams == [1.0 / dp.d_estimate for dp in _warm_chain(pairs, grid)]


@pytest.mark.parametrize(
    "study, sample",
    [
        (lambda opts: estimate_frak_c(n=300, opts=opts), "p=1.1, q=1.0"),
        (lambda opts: continuation_lambda(1.0, interval_grid(1.0, n=300), opts), "p=0.2, q=1.0"),
    ],
    ids=["frak-c", "continuation"],
)
def test_study_names_the_sample_that_failed(study, sample):
    with pytest.raises(NumericalFailure, match=f"path sample {sample} failed: dual iteration did not converge"):
        study(SolverOptions(max_iter=1))


def _no_solve(*args, **kwargs):
    raise AssertionError("the inputs should be refused before any solve")


@pytest.mark.parametrize(
    "side, offsets",
    [
        ("above", (0.2, 0.1, -0.1)),  # -0.1 would solve a sample below pq = 1
        ("above", (0.1, 0.0)),  # on the hyperbola
        ("above", (0.1, float("nan"))),
        ("below", (0.2, 1.0)),  # p = 0
        ("below", (0.2, 1.5)),  # p < 0
    ],
)
def test_classification_checks_offsets_before_solving(monkeypatch, side, offsets):
    monkeypatch.setattr(experiments, "compute_dual", _no_solve)
    with pytest.raises(ValueError, match="every offset must be"):
        classify_pq_to_1(1.0, 1, side, 1.0, n=300, offsets=offsets)


@pytest.mark.parametrize("offsets", [(0.1,), ()])
def test_classification_needs_two_offsets(monkeypatch, offsets):
    # one offset gives an empty diff, whose np.all read as a monotone "diverge"
    monkeypatch.setattr(experiments, "compute_dual", _no_solve)
    with pytest.raises(ValueError, match="at least two offsets"):
        classify_pq_to_1(2.0, 1, "above", 1.0, n=300, offsets=offsets)


@pytest.mark.parametrize("ts", [(0.1,), ()])
def test_frak_c_needs_two_ts(monkeypatch, ts):
    # one t returned its unextrapolated value as `extrapolated`; none raised IndexError
    monkeypatch.setattr(experiments, "compute_dual", _no_solve)
    with pytest.raises(ValueError, match="at least two ts"):
        estimate_frak_c(n=300, ts=ts)


@pytest.mark.parametrize("ps", [(0.2, 0.1, 0.05), (0.2, 0.1, 0.05, 0.025, 0.0125), (0.2, 0.1, 0.1, 0.05)])
def test_continuation_needs_four_distinct_ps(monkeypatch, ps):
    # the four-term fit raised LinAlgError, after every solve
    monkeypatch.setattr(experiments, "compute_dual", _no_solve)
    with pytest.raises(ValueError, match="four distinct ps"):
        continuation_lambda(1.0, interval_grid(1.0, n=300), ps=ps)


@pytest.mark.parametrize(
    "ts",
    [
        (0.1, 0.05, 0.0),  # t = 0 divides by pq - 1 = 0
        (0.1, 0.05, -0.05),  # crosses the hyperbola; returned 2.687 against 2.311
        (0.1, 0.06, 0.03),  # the Richardson step needs halving ts
        (0.1, float("nan")),
    ],
)
def test_frak_c_checks_ts_before_solving(monkeypatch, ts):
    monkeypatch.setattr(experiments, "compute_dual", _no_solve)
    with pytest.raises(ValueError, match="every t must be > 0"):
        estimate_frak_c(n=300, ts=ts)


@pytest.mark.parametrize("ps", [(0.1, 0.0), (0.1, -0.05), (0.1, float("nan"))])
def test_continuation_checks_p_before_solving(monkeypatch, ps):
    monkeypatch.setattr(experiments, "compute_dual", _no_solve)
    with pytest.raises(ValueError, match="every p must be > 0"):
        continuation_lambda(1.0, interval_grid(1.0, n=300), ps=ps)


@pytest.mark.parametrize("p,q", [(2.0, 2.0), (3.0, 1.5)])
def test_ls_upper_bounds_structure(p, q):
    grid = interval_grid(1.0, n=1000)
    e = ExponentPair(p, q, 1)
    bounds = ls_upper_bounds(e, 5, grid)
    d = compute_dual(e, grid).d_estimate
    assert bounds[0] == pytest.approx(-d, rel=1e-6)
    assert all(b < 0.0 for b in bounds)
    assert all(bounds[i + 1] >= bounds[i] - 1e-12 for i in range(len(bounds) - 1))


# ls_upper_bounds at k_max = 5, n = 1000, seeds 1-3, before the power iteration
# replaced the per-start backtracking ascent
PINNED_BOUNDS = {
    (2.0, 2.0): [
        [-0.11504998821034759, -0.027674229348171018, -0.01229965625536532, -0.006918561257279092, -0.00442788148064176],
        [-0.11504998821034759, -0.027674229348171014, -0.012299656255365322, -0.006918561257279094, -0.00442788148064176],
        [-0.11504998821034759, -0.027674229348171014, -0.012299656255365318, -0.006918561257279093, -0.004427881480641761],
    ],
    (3.0, 1.5): [
        [-0.11660518780800544, -0.027711593984051368, -0.012316261529874863, -0.006927905549496991, -0.004433863417601217],
        [-0.11660518780800544, -0.02771159398405137, -0.012316261529874863, -0.006927905549496991, -0.0044338634176012155],
        [-0.11660518780800544, -0.027711593984051368, -0.01231626152987486, -0.006927905549496991, -0.004433863417601216],
    ],
}


@pytest.mark.parametrize("p,q", list(PINNED_BOUNDS))
def test_ls_upper_bounds_match_the_pinned_values(p, q):
    # at most rounding below (a weaker bound) and nothing beyond rounding above
    # (a biased constraint scale would lift every bound alike)
    grid = interval_grid(1.0, n=1000)
    for seed, pinned in enumerate(PINNED_BOUNDS[(p, q)], start=1):
        bounds = ls_upper_bounds(ExponentPair(p, q, 1), 5, grid, seed=seed)
        for b, ref in zip(bounds, pinned, strict=True):
            assert ref - 1e-13 * abs(ref) <= b <= ref + 1e-12 * abs(ref)


def _ascent_histories(monkeypatch, e, grid):
    histories = []
    ascent = experiments._power_ascent

    def recorded(*args):
        best_a, history = ascent(*args)
        histories.append(history)
        return best_a, history

    monkeypatch.setattr(experiments, "_power_ascent", recorded)
    bounds = ls_upper_bounds(e, 5, grid)
    monkeypatch.undo()
    assert len(bounds) == 5 and len(histories) == 1  # the batch of every k's fresh starts; no fallback
    return histories


def test_ls_upper_bounds_row_iterations(monkeypatch):
    # the power iteration evaluates phi 114 times over the 2 x 4 fresh starts;
    # ascending the nested start on every k as well took 294, and the 32
    # seeded restarts per k once run on top of those about 3900, so a budget
    # of 150 catches either
    histories = _ascent_histories(monkeypatch, ExponentPair(2.0, 2.0, 1), interval_grid(1.0, 1000))
    assert sum(int(np.isfinite(h).sum()) for h in histories) <= 150
    assert all(len(h) <= 400 for h in histories)


def test_ls_upper_bounds_advance_every_k_in_one_batch(monkeypatch):
    # the fresh starts of k = 2..5 are the 8 rows of one call, each row on its
    # own k-span; the batch ends with its slowest row (31 sweeps here), where
    # one call per k took 15 + 20 + 27 + 31 = 93 sweeps
    calls = []
    ascent = experiments._power_ascent

    def recorded(a, ks, *args):
        best_a, history = ascent(a, ks, *args)
        calls.append((a, ks, best_a, history))
        return best_a, history

    monkeypatch.setattr(experiments, "_power_ascent", recorded)
    ls_upper_bounds(ExponentPair(2.0, 2.0, 1), 5, interval_grid(1.0, 1000))
    ((a, ks, best_a, history),) = calls
    assert a.shape == best_a.shape == (8, 5)
    assert list(ks) == [2, 2, 3, 3, 4, 4, 5, 5]
    assert len(history) <= 35
    for row, k in zip(best_a, ks):
        assert np.all(row[k:] == 0.0) and row[k - 1] != 0.0


def test_ls_upper_bounds_log_one_debug_record(caplog):
    caplog.set_level(logging.DEBUG, logger="neumannlab")
    ls_upper_bounds(ExponentPair(2.0, 2.0, 1), 5, interval_grid(1.0, 1000))
    (record,) = [r for r in caplog.records if r.name == "neumannlab.experiments"]
    assert record.levelno == logging.DEBUG
    message = record.getMessage()
    found = re.search(
        r"k_max=5 on n=1000: (\d+) batched sweeps, set by the k=(\d) (un)?tilted row \((\d+) sweeps\), "
        r"\d+ start-sweeps, 0 rows at the 400-sweep cap", message
    )
    assert found and found[1] == found[4] and 2 <= int(found[2]) <= 5
    assert message.endswith("nested fallback at k=[]")


def test_ls_upper_bounds_name_the_row_that_sets_the_batch_length(monkeypatch, caplog):
    # on (0.5, 0.5) the tilted k = 5 start shrinks back toward e_5 slowly and
    # outlasts every other row of the batch
    calls = []
    real_ascent = experiments._power_ascent

    def recorded(a, ks, *args):
        best_a, history = real_ascent(a, ks, *args)
        calls.append(np.isfinite(history).sum(axis=0))
        return best_a, history

    monkeypatch.setattr(experiments, "_power_ascent", recorded)
    caplog.set_level(logging.DEBUG, logger="neumannlab")
    ls_upper_bounds(ExponentPair(0.5, 0.5, 1), 5, interval_grid(1.0, 2000))
    lengths = calls[0]
    (record,) = [r for r in caplog.records if r.name == "neumannlab.experiments"]
    assert int(np.argmax(lengths)) == 7 and lengths.max() > 3 * np.sort(lengths)[-2]  # rows e_2, tilt, ..., e_5, tilt
    assert f"{lengths.max()} batched sweeps, set by the k=5 tilted row ({lengths.max()} sweeps)" in record.getMessage()


def test_ls_upper_bounds_ascend_the_nested_start_below_the_floor(monkeypatch, caplog):
    # when no fresh row of k = 4 ends at the k = 3 bound, the previous best
    # padded with a zero is ascended and its best is the k = 4 bound
    grid = interval_grid(1.0, 1000)
    e = ExponentPair(2.0, 2.0, 1)
    plain = ls_upper_bounds(e, 5, grid)
    calls = []
    ascent = experiments._power_ascent

    def short_at_k4(a, ks, *args):
        best_a, history = ascent(a, ks, *args)
        if len(a) > 1:
            history = history - (ks == 4)  # |phi| < 0.1, so every fresh row of k = 4 now ends below the floor
        calls.append((a, ks, best_a, history))
        return best_a, history

    monkeypatch.setattr(experiments, "_power_ascent", short_at_k4)
    caplog.set_level(logging.DEBUG, logger="neumannlab")
    bounds = ls_upper_bounds(e, 5, grid)
    assert [(a.shape, list(ks)) for a, ks, _, _ in calls] == [((8, 5), [2, 2, 3, 3, 4, 4, 5, 5]), ((1, 5), [4])]
    _, ks, best_a, history = calls[0]
    best = np.nanmax(history, axis=0)
    assert bounds[2] == best[ks == 3].max()
    nested, _, _, nested_history = calls[1]
    assert np.array_equal(nested[0], best_a[ks == 3][np.argmax(best[ks == 3])])
    assert nested[0][2] != 0.0 and np.all(nested[0][3:] == 0.0)
    assert bounds[3] == np.nanmax(nested_history) > bounds[2]
    assert all(bounds[i + 1] >= bounds[i] for i in range(len(bounds) - 1))
    assert bounds[3] == pytest.approx(plain[3], rel=1e-13)
    assert "nested fallback at k=[4]" in caplog.text


def test_ls_upper_bounds_keep_the_floor_through_the_nested_ascent(monkeypatch):
    # the padded start's phi, summed over k modes, can round below the
    # previous bound it equals; the fallback's bound is never below that floor
    grid = interval_grid(1.0, 1000)
    e = ExponentPair(2.0, 2.0, 1)
    fresh_best = []
    ascent = experiments._power_ascent

    def two_ulp_short_at_k4(a, ks, *args):
        best_a, history = ascent(a, ks, *args)
        if len(a) > 1:
            best = np.nanmax(history, axis=0)
            fresh_best.extend(best[ks == k].max() for k in range(2, 6))
            history = history - (ks == 4)  # every fresh row of k = 4 ends below the floor
        else:
            floor = fresh_best[1]  # the k = 3 bound
            history = np.full_like(history, np.nextafter(np.nextafter(floor, -np.inf), -np.inf))
        return best_a, history

    monkeypatch.setattr(experiments, "_power_ascent", two_ulp_short_at_k4)
    bounds = ls_upper_bounds(e, 5, grid)
    assert len(fresh_best) == 4
    assert bounds[2] == fresh_best[1]
    assert bounds[3] == bounds[2]


def test_ls_upper_bounds_get_past_the_symmetric_stall():
    # at an exponent of 3 the e_2 row stops at the critical point e_2 after
    # 2 sweeps, 9.3e-12 below the sup; ref is the sup found by 32 seeded
    # random restarts (seed 0), which the tilted e_2 start must reach
    ref = -0.02817317820729441
    b = ls_upper_bounds(ExponentPair(2.0, 3.0, 1), 2, interval_grid(1.0, 2000))[1]
    assert b >= ref - 1e-13 * abs(ref)


def test_ls_upper_bounds_ignore_the_seed():
    grid = interval_grid(1.0, n=1000)
    e = ExponentPair(3.0, 1.5, 1)
    first = ls_upper_bounds(e, 5, grid, seed=0)
    for seed in (1, 2, 3):
        assert ls_upper_bounds(e, 5, grid, seed=seed) == first


@pytest.mark.parametrize("p,q", [(2.0, 2.0), (3.0, 1.5)])
def test_power_ascent_is_monotone(monkeypatch, p, q):
    # every start's phi sequence is nondecreasing up to rounding; only a
    # start's last sweep, the one that stops it, can fall, and at rounding level
    histories = _ascent_histories(monkeypatch, ExponentPair(p, q, 1), interval_grid(1.0, 1000))
    for history in histories:
        for phi in history.T:
            phi = phi[np.isfinite(phi)]
            assert len(phi) >= 2
            assert np.all(phi[1:] >= phi[:-1] - 1e-15 * np.abs(phi[:-1]))


@pytest.mark.parametrize("p,q", [(2.0, 2.0), (3.0, 1.5)])
def test_ls_upper_bounds_k2_matches_an_angle_scan(p, q):
    # on the span of the first two modes phi is even and depends only on the
    # direction of a: scan a = (cos t, sin t) and evaluate -c^2 int f K f directly
    grid = interval_grid(1.0, n=1000)
    e = ExponentPair(p, q, 1)
    b = ls_upper_bounds(e, 2, grid)[1]
    m1, m2 = (np.cos(i * math.pi * grid.r) for i in (1, 2))
    k1, k2 = (solve_neumann(grid, m) for m in (m1, m2))
    ts = np.linspace(0.0, math.pi, 4001)
    na, nb, quad = (np.empty_like(ts) for _ in range(3))
    for i, t in enumerate(ts):
        f = math.cos(t) * m1 + math.sin(t) * m2
        na[i] = grid.integrate_values(np.abs(f) ** e.alpha)
        nb[i] = grid.integrate_values(np.abs(f) ** e.beta)
        quad[i] = grid.integrate_values(f * (math.cos(t) * k1 + math.sin(t) * k2))
    c = _constraint_scale(e.alpha, e.beta, e.gamma1, e.gamma2, na, nb)
    best = float(np.max(-(c**2) * quad))
    assert b - 1e-9 * abs(b) <= best <= b + 1e-12 * abs(b)


@given(
    alpha=st.floats(1.05, 6.0),
    beta=st.floats(1.05, 6.0),
    same=st.booleans(),
    gamma1=st.one_of(st.just(0.5), st.floats(0.01, 0.99)),
    scale=st.floats(1e-3, 1e3),
)
@example(alpha=3.0, beta=3.0, same=True, gamma1=0.5, scale=1.0)  # p = q: both terms equal
@example(alpha=1.95, beta=1.95, same=True, gamma1=0.5, scale=1e-3)  # closed form alone: 5 ulp off
@example(alpha=1.1, beta=2.0, same=True, gamma1=0.9238382322123613, scale=434.9375)  # c (1 - x): 4 ulp off
@settings(max_examples=200, deadline=None)
def test_constraint_scale_holds_the_root(alpha, beta, same, gamma1, scale):
    beta = alpha if same else beta
    grid = interval_grid(1.0, n=50)
    vals = scale * (np.cos(math.pi * grid.r) + 0.3 * np.cos(3.0 * math.pi * grid.r))
    na = grid.integrate_values(np.abs(vals) ** alpha)
    nb = grid.integrate_values(np.abs(vals) ** beta)
    rows = np.array([1.0, 1.0, 10.0])  # one scale per row: f, f again, and 10 f
    c = _constraint_scale(alpha, beta, gamma1, 1.0 - gamma1, na * rows**alpha, nb * rows**beta)
    assert c[0] == c[1] > 0.0
    assert c[2] == pytest.approx(c[0] / 10.0, rel=1e-13)
    c = float(c[0])
    absv = np.abs(c * vals)
    total = gamma1 * grid.integrate_values(absv**alpha) + (1.0 - gamma1) * grid.integrate_values(absv**beta)
    assert total == pytest.approx(1.0, abs=1e-12)

    def excess(x):
        return gamma1 * x**alpha * na + (1.0 - gamma1) * x**beta * nb - 1.0

    # against the adjacent-float root of the two-term sum; that root is itself
    # up to ~2 ulp from the exact one when an exponent is near 1, hence 3 ulp.
    # At alpha = beta the closed form without its Newton step is up to 6 ulp
    # off at scale 1e3; otherwise term i alone reaches 1 at c_i, so 2 min c_i
    # lies right of the root
    if same:
        hi = 2.0 * na ** (-1.0 / alpha)
    else:
        hi = 2.0 * min((gamma1 * na) ** (-1.0 / alpha), ((1.0 - gamma1) * nb) ** (-1.0 / beta))
    lo, hi = solve_increasing(lambda x: (excess(x), math.nan), 0.0, hi)
    root = 0.5 * (lo + hi)
    assert abs(c - root) <= 3.0 * math.ulp(root)


def test_ls_upper_bounds_validation():
    grid = interval_grid(1.0, n=200)
    with pytest.raises(ValueError):
        ls_upper_bounds(ExponentPair(2.0, 2.0, 1), 9, grid)
    ball = unit_ball_grid(2, n=200)
    with pytest.raises(ValueError):
        ls_upper_bounds(ExponentPair(2.0, 2.0, 2), 3, ball)
