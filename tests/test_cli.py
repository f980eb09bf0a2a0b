import csv
import ctypes
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import neumannlab
from neumannlab import cli, dual, greens, sign
from neumannlab.cli import main
from neumannlab.dual import DegenerateIterateError, NonConvergenceError
from neumannlab.greens import KappaShiftError, NumericalFailure


def _assert_run_metadata(payload):
    assert payload["neumannlab_version"] == neumannlab.__version__
    assert payload["numpy_version"] == np.__version__
    assert 0.0 <= payload["quadrature_defect"] <= 1e-12


def test_solve_subcritical(tmp_path):
    code = main(
        ["solve", "--p", "3", "--q", "3", "--dim", "1", "--n", "600", "--outdir", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "solution.json").read_text())
    assert payload["converged"] is True
    assert payload["Lambda"] * payload["D"] == pytest.approx(1.0, rel=1e-12)
    assert 0.0 <= payload["k_step"] <= 1e-10  # the default tol
    # p = q = 3: one t = 3 root per sweep, at least one moment evaluation each
    assert payload["iterations"] <= payload["kappa_evaluations"] <= 8 * payload["iterations"]
    _assert_run_metadata(payload)
    for name in ("u.csv", "v.csv"):
        raw = (tmp_path / name).read_bytes()
        assert raw.startswith(b"r,value\r\n")
        assert raw.count(b"\r\n") == 602
    # 17 significant digits requested for diffable output
    first = (tmp_path / "u.csv").read_text().splitlines()[1]
    assert len(first.split(",")[1].replace("-", "").replace(".", "").split("e")[0]) >= 16


def test_solve_sign_case_reports_zero_radius(tmp_path):
    code = main(["solve", "--p", "0", "--q", "1", "--dim", "2", "--n", "800", "--outdir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "solution.json").read_text())
    assert payload["zero_radius"] == pytest.approx(2.0 ** -0.5, abs=1e-10)
    assert payload["iterations"] == 1  # one application of the balanced-level-set map
    assert payload["k_step"] is None  # the sign solver has no dual stop rule
    assert payload["kappa_evaluations"] is None
    assert payload["coarse_start"] is None


def test_solve_sign_case_large_q_on_a_ball(tmp_path):
    # v peaks at the origin, where the weight r^5 vanishes: the q-normalizing
    # shift must meet a target on the scale of int |v|^q, or the next Green
    # solve refuses the power's leftover mean
    code = main(["solve", "--p", "0", "--q", "5", "--dim", "6", "--n", "2000", "--outdir", str(tmp_path)])
    assert code == 0
    assert json.loads((tmp_path / "solution.json").read_text())["converged"] is True


@pytest.mark.parametrize("flags", [["--max-iter", "5"], ["--tol", "1e-8"], ["--tol", "1e-8", "--max-iter", "5"]])
def test_solve_sign_case_refuses_iteration_options(tmp_path, capsys, flags):
    code = main(["solve", "--p", "0", "--q", "1", "--n", "200", *flags, "--outdir", str(tmp_path)])
    assert code == 1
    assert "p = 0 takes no --" in capsys.readouterr().err
    assert not (tmp_path / "solution.json").exists()


def test_solve_sign_case_on_a_grid_too_coarse_for_residuals(tmp_path, capsys):
    code = main(["solve", "--p", "0", "--q", "1", "--n", "6", "--outdir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error: n = 6 is too coarse" in err
    assert "zero-size" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--p", "29", "--q", "2", "--dim", "3", "--n", "8"],
        ["--p", "0", "--q", "29", "--dim", "6", "--n", "6"],
        ["--p", "0", "--q", "29", "--dim", "6", "--n", "7"],
        ["--p", "0", "--q", "29", "--dim", "7", "--n", "8"],
        ["--p", "0", "--q", "29", "--dim", "8", "--n", "9"],
        ["--p", "0.1", "--q", "0.1", "--dim", "7", "--n", "6"],
    ],
    ids=["kappa-bracket", "sign-N6-n6", "sign-N6-n7", "sign-N7-n8", "sign-N8-n9", "start-norms"],
)
def test_negative_origin_weights_of_a_coarse_ball_are_a_numerical_failure(tmp_path, capsys, argv):
    # the quadrature, not the configuration, fails: a kappa bracket with no
    # sign change, a mean-projected Green solve refused, start norms not positive
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", *argv, "--outdir", str(tmp_path)])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_a_solve_next_to_the_hyperbola_exits_2_not_with_zeros(tmp_path, capsys):
    code = main(["solve", "--p", "1", "--q", "0.999", "--dim", "1", "--n", "2000", "--outdir", str(tmp_path)])
    assert code == 2
    assert "the scale D^1998 is about 1e-1987" in capsys.readouterr().err
    payload = json.loads((tmp_path / "solution.json").read_text())
    assert payload["converged"] is False and "level c is of order 1e-3979" in payload["error"]
    assert not (tmp_path / "u.csv").exists()


def test_solve_rejects_hyperbola(tmp_path, capsys):
    code = main(["solve", "--p", "1", "--q", "1", "--n", "300", "--outdir", str(tmp_path)])
    assert code == 1
    assert "hyperbola" in capsys.readouterr().err


def test_solve_nonconvergence_exit_code(tmp_path):
    code = main(
        ["solve", "--p", "2", "--q", "3", "--n", "300", "--max-iter", "2", "--outdir", str(tmp_path)]
    )
    assert code == 2
    payload = json.loads((tmp_path / "solution.json").read_text())
    assert payload["converged"] is False  # partial output still written
    _assert_run_metadata(payload)


@pytest.mark.parametrize(
    "failure",
    [
        KappaShiftError("shift failed"),
        DegenerateIterateError("iterate collapsed"),
        NonConvergenceError("budget exhausted", 0.25, 1e-3, 7),
        NumericalFailure("the Green solve is not finite"),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_solve_numerical_failure_exit_code(tmp_path, monkeypatch, capsys, failure):
    def failing_shift(*args):
        raise failure

    monkeypatch.setattr(dual, "kappa_shift", failing_shift)
    code = main(["solve", "--p", "2", "--q", "3", "--n", "300", "--outdir", str(tmp_path)])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err
    payload = json.loads((tmp_path / "solution.json").read_text())
    assert payload["converged"] is False
    assert payload["error"] == str(failure)
    assert payload["Lambda"] == (4.0 if isinstance(failure, NonConvergenceError) else None)
    _assert_run_metadata(payload)


def test_solve_sign_case_numerical_failure_exit_code(tmp_path, monkeypatch):
    def failing_shift(*args):
        raise KappaShiftError("shift failed")

    monkeypatch.setattr(sign, "kappa_shift", failing_shift)
    code = main(["solve", "--p", "0", "--q", "1", "--dim", "2", "--n", "300", "--outdir", str(tmp_path)])
    assert code == 2
    assert json.loads((tmp_path / "solution.json").read_text())["error"] == "shift failed"


@pytest.mark.parametrize("p, q", [("3", "2"), ("0", "1")], ids=["dual", "sign"])
def test_non_finite_green_apply_is_a_numerical_failure(tmp_path, monkeypatch, capsys, p, q):
    real_apply = greens.green_apply

    def one_nan(grid, values):
        out = real_apply(grid, values)
        out[len(out) // 3] = np.nan
        return out

    monkeypatch.setattr(greens, "green_apply", one_nan)
    code = main(["solve", "--p", p, "--q", q, "--n", "200", "--outdir", str(tmp_path)])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_solve_ball3_fine_grid_converges(tmp_path):
    code = main(["solve", "--p", "2", "--q", "2", "--dim", "3", "--n", "20000", "--outdir", str(tmp_path)])
    assert code == 0
    assert json.loads((tmp_path / "solution.json").read_text())["converged"] is True


def test_solution_json_records_the_coarse_start(tmp_path):
    for n in ("2000", "20000"):
        assert main(["solve", "--p", "3", "--q", "2", "--dim", "3", "--n", n, "--outdir", str(tmp_path / n)]) == 0
    assert json.loads((tmp_path / "2000" / "solution.json").read_text())["coarse_start"] is None
    payload = json.loads((tmp_path / "20000" / "solution.json").read_text())
    assert payload["converged"] is True
    start = payload["coarse_start"]
    assert set(start) == {"n", "sweeps", "kappa_evaluations", "D", "d_gap"} and start["n"] == 2000
    assert start["d_gap"] == pytest.approx(abs(start["D"] - payload["D"]) / payload["D"], rel=1e-12, abs=1e-300)
    assert start["d_gap"] <= 1e-10


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 3.0, "q": 3.0, "n": 600}))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["solve", "--config", str(cfg), "--outdir", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg), "--n", "1000", "--outdir", str(out2)]) == 0
    n1 = json.loads((out1 / "solution.json").read_text())["config"]["n"]
    n2 = json.loads((out2 / "solution.json").read_text())["config"]["n"]
    assert (n1, n2) == (600, 1000)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # nmin is a key of asympt, not of solve
    for key in ("bogus", "nmin"):
        cfg.write_text(json.dumps({"p": 3.0, "q": 3.0, key: 1}))
        assert main(["solve", "--config", str(cfg), "--outdir", str(tmp_path)]) == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_solve_rejects_damping_flag(tmp_path):
    # removed knobs: the damping factor, the start options and the grid mode
    # (the dimension alone decides the domain)
    for argv in (
        ["solve", "--p", "3", "--q", "3", "--damping", "0.5"],
        ["solve", "--p", "3", "--q", "3", "--mode", "ball"],
        ["solve", "--p", "3", "--q", "3", "--init", "cosine"],
        ["solve", "--p", "3", "--q", "3", "--init-file", "g.csv"],
        ["sweep", "--path", "p:2..3,q:1", "--samples", "2", "--n", "100", "--cold"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--outdir", str(tmp_path)])
        assert info.value.code == 1, argv  # a usage error is a configuration error


def test_config_rejects_damping_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    removed = (("damping", 0.5), ("init", "cosine"), ("init_file", "g.csv"), ("cold", "false"), ("mode", "ball"))
    for key, value in removed:
        cfg.write_text(json.dumps({"p": 3.0, "q": 3.0, "n": 100, key: value}))
        assert main(["solve", "--config", str(cfg), "--outdir", str(tmp_path)]) == 1, key
        assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--p", "3", "--q", "2", "--n", "100", "--max-iter", "0"],
        ["solve", "--p", "0", "--q", "1", "--n", "100", "--max-iter", "0"],
        ["sweep", "--path", "p:2..3,q:1", "--samples", "3", "--n", "100", "--max-iter", "0"],
        ["oracle", "--n", "9", "--p", "2", "--q", "3", "--max-iter", "0"],
        ["solve", "--p", "3", "--q", "2", "--n", "100", "--tol=-1e-10"],
        ["solve", "--p", "3", "--q", "2", "--n", "100", "--tol", "0"],
    ],
    ids=["dual", "sign", "sweep", "oracle", "negative-tol", "zero-tol"],
)
def test_invalid_solver_options_are_a_configuration_error(tmp_path, capsys, argv):
    assert main(argv + ["--outdir", str(tmp_path)]) == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["solve", "--p", "3", "--q", "2", "--bogus", "1"], None),
        ([], None),
        (["solve", "--p", "3", "--q", "2", "--tol", "-1e-10"], None),
        (["solve", "--config", "missing.json"], None),
        (["solve", "--p", "3", "--q", "2", "--config", "cfg.json"], {"n": [1]}),
        (["solve", "--p", "3", "--q", "2", "--config", "cfg.json"], {"n": 600.9}),
        (["solve", "--p", "3", "--q", "2", "--config", "cfg.json"], {"n": True}),
        (["table1", "--n", "5"], None),
        (["sweep", "--path", "p:1..2,q:1", "--samples", "0"], None),
        (["solve", "--p", "5", "--q", "5", "--dim", "3", "--n", "400"], None),
        (["--help"], None),
    ],
    ids=[
        "unknown-flag",
        "no-subcommand",
        "negative-e-notation",
        "missing-config",
        "ill-typed-config",
        "fractional-config-int",
        "boolean-config-int",
        "flag-of-another-subcommand",
        "zero-samples",
        "critical-pair",
        "help",
    ],
)
def test_front_end_exit_codes(tmp_path, monkeypatch, capsys, argv, config):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
    try:
        code = main(argv)
    except SystemExit as info:  # argparse stops on --help and on usage errors
        code = info.code
    err = capsys.readouterr().err
    assert code == (0 if argv == ["--help"] else 1)
    reported = "--config" in argv or "--samples" in argv or "--dim" in argv  # a message, not a usage error
    if reported:
        assert "configuration error" in err
    if config is not None:
        assert "'n'" in err  # the message names the ill-typed key
    if "--samples" in argv:
        assert "samples must be at least 1" in err
        assert not (tmp_path / "sweep.csv").exists()  # rejected before any solve
    if "--dim" in argv:  # the critical pair
        assert "concentrates at the origin" in err
        assert not (tmp_path / "solution.json").exists()  # refused before any solve
    if argv and code == 1 and not reported:  # a usage error shows the subcommand's usage line
        assert err.startswith(f"usage: neumannlab {argv[0]} ")


def test_table1_command(tmp_path):
    assert main(["table1", "--outdir", str(tmp_path)]) == 0
    lines = (tmp_path / "table1.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"N,h1,h2,h1_minus_h2"
    assert lines[1] == b"3,-0.002723963752379501,-0.079521564043991647,0.076797600291612145"
    assert len([ln for ln in lines if ln]) == 7


def test_sweep_command(tmp_path):
    code = main(
        [
            "sweep",
            "--path",
            "p:1.5..3,q:1",
            "--samples",
            "6",
            "--n",
            "400",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0].startswith("t,p,q,Lambda")
    ps = [float(r.split(",")[1]) for r in rows[1:] if r]
    assert ps == sorted(ps)
    summary = json.loads((tmp_path / "sweep.json").read_text())
    assert summary["failed"] == 0
    assert summary["config"]["path"] == "p:1.5..3,q:1"


def test_sweep_refuses_a_sign_case_sample(tmp_path, capsys):
    # p = 0 is the sign solver's case: refused with the critical and supercritical samples
    code = main(["sweep", "--path", "p:0..1,q:2", "--samples", "3", "--n", "200", "--outdir", str(tmp_path)])
    assert code == 1
    assert "sample t=0.0 is sign-case, outside the dual solver's scope" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()  # refused before any solve


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def _libc_has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


@pytest.mark.skipif(not _libc_has_mallopt(), reason="the C library has no mallopt")
def test_a_second_fine_solve_reuses_the_freed_heap(tmp_path):
    resource = pytest.importorskip("resource")
    argv = ["solve", "--p", "0", "--q", "1", "--dim", "2", "--n", "20000", "--outdir", str(tmp_path)]
    assert main(argv) == 0
    faults = []
    for _ in range(3):  # the fewest of three: the host kernel may migrate a page now and then
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    # glibc's default trim hands the freed arrays back: about 1500 faults a solve
    assert min(faults) < 100, faults


class _LibcWithoutMallopt:  # musl without the symbol, macOS
    def __init__(self, name):
        pass


def _no_libc(name):
    raise OSError("no C library to load")


@pytest.mark.parametrize("cdll", [_LibcWithoutMallopt, _no_libc], ids=["no-mallopt", "no-libc"])
def test_solve_without_mallopt_writes_the_same_output(tmp_path, monkeypatch, cdll):
    argv = ["solve", "--p", "3", "--q", "2", "--dim", "2", "--n", "400", "--outdir"]
    assert main(argv + [str(tmp_path / "libc")]) == 0
    looked_up = []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: looked_up.append(name) or cdll(name))
    cli._keep_freed_heap.cache_clear()
    try:
        assert main(argv + [str(tmp_path / "plain")]) == 0
    finally:
        cli._keep_freed_heap.cache_clear()
    assert looked_up == [None]
    for name in ("u.csv", "v.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "libc" / name).read_bytes()


def _openblas():
    """The OpenBLAS this process loaded, found as the CLI finds it, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = [ctypes.CDLL(path) for path in {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}]
    except OSError:
        return None
    return next((lib for lib in libs if any(hasattr(lib, name) for name in cli.BLAS_SETTERS)), None)


def _openblas_threads():
    """The thread getter of the OpenBLAS this process loaded, or None."""
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads", "openblas_get_num_threads64_")
    lib = _openblas()
    return next((getattr(lib, name) for name in names if hasattr(lib, name)), None)


def test_the_cli_runs_blas_on_one_thread(tmp_path):
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS found through /proc/self/maps")
    setter = next(getattr(_openblas(), name) for name in cli.BLAS_SETTERS if hasattr(_openblas(), name))
    setter(2)
    cli._one_blas_thread.cache_clear()
    assert main(["solve", "--p", "0", "--q", "1", "--n", "200", "--outdir", str(tmp_path)]) == 0
    assert threads() == 1


def test_importing_the_cli_pins_nothing():
    # a fresh process: here earlier tests have run main
    probe = "from neumannlab import cli; print(cli._one_blas_thread.cache_info(), cli._keep_freed_heap.cache_info())"
    src = Path(neumannlab.__file__).parents[1]
    out = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, check=True).stdout
    assert out.count("currsize=0") == 2, out


def test_solve_without_proc_maps_writes_the_same_output(tmp_path, monkeypatch):
    argv = ["solve", "--p", "3", "--q", "2", "--dim", "2", "--n", "400", "--outdir"]
    assert main(argv + [str(tmp_path / "pinned")]) == 0

    def no_proc(path, *args):
        raise FileNotFoundError(path)

    monkeypatch.setattr(cli, "open", no_proc, raising=False)
    cli._one_blas_thread.cache_clear()
    try:
        assert main(argv + [str(tmp_path / "plain")]) == 0
    finally:
        cli._one_blas_thread.cache_clear()
    for name in ("u.csv", "v.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "pinned" / name).read_bytes()


def test_solve_help_says_the_seed_is_ignored(capsys):
    with pytest.raises(SystemExit) as info:
        cli.build_parser().parse_args(["solve", "--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    assert "--seed SEED seeds the random restarts of oracle; solve and sweep accept it and ignore it" in text


def test_sweep_records_numerical_failure_per_sample(tmp_path, monkeypatch):
    real_shift = dual.kappa_shift

    def shift_failing_at_p2(grid, w, t, guess=None):
        if t == 2.0:
            raise KappaShiftError("shift failed")
        return real_shift(grid, w, t, guess)

    monkeypatch.setattr(dual, "kappa_shift", shift_failing_at_p2)
    code = main(["sweep", "--path", "p:1.5..2.5,q:1", "--samples", "3", "--n", "300", "--outdir", str(tmp_path)])
    assert code == 2
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    errors = [row.split(",")[-1] for row in rows[1:]]
    assert errors == ["", "shift failed", ""]  # the sweep goes on past the failed sample
    assert json.loads((tmp_path / "sweep.json").read_text())["failed"] == 1


def test_sweep_failed_rows_record_lambda_and_d(tmp_path):
    # two sweeps bring Lambda within 2e-9 of its limit but stop short of the step test
    argv = ["sweep", "--path", "p:2..3,q:1", "--samples", "3", "--n", "300", "--max-iter", "2"]
    assert main(argv + ["--outdir", str(tmp_path)]) == 2
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["p"] for row in rows] == ["2", "2.5", "3"]
    for row in rows:
        assert row["error"].startswith("dual iteration did not converge")
        assert float(row["Lambda"]) * float(row["D"]) == pytest.approx(1.0, rel=1e-15)
        assert row["iterations"] == "2"
        assert row["k_step"] == ""  # only a converged row records its K-image step
    assert float(rows[0]["Lambda"]) == pytest.approx(9.2842255, rel=1e-6)  # converged value at n = 300
    assert json.loads((tmp_path / "sweep.json").read_text())["continuity_ok"] is True


def test_sweep_rejects_bad_path(tmp_path, capsys):
    assert main(["sweep", "--path", "z:1..2", "--outdir", str(tmp_path)]) == 1


def test_asympt_command(tmp_path):
    assert main(["asympt", "--nmin", "2", "--nmax", "12", "--outdir", str(tmp_path)]) == 0
    raw = (tmp_path / "asympt.csv").read_bytes()
    rows = raw.split(b"\r\n")
    assert len(rows) == 13 and rows[-1] == b""  # header + 11 dimensions, CRLF-terminated
    assert rows[0] == b"N,nonradial,provenance,h1,h2,neg_p,mid,rhs"
    assert rows[1].startswith(b"2,1,table")
    assert rows[-2] == b"12,1,bound,,,13.964470620852438,682,1589.002951829483"


def test_oracle_command(tmp_path, capsys):
    code = main(
        ["oracle", "--n", "9", "--p", "2", "--q", "3", "--restarts", "16", "--outdir", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "relative gap" in out
    payload = json.loads((tmp_path / "oracle.json").read_text())
    assert payload["relative_gap"] <= 1e-6


def test_oracle_refusal_is_a_configuration_error(tmp_path, capsys):
    code = main(["oracle", "--p", "1", "--q", "1", "--dim", "3", "--n", "9", "--outdir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "positive quadrature weights" in err
    assert "Traceback" not in err
    assert not (tmp_path / "oracle.json").exists()


def test_oracle_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    def failing_shift(*args):
        raise KappaShiftError("shift failed")

    monkeypatch.setattr(dual, "kappa_shift", failing_shift)
    code = main(["oracle", "--n", "9", "--p", "2", "--q", "3", "--outdir", str(tmp_path)])
    assert code == 2
    assert "shift failed" in capsys.readouterr().err
