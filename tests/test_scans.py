"""Smoke tests of the reference-scan driver scans/run.py: its compare rules
on hand-made rows, one small dual line, one small cli line, and one dual
line against its committed reference."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from neumannlab.exponents import ExponentPair

_spec = importlib.util.spec_from_file_location("scan_run", Path(__file__).resolve().parents[1] / "scans" / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def _sign_rows():
    return [
        {"q": 1.0, "dim": 2, "n": 50, "lam": 1.5, "c": -0.25, "converged": True},
        {"q": None, "dim": 2, "n": 50, "c0": -0.125},
    ]


def _genus_rows(shift=0.0):
    bounds = [-0.09, -0.02, -0.01]
    return [{"p": 2.0, "q": 3.0, "seed": 0, "bounds": [b * (1.0 + shift) for b in bounds]}]


def test_identical_rows_compare_ok(capsys):
    assert run.compare("sign", _sign_rows(), _sign_rows()) == 0
    assert "ok: 2 of 2 entries identical" in capsys.readouterr().out


def test_one_ulp_fails_and_names_the_key_and_field(capsys):
    moved = _sign_rows()
    moved[0]["lam"] = math.nextafter(moved[0]["lam"], math.inf)
    assert run.compare("sign", moved, _sign_rows()) == 1
    out = capsys.readouterr().out
    assert "q=1.0 dim=2 n=50: lam 1.5 -> 1.5000000000000002" in out
    assert "FAIL: 1 of 2 entries identical" in out
    # the output ends with each moved numeric field's largest relative move
    assert out.endswith("FAIL: 1 of 2 entries identical\nlargest relative move of lam: 1.48e-16 at q=1.0 dim=2 n=50\n")
    moved[0]["converged"] = False  # a flag moves, but not by a relative amount
    moved[1]["c0"] = -0.25
    assert run.compare("sign", moved, _sign_rows()) == 1
    out = capsys.readouterr().out
    assert "q=1.0 dim=2 n=50: converged True -> False" in out
    assert out.endswith(
        "FAIL: 0 of 2 entries identical\n"
        "largest relative move of c0: 1.00e+00 at q=None dim=2 n=50\n"
        "largest relative move of lam: 1.48e-16 at q=1.0 dim=2 n=50\n"
    )


def test_different_keys_fail(capsys):
    assert run.compare("sign", _sign_rows()[:1], _sign_rows()) == 1
    assert "different keys" in capsys.readouterr().out


def test_genus_fails_only_on_a_lower_bound(capsys):
    # the bounds are negative: scaling by 1 + s moves them down by s relative
    assert run.compare("genus", _genus_rows(2e-13), _genus_rows()) == 1
    assert "FAIL: 1 calls" in capsys.readouterr().out
    assert run.compare("genus", _genus_rows(-2e-13), _genus_rows()) == 0
    assert "ok: 1 calls" in capsys.readouterr().out


def test_a_dual_line_carries_every_field():
    row = run.dual_row(ExponentPair(2.0, 3.0, 2), 200)
    fields = {"p", "q", "dim", "n", *run.DUAL_FIELDS, "off_band_u", "off_band_v", "defect_u", "defect_v"}
    assert set(row) == fields
    assert (row["p"], row["q"], row["dim"], row["n"]) == (2.0, 3.0, 2, 200)
    assert 0.0 <= row["k_step"] <= 1e-10  # the default tol
    assert all(0.0 <= row[f] < 1e-3 for f in ("off_band_u", "off_band_v", "defect_u", "defect_v"))


def test_a_dual_line_below_1_reproduces_its_reference_bit_for_bit():
    # (0.5, 5) on the disk, secant-mixed like every pair: the reference holds the
    # bits of the current sweep rule, so the sweep must form every quantity as it did
    row = json.loads(json.dumps(run.dual_row(ExponentPair(0.5, 5.0, 2), 2000)))
    lines = (Path(__file__).resolve().parents[1] / "scans" / "dual_ref.jsonl").read_text().splitlines()
    refs = [ref for ref in map(json.loads, lines) if (ref["p"], ref["q"], ref["dim"], ref["n"]) == (0.5, 5.0, 2, 2000)]
    assert refs == [row]


def test_a_cli_line_carries_the_exit_code_the_solution_and_the_csv_digests():
    row = run.cli_row(3.0, 2.0, 1, 2000)
    assert (row["p"], row["q"], row["dim"], row["n"], row["exit"]) == (3.0, 2.0, 1, 2000, 0)
    assert row["converged"] is True and row["Lambda"] > 0.0
    assert not set(run.UNSTABLE) & set(row)
    assert all(len(row[name]) == 64 for name in ("u.csv", "v.csv"))


@pytest.mark.parametrize(
    "row, error",
    [
        (lambda: run.dual_row(ExponentPair(5.0, 5.0, 3), 200), "ValueError: critical exponents are outside"),
        (lambda: run.sign_row(29.0, 6, 7), "ValueError: n = 7 is too coarse for the residuals"),
    ],
    ids=["dual", "sign"],
)
def test_a_raise_is_recorded_as_type_and_message(row, error):
    row = row()
    assert row["error"].startswith(error)
    assert set(row) - {"error"} in ({"p", "q", "dim", "n"}, {"q", "dim", "n"})
