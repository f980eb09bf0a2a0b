"""Reference scans of the solvers, one JSON line per solve.

Run from the root of a checkout:

    python3 scans/run.py FAMILY > FAMILY.jsonl
    python3 scans/run.py FAMILY --compare scans/FAMILY_ref.jsonl

A family is a function that returns its rows, the fields that key them and
a compare rule.  --compare REF exits 1 if the scan and REF cover different
keys or the rule fails; the identity rule holds only on the numpy/BLAS
build and CPU that wrote REF, with BLAS on one thread, which the scan sets
before it imports numpy.  A raise is recorded as "Type: message".

sign   solve_sign_system for q in {0.01, 0.1, 1, 5, 29} and
       solve_scalar_sign (q null) on N = 1..8, n in {7, 9, 50, 200, 2000,
       20000}: 288 solves keyed by (q, dim, n).  Every field must be
       identical: the p = 0 solution is built without iteration.
genus  ls_upper_bounds, k_max = 5, on the unit interval at n = 2000 for
       p, q in {0.5, 1, 1.5, 2, 3, 5}, pq != 1, seeds 0 and 1: 66 calls
       keyed by (p, q, seed).  The bounds are upper bounds only where the
       ascent finds the sup, and a biased constraint scale would lift every
       bound alike, so the rule prints each k's largest downward and upward
       relative moves and fails on one above 1e-13 down or 1e-12 up.
dual   compute_dual and reconstruct_solution for p, q in {0.01, 0.1, 0.5,
       1, 2, 5}, subcritical (so pq != 1), on N = 1..6, n in {2000, 20000}:
       370 solves keyed by (p, q, dim, n), each with the report's fields;
       off_band_u and off_band_v, the stencil residuals on the nodes
       farther than 3h from every crossing of the right side's argument,
       relative to max |rhs|; and defect_u and defect_v, the operator-form
       defects |x - mean x - K(rhs - mean rhs)|_inf / |x|_inf with rhs
       recomputed from (u, v).  Every field must be identical.
cli    `neumannlab solve` in process through cli.main, as the benchmark
       runs it: (p, q) in {(3, 2), (2, 3), (0.5, 3), (3, 0.5)} on N = 1..3
       at n = 20000, and p = 0, q = 1 on N = 1..3 at n in {2000, 20000}:
       18 solves keyed by (p, q, dim, n), each with its exit code, the
       solution.json fields but config (which holds the output directory)
       and the two version strings, and the sha256 of u.csv and v.csv.
       Every field must be identical.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
# as perfbench/run.py's BLAS_THREAD_VARS: threaded BLAS sums, so the scanned digits, depend on the thread count
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

from neumannlab import ExponentPair, Region, classify_region, compute_dual, interval_grid  # noqa: E402
from neumannlab import cli, ls_upper_bounds, make_grid, reconstruct_solution  # noqa: E402
from neumannlab.greens import _signed_power, green_apply  # noqa: E402
from neumannlab.grid import discrete_radial_laplacian  # noqa: E402
from neumannlab.sign import _crossing_radii, _off_crossings, solve_scalar_sign, solve_sign_system  # noqa: E402

SIGN_FIELDS = ("lam", "c", "c_energy", "zero_radius", "residual_u", "residual_v", "converged", "iterations")
DUAL_FIELDS = ("D", "lam", "c", "iterations", "k_step", "kappa_evaluations", "converged",
               "residual_u", "residual_v")
DUAL_EXPONENTS = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)
GENUS_EXPONENTS = (0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
CLI_PAIRS = ((3.0, 2.0), (2.0, 3.0), (0.5, 3.0), (3.0, 0.5))
UNSTABLE = ("config", "neumannlab_version", "numpy_version")  # solution.json fields a cli line leaves out
DOWN_TOL = 1e-13  # the genus rule's bound on a bound's downward relative move
UP_TOL = 1e-12  # and on its upward one: a biased constraint scale would lift every bound alike


def _recorded(row: dict, solve) -> dict:
    """row with the fields solve() returns, or with the type and message of its raise."""
    try:
        row.update(solve())
    except Exception as exc:  # a scan records every raise, whatever its type
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _fields(rep, names: tuple[str, ...]) -> dict:
    return {name: getattr(rep, name) for name in names}


def sign_row(q: float | None, dim: int, n: int) -> dict:
    """One sign line; q None is the scalar solve."""
    grid = make_grid(dim=dim, n=n)
    if q is None:
        return _recorded({"q": q, "dim": dim, "n": n}, lambda: {"c0": solve_scalar_sign(grid)[1]})
    return _recorded({"q": q, "dim": dim, "n": n}, lambda: _fields(solve_sign_system(q, grid), SIGN_FIELDS))


def sign_rows() -> list[dict]:
    sizes = (7, 9, 50, 200, 2000, 20000)
    return [sign_row(q, dim, n) for q in (0.01, 0.1, 1.0, 5.0, 29.0, None) for dim in range(1, 9) for n in sizes]


def genus_rows() -> list[dict]:
    grid = interval_grid(1.0, 2000)
    keys = [(p, q, seed) for p in GENUS_EXPONENTS for q in GENUS_EXPONENTS if p * q != 1.0 for seed in (0, 1)]
    return [
        {"p": p, "q": q, "seed": seed, "bounds": ls_upper_bounds(ExponentPair(p, q, 1), 5, grid, seed=seed)}
        for p, q, seed in keys
    ]


def dual_row(e: ExponentPair, n: int) -> dict:
    """One dual line: the solve, its reconstruction and their checks."""

    def solve() -> dict:
        grid = make_grid(dim=e.dim, n=n)
        rep = reconstruct_solution(e, compute_dual(e, grid))
        row = _fields(rep, DUAL_FIELDS)
        for name, x, arg, t in (("u", rep.u.values, rep.v.values, e.q), ("v", rep.v.values, rep.u.values, e.p)):
            rhs = _signed_power(arg, t)
            kept = _off_crossings(grid, _crossing_radii(grid, arg))
            stencil = np.abs(-discrete_radial_laplacian(grid, x) - rhs)[kept]
            row[f"off_band_{name}"] = float(stencil.max(initial=0.0) / np.max(np.abs(rhs)))
            defect = x - grid.mean_values(x) - green_apply(grid, rhs - grid.mean_values(rhs))
            row[f"defect_{name}"] = float(np.max(np.abs(defect)) / np.max(np.abs(x)))
        return row

    return _recorded({"p": e.p, "q": e.q, "dim": e.dim, "n": n}, solve)


def dual_rows() -> list[dict]:
    pairs = [ExponentPair(p, q, dim) for p in DUAL_EXPONENTS for q in DUAL_EXPONENTS for dim in range(1, 7)]
    return [dual_row(e, n) for e in pairs if classify_region(e) is Region.SUBCRITICAL for n in (2000, 20000)]


def cli_row(p: float, q: float, dim: int, n: int) -> dict:
    """One cli line: `neumannlab solve` run through cli.main in a fresh directory."""
    argv = ["solve", "--p", f"{p:g}", "--q", f"{q:g}", "--dim", str(dim), "--n", str(n)]
    with tempfile.TemporaryDirectory() as tmp:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            row = {"p": p, "q": q, "dim": dim, "n": n, "exit": cli.main(argv + ["--outdir", tmp])}
        out = Path(tmp)
        solution = json.loads((out / "solution.json").read_text())
        row.update((k, v) for k, v in solution.items() if k not in UNSTABLE)
        for name in ("u.csv", "v.csv"):
            if (out / name).exists():
                row[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    return row


def cli_rows() -> list[dict]:
    dual = [(p, q, dim, 20000) for dim in (1, 2, 3) for p, q in CLI_PAIRS]
    sign = [(0.0, 1.0, dim, n) for dim in (1, 2, 3) for n in (2000, 20000)]
    return [cli_row(*key) for key in dual + sign]


def identical(ref: dict, new: dict, label) -> int:
    """Every field of every entry identical, compared by its JSON spelling."""
    moved = 0
    for k in ref:
        fields = sorted(ref[k].keys() | new[k].keys())
        diffs = [f for f in fields if json.dumps(ref[k].get(f)) != json.dumps(new[k].get(f))]
        moved += bool(diffs)
        for f in diffs:
            print(f"{label(k)}: {f} {ref[k].get(f)!r} -> {new[k].get(f)!r}")
    print(f"{'FAIL' if moved else 'ok'}: {len(ref) - moved} of {len(ref)} entries identical")
    return int(moved > 0)


def bounds_near_reference(ref: dict, new: dict, label) -> int:
    """No bound more than DOWN_TOL relative below or UP_TOL above its reference; prints each k's largest moves."""
    worst_down = worst_up = 0.0
    for i in range(len(next(iter(ref.values()))["bounds"])):
        moves = {k: (new[k]["bounds"][i] - ref[k]["bounds"][i]) / abs(ref[k]["bounds"][i]) for k in ref}
        down, up = min(moves, key=moves.get), max(moves, key=moves.get)
        drop = 0.0 - moves[down]  # not -0.0 when nothing moved
        worst_down, worst_up = max(worst_down, drop), max(worst_up, moves[up])
        print(f"k={i + 1}: largest downward relative move {drop:+.2e} at {label(down)}, "
              f"largest upward {moves[up]:+.2e} at {label(up)}")
    failed = worst_down > DOWN_TOL or worst_up > UP_TOL
    print(f"{'FAIL' if failed else 'ok'}: {len(ref)} calls, largest downward move {worst_down:.2e} against the bound "
          f"{DOWN_TOL:g}, largest upward move {worst_up:.2e} against the bound {UP_TOL:g}")
    return int(failed)


# family: (its rows, the fields that key them, its compare rule)
FAMILIES = {
    "sign": (sign_rows, ("q", "dim", "n"), identical),
    "genus": (genus_rows, ("p", "q", "seed"), bounds_near_reference),
    "dual": (dual_rows, ("p", "q", "dim", "n"), identical),
    "cli": (cli_rows, ("p", "q", "dim", "n"), identical),
}


def compare(family: str, rows: list[dict], ref_rows: list[dict]) -> int:
    """The family's rule on rows against ref_rows, matched by key; 1 if the keys differ."""
    _, keys, rule = FAMILIES[family]

    def label(k: tuple) -> str:
        return " ".join(f"{name}={value}" for name, value in zip(keys, k))

    ref = {tuple(row[name] for name in keys): row for row in ref_rows}
    # through JSON, so both sides hold the same float spellings (NaN included)
    new = {tuple(row[name] for name in keys): row for row in map(json.loads, map(json.dumps, rows))}
    if ref.keys() != new.keys():
        print(f"the scans cover different keys: only in REF {sorted(map(label, ref.keys() - new.keys()))}, "
              f"only here {sorted(map(label, new.keys() - ref.keys()))}")
        return 1
    return rule(ref, new, label)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("family", choices=FAMILIES)
    parser.add_argument("--compare", type=Path, metavar="REF", help="compare against a scan's JSON lines")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    rows = FAMILIES[args.family][0]()
    print(f"scan: {len(rows)} lines in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    if args.compare is not None:
        return compare(args.family, rows, [json.loads(line) for line in args.compare.read_text().splitlines()])
    for row in rows:
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
