"""The benchmark's workloads: user-facing neumannlab calls with reference checks.

Each workload function does its set-up (grids and reference values) and
returns one *pass*: the fixed list of ops the benchmark repeats.  An op is a
timed call through a public entry point (``cli.main``, ``compute_lambda`` or
``ls_upper_bounds``) and an untimed check of what the call produced.  The
check returns None when the op succeeded, or the reason it failed with a
message:

- ``exit_nonzero``: the CLI reported a failure through its exit code;
- ``reference_miss``: the call reported success but its result misses the
  reference (a fast wrong answer), which also marks the run incorrect;
- ``exception`` is assigned by the harness when the call raises.

The seed goes to every call that takes one (the CLI's ``--seed`` and
``ls_upper_bounds``); only ``genus-bounds`` draws random numbers from it.

Entry points are looked up on their modules at call time, so the tracer's
patches see every call.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from neumannlab import cli, closed_form, dual, experiments
from neumannlab.exponents import ExponentPair
from neumannlab.grid import interval_grid, unit_ball_grid

J11 = 3.8317059702075125  # first positive zero of J1', the disk's first Neumann mode
LINEAR_TOL = 1e-5  # Lambda(1, 1) against the first Neumann eigenvalue
SWAP_TOL = 1e-8  # relative, Lambda(p, q) against Lambda(q, p)
SIGN_TOL = 1e-8  # relative, c against the closed-form level
DUAL_PAIRS = ((3.0, 2.0), (2.0, 3.0), (0.5, 3.0), (3.0, 0.5))


Failure = tuple[str, str]  # (reason, message)


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Failure | None]


def _miss(message: str) -> Failure:
    return "reference_miss", message


def first_root_tan_k_equals_k() -> float:
    """k3, the first positive root of tan k = k (the 3-ball's first Neumann mode).

    Bisection of sin k - k cos k, which is positive at pi and negative at
    3 pi / 2, down to adjacent floats.
    """
    lo, hi = math.pi, 1.5 * math.pi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if np.sin(mid) - mid * np.cos(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def _grid(dim: int, n: int):
    return interval_grid(1.0, n) if dim == 1 else unit_ball_grid(dim, n)


def _cli_op(name: str, argv: list[str], outdir: Path, check: Callable[[Path], Failure | None]) -> Op:
    """An op running `neumannlab <argv>` in-process, writing into outdir."""
    outdir.mkdir(parents=True, exist_ok=True)
    full = argv + ["--outdir", str(outdir)]

    def call() -> tuple[int, str]:
        for stale in outdir.iterdir():
            stale.unlink()
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(full)
        return code, err.getvalue()

    def checked(result: tuple[int, str]) -> Failure | None:
        code, err = result
        if code != 0:
            lines = err.strip().splitlines()
            return "exit_nonzero", f"exit {code}: {lines[-1] if lines else ''}"
        return check(outdir)

    return Op(name, call, checked)


def _solution(outdir: Path) -> dict:
    return json.loads((outdir / "solution.json").read_text())


def dual_cold(seed: int, outdir: Path, n: int = 20000) -> list[Op]:
    """Cold dual solves through the CLI plus the linear case through compute_lambda."""
    eigen = {1: math.pi**2, 2: J11**2, 3: first_root_tan_k_equals_k() ** 2}
    grids = {dim: _grid(dim, n) for dim in eigen}
    lambdas: dict[tuple, float] = {}  # latest converged Lambda per (dim, p, q)
    ops = []
    for dim in (1, 2, 3):
        for p, q in DUAL_PAIRS:

            def check(path, dim=dim, p=p, q=q) -> Failure | None:
                sol = _solution(path)
                lam = sol["Lambda"]
                if not (sol["converged"] is True and math.isfinite(lam) and lam > 0):
                    return _miss(f"exit 0 without a converged positive Lambda: {sol}")
                lambdas[dim, p, q] = lam
                partner = lambdas.get((dim, q, p))
                if partner is not None and abs(lam / partner - 1.0) > SWAP_TOL:
                    return _miss(f"Lambda({p:g},{q:g})={lam!r} but Lambda({q:g},{p:g})={partner!r}")
                return None

            argv = ["solve", "--p", f"{p:g}", "--q", f"{q:g}", "--dim", str(dim), "--n", str(n), "--seed", str(seed)]
            ops.append(_cli_op(f"solve-N{dim}-p{p:g}-q{q:g}", argv, outdir / f"N{dim}-p{p:g}-q{q:g}", check))

        def linear(dim=dim) -> float:
            return dual.compute_lambda(ExponentPair(1.0, 1.0, dim), grids[dim])

        def linear_check(lam, dim=dim) -> Failure | None:
            if abs(lam - eigen[dim]) <= LINEAR_TOL:
                return None
            return _miss(f"Lambda(1,1)={lam!r}, first Neumann eigenvalue {eigen[dim]!r}")

        ops.append(Op(f"lambda-N{dim}-p1-q1", linear, linear_check))
    return ops


def sweep_warm(seed: int, outdir: Path, n: int = 2000, samples: int = 16) -> list[Op]:
    """The README's warm-started exponent-path sweep at a small grid."""

    def check(path: Path) -> Failure | None:
        if json.loads((path / "sweep.json").read_text())["continuity_ok"] is not True:
            return _miss("sweep.json reports a discontinuous Lambda path")
        with open(path / "sweep.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if float(r["p"]) == 1.0 and float(r["q"]) == 1.0]
        if len(rows) != 1:
            return _miss(f"expected one p = q = 1 sample, found {len(rows)}")
        lam = float(rows[0]["Lambda"])
        if abs(lam - math.pi**2) > LINEAR_TOL:
            return _miss(f"Lambda(1,1)={lam!r}, pi^2={math.pi**2!r}")
        return None

    argv = ["sweep", "--path", "p:0.5..3,q:1", "--samples", str(samples), "--n", str(n), "--seed", str(seed)]
    return [_cli_op("sweep-p0.5..3-q1", argv, outdir / "sweep", check)]


def sign_solve(seed: int, outdir: Path, sizes: tuple[int, ...] = (2000, 20000)) -> list[Op]:
    """Balanced-level-set solves of the biharmonic sign problem (p = 0, q = 1)."""
    levels = {1: -1.0 / 240.0, 2: closed_form.m_rad(2), 3: closed_form.m_rad(3)}
    ops = []
    for dim in (1, 2, 3):
        for n in sizes:

            def check(path, dim=dim) -> Failure | None:
                c = _solution(path)["c"]
                if abs(c / levels[dim] - 1.0) <= SIGN_TOL:
                    return None
                return _miss(f"c={c!r}, closed form {levels[dim]!r}")

            argv = ["solve", "--p", "0", "--q", "1", "--dim", str(dim), "--n", str(n), "--seed", str(seed)]
            ops.append(_cli_op(f"sign-N{dim}-n{n}", argv, outdir / f"N{dim}-n{n}", check))
    return ops


def genus_bounds(seed: int, outdir: Path, n: int = 2000, k_max: int = 5) -> list[Op]:
    """Genus-level upper bounds of criterion 12 on the unit interval."""
    e = ExponentPair(2.0, 2.0, 1)
    line = interval_grid(1.0, n)
    d = dual.compute_dual(e, line).d_estimate

    def call() -> list[float]:
        return experiments.ls_upper_bounds(e, k_max, line, seed=seed)

    def check(bounds) -> Failure | None:
        if len(bounds) != k_max or abs(bounds[0] + d) > 1e-6 * d:
            return _miss(f"first bound {bounds[0]!r} is not -D = {-d!r}")
        if not all(b < 0.0 for b in bounds):
            return _miss(f"a bound is not negative: {bounds}")
        if not all(bounds[i + 1] >= bounds[i] - 1e-12 for i in range(len(bounds) - 1)):
            return _miss(f"bounds decrease: {bounds}")
        return None

    return [Op(f"ls-bounds-k{k_max}", call, check)]


WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "dual-cold": dual_cold,
    "sweep-warm": sweep_warm,
    "sign-solve": sign_solve,
    "genus-bounds": genus_bounds,
}
