"""Command-line entry point.

Subcommands: solve (one exponent pair, writes solution.json + u.csv/v.csv),
table1 (closed-form energy table with golden diff), sweep (exponent-path
study to CSV), asympt (symmetry-breaking verdicts across dimensions) and
oracle (small-grid brute force against the iteration).  Flags can also come
from a JSON config file; explicit flags win.  Exit codes: 0 success,
1 configuration error, 2 numerical failure (non-convergence or golden
mismatch), with partial output written where possible.  All floats are
printed with 17 significant digits so runs are diffable; NEUMANN_LAB_SEED
overrides the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import closed_form
from .dual import NonConvergenceError, SolverOptions, compute_dual, oracle_dual_smallgrid, reconstruct_solution
from .exponents import ExponentPair, classify_region
from .experiments import SweepSpec, run_sweep
from .greens import CompatibilityError
from .grid import make_grid
from .report_io import fmt17 as _fmt
from .report_io import write_json
from .sign import OscillationDetected, solve_sign_system

__all__ = ["main"]


_FLAG_TYPES = {
    "p": float,
    "q": float,
    "dim": int,
    "n": int,
    "mode": str,
    "length": float,
    "tol": float,
    "max_iter": int,
    "seed": int,
    "damping": float,
    "init": str,
    "init_file": str,
    "outdir": str,
    "path": str,
    "samples": int,
    "cold": bool,
    "nmin": int,
    "nmax": int,
    "restarts": int,
}


def _merged_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags; unknown config keys rejected."""
    cfg: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, val in loaded.items():
            if key not in _FLAG_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            cfg[key] = _FLAG_TYPES[key](val)
    for key in _FLAG_TYPES:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    env_seed = os.environ.get("NEUMANN_LAB_SEED")
    if env_seed is not None:
        cfg["seed"] = int(env_seed)
    return cfg


def _solver_options(cfg: dict) -> SolverOptions:
    return SolverOptions(
        tol=cfg.get("tol", 1e-10),
        max_iter=cfg.get("max_iter", 500),
        damping=cfg.get("damping", 1.0),
        init=cfg.get("init", "auto"),
        init_file=cfg.get("init_file"),
    )


def _grid_from(cfg: dict):
    return make_grid(
        dim=cfg.get("dim", 1),
        n=cfg.get("n", 2000),
        mode=cfg.get("mode"),
        length=cfg.get("length", 1.0),
    )


def _cmd_solve(args) -> int:
    cfg = _merged_config(args)
    if "p" not in cfg or "q" not in cfg:
        print("solve needs --p and --q", file=sys.stderr)
        return 1
    outdir = Path(cfg.get("outdir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        grid = _grid_from(cfg)
        e = ExponentPair(cfg["p"], cfg["q"], grid.dim)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    if e.p > 0 and e.on_hyperbola:
        print("hyperbola: level undefined (pq = 1)", file=sys.stderr)
        return 1
    opts = _solver_options(cfg)
    region = classify_region(e)
    try:
        if e.p == 0.0:
            rep = solve_sign_system(e.q, grid, opts)
        else:
            rep = reconstruct_solution(e, compute_dual(e, grid, opts))
    except (NonConvergenceError, OscillationDetected) as exc:
        payload = {
            "config": cfg,
            "region": region.value,
            "converged": False,
            "error": str(exc),
            "Lambda": 1.0 / exc.d_estimate if isinstance(exc, NonConvergenceError) else None,
        }
        write_json(outdir / "solution.json", payload)
        print(f"did not converge: {exc}", file=sys.stderr)
        return 2
    except (ValueError, CompatibilityError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    payload = {
        "config": cfg,
        "region": region.value,
        "Lambda": rep.lam,
        "D": rep.D,
        "c": rep.c,
        "c_energy": rep.c_energy,
        "residual_u": rep.residual_u,
        "residual_v": rep.residual_v,
        "iterations": rep.iterations,
        "converged": rep.converged,
        "warning": rep.warning,
        "zero_radius": rep.zero_radius,
    }
    write_json(outdir / "solution.json", payload)
    rep.u.write_csv(outdir / "u.csv")
    rep.v.write_csv(outdir / "v.csv")
    print(
        f"Lambda={_fmt(rep.lam)} c={_fmt(rep.c)} converged={rep.converged}"
        + (f" warning={rep.warning}" if rep.warning else "")
    )
    return 0 if rep.converged else 2


def _cmd_table1(args) -> int:
    cfg = _merged_config(args)
    outdir = Path(cfg.get("outdir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    rows = closed_form.table1()
    with open(outdir / "table1.csv", "w", newline="") as fh:
        fh.write("N,h1,h2,h1_minus_h2\r\n")
        for row in rows:
            fh.write(f"{row.N},{_fmt(row.h1)},{_fmt(row.h2)},{_fmt(row.diff)}\r\n")
    worst = 0.0
    for row in rows:
        ref1, ref2 = closed_form.TABLE1_PRINTED[row.N]
        worst = max(worst, abs(row.h1 / ref1 - 1.0), abs(row.h2 / ref2 - 1.0))
        print(f"N={row.N}  h1={_fmt(row.h1)}  h2={_fmt(row.h2)}  diff={_fmt(row.diff)}")
    print(f"max relative deviation from the printed values: {_fmt(worst)}")
    return 0 if worst <= 1e-5 else 2


def _parse_path(text: str, samples: int):
    """Path DSL: comma-separated 'name:a..b' ranges and 'name:c' constants."""
    moves = {}
    for token in text.split(","):
        name, _, spec = token.partition(":")
        name = name.strip()
        if name not in ("p", "q"):
            raise ValueError(f"unknown path variable {name!r}")
        if ".." in spec:
            a, b = (float(x) for x in spec.split(".."))
            moves[name] = (a, b)
        else:
            val = float(spec)
            moves[name] = (val, val)
    if "p" not in moves or "q" not in moves:
        raise ValueError("path must set both p and q")
    ts = np.linspace(0.0, 1.0, samples)
    p0, p1 = moves["p"]
    q0, q1 = moves["q"]
    return (lambda t: p0 + (p1 - p0) * t), (lambda t: q0 + (q1 - q0) * t), ts


def _cmd_sweep(args) -> int:
    cfg = _merged_config(args)
    if "path" not in cfg:
        print("sweep needs --path", file=sys.stderr)
        return 1
    outdir = Path(cfg.get("outdir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        p_of, q_of, ts = _parse_path(cfg["path"], cfg.get("samples", 11))
        grid = _grid_from(cfg)
        spec = SweepSpec(
            p_of=p_of,
            q_of=q_of,
            ts=ts,
            grid=grid,
            opts=_solver_options(cfg),
            warm_start=not cfg.get("cold", False),
        )
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    result = run_sweep(spec)
    result.write_csv(outdir / "sweep.csv")
    lams = [row["Lambda"] for row in result.rows if row.get("Lambda") is not None]
    errors = [row["error"] for row in result.rows if row["error"]]
    jumps = np.abs(np.diff(lams)) if len(lams) > 1 else np.array([0.0])
    summary = {
        "config": cfg,
        "samples": len(result.rows),
        "failed": len(errors),
        "max_jump": float(jumps.max()),
        "median_jump": float(np.median(jumps)),
        "continuity_ok": bool(jumps.max() <= 5.0 * max(float(np.median(jumps)), 1e-300))
        if len(lams) > 2
        else True,
    }
    write_json(outdir / "sweep.json", summary)
    print(f"{len(result.rows)} samples, {len(errors)} failures -> sweep.csv")
    return 0 if not errors else 2


def _cmd_asympt(args) -> int:
    cfg = _merged_config(args)
    outdir = Path(cfg.get("outdir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    nmin = cfg.get("nmin", 2)
    nmax = cfg.get("nmax", 50)
    if nmin < 2 or nmax < nmin:
        print("need 2 <= nmin <= nmax", file=sys.stderr)
        return 1
    all_ok = True
    with open(outdir / "asympt.csv", "w", newline="") as fh:
        fh.write("N,nonradial,provenance,h1,h2,neg_p,mid,rhs\r\n")
        for N in range(nmin, nmax + 1):
            verdict = closed_form.symmetry_breaking_verdict(N)
            all_ok &= verdict.nonradial
            if verdict.provenance == "table":
                fh.write(
                    f"{N},{int(verdict.nonradial)},table,{_fmt(closed_form.m_rad(N))},{_fmt(closed_form.h2(N))},,,\r\n"
                )
            else:
                b = closed_form.asymptotic_bound(N)
                fh.write(
                    f"{N},{int(verdict.nonradial)},bound,,,{_fmt(b.neg_p)},{_fmt(b.mid)},{_fmt(b.rhs)}\r\n"
                )
    print(f"dimensions {nmin}..{nmax}: nonradial everywhere = {all_ok}")
    return 0 if all_ok else 2


def _cmd_oracle(args) -> int:
    cfg = _merged_config(args)
    if "p" not in cfg or "q" not in cfg:
        print("oracle needs --p and --q", file=sys.stderr)
        return 1
    outdir = Path(cfg.get("outdir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        grid = make_grid(dim=cfg.get("dim", 1), n=cfg.get("n", 9), mode=cfg.get("mode"), length=cfg.get("length", 1.0))
        e = ExponentPair(cfg["p"], cfg["q"], grid.dim)
        opts = _solver_options(cfg)
        d_iter = compute_dual(e, grid, opts).d_estimate
        d_oracle = oracle_dual_smallgrid(e, grid, restarts=cfg.get("restarts", 64), seed=cfg.get("seed", 0))
    except (ValueError, NonConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NonConvergenceError) else 1
    gap = abs(d_oracle / d_iter - 1.0)
    payload = {"config": cfg, "d_iteration": d_iter, "d_oracle": d_oracle, "relative_gap": gap}
    write_json(outdir / "oracle.json", payload)
    print(f"iteration D = {_fmt(d_iter)}")
    print(f"oracle    D = {_fmt(d_oracle)}")
    print(f"relative gap = {_fmt(gap)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neumannlab",
        description="Least-energy levels of pure-Neumann Lane-Emden systems on radial domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON config file; explicit flags win")
        sp.add_argument("--outdir", help="output directory (default .)")
        sp.add_argument("--n", type=int, help="grid panels (default 2000)")
        sp.add_argument("--dim", type=int, help="space dimension N")
        sp.add_argument("--mode", choices=["ball", "interval"], help="domain kind")
        sp.add_argument("--length", type=float, help="interval length (interval mode)")
        sp.add_argument("--tol", type=float, help="iteration tolerance")
        sp.add_argument("--max-iter", dest="max_iter", type=int, help="iteration budget")
        sp.add_argument("--seed", type=int, help="random seed")
        sp.add_argument("--damping", type=float, help="initial damping step")
        sp.add_argument("--init", choices=["auto", "cosine", "signchange", "file"], help="initial guess")
        sp.add_argument("--init-file", dest="init_file", help="CSV (r,value) initial data")

    sp = sub.add_parser("solve", help="solve one exponent pair")
    add_common(sp)
    sp.add_argument("--p", type=float)
    sp.add_argument("--q", type=float)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("table1", help="closed-form energy table for N = 3..8")
    add_common(sp)
    sp.set_defaults(func=_cmd_table1)

    sp = sub.add_parser("sweep", help="solve along an exponent path")
    add_common(sp)
    sp.add_argument("--path", help="e.g. 'p:0.5..3,q:1'")
    sp.add_argument("--samples", type=int, help="number of samples")
    sp.add_argument("--cold", action="store_const", const=True, help="disable warm starts")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("asympt", help="symmetry-breaking verdicts over dimensions")
    add_common(sp)
    sp.add_argument("--nmin", type=int)
    sp.add_argument("--nmax", type=int)
    sp.set_defaults(func=_cmd_asympt)

    sp = sub.add_parser("oracle", help="small-grid brute force vs the iteration")
    add_common(sp)
    sp.add_argument("--p", type=float)
    sp.add_argument("--q", type=float)
    sp.add_argument("--restarts", type=int)
    sp.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
