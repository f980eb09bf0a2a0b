"""Command-line entry point.

Subcommands: solve (one exponent pair, writes solution.json + u.csv/v.csv),
table1 (closed-form energy table with golden diff), sweep (exponent-path
study to CSV), asympt (symmetry-breaking verdicts across dimensions) and
oracle (small-grid brute force from fixed starts against the iteration).
Each subcommand declares only the flags it reads (solve and sweep also
accept --seed and ignore it); they can also come from a JSON config
file, whose keys are those flags' names (max_iter for --max-iter), and
explicit flags win.  The dual solver takes only --tol (finite, >= 1e-12,
the rounding floor of its K-image step) and --max-iter (>= 1); solve
refuses both with --p 0, whose sign problem is solved without iteration
(iterations reads 1).  A cold dual solve starts from the first cosine mode
(with n >= 8000 from the n = 2000 solve), and each sweep sample after the
first continues from the previous sample's pair unless that sample failed.
`main` merges the config, makes the output directory and alone maps
exceptions to exit codes: 0 success, 1 configuration error (a usage error,
an unreadable or ill-typed config file, an output directory that cannot be
made or written, any ValueError), 2 numerical failure (any
NumericalFailure, an unconverged solve or a golden mismatch), with partial
output written where possible.  All floats are printed with 17 significant
digits so runs are diffable.  `main` sets glibc's M_TOP_PAD (nothing where
libc has no mallopt), so freed heap stays mapped and a later n = 20000 dual
solve takes about 0 minor page faults, not 2100.  It runs the loaded OpenBLAS
on one thread (nothing where none is found): threaded above about 10000 points,
weights @ x ran slower on two cores and its sums, so the CSV bytes, depended on
the thread count.  Library use leaves the allocator and BLAS alone.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, closed_form
from .dual import SolverOptions, compute_dual, oracle_dual_smallgrid, reconstruct_solution
from .exponents import ExponentPair, classify_region
from .experiments import SweepSpec, run_sweep
from .greens import NumericalFailure
from .grid import make_grid
from .report_io import fmt17 as _fmt
from .report_io import write_csv_rows, write_json
from .sign import solve_sign_system

__all__ = ["main"]


# config key: (type, help); the flag is --key with "_" spelled "-"
_FLAGS = {
    "outdir": (str, "output directory (default .)"),
    "p": (float, None),
    "q": (float, None),
    "dim": (int, "space dimension N: 1 the interval, >= 2 the unit ball"),
    "n": (int, "grid panels (default 2000)"),
    "length": (float, "interval length (N = 1 only)"),
    "tol": (float, "relative K-image step that stops the dual loop (>= 1e-12)"),
    "max_iter": (int, "iteration budget"),
    "seed": (int, "accepted and ignored"),
    "path": (str, "e.g. 'p:0.5..3,q:1'"),
    "samples": (int, "number of samples"),
    "nmin": (int, None),
    "nmax": (int, None),
}
_SOLVER_KEYS = ("dim", "n", "length", "tol", "max_iter")  # grid and iteration

# glibc returned the freed 160-640 KB arrays of an n = 20000 solve to the OS, and the
# next solve faulted them in again: about 2100 minor faults a dual solve.  An 8 MiB
# top pad removed them all; 64 MiB leaves room for finer grids.  M_TRIM_THRESHOLD
# alone still left some, and M_MMAP_THRESHOLD alone raised them to about 3500.
M_TOP_PAD = -2  # mallopt's parameter number
TOP_PAD = 64 << 20
BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads", "openblas_set_num_threads64_")


def _config_value(key: str, val):
    kind = _FLAGS[key][0]
    if isinstance(val, bool):  # no flag takes a boolean; int(True) would read 1
        raise TypeError(f"{val!r} is not a {kind.__name__}")
    if kind is int and isinstance(val, float) and not val.is_integer():
        raise ValueError(f"{val!r} is not an integer")
    return kind(val)


def _merged_config(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    """defaults < config file < explicit flags; keys the subcommand does not
    declare are rejected."""
    cfg: dict = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, val in loaded.items():
            if key not in keys:
                raise ValueError(f"unknown config key {key!r}")
            try:
                cfg[key] = _config_value(key, val)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
    for key in keys:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


def _solver_options(cfg: dict) -> SolverOptions:
    return SolverOptions(tol=cfg.get("tol", 1e-10), max_iter=cfg.get("max_iter", 500))


def _grid_from(cfg: dict, n: int = 2000):
    return make_grid(dim=cfg.get("dim", 1), n=cfg.get("n", n), length=cfg.get("length", 1.0))


def _cmd_solve(cfg: dict, outdir: Path) -> int:
    if "p" not in cfg or "q" not in cfg:
        raise ValueError("solve needs --p and --q")
    grid = _grid_from(cfg)
    e = ExponentPair(cfg["p"], cfg["q"], grid.dim)
    refused = [f"--{key.replace('_', '-')}" for key in ("tol", "max_iter") if key in cfg]
    if e.p == 0.0 and refused:
        raise ValueError(f"p = 0 takes no {' or '.join(refused)}: the sign problem is solved without iteration")
    opts = _solver_options(cfg)
    if e.p > 0 and e.on_hyperbola:
        raise ValueError("hyperbola: level undefined (pq = 1)")
    run = {
        "config": cfg,
        "region": classify_region(e).value,
        "neumannlab_version": __version__,
        "numpy_version": np.__version__,
        "quadrature_defect": grid.quadrature_defect(),
    }
    try:
        if e.p == 0.0:
            rep = solve_sign_system(e.q, grid)
        else:
            rep = reconstruct_solution(e, compute_dual(e, grid, opts))
    except NumericalFailure as exc:
        d_estimate = getattr(exc, "d_estimate", None)
        payload = {
            **run,
            "converged": False,
            "error": str(exc),
            "Lambda": 1.0 / d_estimate if d_estimate else None,
        }
        write_json(outdir / "solution.json", payload)
        raise
    payload = {
        **run,
        "Lambda": rep.lam,
        "D": rep.D,
        "c": rep.c,
        "c_energy": rep.c_energy,
        "residual_u": rep.residual_u,
        "residual_v": rep.residual_v,
        "iterations": rep.iterations,
        "converged": rep.converged,
        "k_step": rep.k_step,
        "kappa_evaluations": rep.kappa_evaluations,
        "coarse_start": rep.coarse_start,
        "zero_radius": rep.zero_radius,
    }
    write_json(outdir / "solution.json", payload)
    rep.u.write_csv(outdir / "u.csv")
    rep.v.write_csv(outdir / "v.csv")
    print(f"Lambda={_fmt(rep.lam)} c={_fmt(rep.c)} converged={rep.converged}")
    return 0 if rep.converged else 2


def _cmd_table1(cfg: dict, outdir: Path) -> int:
    rows = closed_form.table1()
    write_csv_rows(
        outdir / "table1.csv",
        ["N", "h1", "h2", "h1_minus_h2"],
        [{"N": row.N, "h1": row.h1, "h2": row.h2, "h1_minus_h2": row.diff} for row in rows],
    )
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
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    ts = np.linspace(0.0, 1.0, samples)
    p0, p1 = moves["p"]
    q0, q1 = moves["q"]
    return (lambda t: p0 + (p1 - p0) * t), (lambda t: q0 + (q1 - q0) * t), ts


def _cmd_sweep(cfg: dict, outdir: Path) -> int:
    if "path" not in cfg:
        raise ValueError("sweep needs --path")
    p_of, q_of, ts = _parse_path(cfg["path"], cfg.get("samples", 11))
    spec = SweepSpec(p_of=p_of, q_of=q_of, ts=ts, grid=_grid_from(cfg), opts=_solver_options(cfg))
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


def _cmd_asympt(cfg: dict, outdir: Path) -> int:
    nmin = cfg.get("nmin", 2)
    nmax = cfg.get("nmax", 50)
    if nmin < 2 or nmax < nmin:
        raise ValueError("need 2 <= nmin <= nmax")
    all_ok = True
    rows = []
    for N in range(nmin, nmax + 1):
        verdict = closed_form.symmetry_breaking_verdict(N)
        all_ok &= verdict.nonradial
        row = {"N": N, "nonradial": int(verdict.nonradial), "provenance": verdict.provenance}
        if verdict.provenance == "table":
            row.update(h1=closed_form.m_rad(N), h2=closed_form.h2(N))
        else:
            b = closed_form.asymptotic_bound(N)
            row.update(neg_p=b.neg_p, mid=b.mid, rhs=b.rhs)
        rows.append(row)
    write_csv_rows(outdir / "asympt.csv", ["N", "nonradial", "provenance", "h1", "h2", "neg_p", "mid", "rhs"], rows)
    print(f"dimensions {nmin}..{nmax}: nonradial everywhere = {all_ok}")
    return 0 if all_ok else 2


def _cmd_oracle(cfg: dict, outdir: Path) -> int:
    if "p" not in cfg or "q" not in cfg:
        raise ValueError("oracle needs --p and --q")
    grid = _grid_from(cfg, n=9)
    e = ExponentPair(cfg["p"], cfg["q"], grid.dim)
    d_iter = compute_dual(e, grid, _solver_options(cfg)).d_estimate
    d_oracle = oracle_dual_smallgrid(e, grid)
    gap = abs(d_oracle / d_iter - 1.0)
    payload = {"config": cfg, "d_iteration": d_iter, "d_oracle": d_oracle, "relative_gap": gap}
    write_json(outdir / "oracle.json", payload)
    print(f"iteration D = {_fmt(d_iter)}")
    print(f"oracle    D = {_fmt(d_oracle)}")
    print(f"relative gap = {_fmt(gap)}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the configuration-error code (argparse uses 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# subcommand: (handler, help, the config keys it reads besides outdir)
_COMMANDS = {
    "solve": (_cmd_solve, "solve one exponent pair", ("p", "q", *_SOLVER_KEYS, "seed")),
    "table1": (_cmd_table1, "closed-form energy table for N = 3..8", ()),
    "sweep": (_cmd_sweep, "solve along an exponent path", ("path", "samples", *_SOLVER_KEYS, "seed")),
    "asympt": (_cmd_asympt, "symmetry-breaking verdicts over dimensions", ("nmin", "nmax")),
    "oracle": (_cmd_oracle, "small-grid brute force vs the iteration", ("p", "q", *_SOLVER_KEYS)),
}


@functools.cache  # built once per process: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="neumannlab",
        description="Least-energy levels of pure-Neumann Lane-Emden systems on radial domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, keys) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON config file; explicit flags win")
        for key in ("outdir", *keys):
            kind, flag_help = _FLAGS[key]
            sp.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, help=flag_help)
        sp.set_defaults(func=func, keys=("outdir", *keys), parser=sp)
    return parser


@functools.cache  # once per process
def _keep_freed_heap() -> None:
    """Set M_TOP_PAD where the C library has mallopt (glibc), else nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: Windows refuses the None name
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_TOP_PAD, TOP_PAD)


@functools.cache  # once per process
def _one_blas_thread() -> None:
    """Call the BLAS_SETTERS of each OpenBLAS in /proc/self/maps with 1; without /proc, nothing."""
    try:
        with open("/proc/self/maps") as fh:
            libs = [ctypes.CDLL(path) for path in {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}]
    except OSError:  # no /proc (macOS, Windows) or a mapping that no longer loads
        return
    for setter in filter(None, (getattr(lib, name, None) for lib in libs for name in BLAS_SETTERS)):
        setter(1)


def main(argv=None) -> int:
    _keep_freed_heap()  # the CLI owns its process; importing neumannlab changes no allocator
    _one_blas_thread()  # nor BLAS threads
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # reported with the subcommand's usage line, not the top-level one
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        cfg = _merged_config(args, args.keys)
        outdir = Path(cfg.get("outdir", "."))
        outdir.mkdir(parents=True, exist_ok=True)
        return args.func(cfg, outdir)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
