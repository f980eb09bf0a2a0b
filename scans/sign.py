"""Scan of the p = 0 solvers over exponents, dimensions and grid sizes.

Run from the root of a checkout:

    python3 scans/sign.py > sign.jsonl
    python3 scans/sign.py --compare scans/sign_ref.jsonl

The scan runs solve_sign_system for q in {0.01, 0.1, 1, 5, 29} and
solve_scalar_sign, each on the unit interval and balls with N = 1..8 and
n in {7, 9, 50, 200, 2000, 20000}: 288 solves.  It writes one JSON line per
solve with Lambda, c, c_energy, zero_radius, residual_u, residual_v,
converged and iterations (c0 for the scalar solve), or the type and message
of the error it raised.

The p = 0 solution is built in one application of the balanced-level-set
map, so a change that does not touch the numerics leaves every field
bit-identical.  --compare REF runs the scan, prints each field that differs
from the line of REF with the same key, and exits 1 if any does or if the
two scans cover different keys.  The package is imported from the
checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from neumannlab import make_grid  # noqa: E402
from neumannlab.sign import solve_scalar_sign, solve_sign_system  # noqa: E402

EXPONENTS = (0.01, 0.1, 1.0, 5.0, 29.0)
DIMS = range(1, 9)
SIZES = (7, 9, 50, 200, 2000, 20000)
FIELDS = ("lam", "c", "c_energy", "zero_radius", "residual_u", "residual_v", "converged", "iterations")


def solve(q: float | None, dim: int, n: int) -> dict:
    """One scan line; q None is the scalar solve."""
    row: dict = {"q": q, "dim": dim, "n": n}
    grid = make_grid(dim=dim, n=n)
    try:
        if q is None:
            row["c0"] = solve_scalar_sign(grid)[1]
        else:
            rep = solve_sign_system(q, grid)
            row.update({field: getattr(rep, field) for field in FIELDS})
    except Exception as exc:  # the scan records every raise, whatever its type
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def scan() -> list[dict]:
    return [solve(q, dim, n) for q in (*EXPONENTS, None) for dim in DIMS for n in SIZES]


def compare(rows: list[dict], ref_path: Path) -> int:
    def key(row: dict) -> tuple:
        return row["q"], row["dim"], row["n"]

    ref = {key(row): row for row in map(json.loads, ref_path.read_text().splitlines())}
    # through JSON, so both sides hold the same float spellings (NaN included)
    new = {key(row): row for row in map(json.loads, map(json.dumps, rows))}
    if ref.keys() != new.keys():
        print(f"the scans cover different keys: only in REF {sorted(ref.keys() - new.keys(), key=str)}, "
              f"only here {sorted(new.keys() - ref.keys(), key=str)}")
        return 1
    moved = 0
    for k in ref:
        fields = ref[k].keys() | new[k].keys()
        diffs = [f for f in sorted(fields) if json.dumps(ref[k].get(f)) != json.dumps(new[k].get(f))]
        if diffs:
            moved += 1
            for f in diffs:
                print(f"q={k[0]} N={k[1]} n={k[2]}: {f} {ref[k].get(f)!r} -> {new[k].get(f)!r}")
    verdict = "ok" if not moved else "FAIL"
    print(f"{verdict}: {len(ref) - moved} of {len(ref)} entries identical")
    return 0 if not moved else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", type=Path, metavar="REF", help="compare against a scan's JSON lines")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    rows = scan()
    print(f"scan: {len(rows)} solves in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    if args.compare is not None:
        return compare(rows, args.compare)
    for row in rows:
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
