"""Scan of the genus-level upper bounds over 33 exponent pairs.

Run from the root of a checkout:

    python3 scans/genus.py > genus.jsonl
    python3 scans/genus.py --compare scans/genus_ref.jsonl

The scan calls ls_upper_bounds with k_max = 5 on the unit interval at
n = 2000 for every p, q in {0.5, 1, 1.5, 2, 3, 5} with pq != 1 (all
subcritical on the interval) and seeds 0 and 1: 66 calls, 264 levels with
k >= 2.  It writes one JSON line per (pair, seed) with the five bounds.

The bounds are upper bounds only where the ascent finds the sup, so a bound
that moves down is a miss.  --compare REF runs the scan, prints for each k
the largest downward relative move (ref - new) / |ref| against the lines of
REF, and exits 1 if any exceeds 1e-13 or the two scans cover different
(pair, seed) keys.  The package is imported from the checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from neumannlab import ExponentPair, interval_grid, ls_upper_bounds  # noqa: E402

EXPONENTS = (0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
SEEDS = (0, 1)
K_MAX, N = 5, 2000
DOWN_TOL = 1e-13


def scan() -> list[dict]:
    grid = interval_grid(1.0, N)
    return [
        {"p": p, "q": q, "seed": seed, "bounds": ls_upper_bounds(ExponentPair(p, q, 1), K_MAX, grid, seed=seed)}
        for p in EXPONENTS
        for q in EXPONENTS
        if p * q != 1.0
        for seed in SEEDS
    ]


def compare(rows: list[dict], ref_path: Path) -> int:
    def key(row: dict) -> tuple:
        return row["p"], row["q"], row["seed"]

    ref = {key(row): row["bounds"] for row in map(json.loads, ref_path.read_text().splitlines())}
    new = {key(row): row["bounds"] for row in rows}
    if ref.keys() != new.keys():
        print(f"the scans cover different keys: only in REF {sorted(ref.keys() - new.keys())}, "
              f"only here {sorted(new.keys() - ref.keys())}")
        return 1
    worst = 0.0
    for k in range(1, K_MAX + 1):
        moves = {pqs: (ref[pqs][k - 1] - new[pqs][k - 1]) / abs(ref[pqs][k - 1]) for pqs in ref}
        pqs = max(moves, key=moves.get)
        worst = max(worst, moves[pqs])
        print(f"k={k}: largest downward relative move {moves[pqs]:+.2e} at p={pqs[0]:g} q={pqs[1]:g} seed={pqs[2]}")
    verdict = "ok" if worst <= DOWN_TOL else "FAIL"
    print(f"{verdict}: {len(ref)} calls, largest downward move {worst:.2e} against the bound {DOWN_TOL:g}")
    return 0 if worst <= DOWN_TOL else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", type=Path, metavar="REF", help="compare against a scan's JSON lines")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    rows = scan()
    print(f"scan: {len(rows)} calls in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    if args.compare is not None:
        return compare(rows, args.compare)
    for row in rows:
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
