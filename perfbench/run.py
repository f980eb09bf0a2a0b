"""Benchmark of neumannlab's user-facing paths, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dual-cold --seed 1 --seconds 20 --trace 0

One process, one caller, closed loop: each op starts when the previous one
has been checked.  The workload's fixed list of ops (a pass, see
workloads.py) repeats whole while another pass still fits in --seconds, so
every run covers the same mix.  The package is imported from the checkout's
src/ (no install needed); without it the run exits nonzero and prints no
result.

Times are scaled to the machine's reference speed by the kernel of speed.py,
timed on the same thread between and during ops; the raw wall times are
printed too.

--trace 0 reports the end-to-end metrics.  set-up time is the median over
SETUP_PROBES fresh processes that import neumannlab and build the workload's
grids and reference values.

--trace 1 spends half of --seconds untraced and half with the layer tracer
of tracing.py installed, and reports per-op layer counts and self times,
plus the tracing overhead against the untraced half.  Spans are written to
.bench_out/spans-<workload>.json when the run ends.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  An op fails when it raises, when the CLI
exits nonzero, or when its result misses the reference; a reference miss
on a call that reported success also makes the run incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
MIN_PASSES = 2  # per untraced run
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
FAILURE_REASONS = ("exit_nonzero", "exception", "reference_miss")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# (metric, span name, field of tracing.Tracer.layer_table), all per op
SPAN_METRICS = (
    ("grid.make_grid.calls", "grid.make_grid", "calls"),
    ("grid.make_grid.ms", "grid.make_grid", "ms"),
    ("grid.write_csv.ms", "grid.write_csv", "ms"),
    ("greens.kappa_shift.calls", "greens.kappa_shift", "calls"),
    ("greens.kappa_shift.self_ms", "greens.kappa_shift", "self_ms"),
    ("greens.solve_neumann_sym.calls", "greens.solve_neumann_sym", "calls"),
    ("greens.solve_neumann_sym.self_ms", "greens.solve_neumann_sym", "self_ms"),
    ("greens.solve_neumann.calls", "greens.solve_neumann", "calls"),
    ("greens.solve_neumann.self_ms", "greens.solve_neumann", "self_ms"),
    ("greens.balanced_shift.calls", "greens.balanced_shift", "calls"),
    ("greens.balanced_shift.self_ms", "greens.balanced_shift", "self_ms"),
    ("dual.compute_dual.calls", "dual.compute_dual", "calls"),
    ("dual.compute_dual.self_ms", "dual.compute_dual", "self_ms"),
    ("dual.reconstruct_solution.self_ms", "dual.reconstruct_solution", "self_ms"),
    ("sign.solve_sign_system.calls", "sign.solve_sign_system", "calls"),
    ("sign.solve_sign_system.self_ms", "sign.solve_sign_system", "self_ms"),
    ("experiments.ls_upper_bounds.self_ms", "experiments.ls_upper_bounds", "self_ms"),
    ("experiments.run_sweep.self_ms", "experiments.run_sweep", "self_ms"),
    ("cli.main.self_ms", "cli.main", "self_ms"),
    ("report_io.write_json.ms", "report_io.write_json", "ms"),
    ("report_io.write_csv_rows.ms", "report_io.write_csv_rows", "ms"),
)
COUNT_METRICS = ("grid.integrate_values.calls", "dual.sweeps", "dual.unconverged", "sign.iterations")
PER_LAYER = {
    **{name: ("1/op" if field == "calls" else "ms/op") for name, _, field in SPAN_METRICS},
    **{name: "1/op" for name in COUNT_METRICS},
    "dual.ms_per_sweep": "ms",
    "grid.make_grid.setup_ms": "ms",
    "closed_form.reference.ms": "ms",
    **{f"check.{reason}": "1/op" for reason in FAILURE_REASONS},
    "check.failed_frac": "1",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def use_checkout_sources() -> None:
    """Import neumannlab from this checkout's src/ with BLAS pinned to one thread."""
    if not (SRC / "neumannlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no neumannlab sources at {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("NEUMANN_LAB_SEED", None)  # the CLI would let it override --seed
    sys.path.insert(0, str(SRC))


def setup_probe(name: str, seed: int) -> None:
    """Child process: time the import plus the workload's set-up."""
    start = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name](seed, OUT / name)
    seconds = time.perf_counter() - start
    import speed

    meter = speed.Meter()
    meter.probe()
    print(repr(meter.scale(seconds)))


def measure_setup(name: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name,
             "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_op(op, op_id: int, meter, tracer=None) -> dict:
    """Time one op's call, then check its result outside the timed region.

    The meter ticks during the call; "s" is the call's time without the
    ticks, "scaled_s" that time at reference speed (see speed.py).
    """
    start = time.perf_counter()
    reason = message = None
    try:
        with meter.ticking(), tracer.span("op", op_id) if tracer else nullcontext():
            value = op.call()
    except Exception as exc:  # an op that raises is counted, and the run goes on
        reason, message = "exception", f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start - meter.spent
    if reason is None:
        reason, message = op.check(value) or (None, "")
    meter.probe()
    return {"op": op.name, "id": op_id, "s": seconds, "scaled_s": meter.scale(seconds),
            "reason": reason, "message": message}


def run_passes(ops, budget: float, min_passes: int, tracer=None, first_id: int = 0,
               ticks: bool = True) -> tuple[list[dict], float]:
    """Whole passes while one more is expected to fit in the budget.

    Without ticks (in the traced run, so that spans hold only the program's
    time) ops are scaled by the probes on either side alone.

    The op count sets which rank op_tail_ms reads, so a run never stops
    below min_passes: a pass that takes a little more or less than half the
    budget would otherwise flip the tail of the mixed dual-cold pass between
    two different ops.
    """
    import speed

    records: list[dict] = []
    start = time.perf_counter()
    passes = 0
    meter = speed.Meter(ticks)
    meter.probe()
    while True:
        for op in ops:
            records.append(run_op(op, first_id + len(records), meter, tracer))
        passes += 1
        wall = time.perf_counter() - start
        if passes >= min_passes and wall + wall / passes > budget:
            return records, wall


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten ops beyond it: (value, percentile, ops).

    With ten ops or fewer no percentile qualifies; the slowest op is reported
    as the 100th percentile.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end_metrics(records: list[dict], setup_s: float) -> dict[str, float]:
    """Throughput and latencies of the scaled op times.

    ops_per_s is the pass's op count over the sum of each op's median
    latency: the throughput of a typical pass, which one slow op (a noisy
    stretch of the machine) does not move.  The probes and the checks
    between ops are not op time.

    op_p50_ms is the median over a pass's ops of each op's median latency.

    Pooled over a mixed pass, the median can fall in the gap between two
    clusters of op sizes (sign-solve's n = 2000 and n = 20000 halves), where
    it reads the single slowest and fastest ops of the two clusters.  Taking
    each op's median first keeps it on robust values; for a one-op pass the
    two definitions agree.
    """
    latencies = [r["scaled_s"] for r in records]
    by_op: dict[str, list[float]] = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r["scaled_s"])
    medians = [statistics.median(v) for v in by_op.values()]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(medians) / sum(medians),
        "op_p50_ms": 1e3 * statistics.median(medians),
        "op_tail_ms": 1e3 * tail(latencies)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tracer, setup_tracer, setup_factor: float, records: list[dict], overhead_pct: float) -> dict[str, float]:
    """Per-op layer figures of the traced ops; times are scaled like the ops'."""
    n = len(records)
    table = tracer.layer_table({r["id"]: r["scaled_s"] / r["s"] for r in records})
    setup_table = setup_tracer.layer_table({-1: setup_factor})
    out = {name: table.get(span, {}).get(field, 0) / n for name, span, field in SPAN_METRICS}
    out.update({name: tracer.counts[name] / n for name in COUNT_METRICS})
    sweeps = tracer.counts["dual.sweeps"]
    out["dual.ms_per_sweep"] = table["dual.compute_dual"]["ms"] / sweeps if sweeps else 0.0
    out["grid.make_grid.setup_ms"] = setup_table.get("grid.make_grid", {}).get("ms", 0.0)
    out["closed_form.reference.ms"] = setup_table.get("closed_form.reference", {}).get("ms", 0.0)
    reasons = Counter(r["reason"] for r in records)
    out.update({f"check.{reason}": reasons[reason] / n for reason in FAILURE_REASONS})
    out["check.failed_frac"] = sum(reasons[reason] for reason in FAILURE_REASONS) / n
    out["trace.overhead_pct"] = overhead_pct
    return out


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "neumannlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "blas_threads": 1,
    }


def git_sha() -> str | None:
    """HEAD of the checkout's .git, read without running git (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(records: list[dict], wall: float, label: str) -> None:
    """Per-op table of the run, with the last failure message of each op."""
    print(f"{label}: {len(records)} ops in {wall:.3f} s")
    by_op: dict[str, list[dict]] = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r)
    print(f"  {'op':<24} {'runs':>4} {'p50 ms':>10} {'wall p50':>10} {'failed':>6}  last failure")
    for op, rows in by_op.items():
        failed = [r for r in rows if r["reason"]]
        note = f"{failed[-1]['reason']}: {failed[-1]['message'][:100]}" if failed else ""
        p50 = 1e3 * statistics.median(r["scaled_s"] for r in rows)
        wall_p50 = 1e3 * statistics.median(r["s"] for r in rows)
        print(f"  {op:<24} {len(rows):>4} {p50:>10.2f} {wall_p50:>10.2f} {len(failed):>6}  {note}")


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object the last output line carries."""
    import speed
    import tracing
    import workloads

    build = workloads.WORKLOADS[name]
    outdir = OUT / name
    if not trace:
        setup_s = measure_setup(name, seed)
        ops = build(seed, outdir)
        records, wall = run_passes(ops, seconds, MIN_PASSES)
        report(records, wall, "untraced")
        _, pct, count = tail([r["scaled_s"] for r in records])
        print(f"op_tail_ms is the p{pct:.1f} latency of {count} ops")
        metrics = end_to_end_metrics(records, setup_s)
        units = END_TO_END
    else:
        setup_tracer = tracing.Tracer()
        meter = speed.Meter(ticks=False)
        meter.probe()
        setup_tracer.install()
        try:
            with setup_tracer.span("setup", -1):
                ops = build(seed, outdir)
        finally:
            setup_tracer.uninstall()
        meter.probe()
        setup_factor = meter.scale(1.0)
        plain, plain_wall = run_passes(ops, seconds / 2.0, 1, ticks=False)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, traced_wall = run_passes(ops, seconds / 2.0, 1, tracer, len(plain), ticks=False)
        finally:
            tracer.uninstall()
        report(plain, plain_wall, "untraced half")
        report(traced, traced_wall, "traced half")
        mean_plain = sum(r["scaled_s"] for r in plain) / len(plain)
        overhead = 100.0 * (sum(r["scaled_s"] for r in traced) / len(traced) / mean_plain - 1.0)
        metrics = layer_metrics(tracer, setup_tracer, setup_factor, traced, overhead)
        units = PER_LAYER
        write_spans(name, setup_tracer, tracer)
        records = plain + traced
    failed = sum(1 for r in records if r["reason"])
    return {
        "correct": not any(r["reason"] == "reference_miss" for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def write_spans(name: str, setup_tracer, tracer) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    fields = ("id", "name", "start", "end", "parent", "op")
    payload = {
        "setup": [dict(zip(fields, s)) for s in setup_tracer.spans],
        "ops": [dict(zip(fields, s)) for s in tracer.spans],
        "counts": dict(tracer.counts),
    }
    (OUT / f"spans-{name}.json").write_text(json.dumps(payload))


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_sources()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import neumannlab
    import workloads

    if Path(neumannlab.__file__).resolve().parent != SRC / "neumannlab":
        raise SystemExit(f"error: neumannlab was imported from {neumannlab.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    print("env " + json.dumps(environment(args.seed)))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
