"""Span tracing of neumannlab's layers from outside the package.

The tracer patches public names at the sites that import them (for example
``neumannlab.dual.kappa_shift`` and ``neumannlab.cli.compute_dual``), so the
library itself carries no tracing code.  Each wrapped call records a span
(name, start, end, parent id, op id) in memory; ``RadialGrid.integrate_values``
is only counted, because it runs tens of thousands of times per op and a
span around it would cost more than the call.

A span's self time is its duration minus the durations of its direct
children.  Calls are strictly nested in this single-threaded process, so the
self times of all spans under an op root add up to the root's duration.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from neumannlab import cli, closed_form, dual, experiments, grid, sign
from neumannlab.dual import NonConvergenceError


class Tracer:
    """In-memory span recorder with counters; install() patches the layers."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start, end, parent id, op id]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        if op is not None:
            self._op = op
        record = [len(self.spans), name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self._op]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()
            if op is not None:
                self._op = None

    def wrap(self, name, fn, observe=None):
        """Return fn recorded as a span; `name` may be a function of (args, kwargs)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if observe is not None:
                        observe(self.counts, None, exc)
                    raise
            if observe is not None:
                observe(self.counts, result, None)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch every traced name; uninstall() restores the originals."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, observe in _LAYER_SITES:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), observe))
        integrate = grid.RadialGrid.integrate_values
        counts = self.counts

        def integrate_values(self_, values):
            counts["grid.integrate_values.calls"] += 1
            return integrate(self_, values)

        self._patch(grid.RadialGrid, "integrate_values", integrate_values)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_table(self, factors: dict[int, float]) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms, over the given ops.

        `factors` maps each op id to the factor its times are multiplied by.
        """
        child_time: defaultdict[int, float] = defaultdict(float)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: defaultdict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for sid, name, start, end, _, op in self.spans:
            if op not in factors:
                continue
            row = table[name]
            row["calls"] += 1
            row["ms"] += 1e3 * factors[op] * (end - start)
            row["self_ms"] += 1e3 * factors[op] * (end - start - child_time[sid])
        return dict(table)


def _solve_neumann_name(args, kwargs) -> str:
    symmetric = kwargs.get("symmetric", args[1] if len(args) > 1 else False)
    return "greens.solve_neumann_sym" if symmetric else "greens.solve_neumann"


def _observe_dual(counts, result, exc) -> None:
    if isinstance(exc, NonConvergenceError):
        counts["dual.unconverged"] += 1
    elif result is not None:
        counts["dual.sweeps"] += result.iterations


def _observe_reconstruct(counts, result, exc) -> None:
    if result is not None and not result.converged:
        counts["dual.unconverged"] += 1


def _observe_sign(counts, result, exc) -> None:
    if result is not None:
        counts["sign.iterations"] += result.iterations


# (module or class, attribute, span name, observer): every import site of a
# traced name, so that calls between layers are seen from both sides.
_LAYER_SITES = [
    (cli, "main", "cli.main", None),
    (cli, "make_grid", "grid.make_grid", None),
    (grid, "make_grid", "grid.make_grid", None),
    (grid.GridFunction, "write_csv", "grid.write_csv", None),
    (cli, "write_json", "report_io.write_json", None),
    (experiments, "write_csv_rows", "report_io.write_csv_rows", None),
    (dual, "kappa_shift", "greens.kappa_shift", None),
    (sign, "kappa_shift", "greens.kappa_shift", None),
    (dual, "solve_neumann", _solve_neumann_name, None),
    (sign, "solve_neumann", _solve_neumann_name, None),
    (experiments, "solve_neumann", _solve_neumann_name, None),
    (sign, "balanced_shift", "greens.balanced_shift", None),
    (cli, "compute_dual", "dual.compute_dual", _observe_dual),
    (dual, "compute_dual", "dual.compute_dual", _observe_dual),
    (experiments, "compute_dual", "dual.compute_dual", _observe_dual),
    (dual, "compute_lambda", "dual.compute_lambda", None),
    (cli, "reconstruct_solution", "dual.reconstruct_solution", _observe_reconstruct),
    (experiments, "reconstruct_solution", "dual.reconstruct_solution", _observe_reconstruct),
    (cli, "solve_sign_system", "sign.solve_sign_system", _observe_sign),
    (sign, "solve_sign_system", "sign.solve_sign_system", _observe_sign),
    (cli, "run_sweep", "experiments.run_sweep", None),
    (experiments, "ls_upper_bounds", "experiments.ls_upper_bounds", None),
    (closed_form, "m_rad", "closed_form.reference", None),
]
