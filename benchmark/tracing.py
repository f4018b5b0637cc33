"""In-memory span tracing around the package's public entry points.

The traced run replaces each name in ``TARGETS`` with a wrapper that records a
span (name, start, end, parent) and, for some layers, counts computed from the
returned objects.  Names are patched where they are looked up: ``from .linalg
import eigendecompose`` makes ``qbattery.trajectory.eigendecompose`` a binding
of its own, so that binding is the target, not ``qbattery.linalg``.

Spans opened in a ``ThreadPoolExecutor`` worker attach to the span that was
open on the submitting thread: while tracing is installed, ``submit`` runs
each task in a copy of the submitter's context.
"""

from __future__ import annotations

import contextlib
import contextvars
import importlib
import itertools
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# (span name, module, attribute).  The span name's first part is the layer
# (module) the time is charged to.
TARGETS = (
    ("cli.main", "qbattery.cli", "main"),
    ("cli.certify_csv", "qbattery.cli", "cmd_certify"),
    ("config.load", "qbattery.cli", "load_scenario"),
    ("config.load", "qbattery.cli", "load_capacity"),
    ("config.load", "qbattery.config", "load_scenario"),
    ("config.load", "qbattery.config", "load_capacity"),
    ("models.build", "qbattery.trajectory", "build_battery_for"),
    ("models.build", "qbattery.trajectory", "build_charger_for"),
    ("models.build", "qbattery.cli", "build_battery_for"),
    ("models.build", "qbattery.models", "build_battery_for"),
    ("linalg.eig", "qbattery.trajectory", "eigendecompose"),
    ("linalg.eig", "qbattery.cli", "eigendecompose"),
    ("linalg.eig", "qbattery.linalg", "eigendecompose"),
    ("linalg.propagate", "qbattery.trajectory", "evolve_batch"),
    ("trajectory.run", "qbattery.cli", "run_trajectory"),
    ("trajectory.run", "qbattery.sweeps", "run_trajectory"),
    ("trajectory.peak", "qbattery.cli", "find_tf"),
    ("trajectory.peak", "qbattery.sweeps", "find_tf"),
    ("trajectory.peak", "qbattery.sweeps", "find_peak_time"),
    ("verification.certify", "qbattery.cli", "certify_trajectory"),
    ("output.write", "qbattery.cli", "write_trajectory_csv"),
    ("output.write", "qbattery.cli", "write_json"),
    ("output.write", "qbattery.cli", "write_diagram_csv"),
    ("capacity.diagram", "qbattery.cli", "thermal_curve"),
    ("capacity.diagram", "qbattery.cli", "solve_beta_for_entropy"),
    ("capacity.diagram", "qbattery.cli", "capacity_at_entropy"),
    ("capacity.diagram", "qbattery.capacity", "thermal_curve"),
    ("capacity.diagram", "qbattery.capacity", "solve_beta_for_entropy"),
    ("capacity.diagram", "qbattery.capacity", "capacity_at_entropy"),
    ("sweeps.sweep", "qbattery.sweeps", "sweep_scaling"),
    ("sweeps.point", "qbattery.sweeps", "quantities_for"),
    ("freefermion.dispersion", "qbattery.sweeps", "dispersion"),
    ("freefermion.dispersion", "qbattery.freefermion", "dispersion"),
    ("freefermion.grid", "qbattery.sweeps", "observables_on_grid"),
    ("freefermion.grid", "qbattery.freefermion", "observables_on_grid"),
    ("freefermion.fisher", "qbattery.sweeps", "fisher_energy_series"),
    ("freefermion.fisher", "qbattery.freefermion", "fisher_energy_series"),
)

MODULES = (
    "models", "linalg", "trajectory", "verification", "cli", "output",
    "capacity", "config", "freefermion", "sweeps", "bench",
)
LADDER_SIZES = (200, 1000, 2000)
# Complex Hermitian eigendecomposition with eigenvectors, counted as the
# symmetric QR algorithm's 9 n^3 flops (Golub & Van Loan) times 4 real flops
# per complex multiply-add.  A computed count, not a measured rate.
EIG_FLOPS_PER_DIM3 = 4 * 9


def _eig_counts(args, result) -> dict:
    op = args[0]
    # eigendecompose returns a cached decomposition unchanged and sorts an
    # exactly diagonal matrix instead of calling LAPACK; neither does flops.
    if op.has_eig:
        dense = False
    else:
        diag = np.sort(np.real(np.diagonal(op.matrix)))
        dense = not np.array_equal(diag, result.eigenvalues)
    return {"dim": result.dim, "dense": dense}


def _written_bytes(args, result) -> dict:
    path = next(Path(a) for a in args if isinstance(a, (str, Path)))
    return {"bytes": path.stat().st_size, "csv": path.suffix == ".csv"}


# Counts taken from the arguments and returned objects after the span closes.
COUNTERS = {
    "models.build": lambda args, result: {"bytes": result.matrix.nbytes},
    "linalg.eig": _eig_counts,
    "linalg.propagate": lambda args, result: {"bytes": result.nbytes},
    "trajectory.run": lambda args, result: {"family": args[0].family},
    "verification.certify": lambda args, result: {"checks": result.n_checks},
    "output.write": _written_bytes,
    # The antiperiodic mode grid holds N/2 modes.
    "freefermion.fisher": lambda args, result: {"n": 2 * args[0].n_modes, "steps": len(args[1])},
}


class MissingTargetError(RuntimeError):
    pass


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    target: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of the wrapped entry points while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "bench_span", default=None
        )
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._targets = []
        missing = []
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if not callable(getattr(module, attr, None)):
                missing.append(f"{module_name}.{attr}")
            target = f"{module_name.removeprefix('qbattery.')}.{attr}"
            self._targets.append((name, module, attr, target))
        if missing:
            raise MissingTargetError("trace targets no longer exist: " + ", ".join(missing))

    @contextlib.contextmanager
    def span(self, name: str, target: str = "", **attrs):
        """Record a span around the block; yields its attrs for counts taken
        after it closes."""
        parent = self._current.get()
        with self._lock:
            sid = next(self._ids)
        token = self._current.set(sid)
        start = time.perf_counter()
        try:
            yield attrs
        except BaseException:
            attrs["error"] = True
            raise
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans.append(Span(sid, parent, name, target, start, end, attrs))

    def _wrap(self, name: str, target: str, fn):
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            with self.span(name, target) as attrs:
                result = fn(*args, **kwargs)
            if counter:
                attrs.update(counter(args, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target and the thread pool's submit; restore on exit."""
        originals = []
        original_submit = ThreadPoolExecutor.submit

        def submit(pool, fn, /, *args, **kwargs):
            return original_submit(pool, contextvars.copy_context().run, fn, *args, **kwargs)

        try:
            for name, module, attr, target in self._targets:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, target, fn))
            ThreadPoolExecutor.submit = submit
            yield self
        finally:
            ThreadPoolExecutor.submit = original_submit
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def target_names(self) -> list[str]:
        return [target for *_, target in self._targets]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - _covered(children.get(s.sid, []), s.start, s.end) for s in spans}


def layer_metrics(spans: list[Span], target_names: list[str]) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    by_id = {s.sid: s for s in spans}

    def named(name):
        return [s for s in spans if s.name == name]

    def outer_time(name):
        # Nested spans of the same layer (capacity_at_entropy calling
        # solve_beta_for_entropy) count once.
        return sum(
            s.duration for s in named(name)
            if s.parent is None or by_id[s.parent].name != name
        )

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    selfs = self_times(spans)
    out: dict[str, float] = {}
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            selfs[s.sid] for s in spans if s.name.split(".")[0] == module
        )

    out["models.build_s"] = outer_time("models.build")
    out["models.operator_mb"] = attr_sum("models.build", "bytes") / 1e6

    eigs = named("linalg.eig")
    out["linalg.eig_s"] = outer_time("linalg.eig")
    out["linalg.eig_calls"] = len(eigs)
    out["linalg.eig_dim_max"] = max((s.attrs.get("dim", 0) for s in eigs), default=0)
    out["linalg.eig_gflop"] = sum(
        EIG_FLOPS_PER_DIM3 * s.attrs["dim"] ** 3 for s in eigs if s.attrs.get("dense")
    ) / 1e9
    out["linalg.propagate_s"] = outer_time("linalg.propagate")
    out["linalg.state_mb"] = attr_sum("linalg.propagate", "bytes") / 1e6

    runs = named("trajectory.run")
    out["trajectory.run_self_s"] = sum(selfs[s.sid] for s in runs)
    dicke = {s.sid for s in runs if s.attrs.get("family") == "dicke"}
    attempts = sum(1 for s in named("linalg.propagate") if s.parent in dicke)
    out["trajectory.fock_attempts"] = attempts
    out["trajectory.fock_useful_ratio"] = len(dicke) / attempts if attempts else 0.0
    out["trajectory.peak_s"] = outer_time("trajectory.peak")

    out["verification.certify_s"] = outer_time("verification.certify")
    out["verification.checks"] = attr_sum("verification.certify", "checks")
    out["verification.checks_per_s"] = (
        out["verification.checks"] / out["verification.certify_s"]
        if out["verification.certify_s"] else 0.0
    )

    out["cli.certify_csv_s"] = outer_time("cli.certify_csv")
    out["output.write_s"] = outer_time("output.write")
    out["output.csv_mb"] = sum(
        s.attrs.get("bytes", 0) for s in named("output.write") if s.attrs.get("csv")
    ) / 1e6
    out["capacity.diagram_s"] = outer_time("capacity.diagram")
    out["config.load_s"] = outer_time("config.load")

    fisher = named("freefermion.fisher")
    out["freefermion.grid_s"] = outer_time("freefermion.grid")
    out["freefermion.fisher_s"] = outer_time("freefermion.fisher")
    for n in LADDER_SIZES:
        at_n = [s for s in fisher if s.attrs.get("n") == n]
        steps = sum(s.attrs["steps"] for s in at_n)
        out[f"freefermion.fisher_ms_per_step.N{n}"] = (
            1e3 * sum(s.duration for s in at_n) / steps if steps else 0.0
        )

    out["sweeps.sweep_s"] = outer_time("sweeps.sweep")
    out["sweeps.point_sum_s"] = outer_time("sweeps.point")
    out["sweeps.parallel_gain"] = (
        out["sweeps.point_sum_s"] / out["sweeps.sweep_s"] if out["sweeps.sweep_s"] else 0.0
    )

    out["tracing.self_sum_s"] = sum(selfs.values())
    out["tracing.spans"] = len(spans)
    counts = dict.fromkeys(target_names, 0)
    for s in spans:
        if s.target:
            counts[s.target] += 1
    for target, n in counts.items():
        out[f"calls.{target}"] = n
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
