"""Benchmark of the qbattery package: one workload, one seed, one run.

    python3 benchmark/run.py --workload scenarios --seed 0 --seconds 30 --trace 0

Runs in-process on one thread as a closed loop: each item (a scenario, a
sweep, a capacity diagram, a ladder rung) starts when the previous one ends.
After one warm-up pass it repeats whole passes until ``--seconds`` have
elapsed and reports medians over the measured passes.  Every item's outputs
are checked after its timed call.  After each item a fixed speed probe that
does not use qbattery is timed; the end-to-end times are scaled by the run's
median probe time (see ``SpeedProbe``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics of the traced ones
(medians) and writes their spans to ``.bench_work/``.  The last stdout line
is the JSON result; the line before it is the host record.  The exit code is
1 when an output check failed, 2 when the package is missing, 3 when a trace
target no longer exists.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 7
# Cold start in a fresh interpreter: import the package and make the first
# BLAS calls (a matrix product and a complex Hermitian eigendecomposition).
SETUP_PROBE = """
import time
t0 = time.perf_counter()
import numpy as np
import qbattery
a = np.arange(4096.0).reshape(64, 64) * (1 + 1j)
np.linalg.eigh(a @ a.conj().T)
print(time.perf_counter() - t0)
"""

# The speed probe's median time on the host the baseline was taken on
# (2-vCPU VM, OpenBLAS 0.3.31 with 2 threads).
PROBE_REFERENCE_S = 0.0288

END_TO_END_UNITS = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "item_p50_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.startswith("calls.") or name in (
        "linalg.eig_calls", "verification.checks", "trajectory.fock_attempts",
        "output.csv_identical", "tracing.spans", "linalg.eig_dim_max",
    ):
        return "count"
    if name.startswith("freefermion.fisher_ms_per_step"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_gflop"):
        return "Gflop"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_gain")):
        return "ratio"
    return "s"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scenarios", "dense_scaling", "analytic_chain"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip()))
    return samples


def _blas_threads():
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class SpeedProbe:
    """Times a fixed mix of interpreted Python, a 256 x 256 complex Hermitian
    eigendecomposition and a streaming numpy pass, none of it from qbattery.

    The shared hosts the benchmark runs on change speed by 20-30% over
    minutes, longer than one run, and the package's pass times follow.  The
    end-to-end times are divided by ``factor()``, the run's median probe time
    over ``PROBE_REFERENCE_S``, so they read as seconds on a host of the
    reference speed.  The eigendecomposition runs on the BLAS threads, as
    the package's dense work does, so the probe slows when a core is taken
    from them.  ``benchmark/README.md`` gives the measurements behind this.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.hermitian = a + a.conj().T
        self.vector = rng.standard_normal(200_000)
        self.samples: list[float] = []
        self.measure()  # warm-up
        self.samples.clear()

    def measure(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i % 7
        np.linalg.eigh(self.hermitian)
        np.cumsum(self.vector * 1.0001 + self.vector)
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        return statistics.median(self.samples) / PROBE_REFERENCE_S


def run_pass(items, checker, probe, tracer=None) -> dict:
    item_times = []
    identical = 0
    for item in items:
        error = None
        result = None
        # Collect the garbage the previous check left, so that its collection
        # does not land inside the timed call.
        gc.collect()
        start = time.perf_counter()
        try:
            if tracer is None:
                result = item.run()
            else:
                with tracer.span("bench.item", item=item.key):
                    result = item.run()
        except Exception:
            error = traceback.format_exc()
        item_times.append(time.perf_counter() - start)
        identical += checker.record(item, result, error)
        probe.measure()
    return {
        "wall": sum(item_times),
        "item_times": item_times,
        "points": sum(item.points for item in items),
        "csv_identical": identical,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qbattery" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"qbattery sources or configs not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qbattery
    import tracing
    import workloads

    if not Path(qbattery.__file__).resolve().is_relative_to(SRC):
        print(f"imported qbattery from {qbattery.__file__}, not {SRC}", file=sys.stderr)
        return 2

    setup_samples = measure_setup() if args.trace == 0 else []
    tracer = None
    if args.trace:
        try:
            tracer = tracing.Tracer()
        except tracing.MissingTargetError as exc:
            print(exc, file=sys.stderr)
            return 3

    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    probe = SpeedProbe()
    try:
        items = workloads.build(args.workload, args.seed, workdir)
        checker = workloads.Checker(workloads.load_reference(args.workload))
        run_pass(items, checker, probe)  # warm-up
        untraced, traced, traced_spans = [], [], []
        deadline = time.perf_counter() + args.seconds
        while not untraced or time.perf_counter() < deadline:
            untraced.append(run_pass(items, checker, probe))
            if tracer is not None:
                tracer.spans = []
                with tracer.installed():
                    traced.append(run_pass(items, checker, probe, tracer))
                traced_spans.append(tracer.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    item_medians = {
        item.key: statistics.median(p["item_times"][i] for p in untraced)
        for i, item in enumerate(items)
    }
    raw = {}
    if tracer is None:
        walls = [p["wall"] for p in untraced]
        raw = {
            "wall_s": statistics.median(walls),
            "points_per_s": statistics.median(p["points"] / p["wall"] for p in untraced),
            "item_p50_s": statistics.median(item_medians.values()),
            "setup_s": statistics.median(setup_samples),
        }
        speed = probe.factor()
        metrics = {
            "wall_s": raw["wall_s"] / speed,
            "points_per_s": raw["points_per_s"] * speed,
            "item_p50_s": raw["item_p50_s"] / speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "passed_frac": (checker.attempted - checker.failed) / checker.attempted,
            "setup_s": raw["setup_s"] / speed,
        }
        units = END_TO_END_UNITS
    else:
        names = tracer.target_names()
        per_pass = []
        for p, spans in zip(traced, traced_spans):
            layer = tracing.layer_metrics(spans, names)
            layer["output.csv_identical"] = p["csv_identical"]
            layer["tracing.wall_s"] = p["wall"]
            per_pass.append(layer)
        metrics = tracing.median_metrics(per_pass)
        metrics["tracing.overhead_s"] = (
            statistics.median(p["wall"] for p in traced)
            - statistics.median(p["wall"] for p in untraced)
        )
        units = {name: layer_unit(name) for name in metrics}
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            [[vars(s) for s in spans] for spans in traced_spans]), encoding="utf-8")

    print(json.dumps({
        "host": host_record(), "workload": args.workload, "seed": args.seed,
        "pass_walls_s": [p["wall"] for p in untraced],
        "traced_pass_walls_s": [p["wall"] for p in traced],
        "item_medians_s": item_medians,
        "setup_samples_s": setup_samples,
        "probe_median_s": statistics.median(probe.samples),
        "unscaled_metrics": raw,
    }))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
