"""relequil benchmark: one closed-loop client issuing one operation at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn, each in its own process.

Run it from the root of a source checkout; it imports ``relequil`` from
``src/`` and exits with code 1, printing no result, where that tree or the
goldens are missing.  The workloads, their inputs and checks are in
``workloads.py``; the metrics are in ``metrics.py``.

``--trace 0`` measures the end-to-end metrics.  ``setup_s`` is the median
wall time of fresh interpreters that each import relequil, build the
inputs and run the first operation, which a command-line user pays on
every call.  The timed loop then issues whole passes of operations for
about ``--seconds`` (``workloads.closed_loop``).  Every time among these
metrics is scaled to the reference host by the host speed measured around
it (``speed.py``); the unscaled ones are printed on lines marked
``unscaled``.  BLAS runs on one thread.

``--trace 1`` runs the same inputs twice, first plain for half of
``--seconds`` and then with every public function of the layer modules
wrapped in a span.  It prints the per-layer metrics and writes the spans
to ``perfbench/out/``.  The relative difference in scaled operation time
between the two is ``tracing_overhead_frac``; the layer times are not
scaled.

Every run prints the environment (Python, numpy, scipy, CPUs, BLAS
threads) on a line starting with ``env``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``correct`` is false when some returned output
failed its workload's check.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import gzip
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the matrices are at most 96 x 96, and a second thread
# spinning on a shared host of a few cores measures the scheduler instead.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "golden"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def import_relequil():
    """Import relequil from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "relequil" / "__init__.py").is_file() or not GOLDEN.is_dir():
        raise SystemExit(f"no relequil source tree at {SRC} with goldens at {GOLDEN}")
    sys.path.insert(0, str(SRC))
    import relequil

    if Path(relequil.__file__).resolve().parent != (SRC / "relequil").resolve():
        raise SystemExit(f"relequil imported from {relequil.__file__}, not {SRC}")


def blas_threads():
    """Thread count of every OpenBLAS loaded in this process, by library."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                found[Path(path).name] = int(getattr(lib, sym)())
                break
    return found


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": blas_threads(),
    }


def setup_seconds(workload_name, seed):
    """Median wall time of fresh interpreters that set up and run one operation.

    Returns the median unscaled and the median scaled by the host slowness
    that each interpreter measures as soon as it is set up (the last line
    it prints).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--setup-probe"]
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        probe = subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
                               stdout=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] / float(probe.stdout.split()[-1]))
    return statistics.median(times), statistics.median(scaled)


def traced_run(workload, args, env):
    """Plain passes, then traced passes over the same inputs; per-layer metrics."""
    import workloads
    from metrics import MOVES, PROBES, layer_metrics, unit_of
    from spans import Tracer
    from speed import Gauge

    _, plain, _, _, count = workloads.closed_loop(
        workload, workloads.passes(workload, args.seed), seconds=args.seconds / 2, gauge=Gauge())
    tracer = Tracer(PROBES)
    tracer.install()
    try:
        _, traced, outcomes, _, _ = workloads.closed_loop(
            workload, workloads.passes(workload, args.seed), count=count, tracer=tracer,
            gauge=Gauge())
    finally:
        tracer.uninstall()
    failed = len(outcomes) - outcomes.count("ok")
    values, table = layer_metrics(tracer, len(outcomes), failed, sum(traced) / sum(plain) - 1.0)
    out = HERE / "out" / f"spans-{args.workload}-{args.seed}.json.gz"
    out.parent.mkdir(exist_ok=True)
    with gzip.open(out, "wt") as fh:
        json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                   "functions": table, "span_fields": ["id", "parent", "op", "name", "t0", "t1"],
                   "spans": tracer.spans}, fh)
    return outcomes, {m: (values[m], unit_of(m)[0]) for m in MOVES}


def plain_run(workload, args):
    """Set-up probes, then timed passes; end-to-end metrics scaled to the reference host.

    The unscaled metrics are printed too, on lines marked ``unscaled``.
    """
    import workloads
    from metrics import END_TO_END, end_to_end
    from speed import REFERENCE_S, Gauge

    setup_raw, setup_s = setup_seconds(args.workload, args.seed)
    gauge = Gauge()
    durations, scaled, outcomes, _, _ = workloads.closed_loop(
        workload, workloads.passes(workload, args.seed), seconds=args.seconds, gauge=gauge)
    raw = end_to_end(durations, outcomes, setup_raw)
    for name, unit in END_TO_END.items():
        print(f"{args.workload:10s} {name:45s} {raw[name]:.6g} {unit} unscaled")
    print(f"{args.workload:10s} {'host slowness':45s} "
          f"{statistics.median(gauge.samples) / REFERENCE_S:.4g} (median of "
          f"{len(gauge.samples)} kernel samples)")
    values = end_to_end(scaled, outcomes, setup_s)
    return outcomes, {m: (values[m], unit) for m, unit in END_TO_END.items()}


def run_all(args, names):
    """Every workload in its own interpreter, one after another."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_relequil()
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.NAMES)
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; know all, {', '.join(workloads.NAMES)}")

    workload = workloads.make(args.workload, GOLDEN)
    # warm-up, untimed: the first case of the first pass
    workloads.attempt(workload, next(workloads.passes(workload, args.seed))[0])
    if args.setup_probe:
        from speed import SETUP_SAMPLES, Gauge

        gauge = Gauge()
        for _ in range(SETUP_SAMPLES - 1):
            gauge.take()
        print(gauge.slowness(gauge.times[0], gauge.times[-1]))
        return 0

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        outcomes, metrics = traced_run(workload, args, env)
    else:
        outcomes, metrics = plain_run(workload, args)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:45s} {value:.6g} {unit}")
    print("outcomes " + json.dumps(collections.Counter(outcomes), sort_keys=True))
    print(json.dumps({
        "correct": "wrong" not in outcomes,
        "attempted": len(outcomes),
        "failed": len(outcomes) - outcomes.count("ok"),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
