#!/usr/bin/env python3
"""Print one sha256 per benchmark deck over every case's report.

    python3 scripts/report_digest.py

The decks are the presets, polygons and collinear workloads of
``perfbench/workloads.py``, dealt from its fixed deck seed.  Each case's
``to_dict()`` is hashed as sorted-key JSON, whose floats round-trip
exactly; a case that raises is hashed by the error's type and message.
The ``dynamics`` line hashes the dynamics deck's trajectories (the bytes
of their times, states and Jacobi energies) and then the six presets'
reports with the dynamics section.  Two trees that print the same four
lines give bit-identical reports and trajectories on every case.  BLAS
runs on one thread, as in the benchmark.
"""

import hashlib
import json
import os
import pathlib
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np
import workloads

from relequil.pipeline import AnalysisRequest, run_analysis
from relequil.presets import HOMOGENEOUS_PRESETS, PRESET_NAMES

DECKS = ("presets", "polygons", "collinear")


def digest(name):
    """sha256 over the reports (or errors) of one deck's cases, in deck order."""
    workload = workloads.make(name, ROOT / "golden")
    h = hashlib.sha256()
    for case in workload.deck(np.random.default_rng(workloads.DECK_SEED)):
        h.update(f"{case.label}\n{_report_text(lambda: workload.run(case))}\n".encode())
    return h.hexdigest()


def _report_text(run):
    """Sorted-key JSON of ``run().to_dict()``, or the error it raises."""
    try:
        return json.dumps(run().to_dict(), sort_keys=True)
    except Exception as exc:    # an error is part of the digest
        return f"{type(exc).__name__}: {exc}"


def dynamics_digest():
    """sha256 over the dynamics deck's trajectories, then the presets'
    reports with dynamics."""
    workload = workloads.make("dynamics", ROOT / "golden")
    h = hashlib.sha256()
    for case in workload.deck(np.random.default_rng(workloads.DECK_SEED)):
        traj = workload.run(case)
        h.update(case.label.encode())
        for a in (traj.times, traj.states, traj.jacobi_energy):
            h.update(np.ascontiguousarray(a).tobytes())
    for name in PRESET_NAMES:
        alpha = 1.0 if name in HOMOGENEOUS_PRESETS else None
        request = AnalysisRequest(case=name, alpha=alpha, with_dynamics=True)
        h.update(f"{name}\n{_report_text(lambda: run_analysis(request))}\n".encode())
    return h.hexdigest()


def main():
    for name in DECKS:
        print(f"{name:<10} {digest(name)}")
    print(f"{'dynamics':<10} {dynamics_digest()}")


if __name__ == "__main__":
    main()
