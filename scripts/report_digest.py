#!/usr/bin/env python3
"""Print one sha256 per benchmark deck over every case's report.

    python3 scripts/report_digest.py

The decks are the presets, polygons and collinear workloads of
``perfbench/workloads.py``, dealt from its fixed deck seed.  Each case's
``to_dict()`` is hashed as sorted-key JSON, whose floats round-trip
exactly; a case that raises is hashed by the error's type and message.  Two
trees that print the same three lines give bit-identical reports on every
case of the three decks.  BLAS runs on one thread, as in the benchmark.
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

DECKS = ("presets", "polygons", "collinear")


def digest(name):
    """sha256 over the reports (or errors) of one deck's cases, in deck order."""
    workload = workloads.make(name, ROOT / "golden")
    h = hashlib.sha256()
    for case in workload.deck(np.random.default_rng(workloads.DECK_SEED)):
        try:
            text = json.dumps(workload.run(case).to_dict(), sort_keys=True)
        except Exception as exc:    # an error is part of the digest
            text = f"{type(exc).__name__}: {exc}"
        h.update(f"{case.label}\n{text}\n".encode())
    return h.hexdigest()


def main():
    for name in DECKS:
        print(f"{name:<10} {digest(name)}")


if __name__ == "__main__":
    main()
