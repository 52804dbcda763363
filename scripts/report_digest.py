#!/usr/bin/env python3
"""Print one sha256 per benchmark deck over every case's report.

    python3 scripts/report_digest.py                  # the four digests
    python3 scripts/report_digest.py --dump FILE      # write the decks' numbers
    python3 scripts/report_digest.py --against FILE   # compare them with a dump

The decks are the presets, polygons and collinear workloads of
``perfbench/workloads.py``, dealt from its fixed deck seed.  Each case's
``to_dict()`` is hashed as sorted-key JSON, whose floats round-trip
exactly; a case that raises is hashed by the error's type and message.
The ``dynamics`` line hashes the dynamics deck's trajectories (the bytes
of their times, states and Jacobi energies) and then the six presets'
reports with the dynamics section.  Two trees that print the same four
lines give bit-identical reports and trajectories on every case.  BLAS
runs on one thread, as in the benchmark.

A digest cannot tell a change at rounding level from a wrong answer.
``--dump`` writes, for every case of the three decks, its verdict, its
label counts, its block union and oracle spectra, its ``isotypic``
eigenvalues and its pairs' (lam1, lam2), or its error, as JSON.
``--against`` runs the decks on this tree and prints one line per deck:
the largest matched change of each spectrum over its spectral radius
(``compare_spectra``), the largest change of the isotypic and of the pair
values over the larger of the case's largest old one and its old union
spectral radius squared, which has their units (inf where their number
changed), so that a rounding-level value such as a translation pair's zero
does not set the scale; the number of cases whose verdict or label counts
changed, and the errors gained and lost; then one line per such case.  Both
dumps must come from this version of the script.
"""

import argparse
import collections
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
from relequil.spectrum import compare_spectra

DECKS = ("presets", "polygons", "collinear")


def _cases(name):
    """(label, run) of one deck's cases, in deck order."""
    workload = workloads.make(name, ROOT / "golden")
    return [(case.label, lambda case=case: workload.run(case))
            for case in workload.deck(np.random.default_rng(workloads.DECK_SEED))]


def digest(name):
    """sha256 over the reports (or errors) of one deck's cases, in deck order."""
    h = hashlib.sha256()
    for label, run in _cases(name):
        h.update(f"{label}\n{_report_text(run)}\n".encode())
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


def _numbers(run):
    """The verdict, label counts, spectra ([re, im] pairs), isotypic
    eigenvalues and pairs' [lam1, lam2] of one case's report, or its error."""
    try:
        d = run().to_dict()
    except Exception as exc:    # an error is part of the dump
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"verdict": d["verdict"]["verdict"],
            "labels": dict(sorted(collections.Counter(d["verdict"]["labels"]).items())),
            "union": [[e["re"], e["im"]] for e in d["block_union_spectrum"]],
            "oracle": [[e["re"], e["im"]] for e in d["oracle_spectrum"]],
            "isotypic": [lam for c in d["isotypic"] for lam in c["eigenvalues"]],
            "pairs": [[b["lam1"], b["lam2"]] for b in d["blocks"]]}


def dump():
    """{deck: [[label, numbers], ...]} over the three decks."""
    return {name: [[label, _numbers(run)] for label, run in _cases(name)] for name in DECKS}


def _spectrum(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def _relative_change(a, b, scale):
    """max |b - a| over the larger of max |a| and ``scale`` of two lists of
    values, inf where their shapes differ."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return np.inf
    return float(np.max(np.abs(b - a), initial=0.0) / np.max(np.abs(a), initial=scale))


def compare(old, new):
    """Lines of the comparison of two dumps, deck by deck."""
    lines = []
    for name in DECKS:
        if [label for label, _ in old[name]] != [label for label, _ in new[name]]:
            lines.append(f"{name:<10} the decks hold different cases")
            continue
        change = dict.fromkeys(("union", "oracle", "isotypic", "pairs"), 0.0)
        counts = collections.Counter()
        notes = []
        for i, ((label, a), (_, b)) in enumerate(zip(old[name], new[name])):
            case = f"  #{i} {label}:"
            if "error" in a or "error" in b:
                if a.get("error") != b.get("error"):
                    counts["gained"] += "error" not in a
                    counts["lost"] += "error" not in b
                    notes.append(f"{case} error {a.get('error')!r} -> {b.get('error')!r}")
                continue
            for key in ("union", "oracle"):
                m = compare_spectra(_spectrum(a[key]), _spectrum(b[key]))
                change[key] = max(change[key], m.max_distance / m.scale)
            radius = np.max(np.abs(_spectrum(a["union"])), initial=1e-150)
            for key in ("isotypic", "pairs"):
                change[key] = max(change[key], _relative_change(a[key], b[key], radius ** 2))
            for key in ("verdict", "labels"):
                if a[key] != b[key]:
                    counts[key] += 1
                    notes.append(f"{case} {key} {a[key]} -> {b[key]}")
        lines.append(f"{name:<10} union {change['union']:.2g}  oracle {change['oracle']:.2g}  "
                     f"isotypic {change['isotypic']:.2g}  pairs {change['pairs']:.2g}  "
                     f"verdicts {counts['verdict']}  label counts {counts['labels']}  "
                     f"errors +{counts['gained']} -{counts['lost']}")
        lines += notes
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--dump", metavar="FILE", help="write the decks' numbers to FILE")
    group.add_argument("--against", metavar="FILE",
                       help="compare the decks' numbers with a dump in FILE")
    args = parser.parse_args(argv)
    if args.dump:
        pathlib.Path(args.dump).write_text(json.dumps(dump()))
    elif args.against:
        print("\n".join(compare(json.loads(pathlib.Path(args.against).read_text()), dump())))
    else:
        for name in DECKS:
            print(f"{name:<10} {digest(name)}")
        print(f"{'dynamics':<10} {dynamics_digest()}")


if __name__ == "__main__":
    main()
