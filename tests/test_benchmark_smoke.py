"""Every case of the benchmark's decks, run once through ``workloads.attempt``.

The benchmark reads the package through its workloads (``report.verdict``,
``report.matches_oracle``, ``report.to_dict()``, ...).  A name it reads that
the package no longer has would otherwise show only as a failed benchmark
run.  Here each outcome must be "ok" or the name of one of the workloads'
``EXPECTED_FAILURES``: never "wrong", and no other exception escapes.
``perfbench/workloads.py`` is imported by path and only read.
"""

import importlib.util
import pathlib
import signal
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# A correctness check, not a timing one: an operation is stopped only when
# it is far past the benchmark's OP_LIMIT_S, so a slow host fails no case.
LIMIT_S = 60.0


@pytest.fixture
def alarm_handler_restored():
    previous = signal.getsignal(signal.SIGALRM)
    yield
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_case_of_the_deck_runs_and_passes_its_check(name, alarm_handler_restored):
    workload = workloads.make(name, ROOT / "golden")
    deck = workload.deck(np.random.default_rng(workloads.DECK_SEED))
    assert deck
    allowed = {"ok"} | {exc.__name__ for exc in workloads.EXPECTED_FAILURES}
    outcomes = [(case.label, workloads.attempt(workload, case, LIMIT_S)) for case in deck]
    assert [(label, out) for label, out in outcomes if out not in allowed] == []
