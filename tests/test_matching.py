"""``compare_spectra`` against the general assignment solver.

``compare_spectra`` matches two spectra inside their certified clusters and
calls scipy's ``linear_sum_assignment`` only where that certificate fails
or a cluster has more than 4 members.  ``_reference_compare_spectra`` always
calls the solver; every field of the two results must agree, and the
solver must run exactly on the inputs that need it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linear_sum_assignment

import relequil
from relequil.central import regular_polygon
from relequil.model import Equilibrium, PotentialSpec, first_order_matrix
from relequil.presets import HOMOGENEOUS_PRESETS, PRESET_NAMES, get_case
from relequil.spectrum import (
    SpectrumMatch,
    _cluster_assignment,
    block_spectrum,
    compare_spectra,
    decompose_blocks,
    full_linearization_spectrum,
)
from relequil.symmetry import J2

from conftest import BENCHMARK_POTENTIALS, PRESET_ALPHAS, WHOLE_SPACE_DECK


def _reference_compare_spectra(a, b, tol=1e-9, n_worst=4):
    """``compare_spectra`` with every matching solved by the general solver."""
    va, vb = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    scale = float(np.max(np.abs(np.concatenate([va, vb])), initial=1e-300))
    if va.size != vb.size:
        return SpectrumMatch(False, np.inf, tol, scale, (), True)
    cost = np.abs(va[:, None] - vb[None, :])
    rows, cols = linear_sum_assignment(cost)
    dists = cost[rows, cols]
    order = np.argsort(dists)[::-1]
    worst = tuple(
        (complex(va[rows[k]]), complex(vb[cols[k]]), float(dists[k]))
        for k in order[:n_worst]
    )
    max_d = float(dists.max()) if dists.size else 0.0
    return SpectrumMatch(max_d <= tol * scale, max_d, tol, scale, worst)


@pytest.fixture
def solver_calls(monkeypatch):
    """The shape of each cost matrix that ``compare_spectra`` hands the solver."""
    calls = []

    def counted(cost):
        calls.append(cost.shape)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counted)
    return calls


def _union_and_oracle(eq):
    return decompose_blocks(eq).union_spectrum(), full_linearization_spectrum(eq)


def _preset_pairs():
    cases = [get_case(name) for name in PRESET_NAMES]
    cases += [get_case(name, alpha) for name in HOMOGENEOUS_PRESETS for alpha in PRESET_ALPHAS]
    return [_union_and_oracle(Equilibrium(case.configuration(), case.potential))
            for case in cases]


def _polygon_pairs():
    out = []
    for n in range(3, 25):
        config = regular_polygon(n)
        for terms in BENCHMARK_POTENTIALS.values():
            out.append(_union_and_oracle(Equilibrium(config, PotentialSpec(terms))))
    return out


def _whole_space_pairs():
    return [_union_and_oracle(Equilibrium(config, spec)) for _, config, spec in WHOLE_SPACE_DECK]


@pytest.mark.parametrize("deck", [_preset_pairs, _polygon_pairs, _whole_space_pairs])
def test_union_and_oracle_match_the_reference(deck, solver_calls):
    failing = 0
    for a, b in deck():
        got = compare_spectra(a, b)
        assert got == _reference_compare_spectra(a, b)
        failing += not got.matches
    # the solver runs exactly where the gate fails; since the oracle
    # deflates in position space no input of these decks fails it
    assert len(solver_calls) == failing


def _clustered(rng, mult):
    """Two draws of cluster centres with multiplicities ``mult``, each member
    moved by its own relative noise of 1e-14..1e-10; the second permuted."""
    centres = rng.standard_normal(mult.size) + 1j * rng.standard_normal(mult.size)
    base = np.repeat(centres, mult)
    noise = 10.0 ** rng.uniform(-14, -10)

    def draw():
        return base + noise * (rng.standard_normal(base.size)
                               + 1j * rng.standard_normal(base.size))

    return draw(), rng.permutation(draw())


def test_clustered_spectra_match_the_reference(solver_calls):
    rng = np.random.default_rng(20260417)
    for _ in range(1000):
        a, b = _clustered(rng, rng.integers(1, 5, rng.integers(1, 12)))
        got = compare_spectra(a, b)
        assert got == _reference_compare_spectra(a, b)
        assert got.matches
    assert solver_calls == []


def _distinct_pairs():
    """Spectra of distinct values and their partners: the selfcheck's
    closed-form and dense 4x4 block spectra, and random spectra permuted
    and moved by 1e-13."""
    rng = np.random.default_rng(14)
    for _ in range(1000):
        omega = rng.uniform(0.1, 10.0)
        lam1, lam2 = rng.uniform(-10.0, 10.0, size=2)
        yield (block_spectrum(omega, lam1, lam2), np.linalg.eigvals(
            first_order_matrix(omega ** 2, omega, np.diag([lam1, lam2]), J2)))
    for size in (1, 2, 5, 12, 40):
        a = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        yield a, rng.permutation(a + 1e-13 * (rng.standard_normal(size)
                                               + 1j * rng.standard_normal(size)))


def test_distinct_values_match_as_the_solver_does(solver_calls):
    # every cluster has one member on each side: the certified path returns
    # the solver's assignment and its largest distance, without the solver
    for a, b in _distinct_pairs():
        cost = np.abs(a[:, None] - b[None, :])
        cols = _cluster_assignment(cost, 1e-9 * float(np.abs(np.r_[a, b]).max()))
        assert cols.tolist() == linear_sum_assignment(cost)[1].tolist()
        got = compare_spectra(a, b)
        assert got == _reference_compare_spectra(a, b)
        assert got.max_distance == cost[np.arange(a.size), cols].max()
    assert solver_calls == []


FALLBACK = {
    # five members within the gate of one another
    "cluster of 5": (np.r_[1.0, 1e-12 * np.arange(5)],
                     np.r_[1.0, 1e-12 * np.array([3.5, 0.5, 4.5, 1.5, 2.5])]),
    # 0 is near 0.75e-9 only, 1.5e-9 near both 0.75e-9 and 2.25e-9
    "chain of overlapping clusters": (np.array([1.0, 0.0, 1.5e-9]),
                                      np.array([1.0, 0.75e-9, 2.25e-9])),
    # two clusters whose gap is below 3 times their spread
    "clusters too close": (np.array([1.0, 0.0, 2e-9]), np.array([1.0, 0.9e-9, 2.9e-9])),
    # each value has a near partner, but 0 twice in one spectrum and once in the other
    "unbalanced cluster": (np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0])),
    "single displacement": (np.array([0.0, 1j, -1j]), np.array([1.0, 1j, -1j])),
}


@pytest.mark.parametrize("name", FALLBACK)
def test_uncertified_inputs_take_the_solver(name, solver_calls):
    a, b = FALLBACK[name]
    assert compare_spectra(a, b) == _reference_compare_spectra(a, b)
    assert solver_calls == [(len(a), len(a))]


def test_overlapping_and_close_clusters_pass_the_gate():
    for name in ("chain of overlapping clusters", "clusters too close", "cluster of 5"):
        assert compare_spectra(*FALLBACK[name]).matches, name


def test_empty_spectra_match(solver_calls):
    got = compare_spectra(np.array([]), np.array([]))
    assert got == _reference_compare_spectra([], [])
    assert got == SpectrumMatch(True, 0.0, 1e-9, 1e-300, ())
    assert solver_calls == []


def test_a_run_imports_no_scipy_solver():
    # a fresh interpreter: this one imported scipy.optimize above
    code = """
import sys
import numpy as np
from relequil import central, dynamics, model, pipeline, presets

pipeline.run_analysis(pipeline.AnalysisRequest(case="manev-square"))
spec = model.PotentialSpec.homogeneous(1.0)
guess = np.array([-1.0, 0.0, 0.1, 0.0, 0.9, 0.0])
config = central.refine_central_configuration(
    model.BodyConfiguration(np.array([1.0, 1.5, 0.7]), guess), spec)
pipeline.run_analysis(pipeline.AnalysisRequest(
    positions=tuple(config.positions), masses=tuple(config.masses), alpha=1.0))
preset = presets.get_case("triangle-homogeneous")
dynamics.integrate_rotating_frame(preset.configuration(), preset.potential,
                                  duration=0.1, dt=0.01)
print(sorted(m for m in ("scipy.optimize", "scipy.linalg") if m in sys.modules))
"""
    src = str(Path(relequil.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]
