"""The oracle deflates the homographic plane in position space.

Its trivial modes (the translations T and the plane {z, Jhat z}) are
deflated by a complete QR of [T, z, Jhat z] in the 2n position space, not
in the 4n position-velocity space, where the QR mixed positions with
velocities.  These inputs raised ConsistencyError("block union vs oracle")
when the oracle deflated in the 4n space: 1+n rings with a dominant central
mass, and small quasi-homogeneous polygons.  They must pass under the
unchanged 1e-9 gate, and the rings must reproduce Moeckel's criterion.
"""

import mpmath
import numpy as np
import pytest

from relequil.central import regular_polygon
from relequil.model import BodyConfiguration, Equilibrium, PotentialSpec, first_order_matrix
from relequil.pipeline import AnalysisRequest, run_analysis
from relequil.spectrum import NOT_UNSTABLE, UNSTABLE, full_linearization_spectrum

from conftest import BENCHMARK_POTENTIALS

POTENTIALS = {name: BENCHMARK_POTENTIALS[name] for name in ("r-1", "schwarzschild", "r-2.5")}


def _ring(n, m0, angle=0.0):
    """(positions, masses) of a central mass m0 at the origin and n unit
    masses on the unit circle, the first at ``angle``."""
    ang = angle + 2.0 * np.pi * np.arange(n) / n
    q = np.vstack([[0.0, 0.0], np.column_stack([np.cos(ang), np.sin(ang)])])
    return tuple(q.ravel().tolist()), (m0,) + (1.0,) * n


RINGS = [(n, m0, name, angle) for n in range(3, 13) for m0 in (1e4, 3e4, 1e5, 1e6)
         for name in POTENTIALS for angle in (0.0, 0.3)]


@pytest.mark.parametrize("n, m0, name, angle", RINGS,
                         ids=[f"1+{n} m0={m0:g} {name} {angle}" for n, m0, name, angle in RINGS])
def test_one_plus_n_rings_pass(n, m0, name, angle):
    positions, masses = _ring(n, m0, angle)
    report = run_analysis(AnalysisRequest(positions=positions, masses=masses,
                                          potential=POTENTIALS[name]))
    assert report.matches_oracle


SMALL = [(n, radius) for n in range(3, 9) for radius in (0.05, 0.064, 0.1)]


@pytest.mark.parametrize("n, radius", SMALL, ids=[f"n={n} radius={r}" for n, r in SMALL])
def test_small_quasi_homogeneous_polygons_pass(n, radius):
    positions = tuple(regular_polygon(n, radius=radius).positions)
    report = run_analysis(AnalysisRequest(positions=positions,
                                          potential=POTENTIALS["schwarzschild"]))
    assert report.matches_oracle


MOECKEL = [(n, m0) for n in range(3, 13) for m0 in (1e4, 1e5, 1e6)]


@pytest.mark.parametrize("n, m0", MOECKEL, ids=[f"1+{n} m0={m0:g}" for n, m0 in MOECKEL])
def test_moeckel_criterion(n, m0):
    # under 1/r a 1+n ring with a dominant central mass is spectrally
    # unstable for n <= 6 and linearly stable for n >= 7 (Moeckel 1995)
    positions, masses = _ring(n, m0)
    report = run_analysis(AnalysisRequest(positions=positions, masses=masses, alpha=1.0))
    assert report.verdict == (UNSTABLE if n <= 6 else NOT_UNSTABLE)


@pytest.mark.parametrize("n, m0", [(3, 1e4), (4, 1e5), (5, 1e6)])
def test_oracle_against_mpmath(n, m0):
    # A backward-stable eigensolve moves B by about eps |omega^2 + Hw|, and
    # on these rings |omega^2 + Hw| stays about the ring's radial stiffness
    # 3 omega^2 = 3 m0 once the trivial modes are deflated, so the O(1)
    # ring modes carry about eps 3 m0 of absolute error.  Compared with a
    # 40-digit eigensolve of the same float matrix, each mode away from 0
    # and +-i omega (whose closed forms the oracle takes exactly, while the
    # float matrix splits their defective pairs) lies within 4 eps 3 m0.
    # The 4n deflation was off by 60 to 2.6e4 times eps 3 m0 here.
    positions, masses = _ring(n, m0)
    eq = Equilibrium(BodyConfiguration(np.array(masses), np.array(positions)),
                     PotentialSpec.homogeneous(1.0))
    B = first_order_matrix(eq.omega2, eq.omega, eq.Hw, eq.Jh)
    with mpmath.workdps(40):
        exact = np.array([complex(e) for e in mpmath.eig(mpmath.matrix(B.tolist()),
                                                         left=False, right=False)])
    oracle = full_linearization_spectrum(eq)
    radius = np.abs(exact).max()

    def modes(v):
        away = 1e-4 * radius
        return v[(np.abs(v) > away) & (np.abs(np.abs(v) - eq.omega) > away)]

    a, b = modes(exact), modes(oracle)
    assert len(a) == len(b) >= 6
    distance = np.abs(a[:, None] - b[None, :])
    bound = 4.0 * np.finfo(float).eps * 3.0 * m0
    assert max(distance.min(0).max(), distance.min(1).max()) <= bound
