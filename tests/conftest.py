import numpy as np
import pytest

from relequil.central import RefinementError, refine_central_configuration, regular_polygon
from relequil.model import BodyConfiguration, PotentialSpec
from relequil.presets import all_standard_cases
from relequil.symmetry import (
    dihedral,
    eigenvalues_by_trace_equations,
    wave_number_spectrum,
    wave_number_stack,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def triangle():
    return regular_polygon(3)


@pytest.fixture
def square():
    return regular_polygon(4)


@pytest.fixture(params=["homogeneous", "manev", "schwarzschild"])
def any_spec(request):
    return {
        "homogeneous": PotentialSpec.homogeneous(1.0),
        "manev": PotentialSpec.manev(),
        "schwarzschild": PotentialSpec.schwarzschild(),
    }[request.param]


@pytest.fixture
def standard_cases():
    return all_standard_cases()


def random_safe_configuration(rng, n=4, min_distance=0.35, masses=None):
    while True:
        pos = rng.uniform(-1.5, 1.5, size=2 * n)
        try:
            cfg = BodyConfiguration(
                np.ones(n) if masses is None else masses, pos
            )
        except ValueError:
            continue
        if cfg.min_pair_distance() >= min_distance:
            return cfg


def wave_bases(points):
    """The bases W_k, k = 0..n//2, of the regular polygon at ``points``: its
    ``wave_number_stack`` sliced to ``dihedral(n).wave_dims``."""
    return [W[:, :d] for W, d in zip(wave_number_stack(points), dihedral(len(points)).wave_dims)]


def trace_wave_eigs(H, group):
    """The wave-number eigenvalues that the trace route reads: those of H's
    own ``wave_number_spectrum`` on the group's polygon."""
    return wave_number_spectrum(H, wave_number_stack(group.vertices())).lam.copy()


def trace_route(H, group):
    """``eigenvalues_by_trace_equations`` of H on its own wave-number spectrum."""
    return eigenvalues_by_trace_equations(H, group, trace_wave_eigs(H, group))


BENCHMARK_POTENTIALS = {
    "r-1": ((1.0, 1.0),),
    "r-2.5": ((1.0, 2.5),),
    "manev": ((1.0, 1.0), (1.0, 2.0)),
    "schwarzschild": ((1.0, 1.0), (1.0, 3.0)),
}

# the alphas of the benchmark's presets deck: 0.5..3 by 0.1 and 1.965..2.035 by 0.005
PRESET_ALPHAS = sorted({float(round(a, 3)) for a in (*np.linspace(0.5, 3.0, 26),
                                                    *np.linspace(1.965, 2.035, 15))})


def collinear_deck():
    """The benchmark's collinear deck: unequal-mass collinear configurations,
    n = 3..10, two draws per potential, Newton-refined to central."""
    rng = np.random.default_rng(20220713)
    out = []
    for n in range(3, 11):
        for name, terms in BENCHMARK_POTENTIALS.items():
            for _ in range(2):
                masses = rng.uniform(0.5, 2.0, n)
                guess = np.zeros(2 * n)
                guess[0::2] = np.linspace(-1.0, 1.0, n) + rng.uniform(-0.2, 0.2, n) / (n - 1)
                spec = PotentialSpec(terms)
                cfg = refine_central_configuration(BodyConfiguration(masses, guess), spec)
                out.append((f"collinear n={n} {name}", cfg, spec))
    return out


def rings(ns=(3, 5, 8, 12), m0s=(1.0, 1e2), potentials=("r-1",)):
    """1+n rings: a central mass m0 and n unit masses on the unit circle."""
    out = []
    for n in ns:
        ang = 2.0 * np.pi * np.arange(n) / n
        q = np.vstack([[0.0, 0.0], np.column_stack([np.cos(ang), np.sin(ang)])])
        for m0 in m0s:
            for name in potentials:
                # the 1/r rings keep the bare label
                label = f"1+{n} ring m0={m0}" + ("" if name == "r-1" else f" {name}")
                out.append((label,
                            BodyConfiguration(np.r_[m0, np.ones(n)], q.ravel()),
                            PotentialSpec(BENCHMARK_POTENTIALS[name])))
    return out


def random_draws():
    """Newton-refined central configurations from random unequal masses and
    positions, n = 3..7, eight draws each, the potentials in turn; the one
    draw from which the refinement finds no configuration is left out."""
    rng = np.random.default_rng(20221031)
    out = []
    for n in range(3, 8):
        for k in range(8):
            name = list(BENCHMARK_POTENTIALS)[k % 4]
            spec = PotentialSpec(BENCHMARK_POTENTIALS[name])
            masses, guess = rng.uniform(0.5, 2.0, n), rng.uniform(-1.0, 1.0, 2 * n)
            try:
                cfg = refine_central_configuration(BodyConfiguration(masses, guess), spec)
            except RefinementError:
                continue
            out.append((f"draw n={n} #{k} {name}", cfg, spec))
    return out


def lagrange_triangles():
    """Unequal-mass equilateral triangles, central under any pair potential."""
    ang = 2.0 * np.pi * np.arange(3) / 3
    q = np.column_stack([np.cos(ang), np.sin(ang)])
    out = []
    for masses in ((1.0, 2.0, 3.0), (1.0, 1.0, 5.0), (0.5, 1.0, 2.0), (1.0, 10.0, 100.0)):
        for name in ("r-1", "manev"):
            m = np.array(masses)
            cfg = BodyConfiguration(m, (q - m @ q / m.sum()).ravel())
            out.append((f"lagrange m={masses} {name}", cfg,
                        PotentialSpec(BENCHMARK_POTENTIALS[name])))
    return out


def refined_polygons():
    """Acceptance criterion 4's 25 near-regular polygons: n = 3, 4, 5 moved
    by 2% noise and Newton-refined at the polygon's moment of inertia, the
    five potentials in turn."""
    rng = np.random.default_rng(424242)
    specs = [
        PotentialSpec.manev(),
        PotentialSpec.schwarzschild(),
        PotentialSpec.homogeneous(1.0),
        PotentialSpec.homogeneous(1.5),
        PotentialSpec.homogeneous(0.8),
    ]
    out = []
    for k in range(25):
        n = (3, 4, 5)[k % 3]
        spec = specs[k % 5]
        poly = regular_polygon(n)
        noise = rng.standard_normal(2 * n)
        noise *= 0.02 / np.linalg.norm(noise)
        start = poly.with_positions(poly.positions + noise)
        refined = refine_central_configuration(
            start, spec, fix_inertia=poly.inertia
        )
        out.append((f"refined k={k} n={n} {spec.describe()}", refined, spec))
    return out


# the inputs without a dihedral group, which take the whole-space pairing
WHOLE_SPACE_DECK = (collinear_deck()
                    + rings((3, 4, 5, 6, 7, 8, 12, 16, 24), (1.0, 1e2, 1e3, 1e4, 3e4),
                            ("r-1", "schwarzschild", "r-2.5"))
                    + random_draws() + lagrange_triangles())
