"""What depends on the configuration alone is built once per configuration.

A ``BodyConfiguration`` builds its inertia, its trivial vectors T and z,
and, for an equal-mass regular polygon, its dihedral group and wave-number
stack on first use and keeps them; the presets share one configuration per
n.  The cached parts must equal a build from scratch byte for byte, be
read-only, and leave every report unchanged: a warm analysis equals a cold
one.
"""

import numpy as np
import pytest

from relequil import presets, symmetry
from relequil.central import regular_polygon
from relequil.model import BodyConfiguration
from relequil.pipeline import AnalysisRequest, run_analysis
from relequil.presets import HOMOGENEOUS_PRESETS, PRESET_NAMES, get_case
from relequil.symmetry import (
    block_symplectic,
    build_polygon_symmetry_group,
    polygon_axis_angle,
    wave_number_stack,
)

from conftest import PRESET_ALPHAS
from test_bit_identity import _same_bytes
from test_dihedral_cache import AXIS_ANGLES

GRID = ([(name, 1.0 if name in HOMOGENEOUS_PRESETS else None) for name in PRESET_NAMES]
        + [(name, alpha) for name in HOMOGENEOUS_PRESETS for alpha in PRESET_ALPHAS])


def _clear_caches():
    presets._unit_polygon.cache_clear()
    symmetry.dihedral.cache_clear()
    block_symplectic.cache_clear()


def test_presets_share_one_configuration_per_n():
    _clear_caches()
    for name in PRESET_NAMES:
        case = get_case(name)
        assert case.configuration() is get_case(name).configuration()
        assert _same_bytes(case.configuration().positions, regular_polygon(case.n).positions)
    assert presets._unit_polygon.cache_info().currsize == 2


@pytest.mark.parametrize("name, alpha", GRID, ids=[f"{n}-{a}" for n, a in GRID])
def test_a_warm_analysis_equals_a_cold_one(name, alpha):
    request = AnalysisRequest(case=name, alpha=alpha)
    _clear_caches()
    cold = run_analysis(request).to_dict()
    assert run_analysis(request).to_dict() == cold


@pytest.mark.parametrize("n", range(3, 33))
def test_cached_parts_match_a_build_from_scratch(n):
    for angle in AXIS_ANGLES:
        config = regular_polygon(n).rotated(angle)
        base = polygon_axis_angle(config)
        group = build_polygon_symmetry_group(n, axis_angle=base)
        assert config.group is config.group and config.waves is config.waves
        for field in ("perms", "orthos"):
            assert _same_bytes(getattr(config.group, field), getattr(group, field)), angle
        assert config.group.conjugacy_classes == group.conjugacy_classes
        assert config.group.axis_angle == base
        assert _same_bytes(config.waves, wave_number_stack(group.vertices())), angle
        T, z, z_norm = config.trivial_vectors
        m = config.masses
        assert _same_bytes(T, (np.sqrt(m)[:, None, None] * np.eye(2)).reshape(-1, 2))
        assert _same_bytes(z, np.sqrt(np.repeat(m, 2)) * config.positions)
        assert z_norm == np.linalg.norm(z)
        assert config.inertia == config.pairs.inertia(config.points)


@pytest.mark.parametrize("positions, masses", [
    ((-1.0, 0.0, 0.0, 0.0, 1.0, 0.0), (1.0, 1.0, 1.0)),          # collinear
    (tuple(regular_polygon(4).positions), (1.0, 2.0, 1.0, 2.0)),   # unequal masses
    ((1.0, 0.0, -1.0, 0.0), (1.0, 1.0)),                           # two bodies
], ids=["collinear", "unequal", "n=2"])
def test_a_non_polygon_has_no_group_and_no_waves(positions, masses):
    config = BodyConfiguration(np.array(masses), np.array(positions))
    assert config.group is None and config.waves is None


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_array_of_a_shared_configuration_is_read_only(name):
    config = get_case(name).configuration()
    T, z, _ = config.trivial_vectors
    d, r = config.separations
    pairs = config.pairs
    arrays = {"masses": config.masses, "positions": config.positions, "points": config.points,
              "d": d, "r": r, "iu": pairs.iu, "ju": pairs.ju, "mm": pairs.mm,
              "pairs.masses": pairs.masses, "perms": config.group.perms,
              "orthos": config.group.orthos, "waves": config.waves, "T": T, "z": z}
    for arr in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1
    assert run_analysis(AnalysisRequest(case=name, alpha=get_case(name).alpha)).matches_oracle


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_no_eigensolve_of_an_empty_wave_number_stack(monkeypatch, name):
    # every wave number of a preset pairs, so no stacked 4x4 is left to solve
    real = np.linalg.eigvals

    def refuse_empty(a):
        assert np.size(a) > 0, "eigvals of an empty stack"
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", refuse_empty)
    data = run_analysis(AnalysisRequest(case=name, alpha=get_case(name).alpha)).to_dict()
    assert data["coupled_blocks"] == []
