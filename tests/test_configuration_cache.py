"""What depends on the configuration alone is built once per configuration.

A ``BodyConfiguration`` builds its inertia, its trivial vectors T and z,
the oracle's position basis of [T, z, Jhat z] and, for an equal-mass
regular polygon, its dihedral group and wave-number stack on first use and
keeps them; the presets share one configuration per n, and a sweep of
explicit positions resolves one configuration for its whole grid.  The
cached parts must equal a build from scratch byte for byte, be read-only,
and leave every report unchanged: a warm analysis equals a cold one.
"""

import json

import numpy as np
import pytest

from relequil import model, pipeline, presets, symmetry
from relequil.central import regular_polygon
from relequil.cli import main as cli_main
from relequil.model import BodyConfiguration, Equilibrium, position_basis
from relequil.pipeline import AnalysisRequest, InputError, run_analysis, run_sweep
from relequil.presets import HOMOGENEOUS_PRESETS, PRESET_NAMES, get_case
from relequil.spectrum import deflated_eigenvalues, full_linearization_spectrum
from relequil.symmetry import (
    block_symplectic,
    build_polygon_symmetry_group,
    polygon_axis_angle,
    wave_number_stack,
)

from conftest import PRESET_ALPHAS
from test_bit_identity import _same_bytes
from test_dihedral_cache import AXIS_ANGLES
from test_spectrum import _collinear_manev

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
        J = block_symplectic(n)
        u = z / z_norm
        assert config.plane_basis is config.plane_basis
        for got, want in zip(config.plane_basis, position_basis(np.column_stack([T, u, J @ u]), J)):
            assert _same_bytes(got, want), angle


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
              "orthos": config.group.orthos, "waves": config.waves, "T": T, "z": z,
              "Q": config.plane_basis[0], "QtJQ": config.plane_basis[1]}
    for arr in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1
    assert run_analysis(AnalysisRequest(case=name, alpha=get_case(name).alpha)).matches_oracle


@pytest.mark.parametrize("name", HOMOGENEOUS_PRESETS)
def test_a_homogeneous_preset_is_built_once_per_alpha(name):
    # keyed by float(alpha): 2 and 2.0 are one case, equal to a fresh build
    builder = presets.PRESET_BUILDERS[name]
    case = get_case(name, 2)
    assert get_case(name, 2.0) is case and get_case(name, np.float64(2.0)) is case
    assert get_case(name) is get_case(name, 1.0)
    fresh = builder.__wrapped__(2.0)
    assert case == fresh and case is not fresh
    assert _same_bytes(np.array([case.omega_squared.value, case.hessian_entry[1].value]),
                       np.array([fresh.omega_squared.value, fresh.hessian_entry[1].value]))
    assert _same_bytes(np.array([rv.value for rv in case.hessian_eigenvalues]),
                       np.array([rv.value for rv in fresh.hessian_eigenvalues]))
    for alpha in (0.0, -1.0, float("nan"), float("inf"), "x"):
        with pytest.raises(InputError):
            AnalysisRequest(case=name, alpha=alpha).resolve()
        with pytest.raises(InputError):
            run_analysis(AnalysisRequest(case=name, alpha=alpha))
    assert builder.cache_info().maxsize == presets.HOMOGENEOUS_CACHE_SIZE


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


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_the_oracle_on_the_cached_basis_equals_one_built_per_call(name):
    # one deflation, in one place: the whole-space coupled blocks build the
    # basis per call, the oracle reads the configuration's
    case = get_case(name)
    eq = Equilibrium(case.configuration(), case.potential)
    per_call = deflated_eigenvalues(eq.omega2, eq.omega, eq.Hw, eq.Jh, *eq.trivial)
    assert _same_bytes(full_linearization_spectrum(eq), per_call)


def test_the_rotation_chain_never_builds_the_basis():
    # an unequal-mass collinear Manev configuration fails the plane test, so
    # its oracle deflates the rotation chain and reads no position basis
    eq = _collinear_manev()
    assert len(full_linearization_spectrum(eq)) == 12
    assert "plane_basis" not in vars(eq.config)


def test_a_sweep_of_explicit_positions_resolves_one_configuration(monkeypatch):
    counts = dict.fromkeys(("wave_number_stack", "position_basis"), 0)
    for name in counts:
        real = getattr(model, name)

        def counted(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(model, name, counted)
    request = AnalysisRequest(positions=tuple(regular_polygon(3).positions))
    grid = [0.5, 1.0, 1.5, 2.5, 3.0]
    result = run_sweep(request, grid)
    assert not result.failures
    assert counts == {"wave_number_stack": 1, "position_basis": 1}
    for alpha, report in result.reports:
        alone = run_analysis(AnalysisRequest(positions=request.positions, alpha=alpha))
        assert json.dumps(report.to_dict()) == json.dumps(alone.to_dict()), alpha


@pytest.mark.parametrize("positions, code, message", [
    ("0,0,0,0,1,0", 2, "bodies 0 and 1 coincide"),
    ("0,0,1,0,0,2", 2, "configuration is not central"),
    ("1,0,-0.5,0.8660254037844386,-0.5,-0.8660254037844386", 3, "block union vs oracle"),
], ids=["collision", "not-central", "tol"])
def test_every_point_of_a_positions_sweep_keeps_its_failure(capsys, monkeypatch, positions,
                                                           code, message):
    if code == 3:
        monkeypatch.setattr(pipeline, "COMPARE_TOL", 1e-30)
    assert cli_main(["sweep", "--positions", positions, "--grid", "1,2"]) == code
    assert capsys.readouterr().out.count(f"FAILED: {message}") == 2
