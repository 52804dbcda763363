"""The per-n dihedral cache against a build from scratch.

Everything about the dihedral group of the regular n-gon but its
reflection axis depends on n alone, so ``symmetry.dihedral`` builds it
once per n and every analysis of an n-gon shares it.  The ``_reference_*``
functions below build each part per call, as the analysis did before the
cache; the cached parts must match them byte for byte, and must be
read-only, since every group of the same n shares them.
"""

import dataclasses

import numpy as np
import pytest

from relequil import symmetry
from relequil.central import regular_polygon
from relequil.model import pair_plan
from relequil.pipeline import AnalysisRequest, run_analysis, run_sweep
from relequil.symmetry import (
    DIHEDRAL_CACHE_SIZE,
    J2,
    SymmetryGroup,
    block_symplectic,
    build_polygon_symmetry_group,
    dihedral,
    reflection,
    rotation,
    wave_number_stack,
)

from test_bit_identity import _reference_block_symplectic, _same_bytes

AXIS_ANGLES = (0.0, 0.3, -1.1, 2.5)


def _reference_group(n, axis_angle):
    """(perms, orthos, classes) of the dihedral group, built per call."""
    ks = np.arange(n)
    rots = np.moveaxis(rotation(2.0 * np.pi * ks / n), -1, 0)
    orthos = np.concatenate([rots, rots @ reflection(axis_angle)])
    perms = np.concatenate([ks[:, None] + ks, ks[:, None] - ks]) % n
    refl = tuple(range(n, 2 * n))
    classes = [(0,)] + [tuple(sorted({k, n - k})) for k in range(1, n // 2 + 1)]
    classes += [refl] if n % 2 else [refl[0::2], refl[1::2]]
    classes.sort(key=lambda cl: (cl != (0,), len(cl), cl))
    return perms, orthos, tuple(classes)


def _reference_table(n, perms, classes):
    """(names, degrees, values, class_sizes) of the closed-form table."""
    reps = np.array([cl[0] for cl in classes])
    refl, k = reps >= n, perms[reps, 0]
    sign = np.where(refl, -1.0, 1.0)
    parity = np.where(k % 2, -1.0, 1.0)
    rows, names = [np.ones(reps.size), sign], ["A1", "A2"]
    if n % 2 == 0:
        rows += [parity, sign * parity]
        names += ["B1", "B2"]
    n_two_dim = (n - 1) // 2 if n % 2 else n // 2 - 1
    j = np.arange(1, n_two_dim + 1)
    rows.extend(np.where(refl, 0.0, 2.0 * np.cos(2.0 * np.pi * j[:, None] * k / n)))
    names += [f"E{i}" for i in j]
    degrees = [1] * (len(names) - n_two_dim) + [2] * n_two_dim
    sizes = np.array([len(cl) for cl in classes])
    return tuple(names), np.array(degrees), np.array(rows, dtype=float), sizes


def _reference_multiplicities(n, perms, orthos, classes, values, sizes):
    """The configuration action's multiplicities, from the group's own
    planar maps (so from its reflection axis)."""
    reps = np.array([cl[0] for cl in classes])
    fixed = np.sum(perms[reps] == np.arange(n), axis=1)
    chi = fixed * np.trace(orthos[reps], axis1=1, axis2=2)
    x = values @ (sizes * chi) / (2 * n)
    assert np.max(np.abs(x - np.round(x))) <= 1e-9
    return np.round(x).astype(int).tolist()


def _reference_wave_number_stack(points):
    q = np.asarray(points, dtype=float)
    n = q.shape[0]
    radial = q / np.hypot(q[:, 0], q[:, 1])[:, None]
    frame = np.stack([radial, radial @ J2], axis=1)
    ks = np.arange(n // 2 + 1)
    phase = 2.0 * np.pi * ks[:, None] * np.arange(n) / n
    waves = np.stack([np.cos(phase), np.sin(phase)], axis=1)
    waves[(2 * ks) % n == 0, 1] = 0.0
    norms = np.sqrt((waves * waves).sum(axis=2, keepdims=True))
    waves /= np.where(norms > 0.0, norms, 1.0)
    return (waves.transpose(0, 2, 1)[:, :, None, :, None]
            * frame.transpose(0, 2, 1)[None, :, :, None, :]).reshape(ks.size, 2 * n, 4)


def _cached_arrays(n, group):
    """Every array that an analysis of the n-gon shares with the cache."""
    entry = dihedral(n)
    return {
        "perms": entry.perms, "orthos": entry.orthos, "class_of": entry.class_of,
        "gathers": entry.gathers, "wave_dims": entry.wave_dims, "patterns": entry.patterns,
        "degrees": entry.degrees, "characters": entry.characters,
        "class_sizes": entry.class_sizes, "element_characters": entry.element_characters,
        "degree_repeats": entry.degree_repeats,
        "group.perms": group.perms,
        "group.orthos": group.orthos, "block_symplectic": block_symplectic(n),
        **{f"pair_plan.{name}": a for name, a in pair_plan(n)._asdict().items()},
    }


@pytest.mark.parametrize("n", range(3, 33))
def test_cached_build_matches_a_build_from_scratch(n):
    assert dihedral(n) is dihedral(n)
    for angle in AXIS_ANGLES:
        group = build_polygon_symmetry_group(n, axis_angle=angle)
        perms, orthos, classes = _reference_group(n, angle)
        assert _same_bytes(group.perms, perms), angle
        assert _same_bytes(group.orthos, orthos), angle
        assert group.conjugacy_classes == classes, angle
        class_of = np.empty(2 * n, dtype=int)
        for c, cl in enumerate(classes):
            class_of[list(cl)] = c
        assert _same_bytes(dihedral(n).class_of, class_of)

        table = dihedral(n)
        names, degrees, values, sizes = _reference_table(n, perms, classes)
        assert table.names == names and table.class_sizes.sum() == 2 * n
        for got, want in ((table.degrees, degrees), (table.characters, values),
                          (table.class_sizes, sizes)):
            assert _same_bytes(got, want), angle
        assert (list(table.multiplicities)
                == _reference_multiplicities(n, perms, orthos, classes, values, sizes))

        assert _same_bytes(table.wave_dims, np.where((2 * np.arange(n // 2 + 1)) % n == 0, 2, 4))
        vertices = group.vertices()
        assert _same_bytes(wave_number_stack(vertices),
                           _reference_wave_number_stack(vertices)), angle
    assert _same_bytes(block_symplectic(n), _reference_block_symplectic(n))


# the fields of a group that depend on n alone
PER_N_FIELDS = ("perms", "conjugacy_classes", "class_of", "names", "degrees", "characters",
                "class_sizes", "multiplicities", "gathers", "wave_dims", "patterns",
                "element_characters", "component_slices", "degree_repeats")


@pytest.mark.parametrize("n", range(3, 33))
def test_trace_tables_equal_their_per_call_expressions(n):
    # the trace equations once rebuilt these on every call
    group = dihedral(n)
    assert _same_bytes(group.element_characters, group.characters[:, group.class_of])
    assert _same_bytes(group.degree_repeats, np.repeat(group.degrees, group.multiplicities))
    values = np.random.default_rng(n).standard_normal(sum(group.multiplicities))
    split = np.split(values, np.cumsum(group.multiplicities)[:-1])
    assert len(group.component_slices) == len(split) == len(group.names)
    for s, part in zip(group.component_slices, split):
        assert _same_bytes(values[s], part)


@pytest.mark.parametrize("n", range(3, 33))
def test_every_group_shares_the_cached_fields(n):
    cached = dihedral(n)
    assert isinstance(cached, SymmetryGroup) and cached.axis_angle == 0.0
    assert cached.multiplicities == tuple(cached.degrees)
    assert {f.name for f in dataclasses.fields(SymmetryGroup)} == {
        *PER_N_FIELDS, "orthos", "axis_angle"}
    for angle in AXIS_ANGLES:
        group = build_polygon_symmetry_group(n, axis_angle=angle)
        assert group.axis_angle == angle
        for name in PER_N_FIELDS:
            assert getattr(group, name) is getattr(cached, name), (angle, name)
        assert _same_bytes(group.orthos[:n], cached.orthos[:n]), angle


@pytest.mark.parametrize("n", [3, 4, 7, 24])
def test_every_cached_array_is_read_only(n):
    for angle in AXIS_ANGLES:
        group = build_polygon_symmetry_group(n, axis_angle=angle)
        for arr in _cached_arrays(n, group).values():
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1


def test_a_sweep_builds_its_group_once_and_equals_cold_runs():
    grid = [0.5, 1.0, 1.5, 2.0, 3.0]
    symmetry.dihedral.cache_clear()
    result = run_sweep(AnalysisRequest(case="triangle-homogeneous"), grid)
    assert not result.failures
    assert symmetry.dihedral.cache_info().misses == 1
    for alpha, report in result.reports:
        symmetry.dihedral.cache_clear()
        block_symplectic.cache_clear()
        cold = run_analysis(AnalysisRequest(case="triangle-homogeneous", alpha=alpha))
        assert report.to_dict() == cold.to_dict(), alpha


def test_more_polygons_than_the_bound_stay_within_it():
    # the benchmark's polygons n = 3..24 stay cached through a whole pass
    assert DIHEDRAL_CACHE_SIZE >= 22
    symmetry.dihedral.cache_clear()
    block_symplectic.cache_clear()
    sizes = range(3, 3 + DIHEDRAL_CACHE_SIZE + 4)
    for n in sizes:
        report = run_analysis(AnalysisRequest(positions=tuple(regular_polygon(n).positions),
                                              alpha=1.0))
        assert report.matches_oracle, n
        assert symmetry.dihedral.cache_info().currsize <= DIHEDRAL_CACHE_SIZE
        assert block_symplectic.cache_info().currsize <= DIHEDRAL_CACHE_SIZE
        assert pair_plan.cache_info().currsize <= DIHEDRAL_CACHE_SIZE
    info = symmetry.dihedral.cache_info()
    assert info.misses == len(sizes) and info.currsize == DIHEDRAL_CACHE_SIZE
