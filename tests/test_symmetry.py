import dataclasses

import numpy as np
import pytest

from relequil import checks, symmetry
from relequil.central import regular_polygon
from relequil.checks import representation_matrices
from relequil.model import BodyConfiguration, Equilibrium, PotentialSpec, potential_hessian
from relequil.spectrum import block_spectrum, compare_spectra, deflated_eigenvalues
from relequil.symmetry import (
    INVARIANCE_TOL,
    J2,
    TRACE_CHECK_TOL,
    InvarianceError,
    block_symplectic,
    build_polygon_symmetry_group,
    decompose_multiplicities,
    dihedral,
    eigenvalues_by_trace_equations,
    invariance_defect,
    polygon_axis_angle,
    representation_character,
    symplectic_pairs,
)

from conftest import trace_route, trace_wave_eigs, wave_bases

SQRT3 = np.sqrt(3.0)

BENCHMARK_POTENTIALS = {
    "r-1": PotentialSpec.homogeneous(1.0),
    "r-2.5": PotentialSpec.homogeneous(2.5),
    "manev": PotentialSpec.manev(),
    "schwarzschild": PotentialSpec.schwarzschild(),
}

# the 6x6 matrices generated by the triangle group: the 2*pi/3 turn
# combined with the cyclic relabeling, and the x-axis flip fixing body 1
D_TURN_3 = np.array([
    [0, 0, 0, 0, -0.5, -SQRT3 / 2],
    [0, 0, 0, 0, SQRT3 / 2, -0.5],
    [-0.5, -SQRT3 / 2, 0, 0, 0, 0],
    [SQRT3 / 2, -0.5, 0, 0, 0, 0],
    [0, 0, -0.5, -SQRT3 / 2, 0, 0],
    [0, 0, SQRT3 / 2, -0.5, 0, 0],
])
D_FLIP_3 = np.array([
    [1, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, -1],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, -1, 0, 0],
])


class TestGroupConstruction:
    def test_triangle_group_order_and_classes(self):
        g = build_polygon_symmetry_group(3)
        assert g.order == 6
        assert len(g.conjugacy_classes) == 3

    def test_square_group_order_and_classes(self):
        g = build_polygon_symmetry_group(4)
        assert g.order == 8
        assert len(g.conjugacy_classes) == 5

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_polygon_symmetry_group(2)

    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_axis_angle(self, angle):
        # its reflections would be NaN, and so would every trace
        with pytest.raises(ValueError, match="axis_angle must be finite"):
            build_polygon_symmetry_group(4, angle)

    def test_generator_matrices_match_expected(self):
        D = representation_matrices(build_polygon_symmetry_group(3))
        # a is element 1 and r element n
        np.testing.assert_allclose(D[1], D_TURN_3, atol=1e-15)
        np.testing.assert_allclose(D[3], D_FLIP_3, atol=1e-15)

    def test_identity_maps_to_identity(self):
        D = representation_matrices(build_polygon_symmetry_group(4))
        np.testing.assert_allclose(D[0], np.eye(8))

    def test_group_fixes_polygon(self):
        for n in (3, 4, 5):
            cfg = regular_polygon(n)
            for D in representation_matrices(build_polygon_symmetry_group(n)):
                np.testing.assert_allclose(
                    D @ cfg.positions, cfg.positions, atol=1e-14
                )

    @pytest.mark.parametrize("n", range(3, 13))
    def test_closed_form_classes_match_brute_force(self, n):
        group = build_polygon_symmetry_group(n, axis_angle=0.37)
        mats = representation_matrices(group)

        def index_of(M):
            hits = [k for k, D in enumerate(mats) if np.allclose(D, M, atol=1e-12)]
            assert len(hits) == 1
            return hits[0]

        table = np.array([[index_of(A @ B) for B in mats] for A in mats])
        identity = index_of(np.eye(2 * n))
        assert identity == 0
        inverse = [index_of(A.T) for A in mats]
        classes = {tuple(sorted({int(table[table[h, i], inverse[h]])
                                 for h in range(2 * n)}))
                   for i in range(2 * n)}
        expected = sorted(classes, key=lambda cl: (cl != (identity,), len(cl), cl))
        assert group.conjugacy_classes == tuple(expected)

    def test_rotated_axis_group_fixes_rotated_polygon(self):
        cfg = regular_polygon(5).rotated(0.37)
        base = np.arctan2(cfg.points[0, 1], cfg.points[0, 0])
        group = build_polygon_symmetry_group(5, axis_angle=base)
        for D in representation_matrices(group):
            np.testing.assert_allclose(D @ cfg.positions, cfg.positions, atol=1e-13)

    @pytest.mark.parametrize("n", [129, 200])
    def test_large_polygons_build(self, n):
        # the rotations are built in closed form; a product of n - 1 turns
        # drifts past ORTHO_TOL from n = 129
        eq = Equilibrium(regular_polygon(n), PotentialSpec.homogeneous(1.0))
        assert eq.config.group.order == 2 * n
        _, multiset = eigenvalues_by_trace_equations(eq.H, eq.config.group, eq.wave_spectrum.lam)
        assert multiset.size == 2 * n


class TestHomomorphismCheck:
    """The selfcheck's check_homomorphism on groups broken in one array: a
    wrong reflection row breaks the presentation, a moved element the
    classes; each detail names its half."""

    @staticmethod
    def _check(monkeypatch, damage):
        monkeypatch.setattr(checks, "build_polygon_symmetry_group",
                            lambda n: damage(build_polygon_symmetry_group(n)))
        _, passed, detail = checks.check_homomorphism()
        worst = float(detail.split()[2].rstrip(","))
        return passed, worst, detail

    def test_intact_group_passes(self, monkeypatch):
        passed, worst, detail = self._check(monkeypatch, lambda group: group)
        assert passed and worst <= 1e-13 and detail.endswith("classes ok")

    def test_permuted_reflection_row_fails(self, monkeypatch):
        def damage(group):
            perms = group.perms.copy()
            row = perms[group.n + 1]        # a r
            row[[0, 1]] = row[[1, 0]]
            return dataclasses.replace(group, perms=perms)

        passed, worst, _ = self._check(monkeypatch, damage)
        assert not passed and worst >= 1.0

    def test_element_moved_to_another_class_fails(self, monkeypatch):
        def damage(group):
            # a leaves {a, a^-1} for the last class, of reflections
            *rest, last = [tuple(i for i in cl if i != 1) for cl in group.conjugacy_classes]
            return dataclasses.replace(group, conjugacy_classes=(*rest, (*last, 1)))

        passed, worst, detail = self._check(monkeypatch, damage)
        assert not passed and worst <= 1e-13 and detail.endswith("classes BROKEN")


class TestCharacters:
    def test_triangle_table(self):
        group = build_polygon_symmetry_group(3)
        table = dihedral(3)
        assert table.names == ("A1", "A2", "E1")
        assert tuple(table.degrees) == (1, 1, 2)
        # trivial row all ones
        np.testing.assert_allclose(table.characters[0], 1.0)
        # the 2-dim character takes -1 on the rotation class
        rot_col = [
            c for c, cl in enumerate(group.conjugacy_classes)
            if cl[0] < group.n and len(cl) == 2
        ][0]
        assert table.characters[2][rot_col] == pytest.approx(-1.0)

    def test_square_table_degrees(self):
        table = dihedral(4)
        assert tuple(table.degrees) == (1, 1, 1, 1, 2)
        assert sum(d * d for d in table.degrees) == 8

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_orthonormality(self, n):
        table = dihedral(n)
        chars, k = table.characters, len(table.names)
        gram = np.array([
            [np.sum(table.class_sizes * np.conj(chars[i]) * chars[j]) / (2 * n)
             for j in range(k)]
            for i in range(k)
        ])
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-12

    def test_rep_character_values(self):
        group = build_polygon_symmetry_group(3)
        chi = representation_character(group)
        # identity class carries 2n, everything else vanishes for polygons
        assert chi[0] == pytest.approx(6.0)
        np.testing.assert_allclose(chi[1:], 0.0, atol=1e-15)

    def test_multiplicities_triangle(self):
        group = build_polygon_symmetry_group(3)
        assert decompose_multiplicities(
            representation_character(group), dihedral(3)
        ) == [1, 1, 2]

    def test_multiplicities_square(self):
        group = build_polygon_symmetry_group(4)
        assert decompose_multiplicities(
            representation_character(group), dihedral(4)
        ) == [1, 1, 1, 1, 2]

    def test_non_integer_multiplicity_rejected(self):
        group = build_polygon_symmetry_group(3)
        broken = representation_character(group) + 0.5
        with pytest.raises(ValueError):
            decompose_multiplicities(broken, dihedral(3))


class TestInvariance:
    def test_hessians_invariant(self, standard_cases):
        for case in standard_cases:
            H = potential_hessian(case.configuration(), case.potential)
            group = build_polygon_symmetry_group(case.n)
            defect = invariance_defect(H, group)
            assert defect <= 1e-12, (case.name, defect)

    def test_identity_invariant(self):
        group = build_polygon_symmetry_group(4)
        defect = invariance_defect(np.eye(8), group)
        assert defect <= 1e-15 and defect == 0.0

    def test_random_symmetric_not_invariant(self, rng):
        group = build_polygon_symmetry_group(3)
        M = rng.standard_normal((6, 6))
        defect = invariance_defect(M + M.T, group)
        assert not defect <= 1e-10 and defect > 1e-2

    @pytest.mark.parametrize("n", range(3, 9))
    def test_defect_is_the_matmul_form(self, n, rng):
        # the generator bound against max |D H - H D| over every
        # representation matrix, on invariant, slightly perturbed and plainly
        # random symmetric matrices: at least that maximum, and at most
        # (floor(n/2) + 1) 2n times it
        group = build_polygon_symmetry_group(n, axis_angle=0.2 * n)
        M = _group_averaged(rng, group)
        E = rng.standard_normal(M.shape)
        H = potential_hessian(regular_polygon(n).rotated(0.2 * n), PotentialSpec.manev())
        D = representation_matrices(group)
        for A in (M, M + 1e-9 * (E + E.T), E + E.T, H):
            expected = float(np.max(np.abs(D @ A - A @ D)))
            defect = invariance_defect(A, group)
            slack = 8 * np.finfo(float).eps * np.max(np.abs(A))
            assert expected <= defect + slack
            assert defect <= (n // 2 + 1) * 2 * n * expected + slack

    @pytest.mark.parametrize("n", [16, 24])
    def test_bound_covers_the_longest_word(self, n):
        # H = diag(h_i I2) with h_i = min(i, n - i) commutes with r, and a^k
        # moves it by |h_{i-k} - h_i| <= k: the half turn reaches n/2, past
        # |E_a|_F + |E_r|_F = sqrt(2n), so the floor(n/2) factor is needed
        h = np.minimum(np.arange(n), n - np.arange(n)).astype(float)
        H = np.diag(np.repeat(h, 2))
        group = build_polygon_symmetry_group(n)
        D = representation_matrices(group)
        expected = float(np.max(np.abs(D @ H - H @ D)))
        defect = invariance_defect(H, group)
        assert expected == pytest.approx(n // 2, rel=1e-12)
        assert expected > np.sqrt(2 * n)
        assert expected <= defect

    @pytest.mark.parametrize("n", range(3, 9))
    def test_one_generator_is_not_enough(self, n, rng):
        # averaged over the rotations only, a matrix commutes with a but not
        # with r; averaged over {e, r} only, with r but not with a: the
        # default gate rejects both
        group = build_polygon_symmetry_group(n, axis_angle=0.2 * n)
        mats = representation_matrices(group)
        M = rng.standard_normal((2 * n, 2 * n))
        M = M + M.T
        for subgroup in (mats[:n], [mats[0], mats[n]]):
            A = sum(D @ M @ D.T for D in subgroup) / len(subgroup)
            defect = invariance_defect(A, group)
            assert not defect <= 1e-8 * np.max(np.abs(A)), defect
            with pytest.raises(InvarianceError):
                trace_route(A, group)


def _class_of(group):
    return {idx: c for c, cl in enumerate(group.conjugacy_classes) for idx in cl}


def _reference_projectors(group, table):
    """P_i = (d_i/|G|) sum_g chi_i(g) D(g), one per irreducible, summed over
    the 2n x 2n representation matrices as the projector route did."""
    n, class_of = group.n, _class_of(group)
    mats = representation_matrices(group)
    return [table.degrees[i] / group.order
            * sum(table.characters[i][class_of[k]] * D for k, D in enumerate(mats))
            for i in range(len(table.names))]


def _reference_trace_route(H, group):
    """Per-irreducible eigenvalue lists by the projector route: class-averaged
    Tr(H D(g)) from matrix products, the sums of the one-dimensional
    components from them, and eigvalsh of H on each projector's range."""
    table = dihedral(group.n)
    class_of = _class_of(group)
    sizes = np.array([len(cl) for cl in group.conjugacy_classes])
    trace_fn = np.zeros(len(group.conjugacy_classes))
    for idx, D in enumerate(representation_matrices(group)):
        trace_fn[class_of[idx]] += np.trace(H @ D)
    trace_fn /= sizes
    mult = decompose_multiplicities(representation_character(group), table)
    out = []
    for i, P in enumerate(_reference_projectors(group, table)):
        d, m = int(table.degrees[i]), mult[i]
        if m == 1:
            out.append([float(np.sum(sizes * np.conj(table.characters[i]) * trace_fn)
                              / group.order)])
            continue
        w, V = np.linalg.eigh(P)
        B = V[:, np.argsort(w)[::-1][: d * m]]
        w = np.linalg.eigvalsh(B.T @ H @ B)
        out.append([np.mean(w[k * d : (k + 1) * d]) for k in range(m)])
    return out


def _group_averaged(rng, group):
    mats = representation_matrices(group)
    M = rng.standard_normal((2 * group.n, 2 * group.n))
    return sum(D @ (M + M.T) @ D.T for D in mats) / len(mats)


def _wave_number_target(names, projectors, n, k):
    """The sum of the reference projectors whose range is W_k."""
    P = dict(zip(names, projectors))
    if k == 0:
        return P["A1"] + P["A2"]
    if 2 * k == n:
        return P["B1"] + P["B2"]
    return P[f"E{k}"]


class TestProjectors:
    """The isotypic projectors of the projector route, kept as the reference
    for the trace route, and the wave-number bases that replace them."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_algebra(self, n):
        group = build_polygon_symmetry_group(n)
        projectors = _reference_projectors(group, dihedral(group.n))
        total = sum(projectors)
        np.testing.assert_allclose(total, np.eye(2 * n), atol=1e-12)
        for i, P in enumerate(projectors):
            np.testing.assert_allclose(P, P.T, atol=1e-12)
            for j, Q in enumerate(projectors):
                expected = P if i == j else np.zeros_like(P)
                np.testing.assert_allclose(P @ Q, expected, atol=1e-11)

    def test_triangle_ranks(self):
        group = build_polygon_symmetry_group(3)
        ranks = [round(np.trace(P))
                 for P in _reference_projectors(group, dihedral(group.n))]
        assert ranks == [1, 1, 4]
        # A1 + A2 is wave number 0 and E1 wave number 1
        dims = [W.shape[1] for W in wave_bases(group.vertices())[:2]]
        assert dims == [ranks[0] + ranks[1], ranks[2]]

    def test_trivial_component_is_configuration_direction(self, triangle):
        group = build_polygon_symmetry_group(3)
        P0 = _reference_projectors(group, dihedral(group.n))[0]
        z = triangle.positions
        np.testing.assert_allclose(P0 @ z, z, atol=1e-13)
        W0 = wave_bases(group.vertices())[0]
        np.testing.assert_allclose(W0 @ (W0.T @ z), z, atol=1e-13)

    def test_commute_with_invariant_matrix(self, rng):
        group = build_polygon_symmetry_group(4)
        M = _group_averaged(rng, group)
        for P in _reference_projectors(group, dihedral(group.n)):
            assert np.max(np.abs(P @ M - M @ P)) <= 1e-11 * np.max(np.abs(M))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_wave_number_bases_are_projector_ranges(self, n):
        # each W_k is fixed by the projector of its irreducibles, and the
        # bases together are an orthonormal basis of R^{2n}
        group = build_polygon_symmetry_group(n, axis_angle=0.7)
        table = dihedral(n)
        projectors = _reference_projectors(group, table)
        bases = wave_bases(group.vertices())
        for k, W in enumerate(bases):
            P = _wave_number_target(table.names, projectors, n, k)
            np.testing.assert_allclose(P @ W, W, rtol=0, atol=1e-13, err_msg=str(k))
        V = np.column_stack(bases)
        assert V.shape == (2 * n, 2 * n)
        np.testing.assert_allclose(V.T @ V, np.eye(2 * n), rtol=0, atol=1e-14)


class TestAgainstProjectorRoute:
    """The trace route reads traces off H's body blocks and resolves E_j on
    the wave-number bases; its per-irreducible eigenvalues must equal the
    projector route's to 1e-12 (1 + max |H|)."""

    @staticmethod
    def _assert_same(H, group):
        new = [c["eigenvalues"] for c in trace_route(H, group)[0]]
        ref = _reference_trace_route(H, group)
        assert [len(v) for v in new] == [len(v) for v in ref]
        np.testing.assert_allclose(np.concatenate(new), np.concatenate(ref), rtol=0,
                                   atol=1e-12 * (1.0 + np.max(np.abs(H))))

    def test_presets(self, standard_cases):
        for case in standard_cases:
            eq = Equilibrium(case.configuration(), case.potential)
            self._assert_same(eq.H, eq.config.group)

    @pytest.mark.parametrize("n", [*range(3, 25), 32, 48, 64])
    def test_polygons(self, n):
        cfg = regular_polygon(n, radius=1.3).rotated(0.7)
        group = build_polygon_symmetry_group(n, axis_angle=polygon_axis_angle(cfg))
        for mass in (1.0, 2.5):
            cfg = BodyConfiguration(np.full(n, mass), cfg.positions)
            for spec in BENCHMARK_POTENTIALS.values():
                self._assert_same(potential_hessian(cfg, spec), group)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_random_invariant_matrices(self, n, rng):
        group = build_polygon_symmetry_group(n, axis_angle=0.3 * n)
        for _ in range(5):
            self._assert_same(_group_averaged(rng, group), group)


class TestTraceEquations:
    def test_triangle_homogeneous(self, triangle):
        for alpha in (0.6, 1.0, 1.7, 2.4):
            spec = PotentialSpec.homogeneous(alpha)
            H = potential_hessian(triangle, spec)
            group = build_polygon_symmetry_group(3)
            components, _ = trace_route(H, group)
            w2 = 3.0 ** (-alpha / 2.0) * alpha
            lists = [c["eigenvalues"] for c in components]
            assert lists[0][0] == pytest.approx(w2 * (1.0 + alpha), rel=1e-12)
            assert lists[1][0] == pytest.approx(-w2, rel=1e-12)
            np.testing.assert_allclose(
                sorted(lists[2]), [0.0, 0.5 * w2 * alpha], atol=1e-12
            )

    def test_matches_direct_diagonalization(self, standard_cases):
        for case in standard_cases:
            H = potential_hessian(case.configuration(), case.potential)
            group = build_polygon_symmetry_group(case.n)
            _, multiset = trace_route(H, group)
            direct = np.sort(np.linalg.eigvalsh(H))
            np.testing.assert_allclose(
                multiset, direct,
                atol=1e-9 * (1 + np.max(np.abs(direct))),
            )

    def test_scalar_matrix(self):
        group = build_polygon_symmetry_group(3)
        components, _ = trace_route(2.5 * np.eye(6), group)
        for comp in components:
            for lam in comp["eigenvalues"]:
                assert lam == pytest.approx(2.5, rel=1e-13)

    def test_random_invariant_matrices(self, rng):
        for n in (3, 4):
            group = build_polygon_symmetry_group(n)
            mats = representation_matrices(group)
            for _ in range(25):
                M = rng.standard_normal((2 * n, 2 * n))
                M = sum(D @ (M + M.T) @ D.T for D in mats)
                _, multiset = trace_route(M, group)
                direct = np.sort(np.linalg.eigvalsh(M))
                np.testing.assert_allclose(
                    multiset, direct,
                    atol=1e-9 * (1 + np.max(np.abs(direct))),
                )

    def test_rejects_noninvariant(self, rng):
        group = build_polygon_symmetry_group(3)
        M = rng.standard_normal((6, 6))
        with pytest.raises(InvarianceError):
            trace_route(M + M.T, group)

    @staticmethod
    def _figures(message):
        """The two numbers of a failure message: its value and its bound."""
        return [float(x.rstrip(",")) for x in message.split() if x[:1].isdigit()][-2:]

    def test_gate_names_its_defect_and_bound(self, rng):
        group = build_polygon_symmetry_group(3)
        M = rng.standard_normal((6, 6))
        M = M + M.T
        with pytest.raises(InvarianceError, match="invariance defect") as err:
            trace_route(M, group)
        defect, bound = self._figures(str(err.value))
        assert defect == pytest.approx(invariance_defect(M, group), rel=1e-3)
        assert bound == pytest.approx(INVARIANCE_TOL * np.max(np.abs(M)), rel=1e-3)
        assert defect > bound

    @staticmethod
    def _plant(H, group, k, shift):
        """The wave-number eigenvalues of H with ``shift`` planted into those
        of K_k, as the trace route and the blocks would share them."""
        wave_eigs = trace_wave_eigs(H, group)
        wave_eigs[k] += shift
        return wave_eigs

    def test_trace_sum_check_names_its_offset_and_bound(self):
        # K_2 + delta I moves the sum of its two eigenvalues by 2 delta
        H = potential_hessian(regular_polygon(5), PotentialSpec.manev())
        group, delta = build_polygon_symmetry_group(5), 1e-6
        total = sum(trace_route(H, group)[0][-1]["eigenvalues"])
        planted = self._plant(H, group, 2, [delta, delta])
        with pytest.raises(InvarianceError, match="component E2: .* trace-equation sum") as err:
            eigenvalues_by_trace_equations(H, group, planted)
        off, bound = self._figures(str(err.value))
        assert off == pytest.approx(2 * delta, rel=1e-3)
        assert bound == pytest.approx(TRACE_CHECK_TOL * (1.0 + abs(total)), rel=1e-3)

    def test_nan_in_the_matrix_fails_the_gate(self):
        # a NaN compares false with any bound, so the gate must fail on it
        # rather than pass it on to eigvalsh
        H = potential_hessian(regular_polygon(4), PotentialSpec.manev())
        group = build_polygon_symmetry_group(4)
        wave_eigs = trace_wave_eigs(H, group)
        H = H.copy()
        H[2, 3] = np.nan
        with pytest.raises(InvarianceError, match="invariance defect nan"):
            eigenvalues_by_trace_equations(H, group, wave_eigs)

    def test_nan_wave_number_eigenvalue_fails_the_trace_sum_check(self):
        H = potential_hessian(regular_polygon(5), PotentialSpec.manev())
        group = build_polygon_symmetry_group(5)
        planted = self._plant(H, group, 1, [np.nan, 0.0])
        with pytest.raises(InvarianceError, match="component E1: .* nan off the trace"):
            eigenvalues_by_trace_equations(H, group, planted)

    def test_direct_check_names_its_distance_and_bound(self):
        # moving the eigenvalues of K_1 by -delta and +delta keeps their sum,
        # so only the check against a direct eigvalsh sees it
        H = potential_hessian(regular_polygon(5), PotentialSpec.manev())
        group, delta = build_polygon_symmetry_group(5), 1e-6
        planted = self._plant(H, group, 1, [-delta, delta])
        with pytest.raises(InvarianceError, match="direct diagonalization") as err:
            eigenvalues_by_trace_equations(H, group, planted)
        distance, bound = self._figures(str(err.value))
        assert distance == pytest.approx(delta, rel=1e-3)
        assert bound == pytest.approx(TRACE_CHECK_TOL * (np.max(np.abs(H)) + 1.0), rel=1e-3)

    def test_eigenvalue_conjugation_invariance(self, triangle):
        spec = PotentialSpec.manev()
        H = potential_hessian(triangle, spec)
        group = build_polygon_symmetry_group(3)
        base = np.sort(np.linalg.eigvalsh(H))
        for D in representation_matrices(group):
            conj = np.sort(np.linalg.eigvalsh(D @ H @ D.T))
            np.testing.assert_allclose(conj, base, atol=1e-12)


class TestJPairs:
    def test_triangle_pairs(self, triangle):
        spec = PotentialSpec.homogeneous(1.0)
        H = potential_hessian(triangle, spec)
        pairs, rests = symplectic_pairs(H)
        assert len(pairs) == 3 and rests == []
        Jh = block_symplectic(3)
        J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for p in pairs:
            V = np.column_stack([p.v1, p.v2])
            np.testing.assert_allclose(Jh @ V, V @ J2, atol=1e-10)
            np.testing.assert_allclose(H @ p.v1, p.lam1 * p.v1, atol=1e-10)
            np.testing.assert_allclose(H @ p.v2, p.lam2 * p.v2, atol=1e-10)
        # the configuration/rotation cross pair exists
        w2 = 3.0 ** -0.5
        assert any(
            {round(p.lam1, 9), round(p.lam2, 9)}
            == {round(-w2, 9), round(2 * w2, 9)}
            for p in pairs
        )
        # the translation pair carries a double zero
        assert any(abs(p.lam1) < 1e-12 and abs(p.lam2) < 1e-12 for p in pairs)

    def test_square_equal_eigenvalue_pair(self, square):
        spec = PotentialSpec.homogeneous(1.0)
        H = potential_hessian(square, spec)
        pairs, rests = symplectic_pairs(H)
        assert len(pairs) == 4 and rests == []
        lam6 = 2.0 ** -0.5  # doubled eigenvalue of the essential component
        matches = [p for p in pairs
                   if abs(p.lam1 - lam6) < 1e-9 and abs(p.lam2 - lam6) < 1e-9]
        assert len(matches) == 1
        # its plane is the alternating-pattern component
        u7 = np.array([1.0, 0, -1, 0, 1, 0, -1, 0]) / 2.0
        v = matches[0].v1
        span = np.column_stack([matches[0].v1, matches[0].v2])
        proj = span @ (span.T @ u7)
        np.testing.assert_allclose(proj, u7, atol=1e-10)

    def test_all_six_cases_pair_fully(self, standard_cases):
        for case in standard_cases:
            H = potential_hessian(case.configuration(), case.potential)
            pairs, rests = symplectic_pairs(H)
            assert len(pairs) == case.n and rests == [], case.name

    @staticmethod
    def _assert_same_blocks(H, pairs, rests, planes, omega=1.0):
        # each coupled basis is an invariant subspace of H and Jhat, and the
        # blocks' first-order spectrum is that of one 4x4 block per plane
        # (lam1, lam2) in which Jhat acts as J2
        Jh = block_symplectic(H.shape[0] // 2)
        for V in rests:
            for M in (H, Jh):
                defect = np.linalg.norm(M @ V - V @ (V.T @ M @ V), 2)
                assert defect <= 1e-12 * np.linalg.norm(M, 2)
        got = [block_spectrum(omega, p.lam1, p.lam2) for p in pairs]
        got += [deflated_eigenvalues(omega ** 2, omega, V.T @ H @ V, V.T @ Jh @ V,
                                     np.zeros((V.shape[1], 0)), None, 0.0)
                for V in rests]
        want = [block_spectrum(omega, a, b) for a, b in planes]
        match = compare_spectra(np.concatenate(got), np.concatenate(want), tol=1e-12)
        assert match.matches, match.max_distance

    @pytest.mark.parametrize(
        "n, rotated", [(2, False), (3, False), (3, True), (4, True)],
        ids=["identity-2", "identity-3", "unitary-3", "unitary-4"],
    )
    def test_invariant_cluster_stays_one_block(self, n, rotated):
        # a cluster that Jhat keeps invariant, of dimension 2n (2.5 I) or
        # 2n - 2 (conjugated by the real form of a random unitary, which
        # commutes with Jhat), is a sum of n or n - 1 planes (2.5, 2.5);
        # it is not split into them but solved as one coupled block
        lams = np.full(n, 2.5)
        U = np.eye(2 * n)
        if rotated:
            lams[-1] = 4.0
            Z = np.random.default_rng(n).standard_normal((n, 2 * n)).view(complex)
            W = np.linalg.qr(Z)[0]
            U = np.kron(W.real, np.eye(2)) + np.kron(W.imag, J2.T)
        H = U @ np.diag(np.repeat(lams, 2)) @ U.T
        pairs, rests = symplectic_pairs(H)
        assert [V.shape[1] for V in rests] == [2 * n - 2 * rotated]
        assert len(pairs) == rotated
        for p in pairs:
            assert p.lam1 == pytest.approx(4.0) and p.lam2 == pytest.approx(4.0)
            np.testing.assert_allclose(H @ p.v1, 4.0 * p.v1, atol=1e-13)
            np.testing.assert_allclose(H @ p.v2, 4.0 * p.v2, atol=1e-13)
        self._assert_same_blocks(H, pairs, rests, [(lam, lam) for lam in lams])

    @pytest.mark.parametrize("angle", [0.0, 0.3], ids=["axes", "rotated"])
    def test_cluster_linked_to_two_smaller_clusters_stays_one_block(self, angle):
        # the lam = 1 cluster span{e1, e3} holds the planes (1, 2) with {e2}
        # and (1, 3) with {e4}; Jhat links all three clusters, and they are
        # solved as one coupled block of dimension 4
        c, s = np.cos(angle), np.sin(angle)
        R = np.eye(4)
        R[np.ix_([0, 2], [0, 2])] = [[c, -s], [s, c]]
        H = R @ np.diag([1.0, 2.0, 1.0, 3.0]) @ R.T
        pairs, rests = symplectic_pairs(H)
        assert pairs == [] and [V.shape[1] for V in rests] == [4]
        self._assert_same_blocks(H, pairs, rests, [(1.0, 2.0), (1.0, 3.0)])

    @pytest.mark.parametrize("tilt, n_pairs", [(1e-11, 2), (1e-9, 0)])
    def test_near_pair_fails_the_residual_test(self, tilt, n_pairs):
        # the planes span{e1, e2} and span{e3, e4}, each a pair, with the
        # eigenvectors of 2 and 3 turned by tilt between e2 and e3: Jhat
        # links e1 to e3 and e4 to e2 only by tilt, below COUPLE_TOL, so
        # both components have dimension 2.  -Jhat v1 strays tilt from its
        # eigenvector, which passes the residual test of PAIR_TOL |H| = 4e-10
        # at 1e-11 and fails it at 1e-9
        c, s = np.cos(tilt), np.sin(tilt)
        Q = np.eye(4)
        Q[1:3, 1:3] = [[c, -s], [s, c]]
        H = Q @ np.diag([1.0, 2.0, 3.0, 4.0]) @ Q.T
        pairs, rests = symplectic_pairs(H)
        assert len(pairs) == n_pairs
        assert [V.shape[1] for V in rests] == [2] * (2 - n_pairs)
        for p in pairs:
            np.testing.assert_allclose(H @ p.v1, p.lam1 * p.v1, atol=1e-10)
            np.testing.assert_allclose(H @ p.v2, p.lam2 * p.v2, atol=1e-10)

    def test_pentagon_leaves_four_dimensions(self):
        # wave number 2 of a pentagon admits no compatible pairs
        cfg = regular_polygon(5)
        H = potential_hessian(cfg, PotentialSpec.homogeneous(1.0))
        pairs, rests = symplectic_pairs(H)
        assert len(pairs) == 3 and [V.shape[1] for V in rests] == [4]

    def test_shared_eigenvalues_merge_two_wave_numbers(self):
        # the heptagon leaves wave numbers 2 and 3 over, one coupled block
        # each; given the same two eigenvalues, their clusters hold both,
        # and the leftover is one invariant block of dimension 8
        cfg = regular_polygon(7)
        H = potential_hessian(cfg, PotentialSpec.homogeneous(1.0))
        assert [V.shape[1] for V in symplectic_pairs(H)[1]] == [4, 4]
        for k in (2, 3):
            W = wave_bases(cfg.points)[k]
            U = np.linalg.eigh(W.T @ H @ W)[1]
            H += W @ (U @ np.diag([20.0, 20.0, 30.0, 30.0]) @ U.T - W.T @ H @ W) @ W.T
        H = 0.5 * (H + H.T)
        bases = symplectic_pairs(H)[1]
        assert [V.shape[1] for V in bases] == [8]
        V = bases[0]
        for M in (H, block_symplectic(7)):
            assert np.max(np.abs(M @ V - V @ (V.T @ M @ V))) <= 1e-12 * np.max(np.abs(M))

    def test_pentagon_joint_subspaces_cover(self):
        cfg = regular_polygon(5).rotated(0.4)
        H = potential_hessian(cfg, PotentialSpec.homogeneous(1.0))
        Jh = block_symplectic(5)
        bases = wave_bases(cfg.points)
        assert [V.shape[1] for V in bases] == [2, 4, 4]
        V = np.column_stack(bases)
        np.testing.assert_allclose(V.T @ V, np.eye(10), atol=1e-14)
        for W in bases:
            for M in (H, Jh):
                resid = M @ W - W @ (W.T @ M @ W)
                assert np.max(np.abs(resid)) <= 1e-13
