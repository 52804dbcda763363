import numpy as np
import pytest

from relequil.central import regular_polygon
from relequil.model import PotentialSpec, potential_hessian
from relequil.symmetry import (
    J2,
    InvarianceError,
    PairingError,
    block_symplectic,
    build_polygon_symmetry_group,
    character_table,
    decompose_multiplicities,
    eigenvalues_by_trace_equations,
    isotypic_projectors,
    j_compatible_pairs,
    representation_character,
    representation_matrix,
    symplectic_pairs,
    verify_invariance,
    wave_number_basis,
)

SQRT3 = np.sqrt(3.0)

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

    def test_generator_matrices_match_expected(self):
        g = build_polygon_symmetry_group(3)
        by_name = {e.name: e for e in g.elements}
        np.testing.assert_allclose(
            representation_matrix(by_name["a1"], 3), D_TURN_3, atol=1e-15
        )
        np.testing.assert_allclose(
            representation_matrix(by_name["r"], 3), D_FLIP_3, atol=1e-15
        )

    def test_identity_maps_to_identity(self):
        g = build_polygon_symmetry_group(4)
        e = g.elements[g.identity_index]
        np.testing.assert_allclose(representation_matrix(e, 4), np.eye(8))

    def test_group_fixes_polygon(self):
        for n in (3, 4, 5):
            cfg = regular_polygon(n)
            group = build_polygon_symmetry_group(n)
            for el in group.elements:
                D = representation_matrix(el, n)
                np.testing.assert_allclose(
                    D @ cfg.positions, cfg.positions, atol=1e-14
                )

    def test_homomorphism(self):
        for n in (3, 4, 5, 6):
            group = build_polygon_symmetry_group(n)
            mats = [representation_matrix(g, n) for g in group.elements]
            for i in range(group.order):
                for j in range(group.order):
                    k = group.multiplication_table[i, j]
                    assert np.max(np.abs(mats[i] @ mats[j] - mats[k])) <= 1e-13

    @pytest.mark.parametrize("n", range(3, 13))
    def test_closed_form_table_and_classes_match_brute_force(self, n):
        group = build_polygon_symmetry_group(n, axis_angle=0.37)
        mats = [representation_matrix(g, n) for g in group.elements]

        def index_of(M):
            hits = [k for k, D in enumerate(mats) if np.allclose(D, M, atol=1e-12)]
            assert len(hits) == 1
            return hits[0]

        table = np.array([[index_of(A @ B) for B in mats] for A in mats])
        np.testing.assert_array_equal(group.multiplication_table, table)
        identity = index_of(np.eye(2 * n))
        assert identity == group.identity_index == 0
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
        for el in group.elements:
            D = representation_matrix(el, 5)
            np.testing.assert_allclose(D @ cfg.positions, cfg.positions, atol=1e-13)

    def test_representation_size_mismatch(self):
        g = build_polygon_symmetry_group(3)
        with pytest.raises(ValueError):
            representation_matrix(g.elements[0], 4)


class TestCharacters:
    def test_triangle_table(self):
        group = build_polygon_symmetry_group(3)
        table = character_table(group)
        assert table.names == ("A1", "A2", "E1")
        assert tuple(table.degrees) == (1, 1, 2)
        # trivial row all ones
        np.testing.assert_allclose(table.values[0], 1.0)
        # the 2-dim character takes -1 on the rotation class
        rot_col = [
            c for c, cl in enumerate(group.conjugacy_classes)
            if not group.elements[cl[0]].is_reflection and len(cl) == 2
        ][0]
        assert table.values[2][rot_col] == pytest.approx(-1.0)

    def test_square_table_degrees(self):
        table = character_table(build_polygon_symmetry_group(4))
        assert tuple(table.degrees) == (1, 1, 1, 1, 2)
        assert sum(d * d for d in table.degrees) == 8

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_orthonormality(self, n):
        table = character_table(build_polygon_symmetry_group(n))
        k = table.n_irreps
        gram = np.array([
            [table.inner(table.values[i], table.values[j]) for j in range(k)]
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
        table = character_table(group)
        assert decompose_multiplicities(
            representation_character(group), table
        ) == [1, 1, 2]

    def test_multiplicities_square(self):
        group = build_polygon_symmetry_group(4)
        table = character_table(group)
        assert decompose_multiplicities(
            representation_character(group), table
        ) == [1, 1, 1, 1, 2]

    def test_non_integer_multiplicity_rejected(self):
        group = build_polygon_symmetry_group(3)
        table = character_table(group)
        broken = representation_character(group) + 0.5
        with pytest.raises(ValueError):
            decompose_multiplicities(broken, table)


class TestInvariance:
    def test_hessians_invariant(self, standard_cases):
        for case in standard_cases:
            H = potential_hessian(case.configuration(), case.potential)
            group = build_polygon_symmetry_group(case.n)
            ok, defect = verify_invariance(H, group, tol=1e-12)
            assert ok, (case.name, defect)

    def test_identity_invariant(self):
        group = build_polygon_symmetry_group(4)
        ok, defect = verify_invariance(np.eye(8), group, tol=1e-15)
        assert ok and defect == 0.0

    def test_random_symmetric_not_invariant(self, rng):
        group = build_polygon_symmetry_group(3)
        M = rng.standard_normal((6, 6))
        ok, defect = verify_invariance(M + M.T, group, tol=1e-10)
        assert not ok and defect > 1e-2


class TestProjectors:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_algebra(self, n, rng):
        group = build_polygon_symmetry_group(n)
        table = character_table(group)
        projectors = isotypic_projectors(group, table, n)
        total = sum(projectors)
        np.testing.assert_allclose(total, np.eye(2 * n), atol=1e-12)
        for i, P in enumerate(projectors):
            np.testing.assert_allclose(P, P.T, atol=1e-12)
            for j, Q in enumerate(projectors):
                expected = P if i == j else np.zeros_like(P)
                np.testing.assert_allclose(P @ Q, expected, atol=1e-11)

    def test_triangle_ranks(self):
        group = build_polygon_symmetry_group(3)
        table = character_table(group)
        ranks = [round(np.trace(P)) for P in isotypic_projectors(group, table, 3)]
        assert ranks == [1, 1, 4]

    def test_trivial_component_is_configuration_direction(self, triangle):
        group = build_polygon_symmetry_group(3)
        table = character_table(group)
        P0 = isotypic_projectors(group, table, 3)[0]
        z = triangle.positions
        np.testing.assert_allclose(P0 @ z, z, atol=1e-13)

    def test_commute_with_invariant_matrix(self, rng):
        n = 4
        group = build_polygon_symmetry_group(n)
        table = character_table(group)
        mats = [representation_matrix(g, n) for g in group.elements]
        M = rng.standard_normal((2 * n, 2 * n))
        M = sum(D @ (M + M.T) @ D.T for D in mats)
        for P in isotypic_projectors(group, table, n):
            assert np.max(np.abs(P @ M - M @ P)) <= 1e-11 * np.max(np.abs(M))


class TestTraceEquations:
    def test_triangle_homogeneous(self, triangle):
        for alpha in (0.6, 1.0, 1.7, 2.4):
            spec = PotentialSpec.homogeneous(alpha)
            H = potential_hessian(triangle, spec)
            group = build_polygon_symmetry_group(3)
            deco = eigenvalues_by_trace_equations(H, group)
            w2 = 3.0 ** (-alpha / 2.0) * alpha
            lists = deco.eigenvalue_lists()
            assert lists[0][0] == pytest.approx(w2 * (1.0 + alpha), rel=1e-12)
            assert lists[1][0] == pytest.approx(-w2, rel=1e-12)
            np.testing.assert_allclose(
                sorted(lists[2]), [0.0, 0.5 * w2 * alpha], atol=1e-12
            )

    def test_matches_direct_diagonalization(self, standard_cases):
        for case in standard_cases:
            H = potential_hessian(case.configuration(), case.potential)
            group = build_polygon_symmetry_group(case.n)
            deco = eigenvalues_by_trace_equations(H, group)
            direct = np.sort(np.linalg.eigvalsh(H))
            np.testing.assert_allclose(
                deco.full_multiset(), direct,
                atol=1e-9 * (1 + np.max(np.abs(direct))),
            )

    def test_scalar_matrix(self):
        group = build_polygon_symmetry_group(3)
        deco = eigenvalues_by_trace_equations(2.5 * np.eye(6), group)
        for comp in deco.components:
            for lam in comp.eigenvalues:
                assert lam == pytest.approx(2.5, rel=1e-13)

    def test_random_invariant_matrices(self, rng):
        for n in (3, 4):
            group = build_polygon_symmetry_group(n)
            mats = [representation_matrix(g, n) for g in group.elements]
            for _ in range(25):
                M = rng.standard_normal((2 * n, 2 * n))
                M = sum(D @ (M + M.T) @ D.T for D in mats)
                deco = eigenvalues_by_trace_equations(M, group)
                direct = np.sort(np.linalg.eigvalsh(M))
                np.testing.assert_allclose(
                    deco.full_multiset(), direct,
                    atol=1e-9 * (1 + np.max(np.abs(direct))),
                )

    def test_rejects_noninvariant(self, rng):
        group = build_polygon_symmetry_group(3)
        M = rng.standard_normal((6, 6))
        with pytest.raises(InvarianceError):
            eigenvalues_by_trace_equations(M + M.T, group)

    def test_eigenvalue_conjugation_invariance(self, triangle):
        spec = PotentialSpec.manev()
        H = potential_hessian(triangle, spec)
        group = build_polygon_symmetry_group(3)
        base = np.sort(np.linalg.eigvalsh(H))
        for g in group.elements:
            D = representation_matrix(g, 3)
            conj = np.sort(np.linalg.eigvalsh(D @ H @ D.T))
            np.testing.assert_allclose(conj, base, atol=1e-12)


class TestJPairs:
    def test_triangle_pairs(self, triangle):
        spec = PotentialSpec.homogeneous(1.0)
        H = potential_hessian(triangle, spec)
        group = build_polygon_symmetry_group(3)
        pairs = j_compatible_pairs(H, group)
        assert len(pairs) == 3
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
        pairs = j_compatible_pairs(H, build_polygon_symmetry_group(4))
        assert len(pairs) == 4
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
            pairs = j_compatible_pairs(H)
            assert len(pairs) == case.n, case.name

    @pytest.mark.parametrize(
        "n, rotated", [(2, False), (3, False), (3, True), (4, True)],
        ids=["identity-2", "identity-3", "unitary-3", "unitary-4"],
    )
    def test_invariant_cluster_splits_into_planes(self, n, rotated):
        # a cluster that Jhat keeps invariant, of dimension 2n (2.5 I) or
        # 2n - 2 (conjugated by the real form of a random unitary, which
        # commutes with Jhat): each of its planes is one pair
        lams = np.full(n, 2.5)
        U = np.eye(2 * n)
        if rotated:
            lams[-1] = 4.0
            Z = np.random.default_rng(n).standard_normal((n, 2 * n)).view(complex)
            W = np.linalg.qr(Z)[0]
            U = np.kron(W.real, np.eye(2)) + np.kron(W.imag, J2.T)
        H = U @ np.diag(np.repeat(lams, 2)) @ U.T
        pairs = j_compatible_pairs(H)
        assert len(pairs) == n
        for p, lam in zip(pairs, np.sort(lams)):
            assert p.lam1 == pytest.approx(lam) and p.lam2 == pytest.approx(lam)
            np.testing.assert_allclose(H @ p.v1, lam * p.v1, atol=1e-13)
            np.testing.assert_allclose(H @ p.v2, lam * p.v2, atol=1e-13)
        V = np.column_stack([v for p in pairs for v in (p.v1, p.v2)])
        np.testing.assert_allclose(V.T @ V, np.eye(2 * n), atol=1e-13)

    @pytest.mark.parametrize("angle", [0.0, 0.3], ids=["axes", "rotated"])
    def test_cluster_pairs_with_two_smaller_clusters(self, angle):
        # the lam = 1 cluster span{e1, e3} pairs with {e2} (lam = 2) and
        # with {e4} (lam = 3): blocks between clusters of unequal size
        c, s = np.cos(angle), np.sin(angle)
        R = np.eye(4)
        R[np.ix_([0, 2], [0, 2])] = [[c, -s], [s, c]]
        H = R @ np.diag([1.0, 2.0, 1.0, 3.0]) @ R.T
        pairs, rest = symplectic_pairs(H)
        assert [(p.lam1, p.lam2) for p in pairs] == [
            pytest.approx((1.0, 2.0)), pytest.approx((1.0, 3.0))]
        assert rest.shape == (4, 0)
        for p in pairs:
            np.testing.assert_allclose(H @ p.v1, p.lam1 * p.v1, atol=1e-13)
            np.testing.assert_allclose(H @ p.v2, p.lam2 * p.v2, atol=1e-13)
        assert len(j_compatible_pairs(H)) == 2

    def test_pentagon_raises_structurally(self):
        cfg = regular_polygon(5)
        H = potential_hessian(cfg, PotentialSpec.homogeneous(1.0))
        with pytest.raises(PairingError) as err:
            j_compatible_pairs(H)
        assert err.value.leftover_dim == 4

    def test_pentagon_joint_subspaces_cover(self):
        cfg = regular_polygon(5).rotated(0.4)
        H = potential_hessian(cfg, PotentialSpec.homogeneous(1.0))
        Jh = block_symplectic(5)
        bases = [wave_number_basis(cfg.points, k) for k in range(3)]
        assert [V.shape[1] for V in bases] == [2, 4, 4]
        V = np.column_stack(bases)
        np.testing.assert_allclose(V.T @ V, np.eye(10), atol=1e-14)
        for W in bases:
            for M in (H, Jh):
                resid = M @ W - W @ (W.T @ M @ W)
                assert np.max(np.abs(resid)) <= 1e-13
