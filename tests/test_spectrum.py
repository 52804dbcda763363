import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from relequil.central import refine_central_configuration, regular_polygon
from relequil.model import (
    BodyConfiguration,
    Equilibrium,
    PotentialSpec,
    Spectrum,
    angular_frequency_squared,
)
from relequil.spectrum import (
    NOT_UNSTABLE,
    UNSTABLE,
    block_spectrum,
    build_block,
    classify,
    compare_spectra,
    decompose_blocks,
    full_linearization_spectrum,
    purify_eigenvalues,
)
from relequil.symmetry import symplectic_pairs


def _match_distance(a, b):
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


class TestLinearBlock:
    def test_matrix_layout(self):
        blk = build_block(2.0, 3.0, 5.0)
        B = blk.matrix
        np.testing.assert_allclose(B[:2, 2:], np.eye(2))
        assert B[2, 0] == pytest.approx(4.0 + 3.0)
        assert B[3, 1] == pytest.approx(4.0 + 5.0)
        np.testing.assert_allclose(
            B[2:, 2:], 4.0 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        )
        assert np.trace(B) == 0.0

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            build_block(0.0, 1.0, 1.0)

    def test_translation_block_unit_frequency(self):
        eigs = block_spectrum(build_block(1.0, 0.0, 0.0))
        np.testing.assert_allclose(
            np.sort_complex(eigs), [-1j, -1j, 1j, 1j], atol=1e-14
        )

    def test_triangle_component_one_modes(self):
        # pair (configuration direction, rotation): spectrum {0, 0, +-i w sqrt(2-a)}
        for alpha in (0.5, 1.0, 1.9):
            w2 = 3.0 ** (-alpha / 2.0) * alpha
            w = np.sqrt(w2)
            blk = build_block(w, w2 * (1.0 + alpha), -w2)
            eigs = np.sort_complex(block_spectrum(blk))
            expected = np.sort_complex(
                [0.0, 0.0, 1j * w * np.sqrt(2.0 - alpha), -1j * w * np.sqrt(2.0 - alpha)]
            )
            np.testing.assert_allclose(eigs, expected, atol=1e-12)

    def test_alpha_two_all_zero(self):
        alpha = 2.0
        w2 = 3.0 ** (-alpha / 2.0) * alpha
        blk = build_block(np.sqrt(w2), w2 * (1.0 + alpha), -w2)
        np.testing.assert_allclose(block_spectrum(blk), 0.0, atol=1e-13)

    @given(
        omega=st.floats(0.1, 10.0),
        lam1=st.floats(-10.0, 10.0),
        lam2=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_dense(self, omega, lam1, lam2):
        # both sides cluster-purified: hypothesis aims for defective blocks
        # (lam ~ 0, equal c's) where raw eigenvalues of either route carry
        # sub-sqrt(eps) Jordan scatter that no method pins down.  Near
        # defectiveness the dense solver's own accuracy degrades like
        # eps |B|^2 / gap, so the bound is gap-aware; the strict 1e-10
        # contract on generic inputs is the separate random-sweep test.
        blk = build_block(omega, lam1, lam2)
        nrm = float(np.linalg.norm(blk.matrix, 2))
        closed = purify_eigenvalues(block_spectrum(blk), nrm)
        dense = purify_eigenvalues(np.linalg.eigvals(blk.matrix), nrm)
        scale = max(np.max(np.abs(dense)), 1e-30)
        uniq = np.unique(np.round(dense, 14))
        gap = (
            np.min(np.abs(uniq[:, None] - uniq[None, :])[
                ~np.eye(uniq.size, dtype=bool)
            ])
            if uniq.size > 1
            else np.inf
        )
        eps = np.finfo(float).eps
        tol = max(1e-10 * scale, 100.0 * eps * nrm * nrm / max(gap, eps * nrm))
        assert _match_distance(closed, dense) <= tol

    def test_closed_form_matches_dense_random_sweep(self, rng):
        # plain random triples, raw dense eigensolver, no purification
        worst = 0.0
        for _ in range(1000):
            omega = rng.uniform(0.1, 10.0)
            lam1, lam2 = rng.uniform(-10.0, 10.0, size=2)
            blk = build_block(omega, lam1, lam2)
            closed = block_spectrum(blk)
            dense = np.linalg.eigvals(blk.matrix)
            scale = max(np.max(np.abs(dense)), 1e-30)
            worst = max(worst, _match_distance(closed, dense) / scale)
        assert worst <= 1e-10

    def test_spectrum_symmetric(self):
        eigs = block_spectrum(build_block(1.3, 2.0, -0.4))
        assert _match_distance(eigs, -eigs) <= 1e-14
        assert _match_distance(eigs, np.conj(eigs)) <= 1e-14


class TestClassify:
    def test_pure_imaginary_is_not_unstable(self):
        v = classify(np.array([1j, -1j, 2j, -2j]))
        assert v.verdict == NOT_UNSTABLE
        assert v.labels == ("pure-imaginary",) * 4
        assert not v.is_unstable

    def test_zero_and_imaginary_modes(self):
        w = 0.9
        v = classify(np.array([0.0, 0.0, 1j * w, -1j * w]))
        assert v.verdict == NOT_UNSTABLE
        assert v.n_zero == 2 and v.n_pure_imaginary == 2

    def test_positive_real_part_flags_unstable(self):
        v = classify(np.array([0.5 + 1j, 0.5 - 1j, -0.5 + 1j, -0.5 - 1j]))
        assert v.verdict == UNSTABLE
        assert v.max_real_part == pytest.approx(0.5)
        assert set(v.labels) == {"complex"}

    def test_labels_respect_scale(self):
        v = classify(np.array([1e-12 + 1j, -1e-12 - 1j, 1.0, -1.0]))
        assert v.labels[:2] in (("pure-imaginary", "pure-imaginary"),)
        assert "real" in v.labels


class TestCompareSpectra:
    def test_identical(self):
        s = Spectrum(np.array([1j, -1j, 0.3]))
        m = compare_spectra(s, s)
        assert m.matches and m.max_distance == 0.0

    def test_single_displacement_reported(self):
        a = np.array([0.0, 1j, -1j])
        b = np.array([1.0, 1j, -1j])
        m = compare_spectra(a, b, tol=1e-9)
        assert not m.matches
        assert m.worst_pairs[0][2] == pytest.approx(1.0)

    def test_cardinality_mismatch_is_structural(self):
        m = compare_spectra(np.array([1j, -1j]), np.array([1j]))
        assert not m.matches and m.cardinality_mismatch


class TestPurify:
    def test_jordan_pair_collapses_to_mean(self):
        vals = np.array([1j + 3e-8, 1j - 3e-8, -1j + 3e-8, -1j - 3e-8, 0.5])
        out = purify_eigenvalues(vals, matrix_norm=5.0)
        np.testing.assert_allclose(
            np.sort_complex(out), np.sort_complex([1j, 1j, -1j, -1j, 0.5]),
            atol=1e-12,
        )

    def test_distinct_values_not_merged(self):
        vals = np.array([0.0, 0.05, 1.0])
        out = purify_eigenvalues(vals, matrix_norm=5.0)
        np.testing.assert_allclose(np.sort(out.real), [0.0, 0.05, 1.0])

    def test_quadruple_zero_scatter(self):
        # fourth-root scatter of a defective zero, as produced by a 4-chain
        d = 2e-4
        vals = np.array([d + d * 1j, d - d * 1j, -d + d * 1j, -d - d * 1j, 2.0])
        out = purify_eigenvalues(vals, matrix_norm=5.0)
        assert np.max(np.abs(np.sort_complex(out)[:4])) <= 1e-12


class TestOracle:
    def test_hamiltonian_symmetry_all_cases(self, standard_cases):
        for case in standard_cases:
            spec = full_linearization_spectrum(
                Equilibrium(case.configuration(), case.potential))
            v = spec.values
            scale = np.max(np.abs(v))
            assert _match_distance(v, -v) <= 1e-9 * scale, case.name
            assert _match_distance(v, np.conj(v)) <= 1e-9 * scale, case.name

    def test_structural_modes_present(self, standard_cases):
        for case in standard_cases:
            cfg = case.configuration()
            w = np.sqrt(angular_frequency_squared(cfg, case.potential))
            v = full_linearization_spectrum(Equilibrium(cfg, case.potential)).values
            scale = np.max(np.abs(v))
            n_zero = int(np.sum(np.abs(v) <= 1e-8 * scale))
            n_rot = int(np.sum(np.abs(v - 1j * w) <= 1e-8 * scale))
            assert n_zero >= 2, case.name
            assert n_rot >= 2, case.name

    def test_translation_modes_triangle(self):
        cfg = regular_polygon(3)
        spec = PotentialSpec.homogeneous(1.0)
        w = np.sqrt(angular_frequency_squared(cfg, spec))
        v = full_linearization_spectrum(Equilibrium(cfg, spec)).values
        assert np.sum(np.abs(v - 1j * w) < 1e-9) >= 2
        assert np.sum(np.abs(v + 1j * w) < 1e-9) >= 2

    def test_purify_improves_defective_modes(self):
        cfg = regular_polygon(3)
        spec = PotentialSpec.schwarzschild()
        eq = Equilibrium(cfg, spec)
        raw = full_linearization_spectrum(eq, purify=False).values
        pure = full_linearization_spectrum(eq).values
        # the quadruple zero scatters badly without purification
        raw_zero = np.sort(np.abs(raw))[:4]
        pure_zero = np.sort(np.abs(pure))[:4]
        assert raw_zero.max() > 1e-6
        assert pure_zero.max() <= 1e-10


class TestBlockOracleAgreement:
    def test_six_cases(self, standard_cases):
        for case in standard_cases:
            eq = Equilibrium(case.configuration(), case.potential)
            deco = decompose_blocks(eq)
            assert len(deco.coupled) == 0, case.name
            union = deco.union_spectrum()
            oracle = full_linearization_spectrum(eq)
            m = compare_spectra(union, oracle, tol=1e-9)
            assert m.matches, (case.name, m.max_distance)

    def test_pentagon_with_coupled_block(self):
        cfg = regular_polygon(5)
        spec = PotentialSpec.homogeneous(1.0)
        eq = Equilibrium(cfg, spec)
        deco = decompose_blocks(eq)
        assert len(deco.blocks) == 3 and len(deco.coupled) == 1
        union = deco.union_spectrum()
        oracle = full_linearization_spectrum(eq)
        assert compare_spectra(union, oracle, tol=1e-9).matches

    @pytest.mark.parametrize("n", [10, 11, 12, 13, 16, 24, 32, 48])
    @pytest.mark.parametrize("terms", [
        ((1.0, 1.0),), ((1.0, 2.5),), ((1.0, 1.0), (1.0, 2.0)), ((1.0, 1.0), (1.0, 3.0)),
    ], ids=["r-1", "r-2.5", "manev", "schwarzschild"])
    def test_large_polygons_by_wave_number(self, n, terms):
        cfg = regular_polygon(n).rotated(0.7)
        spec = PotentialSpec(terms)
        eq = Equilibrium(cfg, spec)
        deco = decompose_blocks(eq)
        assert all(cb.dim in (2, 4) for cb in deco.coupled)
        union = deco.union_spectrum()
        assert len(union) == 4 * n
        m = compare_spectra(union, full_linearization_spectrum(eq), tol=1e-9)
        assert m.matches, m.max_distance / m.scale

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("spec", [PotentialSpec.manev(), PotentialSpec.schwarzschild()],
                             ids=["manev", "schwarzschild"])
    def test_refined_collinear_quasi_homogeneous(self, n, spec):
        # no dihedral symmetry and no complete pairing: the exact pairs plus
        # one block on what they leave over, whose defective zero cluster is
        # purified like the oracle's
        masses = np.random.default_rng(n).uniform(0.5, 2.0, n)
        guess = np.zeros(2 * n)
        guess[0::2] = np.linspace(-1.0, 1.0, n)
        cfg = refine_central_configuration(BodyConfiguration(masses, guess), spec)
        eq = Equilibrium(cfg, spec)
        union = decompose_blocks(eq).union_spectrum()
        assert len(union) == 4 * n
        m = compare_spectra(union, full_linearization_spectrum(eq), tol=1e-9)
        assert m.matches, m.max_distance / m.scale

    def test_collinear_near_pairs_stay_in_the_coupled_block(self):
        # a collinear Schwarzschild case of the benchmark deck: two cluster
        # pairs sit 4.3e-8 from singular value 1, near-pairs but not pairs,
        # so one exact pair remains and a 4-dimensional block holds the rest
        masses = np.array([1.1480608566549848, 0.8093387529663701, 1.1182770341820232])
        guess = np.zeros(6)
        guess[0::2] = (-1.0657566814208692, -0.0600322841308816, 0.9366569479940259)
        spec = PotentialSpec.schwarzschild()
        cfg = refine_central_configuration(BodyConfiguration(masses, guess), spec)
        eq = Equilibrium(cfg, spec)
        pairs, rest = symplectic_pairs(eq.Hw)
        assert (len(pairs), rest.shape[1]) == (1, 4)
        deco = decompose_blocks(eq)
        assert len(deco.blocks) == 1 and [cb.dim for cb in deco.coupled] == [4]
        m = compare_spectra(deco.union_spectrum(), full_linearization_spectrum(eq), tol=1e-9)
        assert m.matches, m.max_distance / m.scale

    def test_radius_scaling_law(self):
        # eigenvalues scale as rho^{-(alpha+2)/2} for single-term potentials
        alpha, rho = 1.0, 1.8
        spec = PotentialSpec.homogeneous(alpha)
        base = full_linearization_spectrum(Equilibrium(regular_polygon(3), spec)).values
        scaled = full_linearization_spectrum(
            Equilibrium(regular_polygon(3, radius=rho), spec)
        ).values
        predicted = base * rho ** (-(alpha + 2.0) / 2.0)
        scale = np.max(np.abs(predicted))
        assert _match_distance(predicted, scaled) <= 1e-8 * scale
        v0, v1 = classify(base), classify(scaled)
        assert v0.verdict == v1.verdict

    def test_unequal_masses_rejected_as_noncentral(self):
        # a polygon with unequal masses is not a central configuration
        from relequil.model import BodyConfiguration, NonCentralConfigurationError

        cfg = regular_polygon(3)
        lopsided = BodyConfiguration(np.array([1.0, 1.0, 2.0]), cfg.positions)
        with pytest.raises(NonCentralConfigurationError):
            full_linearization_spectrum(Equilibrium(lopsided, PotentialSpec.homogeneous(1.0)))
