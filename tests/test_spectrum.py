import mpmath
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
    angular_frequency_squared,
    first_order_matrix,
)
from relequil.pipeline import AnalysisRequest, run_analysis
from relequil.presets import get_case
from relequil.spectrum import (
    NOT_UNSTABLE,
    SNAP_TOL,
    UNSTABLE,
    ConsistencyError,
    block_spectrum,
    classify,
    compare_spectra,
    decompose_blocks,
    deflated_eigenvalues,
    full_linearization_spectrum,
    _trivial_in,
    sorted_spectrum,
    spectral_verdict,
)
from relequil.symmetry import J2, block_symplectic, symplectic_pairs

from conftest import WHOLE_SPACE_DECK, wave_bases


def _match_distance(a, b):
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


def _raw_linearization(eq):
    """The 4n x 4n linearization A, with M^{-1} H, for a raw dense eigensolve."""
    return first_order_matrix(eq.omega2, eq.omega, eq.H / eq.config.mass_vector[:, None],
                              block_symplectic(eq.n))


def _collinear_manev():
    # the first n=3 Manev draw of the benchmark's collinear deck
    masses = np.array([0.5123324524160306, 0.6434860886199383, 1.0168287284150226])
    guess = np.zeros(6)
    guess[0::2] = (-1.0137406811094807, 0.08902479261011717, 1.0200564567511092)
    spec = PotentialSpec.manev()
    return Equilibrium(refine_central_configuration(BodyConfiguration(masses, guess), spec),
                       spec)


def _block_matrix(omega, lam1, lam2):
    """The dense 4x4 block of a pair (lam1, lam2)."""
    return first_order_matrix(omega ** 2, omega, np.diag([lam1, lam2]), J2)


class TestBlockSpectrum:
    def test_matrix_layout(self):
        B = _block_matrix(2.0, 3.0, 5.0)
        np.testing.assert_allclose(B[:2, 2:], np.eye(2))
        assert B[2, 0] == pytest.approx(4.0 + 3.0)
        assert B[3, 1] == pytest.approx(4.0 + 5.0)
        np.testing.assert_allclose(
            B[2:, 2:], 4.0 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        )
        assert np.trace(B) == 0.0

    @pytest.mark.parametrize("omega", [0.0, -1.0, np.nan])
    def test_rejects_nonpositive_omega(self, omega):
        with pytest.raises(ValueError, match="omega must be positive"):
            block_spectrum(omega, 1.0, 1.0)

    def test_translation_block_unit_frequency(self):
        eigs = block_spectrum(1.0, 0.0, 0.0)
        np.testing.assert_allclose(
            np.sort_complex(eigs), [-1j, -1j, 1j, 1j], atol=1e-14
        )

    def test_triangle_component_one_modes(self):
        # pair (configuration direction, rotation): spectrum {0, 0, +-i w sqrt(2-a)}
        for alpha in (0.5, 1.0, 1.9):
            w2 = 3.0 ** (-alpha / 2.0) * alpha
            w = np.sqrt(w2)
            eigs = np.sort_complex(block_spectrum(w, w2 * (1.0 + alpha), -w2))
            expected = np.sort_complex(
                [0.0, 0.0, 1j * w * np.sqrt(2.0 - alpha), -1j * w * np.sqrt(2.0 - alpha)]
            )
            np.testing.assert_allclose(eigs, expected, atol=1e-12)

    def test_alpha_two_all_zero(self):
        alpha = 2.0
        w2 = 3.0 ** (-alpha / 2.0) * alpha
        np.testing.assert_allclose(block_spectrum(np.sqrt(w2), w2 * (1.0 + alpha), -w2), 0.0,
                                   atol=1e-13)

    # near-zero lam make the near-defective blocks where the snaps act
    LAM = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e-8, 1e-8))

    @given(omega=st.floats(0.1, 10.0), lam1=LAM, lam2=LAM)
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_dense(self, omega, lam1, lam2):
        # against the exact roots, not the dense eigensolver, which scatters
        # defective roots by ~sqrt(eps).  The contract of block_spectrum's
        # snaps: its roots +-s1, +-s2 are the
        # exact roots of s^4 + p s^2 + q after p moves by at most
        # SNAP_TOL scale and q and disc / 4 each by at most SNAP_TOL scale^2,
        # plus rounding.  The biquadratic of the roots, p' = -(s1^2 + s2^2)
        # and q' = s1^2 s2^2, is formed in 50-digit arithmetic and compared
        # with the block's exact p and q.
        s1, _, s2, _ = block_spectrum(omega, lam1, lam2)
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            w2 = mpmath.mpf(omega) ** 2
            c1, c2 = w2 + lam1, w2 + lam2
            u1, u2 = mpmath.mpc(s1) ** 2, mpmath.mpc(s2) ** 2
            scale = max(omega ** 2, abs(lam1), abs(lam2))
            dp = abs(-(u1 + u2) - (4 * w2 - c1 - c2))
            dq = abs(u1 * u2 - c1 * c2)
            assert dp <= SNAP_TOL * scale + 64 * eps * scale
            assert dq <= 2 * SNAP_TOL * scale ** 2 + 64 * eps * scale ** 2

    @pytest.mark.parametrize("omega,lam1,lam2", [
        (9.79, 1e-9, 1e-9), (8.0, 0.0, 1e-9), (2.0, 1e-12, 0.0)])
    def test_closed_form_near_double_roots(self, omega, lam1, lam2):
        # genuine discriminants of order scale * |lam| stay unsnapped
        with mpmath.workdps(50):
            w2 = mpmath.mpf(omega) ** 2
            c1, c2 = w2 + lam1, w2 + lam2
            exact = mpmath.polyroots([1, 0, 4 * w2 - c1 - c2, 0, c1 * c2],
                                     maxsteps=200, extraprec=200)
            exact = np.array([complex(r) for r in exact])
        closed = block_spectrum(omega, lam1, lam2)
        assert _match_distance(closed, exact) <= 1e-9 * np.max(np.abs(exact))

    def test_closed_form_matches_dense_random_sweep(self, rng):
        # plain random triples against the raw dense eigensolver
        worst = 0.0
        for _ in range(1000):
            omega = rng.uniform(0.1, 10.0)
            lam1, lam2 = rng.uniform(-10.0, 10.0, size=2)
            closed = block_spectrum(omega, lam1, lam2)
            dense = np.linalg.eigvals(_block_matrix(omega, lam1, lam2))
            scale = max(np.max(np.abs(dense)), 1e-30)
            worst = max(worst, _match_distance(closed, dense) / scale)
        assert worst <= 1e-10

    def test_spectrum_symmetric(self):
        eigs = block_spectrum(1.3, 2.0, -0.4)
        assert _match_distance(eigs, -eigs) <= 1e-14
        assert _match_distance(eigs, np.conj(eigs)) <= 1e-14


class TestClassify:
    def test_pure_imaginary_is_not_unstable(self):
        v = classify(np.array([1j, -1j, 2j, -2j]))
        assert v.verdict == NOT_UNSTABLE
        assert v.labels == ("pure-imaginary",) * 4

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


    def test_the_verdict_of_an_unsorted_spectrum_is_that_of_the_sorted_one(self, rng):
        # the oracle spectra of the inputs without a dihedral group, as the
        # eigensolver leaves them, reversed and shuffled
        for label, cfg, spec in WHOLE_SPACE_DECK:
            oracle = full_linearization_spectrum(Equilibrium(cfg, spec))
            want = classify(sorted_spectrum(oracle))
            for x in (oracle, oracle[::-1], rng.permutation(oracle)):
                assert spectral_verdict(x) == (want.verdict, want.max_real_part, want.tol), label
        empty = classify(np.zeros(0))
        assert spectral_verdict([]) == (empty.verdict, empty.max_real_part, empty.tol)


class TestSortedSpectrum:
    def test_each_row_sorts_on_its_own(self, rng):
        def one(v, tol=1e-12):
            # the sort of a single spectrum, at its own spectral radius
            step = tol * max(float(np.max(np.abs(v), initial=0.0)), 1e-300)
            return v[np.lexsort((np.round(v.imag / step) * step, np.round(v.real / step) * step))]

        rows = rng.standard_normal((60, 4)) + 1j * rng.standard_normal((60, 4))
        rows *= 10.0 ** rng.uniform(-6.0, 6.0, (60, 1))
        rows[::3, 1] = rows[::3, 0].conj() * (1.0 + 1e-14)     # Re equal after rounding
        got = sorted_spectrum(rows)
        assert got.shape == rows.shape
        for row, sorted_row in zip(rows, got):
            assert sorted_row.tobytes() == one(row).tobytes()
        assert sorted_spectrum(np.zeros((0, 4))).shape == (0, 4)
        assert sorted_spectrum([]).shape == (0,)


class TestCompareSpectra:
    def test_identical(self):
        s = np.array([1j, -1j, 0.3])
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


class TestOracle:
    def test_hamiltonian_symmetry_all_cases(self, standard_cases):
        for case in standard_cases:
            v = full_linearization_spectrum(Equilibrium(case.configuration(), case.potential))
            scale = np.max(np.abs(v))
            assert _match_distance(v, -v) <= 1e-9 * scale, case.name
            assert _match_distance(v, np.conj(v)) <= 1e-9 * scale, case.name

    def test_structural_modes_present(self, standard_cases):
        for case in standard_cases:
            cfg = case.configuration()
            w = np.sqrt(angular_frequency_squared(cfg, case.potential))
            v = full_linearization_spectrum(Equilibrium(cfg, case.potential))
            scale = np.max(np.abs(v))
            n_zero = int(np.sum(np.abs(v) <= 1e-8 * scale))
            n_rot = int(np.sum(np.abs(v - 1j * w) <= 1e-8 * scale))
            assert n_zero >= 2, case.name
            assert n_rot >= 2, case.name

    def test_translation_modes_triangle(self):
        cfg = regular_polygon(3)
        spec = PotentialSpec.homogeneous(1.0)
        w = np.sqrt(angular_frequency_squared(cfg, spec))
        v = full_linearization_spectrum(Equilibrium(cfg, spec))
        assert np.sum(np.abs(v - 1j * w) < 1e-9) >= 2
        assert np.sum(np.abs(v + 1j * w) < 1e-9) >= 2

    def test_purify_improves_defective_modes(self, standard_cases):
        # the raw dense eigensolve of A splits every defective zero by more
        # than 1e-9 scale; the deflated oracle returns exactly as many zeros
        # as the closed-form block route
        for case in standard_cases:
            eq = Equilibrium(case.configuration(), case.potential)
            v = full_linearization_spectrum(eq)
            blocks = decompose_blocks(eq).union_spectrum()
            raw = np.linalg.eigvals(_raw_linearization(eq))
            thr = 1e-12 * np.max(np.abs(v))
            assert np.sort(np.abs(raw))[0] > 1e3 * thr, case.name
            n_zero = int(np.sum(np.abs(v) <= thr))
            assert n_zero >= 2, case.name
            assert n_zero == int(np.sum(np.abs(blocks) <= thr)), case.name


class TestPurify:
    """Exact defective trivial eigenvalues, which cluster purification once
    averaged out of the dense eigensolve, now come from the deflation."""

    def test_jordan_pair_collapses_to_mean(self):
        # the rotation chain is a Jordan pair at 0, which the dense
        # eigensolver splits by ~sqrt(eps); deflated, it and the
        # translations +-i omega (twice) come out exact
        eq = _collinear_manev()
        v = full_linearization_spectrum(eq)
        raw = np.linalg.eigvals(_raw_linearization(eq))
        scale = np.max(np.abs(v))
        assert np.sort(np.abs(raw))[1] > 1e-10 * scale
        assert np.all(np.sort(np.abs(v))[:2] == 0.0)
        assert np.sum(v == 1j * eq.omega) == 2
        assert np.sum(v == -1j * eq.omega) == 2

    def test_distinct_values_not_merged(self):
        # near alpha = 2 the homographic pair +-sqrt(mu - 3 omega^2) sits
        # 0.05 scale from the zero pair; it stays a distinct pair, equal to
        # the block route's
        eq = AnalysisRequest(case="triangle-homogeneous", alpha=1.995).equilibrium()[0]
        v = full_linearization_spectrum(eq)
        blocks = decompose_blocks(eq).union_spectrum()
        scale = np.max(np.abs(v))
        small = np.sort_complex(v[np.abs(v) < 0.1 * scale])
        assert small.size == 4
        assert int(np.sum(small == 0.0)) == 2
        assert np.min(np.abs(small[small != 0.0])) > 0.04 * scale
        assert _match_distance(small, blocks[np.abs(blocks) < 0.1 * scale]) <= 1e-12 * scale

    def test_quadruple_zero_scatter(self):
        # the Schwarzschild triangle's fourfold zero is a 4-chain, scattered
        # by ~eps^(1/4) in the dense eigensolve
        case = get_case("schwarzschild-triangle")
        eq = Equilibrium(case.configuration(), case.potential)
        v = full_linearization_spectrum(eq)
        scale = np.max(np.abs(v))
        assert np.sort(np.abs(np.linalg.eigvals(_raw_linearization(eq))))[0] > 1e-6 * scale
        assert np.sort(np.abs(v))[3] <= 1e-12 * scale


class TestDeflation:
    NEAR_TWO = [("triangle-homogeneous", a) for a in (1.985, 1.995, 2.015, 2.025)] + [
        ("square-homogeneous", a) for a in (1.99, 1.995, 2.005, 2.01, 2.015)]

    @pytest.mark.parametrize("name,alpha", NEAR_TWO)
    def test_alpha_grid_near_two(self, name, alpha):
        # the homographic plane carries a near-fourfold zero here, which the
        # dense eigensolver alone scatters by ~sqrt(eps)
        match = run_analysis(AnalysisRequest(case=name, alpha=alpha)).to_dict()["spectra_match"]
        assert match["max_distance"] <= 1e-9 * match["scale"]

    def test_pentagon_schwarzschild_of_the_polygons_deck(self):
        radius, theta = 1.2711069624666833, 2.04022311561116
        ang = theta + 2.0 * np.pi * np.arange(5) / 5
        q = radius * np.column_stack([np.cos(ang), np.sin(ang)])
        q -= q.mean(axis=0)
        eq = Equilibrium(BodyConfiguration(np.ones(5), q.ravel()), PotentialSpec.schwarzschild())
        m = compare_spectra(decompose_blocks(eq).union_spectrum(),
                            full_linearization_spectrum(eq), tol=1e-9)
        assert m.matches, m.max_distance / m.scale

    def test_collinear_manev_takes_the_rotation_chain(self):
        eq = _collinear_manev()
        _, z, _ = eq.trivial
        zh = z / np.linalg.norm(z)
        hz = eq.Hw @ zh
        # far above rounding: z is no eigenvector, so no homographic plane
        assert np.linalg.norm(hz - (zh @ hz) * zh) > 1e-6 * np.linalg.norm(eq.Hw)
        m = compare_spectra(decompose_blocks(eq).union_spectrum(),
                            full_linearization_spectrum(eq), tol=1e-9)
        assert m.matches, m.max_distance / m.scale

    def test_plain_coupled_block_skips_the_qr(self, monkeypatch):
        # with nothing to deflate, eigvals(B) alone gives the bits of the
        # QR route, whose complete Q of no vectors is the identity
        eq = Equilibrium(regular_polygon(16).rotated(0.7), PotentialSpec.homogeneous(1.0))
        blocks = [(V.T @ eq.Hw @ V, V.T @ eq.Jh @ V, _trivial_in(eq, V))
                  for V in symplectic_pairs(eq.Hw)[1]]
        plain = [(h, j, trivial) for h, j, trivial in blocks
                 if trivial[0].shape[1] == 0 and trivial[1] is None]
        assert plain
        for h, j, trivial in plain:
            B = first_order_matrix(eq.omega2, eq.omega, h, j)
            Q = np.linalg.qr(np.zeros((B.shape[0], 0)), mode="complete")[0]
            expected = np.linalg.eigvals(Q.T @ B @ Q).astype(complex)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "qr", None)
                got = deflated_eigenvalues(eq.omega2, eq.omega, h, j, *trivial)
            assert got.dtype == complex and got.tobytes() == expected.tobytes()

    def test_wrong_omega_is_not_invariant(self):
        eq = _collinear_manev()
        w = eq.omega * (1.0 + 1e-6)
        with pytest.raises(ConsistencyError) as err:
            deflated_eigenvalues(w * w, w, eq.Hw, eq.Jh, *eq.trivial)
        assert err.value.stage == "trivial modes"
        assert "invariance defect" in str(err.value)

    @pytest.mark.parametrize("collinear", [False, True], ids=["polygon", "collinear"])
    def test_nan_in_h_fails_the_deflation(self, collinear):
        # a NaN compares false with any bound, so the defect test must fail
        # on it rather than pass it on to eigvals
        eq = _collinear_manev() if collinear else Equilibrium(regular_polygon(5),
                                                              PotentialSpec.manev())
        h = eq.Hw.copy()
        h[1, 4] = np.nan
        with pytest.raises(ConsistencyError, match="invariance defect nan") as err:
            deflated_eigenvalues(eq.omega2, eq.omega, h, eq.Jh, *eq.trivial)
        assert err.value.stage == "trivial modes"


class TestBlockOracleAgreement:
    def test_six_cases(self, standard_cases):
        for case in standard_cases:
            eq = Equilibrium(case.configuration(), case.potential)
            deco = decompose_blocks(eq)
            assert len(deco.coupled_spectra) == 0, case.name
            union = deco.union_spectrum()
            oracle = full_linearization_spectrum(eq)
            m = compare_spectra(union, oracle, tol=1e-9)
            assert m.matches, (case.name, m.max_distance)

    def test_pentagon_with_coupled_block(self):
        cfg = regular_polygon(5)
        spec = PotentialSpec.homogeneous(1.0)
        eq = Equilibrium(cfg, spec)
        deco = decompose_blocks(eq)
        assert len(deco.blocks) == 3 and len(deco.coupled_spectra) == 1
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
        assert all(len(s) in (4, 8) for s in deco.coupled_spectra)
        union = deco.union_spectrum()
        assert len(union) == 4 * n
        m = compare_spectra(union, full_linearization_spectrum(eq), tol=1e-9)
        assert m.matches, m.max_distance / m.scale

    @pytest.mark.parametrize("n", [5, 8, 13, 24])
    @pytest.mark.parametrize("terms", [
        ((1.0, 1.0),), ((1.0, 2.5),), ((1.0, 1.0), (1.0, 2.0)), ((1.0, 1.0), (1.0, 3.0)),
    ], ids=["r-1", "r-2.5", "manev", "schwarzschild"])
    def test_polygon_coupled_blocks_are_wave_number_subspaces(self, n, terms):
        # the classical ring reduction: on a regular polygon each coupled
        # block spans exactly one real wave-number subspace W_k
        cfg = regular_polygon(n).rotated(0.7)
        bases = symplectic_pairs(Equilibrium(cfg, PotentialSpec(terms)).Hw)[1]
        assert bases
        waves = wave_bases(cfg.points)
        for V in bases:
            P = V @ V.T
            gaps = [np.max(np.abs(P - W @ W.T)) for W in waves]
            assert min(gaps) <= 1e-12, gaps

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("spec", [PotentialSpec.manev(), PotentialSpec.schwarzschild()],
                             ids=["manev", "schwarzschild"])
    def test_refined_collinear_quasi_homogeneous(self, n, spec):
        # no dihedral symmetry and no complete pairing: the exact pairs plus
        # one block on what they leave over, whose rotation chain is
        # deflated like the oracle's
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
        # a collinear Schwarzschild case of the benchmark deck: Jhat links
        # four one-dimensional clusters, two near-pairs, into one component,
        # so one exact pair remains and a 4-dimensional block holds the rest
        masses = np.array([1.1480608566549848, 0.8093387529663701, 1.1182770341820232])
        guess = np.zeros(6)
        guess[0::2] = (-1.0657566814208692, -0.0600322841308816, 0.9366569479940259)
        spec = PotentialSpec.schwarzschild()
        cfg = refine_central_configuration(BodyConfiguration(masses, guess), spec)
        eq = Equilibrium(cfg, spec)
        pairs, rests = symplectic_pairs(eq.Hw)
        assert (len(pairs), [V.shape[1] for V in rests]) == (1, [4])
        deco = decompose_blocks(eq)
        assert len(deco.blocks) == 1 and [len(s) for s in deco.coupled_spectra] == [8]
        m = compare_spectra(deco.union_spectrum(), full_linearization_spectrum(eq), tol=1e-9)
        assert m.matches, m.max_distance / m.scale

    @pytest.mark.parametrize("n", [3, 5, 8, 12, 24])
    @pytest.mark.parametrize("m0", [1.0, 1e2, 1e4])
    @pytest.mark.parametrize("terms", [((1.0, 1.0),), ((1.0, 1.0), (1.0, 3.0))],
                             ids=["r-1", "schwarzschild"])
    def test_one_plus_n_rings(self, n, m0, terms):
        # a central mass m0 at the origin and n unit masses on the unit
        # circle are central for every m0; a dominant m0 stretches the
        # Hessian's spectrum until candidate pairs with 1 - sigma < PAIR_TOL
        # appear that are no eigenvector pairs.  What the pairs leave over
        # splits by its Jhat coupling into the ring's 4-dimensional
        # wave-number blocks, with no ring detector.
        ang = 2.0 * np.pi * np.arange(n) / n
        q = np.vstack([[0.0, 0.0], np.column_stack([np.cos(ang), np.sin(ang)])])
        masses = np.r_[m0, np.ones(n)]
        eq = Equilibrium(BodyConfiguration(masses, q.ravel()), PotentialSpec(terms))
        deco = decompose_blocks(eq)
        assert all(len(s) == 8 for s in deco.coupled_spectra)
        union = deco.union_spectrum()
        assert len(union) == 4 * (n + 1)
        m = compare_spectra(union, full_linearization_spectrum(eq), tol=1e-9)
        assert m.matches, m.max_distance / m.scale

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("rho", [1.8, 1e-3, 1e3])
    def test_radius_scaling_law(self, n, rho):
        # eigenvalues scale as rho^{-(alpha+2)/2} for single-term potentials,
        # whatever the unit of length: the oracle deflated in the 4n space
        # was off by 2.8e-8 to 2.5e-6 of the radius at rho = 1e-3 and 1e3
        alpha = 1.0
        spec = PotentialSpec.homogeneous(alpha)
        base = full_linearization_spectrum(Equilibrium(regular_polygon(n), spec))
        scaled = full_linearization_spectrum(Equilibrium(regular_polygon(n, radius=rho), spec))
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
