"""The per-wave-number route for regular polygons against the whole-space one.

On a regular polygon ``decompose_blocks(eq)`` pairs each wave-number
subspace W_k from its 2x2 Hermitian K_k and solves the unpaired ones as
stacked 4x4s; the whole-space route ``spectrum._decompose_whole_space(eq)``
runs ``symplectic_pairs`` and solves each coupled block on its own.  On
regular polygons both must find the same pairs, the same coupled-block
dimensions, the same spectra and the same verdicts; the first route runs
exactly for the inputs whose ``Equilibrium`` has a dihedral group.
"""

import numpy as np
import pytest
from scipy.linalg import schur

from relequil import model, pipeline, presets, spectrum, symmetry
from relequil.central import regular_polygon
from relequil.model import BodyConfiguration, Equilibrium, PotentialSpec
from relequil.pipeline import AnalysisRequest, run_analysis
from relequil.presets import HOMOGENEOUS_PRESETS, get_case
from relequil.spectrum import (
    BlockDecomposition,
    block_spectrum,
    classify,
    compare_spectra,
    decompose_blocks,
    deflated_eigenvalues,
)
from relequil.symmetry import (
    COUPLE_TOL,
    J2,
    PAIR_TOL,
    JPair,
    _apply_symplectic,
    _eigen_clusters,
    wave_number_pairs,
    wave_number_spectrum,
)

from conftest import BENCHMARK_POTENTIALS, PRESET_ALPHAS, WHOLE_SPACE_DECK, collinear_deck, rings


def _both_routes(eq):
    assert eq.config.waves is not None
    return decompose_blocks(eq), spectrum._decompose_whole_space(eq)


def _assert_same(eq, label):
    # both routes give the translation pairs the exact +-i omega twice, so
    # the whole unions compare
    wave, whole = _both_routes(eq)
    scale = float(np.max(np.abs(np.linalg.eigvalsh(eq.Hw))))
    lams = [sorted((p.lam1, p.lam2) for p in d.blocks) for d in (wave, whole)]
    assert len(lams[0]) == len(lams[1]), label
    np.testing.assert_allclose(lams[0], lams[1], rtol=0, atol=1e-13 * scale, err_msg=label)
    assert sorted(map(len, wave.coupled_spectra)) == sorted(map(len, whole.coupled_spectra)), label
    match = compare_spectra(wave.union_spectrum(), whole.union_spectrum(), tol=1e-12)
    assert match.matches, (label, match.max_distance / match.scale)
    assert classify(wave.union_spectrum()).verdict == classify(whole.union_spectrum()).verdict
    # both hold z in one block, of the same spectrum
    z_spectra = [(d.block_spectra + d.coupled_spectra)[d.z_block] for d in (wave, whole)]
    assert compare_spectra(*z_spectra, tol=1e-12).matches, label


class TestEquivalence:
    @pytest.mark.parametrize("n", [*range(3, 33), 48, 64])
    @pytest.mark.parametrize("potential", BENCHMARK_POTENTIALS)
    def test_polygons(self, n, potential):
        # rotated, scaled, and with equal masses of 1 and of 2.5
        spec = PotentialSpec(BENCHMARK_POTENTIALS[potential])
        cfg = regular_polygon(n, radius=0.6 + 0.05 * n).rotated(0.3 + 0.1 * n)
        for mass in (1.0, 2.5):
            eq = Equilibrium(BodyConfiguration(np.full(n, mass), cfg.positions), spec)
            _assert_same(eq, f"n={n} {potential} m={mass}")

    @pytest.mark.parametrize("n", range(3, 13))
    def test_pairs_are_jhat_planes_of_eigenvectors(self, n):
        # Hw v1 = lam1 v1, Hw v2 = lam2 v2 and v2 = -Jhat v1, so that Jhat
        # acts on (v1, v2) as J2, with orthonormal vectors
        cfg = regular_polygon(n, radius=1.4).rotated(0.2 * n)
        eq = Equilibrium(cfg, PotentialSpec(BENCHMARK_POTENTIALS["schwarzschild"]))
        wave, _ = _both_routes(eq)
        scale = float(np.max(np.abs(eq.Hw)))
        V = np.column_stack([v for p in wave.blocks for v in (p.v1, p.v2)])
        np.testing.assert_allclose(V.T @ V, np.eye(V.shape[1]), rtol=0, atol=1e-13)
        for p in wave.blocks:
            P = np.column_stack([p.v1, p.v2])
            np.testing.assert_allclose(eq.Jh @ P, P @ J2, rtol=0, atol=1e-14)
            np.testing.assert_allclose(eq.Hw @ P, P * [p.lam1, p.lam2], rtol=0,
                                       atol=1e-12 * scale)

    @pytest.mark.parametrize("name", HOMOGENEOUS_PRESETS)
    def test_presets_alpha_grid(self, name):
        for alpha in PRESET_ALPHAS:
            case = get_case(name, alpha)
            _assert_same(Equilibrium(case.configuration(), case.potential),
                         f"{name} alpha={alpha}")


def _reference_coupled_components(rests):
    """``symmetry._coupled_components`` as it was before the pairing read
    its pairs off the coupled clusters: one basis per component."""
    if len(rests) < 2:
        return rests
    edges = np.cumsum([0] + [R.shape[1] for R in rests])[:-1]
    L = np.column_stack(rests)
    G = _apply_symplectic(L).T @ L
    frob2 = np.add.reduceat(np.add.reduceat(G * G, edges, axis=0), edges, axis=1)
    reach = (frob2 > COUPLE_TOL ** 2) | np.eye(len(rests), dtype=bool)
    while ((grown := reach @ reach) != reach).any():
        reach = grown
    label = reach.argmax(axis=1)
    return [np.column_stack([R for R, c in zip(rests, label) if c == comp])
            for comp in dict.fromkeys(label)]


def _reference_symplectic_pairs(H):
    """``symmetry.symplectic_pairs`` as it was before it read its pairs off
    the coupled clusters.

    The directions of cluster E_i that Jhat maps into E_j are B_i times the
    right singular vectors of C_ij = B_j^T Jhat B_i at singular value 1
    (within PAIR_TOL); inside one cluster the real Schur form of Jhat splits
    them into planes.  Each candidate must pass the residual test, and what
    the pairs leave of every cluster is split into Jhat-coupled bases.
    """
    H = np.asarray(H, dtype=float)
    clusters = _eigen_clusters(H)
    res_tol = PAIR_TOL * max(abs(lam) for lam, _ in clusters)
    edges = np.cumsum([0] + [B.shape[1] for _, B in clusters])
    V = np.column_stack([B for _, B in clusters])
    G = np.ascontiguousarray(_apply_symplectic(-V).T) @ V   # block (j, i) is C_ij
    frob2 = np.add.reduceat(np.add.reduceat(G * G, edges[:-1], axis=0),
                            edges[:-1], axis=1)
    pairs, taken = [], [[np.zeros((B.shape[1], 0))] for _, B in clusters]
    for j, i in zip(*np.nonzero(np.tril(frob2 >= (1.0 - 2.0 * PAIR_TOL) ** 2))):
        (lam_i, Bi), (lam_j, _) = clusters[i], clusters[j]
        C = G[edges[j]:edges[j + 1], edges[i]:edges[i + 1]]
        U, S, Vh = np.linalg.svd(C, full_matrices=False)
        hit = S >= 1.0 - PAIR_TOL
        X = Vh[hit].T
        step = 1 if i != j else 2
        if i == j:
            X = X @ schur(X.T @ C @ X)[1]
        V1 = Bi @ X[:, ::step]
        V2 = _apply_symplectic(-V1)
        R1, R2 = H @ V1 - lam_i * V1, H @ V2 - lam_j * V2
        ok = np.maximum((R1 * R1).sum(axis=0), (R2 * R2).sum(axis=0)) <= res_tol ** 2
        taken[i].append(X[:, np.repeat(ok, step)[:X.shape[1]]])
        if i != j:
            taken[j].append(U[:, hit][:, ok])
        pairs.extend(JPair(lam_i, lam_j, v1, v2) for v1, v2 in zip(V1.T[ok], V2.T[ok]))
    rests = []
    for (_, B), t in zip(clusters, taken):
        T = np.column_stack(t)
        if T.shape[1] < B.shape[1]:
            rests.append(B @ np.linalg.svd(T)[0][:, T.shape[1]:])
    return sorted(pairs, key=lambda p: (p.lam1, p.lam2)), _reference_coupled_components(rests)


def _reference_decompose_blocks(eq):
    """The whole-space decomposition from the reference pairing; a pair
    whose v1 lies in span(T) takes the translations' +-i omega twice, and
    each coupled basis deflates the trivial vectors it holds.  The block
    that holds z is the one onto which more than half of z's norm^2
    projects, pairs first."""
    pairs, bases = _reference_symplectic_pairs(eq.Hw)
    T, z, slack = eq.trivial
    coupled = []
    for V in bases:
        Tv, zv = V.T @ T, V.T @ z
        Tv = Tv if np.sum(Tv * Tv) > 0.5 * np.sum(T * T) else Tv[:, :0]
        zv = zv if zv @ zv > 0.5 * (z @ z) else None
        coupled.append(deflated_eigenvalues(eq.omega2, eq.omega, V.T @ eq.Hw @ V,
                                            V.T @ eq.Jh @ V, Tv, zv, slack))
    Q = np.linalg.qr(T)[0]
    w = 1j * eq.omega
    spectra = tuple(np.array([w, -w, w, -w]) if np.sum((Q.T @ p.v1) ** 2) > 0.5
                    else block_spectrum(eq.omega, p.lam1, p.lam2) for p in pairs)
    planes = [np.column_stack([p.v1, p.v2]) for p in pairs] + list(bases)
    holds = [i for i, V in enumerate(planes) if np.sum((V.T @ z) ** 2) > 0.5 * (z @ z)]
    return BlockDecomposition(tuple(pairs), spectra, tuple(coupled), (holds or [None])[0])


class TestRouting:
    @pytest.mark.parametrize("request_", [
        AnalysisRequest(case="square-homogeneous", alpha=1.0),
        AnalysisRequest(positions=tuple(regular_polygon(24).rotated(0.4).positions),
                        potential=BENCHMARK_POTENTIALS["manev"]),
    ], ids=["square", "24-gon"])
    def test_polygon_analysis_reads_the_wave_stack(self, monkeypatch, request_):
        # one stack per configuration, and one wave-number spectrum per
        # analysis, shared by the trace route and the blocks: exactly one
        # stack on a cold configuration and none on a second run on a
        # preset's shared one; per run exactly one reduction (one
        # wave_number_spectrum), one stacked (m, 2, 2) eigh and no eigvalsh
        # of a K stack; no whole-space
        # pairing and no 2n x 2n eigh inside decompose_blocks
        stacks, reductions, eighs, eigvalshs, inside = [], [], [], [], [False]
        real_stack, real_spectrum = symmetry.wave_number_stack, symmetry.wave_number_spectrum
        real_eigh, real_eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        real_decompose = pipeline.decompose_blocks

        def counted_stack(points):
            stacks.append(len(points))
            return real_stack(points)

        def counted_spectrum(M, waves):
            reductions.append(waves.shape[0])
            return real_spectrum(M, waves)

        def recorded_eigh(a, *args, **kwargs):
            eighs.append((np.shape(a), inside[0]))
            return real_eigh(a, *args, **kwargs)

        def recorded_eigvalsh(a, *args, **kwargs):
            eigvalshs.append(np.shape(a))
            return real_eigvalsh(a, *args, **kwargs)

        def flagged_decompose(*args, **kwargs):
            inside[0] = True
            try:
                return real_decompose(*args, **kwargs)
            finally:
                inside[0] = False

        def refuse(*args):
            raise AssertionError("whole-space pairing on a polygon")

        for module in (symmetry, model):
            monkeypatch.setattr(module, "wave_number_stack", counted_stack)
            monkeypatch.setattr(module, "wave_number_spectrum", counted_spectrum)
        monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", recorded_eigvalsh)
        monkeypatch.setattr(pipeline, "decompose_blocks", flagged_decompose)
        monkeypatch.setattr(spectrum, "symplectic_pairs", refuse)
        presets._unit_polygon.cache_clear()
        report = run_analysis(request_)
        n = report.to_dict()["configuration"]["n"]
        m = n // 2 + 1
        assert report.matches_oracle and report.to_dict()["isotypic"]
        assert stacks == [n]
        assert reductions == [m]
        assert [s for s, _ in eighs if s[-2:] == (2, 2)] == [(m, 2, 2)]
        assert not [s for s in eigvalshs if s[-2:] == (2, 2)]
        assert all(s[-2:] == (2, 2) for s, within in eighs if within)
        assert run_analysis(request_).to_dict() == report.to_dict()
        assert stacks == ([n] if request_.case else [n, n])
        assert reductions == [m, m]
        assert [s for s, _ in eighs if s[-2:] == (2, 2)] == [(m, 2, 2)] * 2

    @pytest.mark.parametrize("label, cfg, spec", collinear_deck() + rings(),
                             ids=lambda x: x if isinstance(x, str) else "")
    def test_no_group_takes_the_whole_space_route(self, monkeypatch, label, cfg, spec):
        def refuse(*args, **kwargs):
            raise AssertionError(f"wave-number route on {label}")

        monkeypatch.setattr(model, "wave_number_stack", refuse)
        monkeypatch.setattr(spectrum, "wave_number_pairs", refuse)
        request = AnalysisRequest(positions=tuple(cfg.positions), masses=tuple(cfg.masses),
                                  potential=spec.terms)
        data = run_analysis(request).to_dict()
        assert data["isotypic"] == []

    @pytest.mark.parametrize("label, cfg, spec", WHOLE_SPACE_DECK,
                             ids=lambda x: x if isinstance(x, str) else "")
    def test_whole_space_route_matches_the_reference(self, label, cfg, spec):
        # the same pairs to the bit, the same coupled dimensions and the same
        # union spectrum to the byte as the SVD and Schur pair search
        eq = Equilibrium(cfg, spec)
        assert eq.config.group is None, label
        got, ref = decompose_blocks(eq), _reference_decompose_blocks(eq)
        assert [(p.lam1, p.lam2) for p in got.blocks] == [(p.lam1, p.lam2) for p in ref.blocks]
        assert list(map(len, got.coupled_spectra)) == list(map(len, ref.coupled_spectra))
        assert got.union_spectrum().tobytes() == ref.union_spectrum().tobytes(), label
        assert got.z_block == ref.z_block, label


class TestTrivialWaveNumbers:
    @staticmethod
    def _broken(k, other, eps=1e-6):
        """A square's equilibrium whose Hw gains eps |Hw| between the radial
        cosine directions of W_k and W_other: inside W_1 that splits the
        translation pair's K_1, across W_0 and W_2 it leaks out of both."""
        eq = Equilibrium(regular_polygon(4), PotentialSpec.homogeneous(1.0))
        u, v = eq.config.waves[k, :, 0], eq.config.waves[other, :, 0]
        Hw = eq.Hw + eps * np.max(np.abs(eq.Hw)) * (np.outer(u, v) + np.outer(v, u))
        fields = {"Hw": Hw, "Jh": eq.Jh, "omega": eq.omega, "n": eq.n, "trivial": eq.trivial,
                  "config": eq.config, "wave_spectrum": wave_number_spectrum(Hw, eq.config.waves)}
        return type("Broken", (), fields)()

    @pytest.mark.parametrize("k, other", [(0, 2), (1, 1)])
    def test_unpaired_trivial_wave_number_takes_the_whole_space_route(self, monkeypatch,
                                                                       k, other):
        # the wave route pairs once; where W_0 or W_1 fails to pair, the
        # whole-space route decomposes the same equilibrium instead
        eq = self._broken(k, other)
        assert not wave_number_pairs(eq.wave_spectrum, eq.config.waves)[1][k]
        pairings, routed = [], []
        real_pairs = spectrum.wave_number_pairs

        def counted_pairs(*args):
            pairings.append(args)
            return real_pairs(*args)

        def whole_space(e):
            routed.append(e)
            return "whole space"

        monkeypatch.setattr(spectrum, "wave_number_pairs", counted_pairs)
        monkeypatch.setattr(spectrum, "_decompose_whole_space", whole_space)
        assert decompose_blocks(eq) == "whole space"
        assert len(pairings) == 1 and routed == [eq]

    def test_triangle_typed_to_nine_digits(self):
        # regular to the detector's 1e-8 but not to the pair residual test's
        # 1e-10: the whole-space route matches the oracle
        positions = np.round(regular_polygon(3).positions, 9)
        eq = Equilibrium(BodyConfiguration(np.ones(3), positions), PotentialSpec.homogeneous(1.0))
        assert eq.config.waves is not None
        assert not wave_number_pairs(eq.wave_spectrum, eq.config.waves)[1][:2].all()
        got = decompose_blocks(eq)
        assert got.union_spectrum().tobytes() == \
            spectrum._decompose_whole_space(eq).union_spectrum().tobytes()
        report = run_analysis(AnalysisRequest(positions=tuple(positions), alpha=1.0))
        assert report.matches_oracle
