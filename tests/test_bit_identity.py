"""The vectorized Hessian and pairing against the loops they replaced.

Each ``_reference_*`` function below is the earlier Python loop, kept as the
definition of the result.  The Hessian and ``block_symplectic``
change only how the work is organised, not the arithmetic or its order, so
they must return the same bytes on every input.  The one-pass pairing
chooses its vectors differently from the greedy sweep it replaced, so it
must find the same (lam1, lam2) pairs and leave the same subspace over.
The oracle's deflation must pass the eigensolver's values through untouched.
"""

import numpy as np
import pytest

from relequil.central import regular_polygon
from relequil.model import (
    BodyConfiguration,
    Equilibrium,
    PotentialSpec,
    first_order_matrix,
    potential_hessian,
)
from relequil.presets import all_standard_cases
from relequil.spectrum import deflated_eigenvalues
from relequil.symmetry import (
    J2,
    JPair,
    _eigen_clusters,
    block_symplectic,
    symplectic_pairs,
)

from conftest import BENCHMARK_POTENTIALS, WHOLE_SPACE_DECK


def _reference_hessian(config, spec):
    q = config.points
    iu, ju = np.triu_indices(config.n, 1)
    d = q[iu] - q[ju]
    r = np.hypot(d[:, 0], d[:, 1])
    mm = config.masses[iu] * config.masses[ju]
    n = config.n
    H = np.zeros((2 * n, 2 * n))
    eye2 = np.eye(2)
    for c, a in spec.terms:
        coef_dd = c * mm * a * (a + 2) * r ** (-a - 4)
        coef_id = c * mm * a * r ** (-a - 2)
        for k in range(iu.size):
            i, j = int(iu[k]), int(ju[k])
            blk = coef_dd[k] * np.outer(d[k], d[k]) - coef_id[k] * eye2
            sl_i, sl_j = slice(2 * i, 2 * i + 2), slice(2 * j, 2 * j + 2)
            H[sl_i, sl_i] += blk
            H[sl_j, sl_j] += blk
            H[sl_i, sl_j] -= blk
            H[sl_j, sl_i] -= blk
    return H


def _reference_deflate(basis, used):
    if basis.shape[1] == 0:
        return basis
    B = basis - np.outer(used, used @ basis)
    U, S, _ = np.linalg.svd(B, full_matrices=False)
    return U[:, S > 1e-8]


def _reference_fix_pair_sign(v1, v2, tol=1e-9):
    for x in v1:
        if abs(x) > tol:
            if x < 0:
                return -v1, -v2
            return v1, v2
    return v1, v2


def _reference_strict_pairs(clusters, Jh, svd_tol):
    """Greedy sweep over cluster pairs, deflating after each accepted pair."""
    pairs = []
    cl = [[lam, B] for lam, B in clusters]
    progress = True
    while progress:
        progress = False
        for i in range(len(cl)):
            for j in range(i, len(cl)):
                Bi, Bj = cl[i][1], cl[j][1]
                if Bi.shape[1] == 0 or Bj.shape[1] == 0:
                    continue
                if i == j and Bi.shape[1] < 2:
                    continue
                sv = np.linalg.svd(Bj.T @ Jh @ Bi)
                k = int(np.argmax(sv.S))
                if abs(sv.S[k] - 1.0) > svd_tol:
                    continue
                v1 = Bi @ sv.Vh[k]
                v2 = -Jh @ v1
                v1, v2 = _reference_fix_pair_sign(v1, v2)
                pairs.append(JPair(cl[i][0], cl[j][0], v1, v2))
                cl[i][1] = _reference_deflate(cl[i][1], v1)
                cl[j][1] = _reference_deflate(cl[j][1], v2)
                progress = True
    leftover = [(lam, B) for lam, B in cl if B.shape[1] > 0]
    return pairs, leftover


def _reference_block_symplectic(n):
    Z = np.zeros((2 * n, 2 * n))
    for i in range(n):
        Z[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = J2
    return Z


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _analysis_inputs():
    """(label, config, spec): the six presets and polygons n = 3..16."""
    out = [(case.name, case.configuration(), case.potential)
           for case in all_standard_cases()]
    for n in range(3, 17):
        for name, terms in BENCHMARK_POTENTIALS.items():
            out.append((f"n={n} {name}", regular_polygon(n).rotated(0.7),
                        PotentialSpec(terms)))
    return out


ANALYSIS_INPUTS = _analysis_inputs()


def _random_spec(rng):
    k = int(rng.integers(1, 4))
    exps = np.sort(rng.choice(np.arange(0.5, 4.01, 0.25), size=k, replace=False))
    return PotentialSpec(tuple((float(rng.uniform(0.2, 2.0)), float(a)) for a in exps))


class TestHessian:
    @pytest.mark.parametrize("n", range(2, 31))
    def test_random_configurations(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(3):
            cfg = BodyConfiguration(rng.uniform(0.3, 3.0, n),
                                    rng.uniform(-2.0, 2.0, 2 * n))
            spec = _random_spec(rng)
            H = potential_hessian(cfg, spec)
            assert H.flags.c_contiguous
            assert _same_bytes(H, _reference_hessian(cfg, spec)), spec.describe()

    def test_presets_and_polygons(self):
        for label, cfg, spec in ANALYSIS_INPUTS:
            assert _same_bytes(potential_hessian(cfg, spec),
                               _reference_hessian(cfg, spec)), label


class TestPurify:
    """Cluster purification once rewrote the oracle's raw eigenvalues; the
    deflation that replaced it only splits off the trivial modes."""

    def test_raw_oracle_eigenvalues(self):
        # with no trivial vectors to deflate, Q is the identity and the
        # result is the dense eigensolve of the first-order matrix, byte for byte
        for label, cfg, spec in ANALYSIS_INPUTS:
            eq = Equilibrium(cfg, spec)
            T, _, slack = eq.trivial
            vals = deflated_eigenvalues(eq.omega2, eq.omega, eq.Hw, eq.Jh, T[:, :0], None, slack)
            raw = np.linalg.eigvals(first_order_matrix(eq.omega2, eq.omega, eq.Hw, eq.Jh))
            assert _same_bytes(vals, raw.astype(complex)), label


class TestStrictPairs:
    def test_presets_and_polygons(self):
        # none of these inputs has a near-pair, where the sweep's 1e-7 and
        # the one-pass count's PAIR_TOL disagree
        for label, cfg, spec in ANALYSIS_INPUTS:
            H = potential_hessian(cfg, spec)
            Jh = block_symplectic(cfg.n)
            pairs, rests = symplectic_pairs(H)
            ref_pairs, ref_leftover = _reference_strict_pairs(_eigen_clusters(H), Jh, 1e-7)
            assert ([(p.lam1, p.lam2) for p in pairs]
                    == sorted((q.lam1, q.lam2) for q in ref_pairs)), label
            empty = [np.zeros((2 * cfg.n, 0))]
            rest = np.column_stack(rests or empty)
            ref_rest = np.column_stack([B for _, B in ref_leftover] or empty)
            assert rest.shape == ref_rest.shape, label
            np.testing.assert_allclose(rest @ rest.T, ref_rest @ ref_rest.T,
                                       rtol=0, atol=1e-12, err_msg=label)
            scale = float(np.max(np.abs(H)))
            for p in pairs:
                np.testing.assert_allclose(H @ p.v1, p.lam1 * p.v1, rtol=0,
                                           atol=1e-10 * scale, err_msg=label)
                np.testing.assert_allclose(H @ p.v2, p.lam2 * p.v2, rtol=0,
                                           atol=1e-10 * scale, err_msg=label)

    def test_each_leftover_block_is_invariant(self):
        # every coupled basis spans a subspace that both Hw and Jhat map
        # into itself; a missed Jhat link would leave a defect of order 1e-6.
        # Besides the presets and polygons, the inputs without a dihedral
        # group: collinear, 1+n rings, random draws and Lagrange triangles.
        # Rings with a central mass of 1e3 or more are left out: their
        # nearest eigen-clusters lie so close that eigh resolves each basis
        # only to about 1e-10, and the Jhat defect of a coupled basis there
        # reaches 6.3e-10 (1+7 ring, m0 = 3e4, 1/r)
        light = [(label, cfg, spec) for label, cfg, spec in WHOLE_SPACE_DECK
                 if "ring" not in label or cfg.masses[0] <= 1e2]
        for label, cfg, spec in ANALYSIS_INPUTS + light:
            eq = Equilibrium(cfg, spec)
            for V in symplectic_pairs(eq.Hw)[1]:
                np.testing.assert_allclose(V.T @ V, np.eye(V.shape[1]), rtol=0, atol=1e-12)
                for M in (eq.Hw, eq.Jh):
                    defect = np.linalg.norm(M @ V - V @ (V.T @ M @ V), 2)
                    assert defect <= 1e-12 * np.linalg.norm(M, 2), label


def test_block_symplectic():
    for n in range(1, 33):
        assert _same_bytes(block_symplectic(n), _reference_block_symplectic(n)), n


def _reference_wave_blocks(omega, K):
    """The complex 4x4 stack of ``wave_number_block_spectra``, filled by hand."""
    C = np.zeros((len(K), 4, 4), dtype=complex)
    C[:, :2, 2:] = np.eye(2)
    C[:, 2:, :2] = omega * omega * np.eye(2) + K
    C[:, 2:, 2:] = 2.0 * omega * J2
    return C


@pytest.mark.parametrize("dtype", [float, complex])
def test_first_order_matrix_of_a_stack_is_each_matrix(dtype):
    rng = np.random.default_rng(30)
    omega = 0.7
    h = rng.standard_normal((6, 2, 2))
    if dtype is complex:
        h = h + 1j * rng.standard_normal((6, 2, 2))
    stacked = first_order_matrix(omega * omega, omega, h, J2)
    assert stacked.shape == (6, 4, 4) and stacked.dtype == dtype
    for k in range(len(h)):
        assert _same_bytes(stacked[k], first_order_matrix(omega * omega, omega, h[k], J2)), k
    if dtype is complex:
        assert _same_bytes(stacked, _reference_wave_blocks(omega, h))
