"""Linearized rotating-frame blocks, the full-system oracle, and verdicts.

The linearization about a relative equilibrium is the 4n x 4n real matrix

    A = [[0, I], [omega^2 I + M^{-1} D^2U, 2 omega Jhat]],

whose spectrum decides spectral stability.  Where the symmetry machinery
produces eigenvector pairs, A splits into closed-form 4x4 blocks; the full
dense eigensolve of A is kept as an independent oracle and the two routes
are compared eigenvalue-by-eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import Spectrum, first_order_matrix
from .symmetry import (
    J2,
    block_symplectic,
    polygon_axis_angle,
    symplectic_pairs,
    wave_number_basis,
)

SNAP_TOL = 1e-12            # coefficient snap in the closed-form quartic
CLASSIFY_TOL = 1e-8         # |Re|, |Im| thresholds relative to spectral radius
PURIFY_CONST = 400.0        # cluster radius r_k = (PURIFY_CONST eps |A|)^(1/k)

UNSTABLE = "spectrally-unstable"
NOT_UNSTABLE = "not-unstable-at-linear-order"


class ConsistencyError(RuntimeError):
    """Independent computation routes, or a route's own bookkeeping, disagree.

    ``stage`` names the step that broke; the message states the quantity
    that broke and the bound it exceeded.
    """

    def __init__(self, stage, detail):
        self.stage = stage
        super().__init__(f"{stage}: {detail}")


@dataclass(frozen=True)
class LinearBlock:
    """4x4 block [[0, I2], [omega^2 I2 + diag(lam1, lam2), 2 omega J]]."""

    omega: float
    lam1: float
    lam2: float

    @property
    def matrix(self):
        return first_order_matrix(self.omega ** 2, self.omega,
                                  np.diag([self.lam1, self.lam2]), J2)


def build_block(omega, lam1, lam2):
    if omega <= 0:
        raise ValueError("omega must be positive")
    return LinearBlock(float(omega), float(lam1), float(lam2))


def _principal_sqrt(u):
    """Square root with nonnegative real part; ties toward +i."""
    s = np.sqrt(complex(u))
    if s.real < 0 or (s.real == 0 and s.imag < 0):
        s = -s
    return s


def block_spectrum(block, snap_tol=SNAP_TOL):
    """Four eigenvalues of the block from its biquadratic in closed form.

    With c_k = omega^2 + lam_k the characteristic polynomial is
    s^4 + (4 omega^2 - c1 - c2) s^2 + c1 c2.  Coefficients (and the
    discriminant) are snapped to zero below snap_tol of their natural
    scale: the exact rotation/translation blocks produce cancellations
    there, and the raw float residue would otherwise be amplified to
    ~sqrt(eps) by the root extraction.
    """
    w2 = block.omega ** 2
    c1, c2 = w2 + block.lam1, w2 + block.lam2
    scale = max(w2, abs(block.lam1), abs(block.lam2), 1e-300)
    p = 4.0 * w2 - c1 - c2
    q = c1 * c2
    if abs(p) <= snap_tol * scale:
        p = 0.0
    if abs(q) <= snap_tol * scale * scale:
        q = 0.0
    disc = p * p - 4.0 * q
    if abs(disc) <= snap_tol * scale * scale * max(abs(p), snap_tol):
        disc = 0.0
    root = _principal_sqrt(disc)
    out = []
    for u in ((-p + root) / 2.0, (-p - root) / 2.0):
        s = _principal_sqrt(u)
        out.extend([s, -s])
    return np.array(out)


@dataclass(frozen=True)
class CoupledBlock:
    """Joint (H, Jhat)-invariant subspace that admits no 4x4 splitting.

    Holds the restrictions of the Hessian and the block symplectic map to
    an orthonormal basis of the subspace; the first-order block is twice
    the subspace dimension and is solved densely, its defective clusters
    purified at the block's own norm.
    """

    omega: float
    h_sub: np.ndarray
    j_sub: np.ndarray

    @property
    def dim(self):
        return self.h_sub.shape[0]

    @property
    def matrix(self):
        return first_order_matrix(self.omega ** 2, self.omega, self.h_sub, self.j_sub)

    def spectrum(self):
        B = self.matrix
        return purify_eigenvalues(np.linalg.eigvals(B), float(np.linalg.norm(B, 2)))


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks of the linearization, each solved once at construction."""

    omega: float
    pairs: tuple               # JPair objects backing the plain blocks
    blocks: tuple              # LinearBlock per pair
    coupled: tuple             # CoupledBlock for unpairable subspaces
    block_spectra: tuple = field(init=False)     # eigenvalues per LinearBlock
    coupled_spectra: tuple = field(init=False)   # eigenvalues per CoupledBlock

    def __post_init__(self):
        object.__setattr__(self, "block_spectra",
                           tuple(block_spectrum(b) for b in self.blocks))
        object.__setattr__(self, "coupled_spectra",
                           tuple(c.spectrum() for c in self.coupled))

    def union_spectrum(self):
        return Spectrum(np.concatenate(self.block_spectra + self.coupled_spectra))


def decompose_blocks(eq):
    """Block decomposition of the linearization at a central configuration.

    Every eigenvector pair found by the symplectic pairing yields a
    closed-form 4x4 block.  What the pairs leave over becomes coupled
    blocks: for a regular polygon one per real wave-number subspace that
    the pairs do not cover (the classical ring reduction); for any other
    configuration a single block on that leftover subspace.  The pairing
    works on the mass-weighted Hessian ``eq.Hw``.
    """
    config, Hw = eq.config, eq.Hw
    pairs, rest = symplectic_pairs(Hw)
    bases = [rest] if rest.shape[1] else []
    if bases and polygon_axis_angle(config) is not None:
        waves = (wave_number_basis(config.points, k) for k in range(config.n // 2 + 1))
        # |rest^T W|_F^2 is dim W when W lies in span(rest) and 0 when the
        # pairs cover it; halfway splits the two
        bases = [W for W in waves if np.sum((rest.T @ W) ** 2) > 0.5 * W.shape[1]]
        dim = sum(W.shape[1] for W in bases)
        if dim != rest.shape[1]:
            raise ConsistencyError(
                "decompose_blocks",
                f"uncovered wave-number subspaces span {dim} dimensions, "
                f"the J-pairs leave {rest.shape[1]}",
            )
    Jh = block_symplectic(config.n)
    coupled = tuple(CoupledBlock(eq.omega, V.T @ Hw @ V, V.T @ Jh @ V) for V in bases)
    blocks = tuple(build_block(eq.omega, p.lam1, p.lam2) for p in pairs)
    return BlockDecomposition(eq.omega, tuple(pairs), blocks, coupled)


def purify_eigenvalues(values, matrix_norm, max_chain=8, const=PURIFY_CONST):
    """Replace clusters of defective eigenvalues by their mean.

    A Jordan chain of length k scatters a computed eigenvalue by roughly
    (eps |A|)^(1/k) while the cluster mean stays first-order accurate.
    Clusters are merged at radius r_k = (const eps |A|)^(1/k) only when the
    merged multiplicity is at least k, so large radii cannot glue distinct
    simple eigenvalues together.  Each pass links the cluster means closer
    than r_k in one distance matrix and walks the linked components depth
    first; that walk orders each merged cluster, and so the sum behind its
    mean.
    """
    eps = np.finfo(float).eps
    vals = np.asarray(values, dtype=complex)
    clusters = [[i] for i in range(vals.size)]
    # the mean of a single value is the value with any -0.0 part made +0.0
    means = vals + 0.0
    for k in range(2, max_chain + 1):
        rk = (const * eps * matrix_norm) ** (1.0 / k)
        while True:
            gap = means[:, None] - means[None, :]
            # hypot per entry equals the scalar complex abs bit for bit;
            # numpy's vectorized complex abs can differ in the last bit
            near = np.hypot(gap.real, gap.imag) <= rk
            np.fill_diagonal(near, False)
            if not near.any():
                break
            linked = near.any(axis=1)
            seen = np.zeros(len(clusters), dtype=bool)
            new_clusters, new_means = [], []
            merged_any = False
            for i in range(len(clusters)):
                if not linked[i]:
                    new_clusters.append(clusters[i])
                    new_means.append(means[i])
                    continue
                if seen[i]:
                    continue
                stack, comp = [i], []
                seen[i] = True
                while stack:
                    u = stack.pop()
                    comp.append(u)
                    for v in np.flatnonzero(near[u] & ~seen):
                        seen[v] = True
                        stack.append(v)
                total = sum(len(clusters[u]) for u in comp)
                if len(comp) > 1 and total >= k:
                    merged = sum((clusters[u] for u in comp), [])
                    new_clusters.append(merged)
                    new_means.append(np.mean(vals[merged]))
                    merged_any = True
                else:
                    new_clusters.extend(clusters[u] for u in comp)
                    new_means.extend(means[u] for u in comp)
            clusters, means = new_clusters, np.array(new_means)
            if not merged_any:
                break
    out = vals + 0.0
    for c, mean in zip(clusters, means):
        if len(c) > 1:
            out[c] = mean
    return out


def full_linearization_spectrum(eq, purify=True):
    """All 4n eigenvalues of the equilibrium's dense linearization ``eq.A``
    (the oracle route)."""
    vals = np.linalg.eigvals(eq.A)
    if purify:
        vals = purify_eigenvalues(vals, float(np.linalg.norm(eq.A, 2)))
    return Spectrum(vals)


@dataclass(frozen=True)
class StabilityVerdict:
    eigenvalues: np.ndarray
    labels: tuple
    verdict: str
    max_real_part: float
    tol: float
    n_zero: int = field(init=False)
    n_pure_imaginary: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n_zero", self.labels.count("zero"))
        object.__setattr__(
            self, "n_pure_imaginary", self.labels.count("pure-imaginary")
        )

    @property
    def is_unstable(self):
        return self.verdict == UNSTABLE


def eigenvalue_labels(values, thr):
    """Label each eigenvalue zero, pure-imaginary, real or complex at |Re|, |Im| <= thr."""
    labels = []
    for s in values:
        small_re, small_im = abs(s.real) <= thr, abs(s.imag) <= thr
        if small_re and small_im:
            labels.append("zero")
        elif small_re:
            labels.append("pure-imaginary")
        elif small_im:
            labels.append("real")
        else:
            labels.append("complex")
    return labels


def classify(eigs, tol=CLASSIFY_TOL, scale=None):
    """Label eigenvalues and decide spectral stability.

    Labels are measured against tol * scale with scale defaulting to the
    spectral radius; the verdict is unstable iff some real part exceeds
    that threshold.
    """
    vals = np.asarray(eigs.values if isinstance(eigs, Spectrum) else eigs,
                      dtype=complex)
    if scale is None:
        scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    thr = tol * max(scale, 1e-300)
    labels = eigenvalue_labels(vals, thr)
    max_re = float(np.max(vals.real)) if vals.size else 0.0
    verdict = UNSTABLE if max_re > thr else NOT_UNSTABLE
    return StabilityVerdict(vals, tuple(labels), verdict, max_re, thr)


@dataclass(frozen=True)
class SpectrumMatch:
    matches: bool
    max_distance: float
    tol: float
    scale: float
    worst_pairs: tuple        # ((a, b, distance), ...) sorted worst-first
    cardinality_mismatch: bool = False

    def __bool__(self):
        return self.matches


def compare_spectra(a, b, tol=1e-9, n_worst=4):
    """Minimum-cost bipartite matching of two eigenvalue multisets.

    Passing means the worst matched distance is at most tol * scale where
    scale is the larger spectral radius.  A cardinality mismatch is its own
    structural failure, reported rather than raised.
    """
    va = np.asarray(a.values if isinstance(a, Spectrum) else a, dtype=complex)
    vb = np.asarray(b.values if isinstance(b, Spectrum) else b, dtype=complex)
    scale = max(
        float(np.max(np.abs(va))) if va.size else 0.0,
        float(np.max(np.abs(vb))) if vb.size else 0.0,
        1e-300,
    )
    if va.size != vb.size:
        return SpectrumMatch(False, np.inf, tol, scale, (), True)
    cost = np.abs(va[:, None] - vb[None, :])
    rows, cols = linear_sum_assignment(cost)
    dists = cost[rows, cols]
    order = np.argsort(dists)[::-1]
    worst = tuple(
        (complex(va[rows[k]]), complex(vb[cols[k]]), float(dists[k]))
        for k in order[:n_worst]
    )
    max_d = float(dists.max()) if dists.size else 0.0
    return SpectrumMatch(max_d <= tol * scale, max_d, tol, scale, worst)
