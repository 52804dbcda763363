"""Linearized rotating-frame blocks, the full-system oracle, and verdicts.

The linearization about a relative equilibrium is the 4n x 4n real matrix

    A = [[0, I], [omega^2 I + M^{-1} D^2U, 2 omega Jhat]],

whose spectrum decides spectral stability.  Where the symmetry machinery
produces eigenvector pairs, A splits into closed-form 4x4 blocks; a dense
eigensolve of A, its trivial modes deflated in closed form, is kept as an
independent oracle and the two routes are compared eigenvalue-by-eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .model import first_order_matrix, position_basis
from .symmetry import J2, symplectic_pairs, wave_number_pairs

SNAP_TOL = 1e-12            # coefficient snap in the closed-form quartic
CLASSIFY_TOL = 1e-8         # |Re|, |Im| thresholds relative to spectral radius
_PERMS4 = np.array(list(permutations(range(4))))    # lexicographic order

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


def _principal_sqrt(u):
    """Square root with nonnegative real part; ties toward +i."""
    s = np.sqrt(complex(u))
    if s.real < 0 or (s.real == 0 and s.imag < 0):
        s = -s
    return s


def block_spectrum(omega, lam1, lam2):
    """Four eigenvalues of the 4x4 block of a pair, first_order_matrix(omega^2,
    omega, diag(lam1, lam2), J2), from its biquadratic in closed form.

    With c_k = omega^2 + lam_k the characteristic polynomial is
    s^4 + p s^2 + q with p = 4 omega^2 - c1 - c2 and q = c1 c2.  Below
    SNAP_TOL of their natural scale (scale for p, scale^2 for q and the
    discriminant p^2 - 4 q) these are snapped to zero: the exact
    rotation/translation blocks produce cancellations there, and the raw
    float residue would otherwise be amplified to ~sqrt(eps) by the root
    extraction.  The roots are therefore the exact roots of a biquadratic
    whose p moved by at most SNAP_TOL scale and whose q and disc / 4 each
    moved by at most SNAP_TOL scale^2.  ValueError unless omega > 0.
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    w2 = omega ** 2
    c1, c2 = w2 + lam1, w2 + lam2
    scale = max(w2, abs(lam1), abs(lam2), 1e-300)
    p = 4.0 * w2 - c1 - c2
    q = c1 * c2
    if abs(p) <= SNAP_TOL * scale:
        p = 0.0
    if abs(q) <= SNAP_TOL * scale * scale:
        q = 0.0
    disc = p * p - 4.0 * q
    if abs(disc) <= SNAP_TOL * scale * scale:
        disc = 0.0
    root = _principal_sqrt(disc)
    out = []
    for u in ((-p + root) / 2.0, (-p - root) / 2.0):
        s = _principal_sqrt(u)
        out.extend([s, -s])
    return np.array(out)


@dataclass(frozen=True)
class BlockDecomposition:
    """The pairs of the linearization's closed-form 4x4 blocks, the
    eigenvalues of each, and those of each coupled block."""

    blocks: tuple              # JPair per closed-form 4x4 block
    block_spectra: tuple       # eigenvalues per pair
    coupled_spectra: tuple     # eigenvalues per coupled block
    z_block: int | None        # z's block in block_spectra + coupled_spectra, or None

    def union_spectrum(self):
        return np.concatenate(self.block_spectra + self.coupled_spectra)


def decompose_blocks(eq):
    """Block decomposition of the linearization at a central configuration.

    The mass-weighted Hessian ``eq.Hw`` and Jhat split the space into joint
    invariant subspaces: each that is one eigenvector pair compatible with
    Jhat yields a closed-form 4x4 block, and each other one a coupled block.
    On a regular polygon (``eq.wave_spectrum`` set) these are the wave-number
    subspaces (``wave_number_pairs``), each unpaired W_k one coupled block:
    the classical ring reduction.  The trivial vectors lie in W_0 (z and
    Jhat z) and W_1 (the translations); where either fails to pair, as on a
    polygon regular only to the detector's 1e-8, and for every other input,
    they are the Jhat-coupled components of the eigen-clusters of Hw
    (``symplectic_pairs``).
    """
    if (spectrum := eq.wave_spectrum) is not None:
        pairs, paired = wave_number_pairs(spectrum, eq.config.waves)
        if paired[:2].all():
            # W_0 and W_1 paired, so no unpaired W_k holds a trivial vector
            return _decomposition(eq, pairs, wave_number_block_spectra(
                eq.omega, spectrum.K[~paired], eq.config.group.wave_dims[~paired]), [])
    return _decompose_whole_space(eq)


def _trivial_in(eq, V):
    """The trivial vectors of ``eq.trivial`` that lie in span(V), in the
    orthonormal basis V of an invariant subspace: (T_V, z_V, slack) for
    ``deflated_eigenvalues``, T_V without columns and z_V None where span(V)
    does not hold them.  A stack (m, 2n, d) of bases gives a list of m such.

    Each trivial vector lies in span(V) or orthogonal to it: span(V) holds
    it when more than half of its norm^2 projects onto span(V), and one in
    between fails the deflation's defect test.
    """
    T, z, slack = eq.trivial
    Vt = (V if V.ndim == 3 else V[None]).transpose(0, 2, 1)
    Tv, zv = Vt @ T, Vt @ z
    t_in = (Tv * Tv).sum((1, 2)) > 0.5 * np.sum(T * T)
    z_in = (zv * zv).sum(1) > 0.5 * (z @ z)
    held = [(t if ti else t[:, :0], v if zi else None, slack)
            for t, v, ti, zi in zip(Tv, zv, t_in.tolist(), z_in.tolist())]
    return held if V.ndim == 3 else held[0]


def _decomposition(eq, pairs, coupled_spectra, coupled_held):
    """The ``BlockDecomposition`` of the pairs and of the coupled blocks'
    spectra, whose bases hold ``coupled_held`` (``_trivial_in``).  A pair
    whose plane holds the translations T takes their exact +-i omega twice,
    as the oracle's deflation does: its lam1 and lam2 are zero only up to
    the rounding of Hw, and the closed form would split that defective
    double root by sqrt(omega |lam|)."""
    planes = np.array([[p.v1, p.v2] for p in pairs]).reshape(len(pairs), 2, 2 * eq.n)
    held = _trivial_in(eq, planes.transpose(0, 2, 1))
    w = 1j * eq.omega
    spectra = tuple(np.array([w, -w, w, -w]) if T.shape[1]
                    else block_spectrum(eq.omega, p.lam1, p.lam2)
                    for p, (T, _, _) in zip(pairs, held))
    z_block = next((i for i, (_, z, _) in enumerate(held + coupled_held) if z is not None), None)
    return BlockDecomposition(tuple(pairs), spectra, tuple(coupled_spectra), z_block)


def _decompose_whole_space(eq):
    """``decompose_blocks`` from the whole-space pairing of ``eq.Hw``."""
    pairs, bases = symplectic_pairs(eq.Hw)
    held = [_trivial_in(eq, V) for V in bases]
    return _decomposition(eq, pairs, [
        deflated_eigenvalues(eq.omega2, eq.omega, V.T @ eq.Hw @ V, V.T @ eq.Jh @ V, *trivial)
        for V, trivial in zip(bases, held)], held)


def wave_number_block_spectra(omega, K, dims):
    """Eigenvalues of the linearization on wave-number subspaces, from their
    Hermitian 2x2 matrices K_k (``WaveSpectrum.K``) and dimensions 2 or 4.

    On a W_k of dimension 4 the real 8x8 [[0, I], [omega^2 + h_k, 2 omega
    diag(J2, J2)]] is the realification of the complex 4x4 [[0, I],
    [omega^2 + K_k, 2 omega J2]]: its eigenvalues are the complex matrix's
    and their conjugates.  On one of dimension 2, K_k is real and the 4x4 is
    the whole block.  One stacked eigvals solves every 4x4; no W_k, no call.
    """
    if not len(dims):
        return ()
    C = first_order_matrix(omega * omega, omega, K, J2)
    return tuple(np.concatenate([e, e.conj()]) if d == 4 else e
                 for e, d in zip(np.linalg.eigvals(C), dims))


def deflated_eigenvalues(omega2, omega, h, j, T, z, slack, basis=None):
    """Eigenvalues of B = first_order_matrix(omega2, omega, h, j), its trivial
    invariant subspace deflated in closed form (``Equilibrium.trivial`` gives
    T, z and slack; T may be empty and z None).

    That subspace is the translations (T, 0), (0, T), eigenvalues +-i omega
    twice, plus either the homographic plane {z, Jhat z} x {position,
    velocity} when h z = mu z, eigenvalues 0, 0, +-sqrt(mu - 3 omega^2) from
    its own block_spectrum(omega, mu, nu), nu = -omega^2 up to slack; or else
    the rotation chain (Jhat z, 0), (a, Jhat z) with (omega^2 + h) a =
    2 omega z, eigenvalues 0, 0.

    Without the chain the deflation stays in position space: with the
    complete QR [Q1, Q2] of P = [T, z, Jhat z] (or of T alone),
    diag(Q, Q)^T B diag(Q, Q) is first_order_matrix(omega2, omega, Q^T h Q,
    Q^T j Q), block triangular up to the couplings Q2^T h Q1 and
    2 omega Q2^T j Q1, so the rest of the spectrum is that of
    first_order_matrix(omega2, omega, Q2^T h Q2, Q2^T j Q2).  ``basis``,
    when given, returns ``model.position_basis`` of exactly these P and j
    (``BodyConfiguration.plane_basis``) and is called only on this branch;
    without it the basis is built here.  The chain mixes positions with
    velocities, so it is deflated in the 4k space by a complete QR
    [Q1, Q2] of its vectors and B's block Q2^T B Q2.  Raises
    ConsistencyError when the coupling left out exceeds its bound.
    """
    B = first_order_matrix(omega2, omega, h, j)
    if T.shape[1] == 0 and z is None:
        # nothing to deflate
        return np.linalg.eigvals(B).astype(complex)
    k = h.shape[0]
    # Rounding: the computed h annihilates T and Jhat z only up to the error
    # of its pair sums, about k eps |h|; Householder QR spans the given
    # vectors to about 2k eps; and each entry of the coupling left out comes
    # from two inner products of length at most 2k, each good to 2k eps |B|.
    # Together these stay below 8k eps |B|_F.
    rounding = 8.0 * k * np.finfo(float).eps * np.linalg.norm(B)
    P, values = [T], [1j * omega, -1j * omega] * T.shape[1]
    if z is not None:
        z = z / np.linalg.norm(z)
        r, hz = j @ z, h @ z
        mu = z @ hz
        # The plane's defect is |h z - mu z|, since (z, 0) maps to
        # (0, (omega^2 + mu) z + h z - mu z) and the other three of its
        # vectors map into it up to slack; at rounding level it is invariant.
        if np.linalg.norm(hz - mu * z) > rounding:
            # r r^T lifts the kernel span(r) of the symmetric omega^2 + h;
            # as r^T z = 0, the solution has r^T a = 0 up to slack
            a = np.linalg.solve(omega2 * np.eye(k) + h + np.outer(r, r), 2.0 * omega * z)
            V = np.column_stack([np.vstack([T, 0.0 * T]), np.vstack([0.0 * T, T]),
                                 np.concatenate([r, 0.0 * r]), np.concatenate([a, r])])
            m = V.shape[1]
            Q = np.linalg.qr(V, mode="complete")[0]
            R = Q.T @ B @ Q
            # slack moves (Jhat z, 0) and (a, Jhat z) out of the span
            return _deflated(values + [0.0, 0.0], float(np.linalg.norm(R[m:, :m])),
                             2.0 * slack + rounding, R[m:, m:])
        P.append(np.column_stack([z, r]))
        values += list(block_spectrum(omega, mu, r @ h @ r))
    P = np.column_stack(P)
    m = P.shape[1]
    Q, jq = basis() if basis is not None else position_basis(P, j)
    hq, jq = Q[:, m:].T @ h @ Q, jq[m:]
    # span(P) is j-invariant (j T = T J2, j z = r, j r = -z), so Q2^T j Q1 is
    # rounding.  In Q2^T h Q1, h T is the rounding of h's pair sums, h z
    # passed the plane test, and |Q2^T h r| = |Q2^T (omega^2 + h) r| is at
    # most slack: only r's column carries slack, once, where the chain's
    # two vectors each carry it.  The inner products here have length k,
    # not 2k, so the rounding level above covers the rest.
    defect = float(np.hypot(np.linalg.norm(hq[:, :m]), 2.0 * omega * np.linalg.norm(jq[:, :m])))
    return _deflated(values, defect, slack + rounding,
                     first_order_matrix(omega2, omega, hq[:, m:], jq[:, m:]))


def _deflated(values, defect, bound, rest):
    """The deflated values and the eigenvalues of the block ``rest`` left
    over; ConsistencyError when the invariance defect exceeds its bound."""
    if not defect <= bound:
        raise ConsistencyError("trivial modes", f"invariance defect {defect:.3e} of the "
                               f"deflated subspace exceeds its bound {bound:.3e}")
    return np.concatenate([np.array(values, dtype=complex), np.linalg.eigvals(rest)])


def full_linearization_spectrum(eq):
    """All 4n eigenvalues of the equilibrium's linearization (the oracle route).

    Solved on the mass-weighted form first_order_matrix(omega^2, omega, Hw,
    Jhat), which diag(M^{1/2}, M^{1/2}) makes similar to the A of M^{-1} H,
    with its trivial subspace deflated on the configuration's
    ``plane_basis``.
    """
    return deflated_eigenvalues(eq.omega2, eq.omega, eq.Hw, eq.Jh, *eq.trivial,
                                basis=lambda: eq.config.plane_basis)


def sorted_spectrum(values):
    """The eigenvalues as a complex array sorted by (Re, Im), each rounded
    at 1e-12 times the spectral radius for the sort.  Each row of a 2-D array
    is one spectrum, sorted on its own with its own radius, in one lexsort."""
    v = np.asarray(values, dtype=complex)
    step = 1e-12 * np.abs(v).max(-1, initial=1e-300, keepdims=True)
    order = np.lexsort((np.round(v.imag / step) * step, np.round(v.real / step) * step))
    return v[order] if v.ndim == 1 else np.take_along_axis(v, order, -1)


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


def eigenvalue_labels(values, thr):
    """Label each eigenvalue zero, pure-imaginary, real or complex at |Re|, |Im| <= thr."""
    v = np.asarray(values, dtype=complex)
    kind = 2 * (np.abs(v.real) <= thr) + (np.abs(v.imag) <= thr)
    return np.array(["complex", "real", "pure-imaginary", "zero"])[kind].tolist()


def spectral_verdict(eigs):
    """(verdict, max Re, threshold) of a spectrum in any order: unstable iff
    some real part exceeds the threshold, CLASSIFY_TOL times the spectral
    radius.  The radius is taken on contiguous values, since numpy rounds
    the complex abs of a strided view differently, by up to an ulp."""
    vals = np.ascontiguousarray(eigs, dtype=complex)
    thr = CLASSIFY_TOL * float(np.max(np.abs(vals), initial=1e-300))
    max_re = float(np.max(vals.real)) if vals.size else 0.0
    return (UNSTABLE if max_re > thr else NOT_UNSTABLE), max_re, thr


def classify(eigs):
    """Label eigenvalues and decide spectral stability (``spectral_verdict``);
    labels are measured against the verdict's threshold."""
    vals = np.asarray(eigs, dtype=complex)
    verdict, max_re, thr = spectral_verdict(vals)
    return StabilityVerdict(vals, tuple(eigenvalue_labels(vals, thr)), verdict, max_re, thr)


@dataclass(frozen=True)
class SpectrumMatch:
    matches: bool
    max_distance: float
    tol: float
    scale: float
    worst_pairs: tuple        # the 4 worst ((a, b, distance), ...), worst-first
    cardinality_mismatch: bool = False


def compare_spectra(a, b, tol=1e-9):
    """Minimum-cost bipartite matching of two eigenvalue multisets.

    Passing means the worst matched distance is at most tol * scale where
    scale is the larger spectral radius.  A cardinality mismatch is its own
    structural failure, reported rather than raised.

    The matching minimizes the summed distance.  Two spectra of one
    linearization are near-equal clusters, and ``_cluster_assignment``
    certifies that the matching splits into those clusters and solves each
    of at most 4 members by enumeration.  Where that certificate fails, or
    a cluster is larger, scipy's ``linear_sum_assignment`` solves the whole
    matching; every input that fails the gate takes that path.
    """
    va, vb = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    scale = float(np.max(np.abs(np.concatenate([va, vb])), initial=1e-300))
    if va.size != vb.size:
        return SpectrumMatch(False, np.inf, tol, scale, (), True)
    cost = np.abs(va[:, None] - vb[None, :])
    cols = _cluster_assignment(cost, tol * scale)
    if cols is None:
        from scipy.optimize import linear_sum_assignment

        cols = linear_sum_assignment(cost)[1]
    dists = cost[np.arange(va.size), cols]
    order = np.argsort(dists)[::-1]
    worst = tuple(
        (complex(va[k]), complex(vb[cols[k]]), float(dists[k]))
        for k in order[:4]
    )
    max_d = float(dists.max()) if dists.size else 0.0
    return SpectrumMatch(max_d <= tol * scale, max_d, tol, scale, worst)


def _cluster_assignment(cost, bound):
    """Columns of a minimum-sum assignment of the square ``cost``, found
    inside its clusters, or None where no certificate holds.

    Let E = (cost <= bound).  Each row is keyed by its first column in E,
    each column by the key of its first row in E.  The certificate is:
    (1) E holds exactly where the keys of row and column agree, so E is a
    disjoint union of complete bipartite blocks; (2) each key has as many
    rows as columns; (3) the least cost off E exceeds N times the largest
    on E.  Then one entry off E costs more than a whole assignment inside
    the blocks, so every minimum-sum assignment stays inside them and each
    block is solved on its own: a block of one is its row's key, and one of
    2 to 4, padded to 4 with entries that only match one another, takes
    the first of its 24 permutations of least sum.  A row or column with
    no entry in E breaks (1) or (2).  Blocks above 4 give None.
    """
    n = len(cost)
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    near = cost <= bound
    rk = near.argmax(1)
    ck = rk[near.argmax(0)]
    counts = np.bincount(rk, minlength=n)
    if not ((near == (rk[:, None] == ck)).all()
            and (counts == np.bincount(ck, minlength=n)).all()
            and cost[~near].min(initial=np.inf) > n * cost[near].max()):
        return None
    size = counts.max()
    if size > 4:
        return None
    # rows and columns sorted by key share one sequence of keys; each takes
    # the next slot of its key's row in a padded (key, 4) table
    ro = rk.argsort(kind="stable")
    keys = rk[ro]
    slot = np.arange(n) - keys.searchsorted(keys)
    table = np.full((2, n, 4), n)
    table[:, keys, slot] = ro, ck.argsort(kind="stable")
    R, C = table[:, counts > 1]
    # a padding row costs 0 anywhere; a real row costs inf at a padding column
    padded = np.zeros((n + 1, n + 1))
    padded[:n, :n] = cost
    padded[:n, n] = np.inf
    best = padded[R[:, None, :], C[:, _PERMS4]].sum(2).argmin(1)
    cols = np.concatenate((rk, [n]))
    cols[R] = C[np.arange(len(C))[:, None], _PERMS4[best]]
    return cols[:n]
