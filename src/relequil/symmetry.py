"""Dihedral symmetry groups acting on planar configurations.

A group element is a body permutation combined with one planar orthogonal
map applied to every body; it acts on flattened coordinates through a
2n x 2n block-permutation matrix, which nothing on the analysis path
forms: the trace equations and the invariance gate read the 2x2 body
blocks of the Hessian that the permutation pairs up, and the isotypic
components of multiplicity two are the wave-number subspaces of the
regular polygon.  Characters, trace equations, the pairing of
eigenvectors compatible with the block symplectic operator, and the
wave-number subspaces all live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

ORTHO_TOL = 1e-14
# Eigenvalues closer than CLUSTER_TOL times the spectral radius share a cluster.
CLUSTER_TOL = 1e-8
# A singular value of B_j^T Jhat B_i within PAIR_TOL of 1 is a candidate
# pair.  There 1 - sigma = O(theta^2 + 2n eps), where theta <~ eps / CLUSTER_TOL
# bounds the rounding error of the cluster bases.  Over the presets, the
# polygons and the collinear inputs, exact pairs lie at 1 - sigma <= 2.0e-15
# and near-pairs (collinear Schwarzschild) at >= 1.16e-8.  As 1 - sigma <
# PAIR_TOL still lets v2 stray sqrt(2 PAIR_TOL) from its cluster, a candidate
# is kept only when both vectors have |H v - lam v| <= PAIR_TOL |H|_2, which
# puts an eigenvalue of the symmetric H that close to lam (Weyl).  Exact
# pairs, lam a cluster mean, stay below 1.2e3 eps |H|_2 on those inputs
# (1e3 eps would reject some of the n = 15 Manev polygon); the false pairs of
# 1+n rings with a central mass of 1e4 sit at 7e-6 |H|_2.
PAIR_TOL = 1e-10


class PairingError(RuntimeError):
    """No complete basis of symplectically compatible eigenvector pairs."""

    def __init__(self, message, leftover_dim=0):
        self.leftover_dim = leftover_dim
        super().__init__(message)


class InvarianceError(ValueError):
    """Matrix fails to commute with the group representation."""


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def reflection(axis_angle):
    """Reflection about the line through the origin at the given angle."""
    c, s = np.cos(2.0 * axis_angle), np.sin(2.0 * axis_angle)
    return np.array([[c, s], [s, -c]])


@dataclass(frozen=True)
class GroupElement:
    """Pair (perm, ortho): body i is sent to slot perm[i] with planar map ortho."""

    perm: tuple
    ortho: np.ndarray
    name: str = ""

    def __post_init__(self):
        ortho = np.array(self.ortho, dtype=float)
        if np.max(np.abs(ortho @ ortho.T - np.eye(2))) > ORTHO_TOL:
            raise ValueError("ortho part must be orthogonal")
        ortho.flags.writeable = False
        object.__setattr__(self, "ortho", ortho)
        object.__setattr__(self, "perm", tuple(int(p) for p in self.perm))

    @property
    def n(self):
        return len(self.perm)

    @property
    def is_reflection(self):
        return np.linalg.det(self.ortho) < 0


def representation_matrix(g, n):
    """The 2n x 2n orthogonal matrix by which g acts on flat coordinates."""
    if g.n != n:
        raise ValueError(f"element acts on {g.n} bodies, configuration has {n}")
    D = np.zeros((2 * n, 2 * n))
    for i, p in enumerate(g.perm):
        D[2 * p : 2 * p + 2, 2 * i : 2 * i + 2] = g.ortho
    return D


@dataclass(frozen=True)
class SymmetryGroup:
    """The dihedral group of the regular n-gon with its conjugacy classes.

    Element k < n is a^k and element n + k is a^k r; element 0 is the
    identity.  ``multiplication_table[i, j]`` is the index of the product
    elements[i] after elements[j].  ``axis_angle`` is the angle of body 1,
    on the reflection axis of r.
    """

    elements: tuple
    conjugacy_classes: tuple
    multiplication_table: np.ndarray
    axis_angle: float
    identity_index = 0

    @property
    def order(self):
        return len(self.elements)

    @property
    def n(self):
        return self.elements[0].n

    def class_representatives(self):
        return [self.elements[cl[0]] for cl in self.conjugacy_classes]

    def class_sizes(self):
        return np.array([len(cl) for cl in self.conjugacy_classes])

    def vertices(self):
        """(n, 2) unit-circle points of the polygon the group fixes, body i
        at axis_angle + 2 pi i / n."""
        ang = self.axis_angle + 2.0 * np.pi * np.arange(self.n) / self.n
        return np.column_stack([np.cos(ang), np.sin(ang)])


def build_polygon_symmetry_group(n, axis_angle=0.0):
    """Dihedral group of order 2n fixing the regular n-gon.

    Generators: a = (cyclic shift i -> i+1, rotation by 2*pi/n) and
    r = (the permutation induced by reflecting the polygon, reflection about
    the axis through body 1).  ``axis_angle`` rotates the whole polygon's
    reference frame, matching configurations whose body 1 is off the x-axis.
    The multiplication table and the conjugacy classes have closed forms:
    a^i r a^j = a^(i-j) r, and the classes are {e}, {a^k, a^-k} and the
    reflections (one class for odd n, two by the parity of k for even n),
    ordered by (not identity, size, element indices).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    rot, flip = rotation(2.0 * np.pi / n), reflection(axis_angle)
    orthos = [np.eye(2)]
    for _ in range(n - 1):
        orthos.append(rot @ orthos[-1])
    elems = [GroupElement(tuple((i + k) % n for i in range(n)), orthos[k],
                          f"a{k}" if k else "e") for k in range(n)]
    elems += [GroupElement(tuple((k - i) % n for i in range(n)), orthos[k] @ flip,
                           f"a{k}r" if k else "r") for k in range(n)]
    power = np.arange(2 * n) % n
    is_refl = np.arange(2 * n) >= n
    sign = np.where(is_refl, -1, 1)
    table = ((power[:, None] + sign[:, None] * power[None, :]) % n
             + n * (is_refl[:, None] ^ is_refl[None, :]))
    table.flags.writeable = False
    refl = tuple(range(n, 2 * n))
    classes = [(0,)] + [tuple(sorted({k, n - k})) for k in range(1, n // 2 + 1)]
    classes += [refl] if n % 2 else [refl[0::2], refl[1::2]]
    classes.sort(key=lambda cl: (cl != (0,), len(cl), cl))
    return SymmetryGroup(tuple(elems), tuple(classes), table, float(axis_angle))


@dataclass(frozen=True)
class CharacterTable:
    """Irreducible characters indexed (irrep row, conjugacy-class column)."""

    names: tuple
    degrees: np.ndarray
    values: np.ndarray          # shape (n_irreps, n_classes), real
    class_sizes: np.ndarray
    group_order: int

    def inner(self, chi_a, chi_b):
        """Group-averaged inner product of two class functions."""
        return float(
            np.sum(self.class_sizes * np.conj(chi_a) * chi_b) / self.group_order
        )

    def gram(self):
        """Inner products of every pair of rows; the identity for a true table."""
        return (self.values * self.class_sizes) @ self.values.T / self.group_order

    @property
    def n_irreps(self):
        return len(self.names)


def character_table(group):
    """Closed-form dihedral character table aligned with the group's classes.

    Row order: trivial, sign (det of the planar part), then for even n the
    two remaining one-dimensional characters, then the two-dimensional
    irreps by increasing rotation angle.  The rotation power k of a class
    representative a^k (or a^k r) is read off as perm[0].
    """
    n = group.n
    if group.order != 2 * n:
        raise ValueError("expected the dihedral group of the n-gon")
    reps = group.class_representatives()
    rows, names, degrees = [], [], []

    def add(name, degree, fn):
        names.append(name)
        degrees.append(degree)
        rows.append([fn(g, g.perm[0]) for g in reps])

    add("A1", 1, lambda g, k: 1.0)
    add("A2", 1, lambda g, k: -1.0 if g.is_reflection else 1.0)
    if n % 2 == 0:
        add("B1", 1, lambda g, k: (-1.0) ** k)
        add("B2", 1, lambda g, k: -((-1.0) ** k) if g.is_reflection else (-1.0) ** k)
    n_two_dim = (n - 1) // 2 if n % 2 else n // 2 - 1
    for j in range(1, n_two_dim + 1):
        add(f"E{j}", 2, lambda g, k, j=j:
            0.0 if g.is_reflection else 2.0 * np.cos(2.0 * np.pi * j * k / n))
    values = np.array(rows, dtype=float)
    table = CharacterTable(
        tuple(names), np.array(degrees), values, group.class_sizes(), group.order
    )
    if np.max(np.abs(table.gram() - np.eye(len(rows)))) > 1e-12:
        raise ValueError("character table failed orthonormality")
    return table


def representation_character(group):
    """Character of the 2n-dimensional configuration action, per class."""
    n = group.n
    out = []
    for g in group.class_representatives():
        fixed = sum(1 for i, p in enumerate(g.perm) if i == p)
        out.append(fixed * float(np.trace(g.ortho)))
    return np.array(out)


def decompose_multiplicities(rep_character, table, tol=1e-9):
    """Multiplicities n_i = (chi_i, chi); must be integers within tol."""
    mult = []
    for i in range(table.n_irreps):
        x = table.inner(table.values[i], np.asarray(rep_character, dtype=float))
        r = round(x)
        if abs(x - r) > tol or r < 0:
            raise ValueError(f"non-integer multiplicity {x} for irrep {table.names[i]}")
        mult.append(int(r))
    return mult


def verify_invariance(H, group, tol=1e-10):
    """(commutes, max defect): the defect is max |D H - H D| over the
    representation matrices D of every element, read off H's body blocks.

    With O the element's planar map, block (perm[i], j) of D H is O H_ij
    and that of H D is H_{perm[i] perm[j]} O; one gather of H by the
    permutation lines the two up for every i and j.
    """
    H = np.asarray(H, dtype=float)
    n = group.n
    rows = H.reshape(n, 2, 2 * n)
    defect = 0.0
    for g in group.elements:
        idx = (2 * np.array(g.perm)[:, None] + np.arange(2)).ravel()
        DH = np.einsum("kl,ilc->ikc", g.ortho, rows).reshape(2 * n, 2 * n)
        HD = (H[np.ix_(idx, idx)].reshape(-1, 2) @ g.ortho).reshape(2 * n, 2 * n)
        defect = max(defect, float(np.max(np.abs(DH - HD))))
    return defect <= tol, defect


def _require_invariance(H, group, rel_tol=1e-8):
    """max |H| (at least 1e-300); InvarianceError when the defect of
    ``verify_invariance`` exceeds rel_tol times it."""
    scale = max(float(np.max(np.abs(H))), 1e-300)
    ok, defect = verify_invariance(H, group, tol=rel_tol * scale)
    if not ok:
        raise InvarianceError(
            f"matrix does not commute with the group action (defect {defect:.3e})"
        )
    return scale


@dataclass(frozen=True)
class IsotypicComponent:
    irrep: str
    degree: int
    multiplicity: int
    eigenvalues: tuple


@dataclass(frozen=True)
class IsotypicDecomposition:
    components: tuple

    def eigenvalue_lists(self):
        return [list(c.eigenvalues) for c in self.components]

    def full_multiset(self):
        out = []
        for c in self.components:
            for lam in c.eigenvalues:
                out.extend([lam] * c.degree)
        return np.sort(np.array(out))


def eigenvalues_by_trace_equations(H, group, table=None, invariance_tol=1e-8,
                                   check_tol=1e-9):
    """Per-irreducible eigenvalues of an invariant symmetric matrix.

    The traces Tr(H D(g)) = sum_i tr(H_{i perm[i]} O) determine, through
    character orthonormality, the SUM of the eigenvalues carried by each
    isotypic component.  The 2n-dimensional action is the regular
    representation, so every irreducible of degree d has multiplicity d.
    The one-dimensional components are finished by their sums; the
    component of E_j is the wave-number-j subspace W_j of the polygon,
    where the 4x4 matrix W_j^T H W_j carries each of its two eigenvalues
    twice.  The assembled multiset is validated against a direct symmetric
    diagonalization of H before returning.
    """
    H = np.asarray(H, dtype=float)
    if table is None:
        table = character_table(group)
    scale = _require_invariance(H, group, invariance_tol)
    n = group.n
    perms = np.array([g.perm for g in group.elements])
    orthos = np.array([g.ortho for g in group.elements])
    # [g, i] is the 2x2 block H_{i perm_g[i]}
    blocks = H.reshape(n, 2, n, 2)[np.arange(n), :, perms]
    traces = np.einsum("gikl,glk->g", blocks, orthos)
    class_of = np.empty(group.order, dtype=int)
    for c, cl in enumerate(group.conjugacy_classes):
        class_of[list(cl)] = c
    sums = table.values[:, class_of] @ traces / group.order
    mult = decompose_multiplicities(representation_character(group), table)
    # the rows E1, E2, ... follow the one-dimensional irreducibles
    first_wave = int(np.sum(table.degrees == 1)) - 1
    vertices = group.vertices()
    components = []
    for i in range(table.n_irreps):
        d, m = int(table.degrees[i]), mult[i]
        if m == 1:
            lams = (float(sums[i]),)
        else:
            W = wave_number_basis(vertices, i - first_wave)
            w = np.linalg.eigvalsh(W.T @ H @ W)
            # eigenvalues repeat `d` times inside the component
            lams = tuple(float(np.mean(w[k * d : (k + 1) * d])) for k in range(m))
            if abs(sum(lams) - sums[i]) > check_tol * (1.0 + abs(sums[i])):
                raise InvarianceError(
                    f"component {table.names[i]}: wave-number eigenvalues do not "
                    f"add up to the trace-equation sum"
                )
        components.append(IsotypicComponent(table.names[i], d, m, lams))
    deco = IsotypicDecomposition(tuple(components))
    direct = np.sort(np.linalg.eigvalsh(H))
    assembled = deco.full_multiset()
    if np.max(np.abs(direct - assembled)) > check_tol * (scale + 1.0):
        raise InvarianceError(
            "trace-equation eigenvalues disagree with direct diagonalization"
        )
    return deco


@dataclass(frozen=True)
class JPair:
    """Eigenvector pair spanning a plane on which Jhat acts as the 2x2 J."""

    lam1: float
    lam2: float
    v1: np.ndarray
    v2: np.ndarray


def block_symplectic(n):
    """diag(J, ..., J): the planar quarter-turn applied to every body."""
    # the kron product of eye(n) and J2 without np.kron's overhead; + 0.0
    # turns the -0.0 that 0 * -1 leaves off the diagonal into +0.0
    return (np.eye(n)[:, None, :, None] * J2[None, :, None, :]).reshape(2 * n, 2 * n) + 0.0


def _apply_symplectic(V):
    """Jhat @ V without forming Jhat: J2 maps each body's rows (x, y) to
    (y, -x).  Every entry is the one nonzero product of the matmul; + 0.0
    turns -0.0 into +0.0, as in block_symplectic."""
    JV = np.empty_like(V)
    JV[0::2], JV[1::2] = V[1::2], -V[0::2]
    return JV + 0.0


def _eigen_clusters(H):
    """(mean eigenvalue, orthonormal eigenvector basis) per eigen-cluster:
    runs of ascending eigenvalues whose neighbours lie within CLUSTER_TOL."""
    evals, vecs = np.linalg.eigh(np.asarray(H, dtype=float))
    scale = max(float(np.max(np.abs(evals))), 1e-300)
    cuts = [0, *(np.flatnonzero(np.diff(evals) > CLUSTER_TOL * scale) + 1).tolist(), evals.size]
    return [(float(evals[a:b].sum() / (b - a)), vecs[:, a:b]) for a, b in zip(cuts, cuts[1:])]


def symplectic_pairs(H):
    """Eigenvector pairs of a symmetric H compatible with Jhat, and the rest.

    With B_i an orthonormal basis of the eigen-cluster E_i, the directions
    v in E_i with Jhat v in E_j are B_i times the right singular vectors of
    C_ij = B_j^T Jhat B_i at singular value 1 (within ``PAIR_TOL``).  These
    subspaces are mutually orthogonal, so one pass over the cluster pairs
    j >= i finds them all: for j > i each such singular value is one pair
    (lam_i, lam_j) with v2 = -Jhat v1; for j = i they span Jhat-invariant
    planes of E_i, one pair each.  A pair whose vectors fail the
    eigen-residual test of ``PAIR_TOL`` stays in the rest.  Since
    sigma_max(C) <= |C|_F, a block whose Frobenius norm is below
    1 - 2 PAIR_TOL needs no SVD.

    Returns (pairs, rest): the JPair objects sorted by (lam1, lam2), and an
    orthonormal basis of the complement, inside each cluster, of every
    paired direction.
    """
    H = np.asarray(H, dtype=float)
    clusters = _eigen_clusters(H)
    res_tol = PAIR_TOL * max(abs(lam) for lam, _ in clusters)
    edges = np.cumsum([0] + [B.shape[1] for _, B in clusters])
    V = np.column_stack([B for _, B in clusters])
    # V^T Jhat = (Jhat (-V))^T; made contiguous like the product V.T @ Jhat,
    # the matmul sums in the same order and G keeps its bytes
    G = np.ascontiguousarray(_apply_symplectic(-V).T) @ V   # block (j, i) is C_ij
    frob2 = np.add.reduceat(np.add.reduceat(G * G, edges[:-1], axis=0),
                            edges[:-1], axis=1)
    pairs, taken = [], [[np.zeros((B.shape[1], 0))] for _, B in clusters]
    for j, i in zip(*np.nonzero(np.tril(frob2 >= (1.0 - 2.0 * PAIR_TOL) ** 2))):
        (lam_i, Bi), (lam_j, _) = clusters[i], clusters[j]
        C = G[edges[j]:edges[j + 1], edges[i]:edges[i + 1]]
        U, S, Vh = np.linalg.svd(C, full_matrices=False)
        hit = S >= 1.0 - PAIR_TOL
        X = Vh[hit].T           # paired directions, as coefficients in B_i
        step = 1 if i != j else 2
        if i == j:
            # the real Schur form of Jhat on span(X) lines its invariant
            # planes up as column pairs; the first of each pair is v1
            X = X @ schur(X.T @ C @ X)[1]
        V1 = Bi @ X[:, ::step]
        V2 = _apply_symplectic(-V1)
        R1, R2 = H @ V1 - lam_i * V1, H @ V2 - lam_j * V2
        ok = np.maximum((R1 * R1).sum(axis=0), (R2 * R2).sum(axis=0)) <= res_tol ** 2
        taken[i].append(X[:, np.repeat(ok, step)[:X.shape[1]]])
        if i != j:
            taken[j].append(U[:, hit][:, ok])
        pairs.extend(JPair(lam_i, lam_j, v1, v2) for v1, v2 in zip(V1.T[ok], V2.T[ok]))
    rest = [np.zeros((H.shape[0], 0))]
    for (_, B), t in zip(clusters, taken):
        T = np.column_stack(t)
        if T.shape[1] < B.shape[1]:
            # the left singular vectors past rank(T) span its complement
            rest.append(B @ np.linalg.svd(T)[0][:, T.shape[1]:])
    return sorted(pairs, key=lambda p: (p.lam1, p.lam2)), np.column_stack(rest)


def j_compatible_pairs(H, group=None):
    """Split R^{2n} into n eigenvector pairs compatible with the symplectic J.

    Each returned pair satisfies H v_k = lam_k v_k and
    Jhat (v1, v2) = (v1, v2) J exactly (v2 = -Jhat v1).  When ``group`` is
    given, invariance of H is checked first.  Raises PairingError when part
    of the space admits no such pairs, which happens structurally for the
    wave numbers 2 <= k < n/2 of n >= 5 polygons.
    """
    H = np.asarray(H, dtype=float)
    if H.shape[0] % 2:
        raise ValueError("dimension must be even")
    if group is not None:
        _require_invariance(H, group)
    pairs, rest = symplectic_pairs(H)
    if rest.shape[1]:
        lams = np.linalg.eigvalsh(rest.T @ H @ rest)
        raise PairingError(
            f"{rest.shape[1]} dimensions admit no symplectically compatible "
            f"eigenvector pairs (eigenvalues {np.round(lams, 6).tolist()})",
            leftover_dim=rest.shape[1],
        )
    return pairs


def polygon_axis_angle(config, tol=1e-8):
    """Angle of body 1 if the configuration is an equal-mass regular polygon.

    The bodies must sit counterclockwise at angles base + 2 pi j / n about
    the origin, with n >= 3; returns None otherwise.
    """
    q = config.points
    radii = np.hypot(q[:, 0], q[:, 1])
    if np.max(np.abs(radii - radii[0])) > tol * radii[0]:
        return None
    if np.max(np.abs(config.masses - config.masses[0])) > tol * config.masses[0]:
        return None
    n = config.n
    if n < 3:
        return None
    base = np.arctan2(q[0, 1], q[0, 0])
    ang = np.arctan2(q[:, 1], q[:, 0])
    expected = base + 2.0 * np.pi * np.arange(n) / n
    delta = np.angle(np.exp(1j * (ang - expected)))
    if np.max(np.abs(delta)) > tol:
        return None
    return base


def wave_number_basis(points, k):
    """Orthonormal basis of the real wave-number-k subspace of a regular polygon.

    Columns are the radial and tangential unit vectors of the bodies weighted
    by cos(2 pi j k / n) and sin(2 pi j k / n): dimension 4, or 2 at k = 0 and
    k = n/2 where the sine patterns vanish.  At an equal-mass regular polygon
    the subspace is invariant under the Hessian of any pair potential and
    under the block symplectic map.
    """
    q = np.asarray(points, dtype=float)
    n = q.shape[0]
    radial = q / np.hypot(q[:, 0], q[:, 1])[:, None]
    tangential = radial @ J2
    phase = 2.0 * np.pi * k * np.arange(n) / n
    waves = [np.cos(phase)] + ([] if (2 * k) % n == 0 else [np.sin(phase)])
    cols = [(w[:, None] * e).ravel() for e in (radial, tangential) for w in waves]
    V = np.column_stack(cols)
    return V / np.linalg.norm(V, axis=0)
