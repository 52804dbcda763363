"""Dihedral symmetry groups acting on planar configurations.

A group element is a body permutation combined with one planar orthogonal
map applied to every body, held as the arrays ``perms`` and ``orthos``;
it acts on flattened coordinates through a 2n x 2n block-permutation
matrix (``checks.representation_matrices``), which the analysis path
never forms: the trace equations and the invariance gate read the 2x2 body
blocks of the Hessian that the permutation pairs up, and the isotypic
components of multiplicity two are the wave-number subspaces of the
regular polygon.  Characters, trace equations, the pairing of
eigenvectors compatible with the block symplectic operator (per wave number
on a polygon, over the whole space otherwise), and the stacked wave-number
subspaces all live here.  Everything about a group but its reflection axis
depends on n alone and is built and checked once per n (``dihedral``).
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

ORTHO_TOL = 1e-14
# Eigenvalues closer than CLUSTER_TOL times the spectral radius share a cluster.
CLUSTER_TOL = 1e-8
# A Jhat-coupled component of dimension 2 is a pair only when v1 and
# v2 = -Jhat v1 both have |H v - lam v| <= PAIR_TOL |H|_2, which puts an
# eigenvalue of the symmetric H that close to lam (Weyl).  Exact pairs, lam
# a cluster mean, stay below 1.2e3 eps |H|_2 over the presets, the polygons
# and the collinear inputs (1e3 eps would reject some of the n = 15 Manev
# polygon).  The test rejects a plane that Jhat links to the rest of the
# space by less than COUPLE_TOL but more than PAIR_TOL; no input of the
# deck below has one.
PAIR_TOL = 1e-10
# Two eigen-clusters B_a, B_b belong to one coupled component when Jhat
# links them: |B_b^T Jhat B_a|_F > COUPLE_TOL.  Over the presets, polygons
# (n = 3..24), the collinear inputs of the benchmark, 1+n rings (n <= 24,
# central mass up to 3e4), random Newton-refined configurations (n = 3..7)
# and unequal-mass Lagrange triangles, that norm sits either at <= 7.9e-13
# (rounding; up to 6.3e-10 on the rings with a central mass of 1e3 or more,
# whose nearest clusters eigh resolves only that well) or at >= 1.9e-7 (real
# links).  A spurious link only merges two invariant blocks; a missed one
# breaks invariance, and the oracle comparison fails.
COUPLE_TOL = 1e-8
# The trace route's invariance gate (relative to max |H|) and its checks
# against the trace-equation sums and a direct eigvalsh.
INVARIANCE_TOL = 1e-8
TRACE_CHECK_TOL = 1e-9
# Entries kept by each per-n cache (``dihedral``, ``block_symplectic``): at
# least the 22 polygons n = 3..24 that one pass over a deck of them meets.
DIHEDRAL_CACHE_SIZE = 32


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
class SymmetryGroup:
    """The dihedral group of the regular n-gon with its character table.

    Element k < n is a^k and element n + k is a^k r; element 0 is the
    identity.  ``perms[k]`` sends body i to slot perms[k, i] and
    ``orthos[k]`` is its planar map: the rotations a^k are ``orthos[:n]``,
    and ``axis_angle`` is the angle of body 1, on the reflection axis of r.
    Every other field depends on n alone and is shared, read-only, by every
    group of the same n (``dihedral``): the sorted ``conjugacy_classes`` and
    the class of each element ``class_of``; the character table, irreducible
    ``names`` and ``degrees``, ``characters`` indexed (irreducible, class)
    and the ``class_sizes``; the ``multiplicities`` of the configuration
    action per irreducible, the row gathers ``gathers`` of the generators a
    and r (``_commutator``), each W_k's dimension ``wave_dims`` (2 where
    2k = 0 mod n, else 4) and ``wave_number_stack``'s unit cos/sin
    ``patterns``.
    """

    perms: np.ndarray           # (2n, n) int
    orthos: np.ndarray          # (2n, 2, 2)
    conjugacy_classes: tuple
    axis_angle: float
    class_of: np.ndarray
    names: tuple
    degrees: np.ndarray
    characters: np.ndarray
    class_sizes: np.ndarray
    multiplicities: tuple
    gathers: np.ndarray
    wave_dims: np.ndarray
    patterns: np.ndarray

    @property
    def order(self):
        return self.perms.shape[0]

    @property
    def n(self):
        return self.perms.shape[1]

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
    reference frame, matching configurations whose body 1 is off the x-axis;
    it must be finite.  Everything but the reflections a^k r depends on n
    alone and comes from ``dihedral``; only the reflections are formed here.
    """
    if not np.isfinite(axis_angle):
        raise ValueError(f"axis_angle must be finite, got {axis_angle!r}")
    group = dihedral(n)
    return replace(group, orthos=_planar_maps(group.orthos[:n], axis_angle),
                   axis_angle=float(axis_angle))


def _planar_maps(rots, axis_angle):
    """The read-only planar maps of every element, the rotations a^k and the
    reflections a^k r about ``axis_angle``, each checked to be orthogonal."""
    orthos = np.concatenate([rots, rots @ reflection(axis_angle)])
    if not np.max(np.abs(orthos @ orthos.transpose(0, 2, 1) - np.eye(2))) <= ORTHO_TOL:
        raise ValueError("ortho part must be orthogonal")
    orthos.flags.writeable = False
    return orthos


def representation_character(group):
    """Character of the 2n-dimensional configuration action, per class: the
    bodies a representative fixes times the trace of its planar map."""
    reps = [cl[0] for cl in group.conjugacy_classes]
    fixed = np.sum(group.perms[reps] == np.arange(group.n), axis=1)
    return fixed * np.trace(group.orthos[reps], axis1=1, axis2=2)


def decompose_multiplicities(rep_character, table):
    """Multiplicities n_i = (chi_i, chi) over the character table of the group
    ``table``; they must be integers within 1e-9."""
    chi = np.asarray(rep_character, dtype=float)
    x = table.characters @ (table.class_sizes * chi) / table.class_sizes.sum()
    r = np.round(x)
    bad = np.flatnonzero(~(np.abs(x - r) <= 1e-9) | (r < 0))
    if bad.size:
        i = bad[0]
        raise ValueError(f"non-integer multiplicity {x[i]} for irrep {table.names[i]}")
    return r.astype(int).tolist()


@functools.lru_cache(maxsize=DIHEDRAL_CACHE_SIZE)
def dihedral(n):
    """The dihedral group of the regular n-gon at axis angle 0, built once
    per n and kept for the last DIHEDRAL_CACHE_SIZE values of n; one group
    holds O(n^2) numbers (perms 2n^2, patterns about n^2, the characters
    about n^2 / 4).  The character table's orthonormality and the
    multiplicities' integrality are checked here, when the group is built.

    The rotations a^k are rotation(2 pi k / n) in closed form, so no
    rounding accumulates with k.  The conjugacy classes have a closed form
    too: {e}, {a^k, a^-k} and the reflections (one class for odd n, two by
    the parity of k for even n), ordered by (not identity, size, element
    indices).  So do the characters.  Row order: trivial, sign (det of the
    planar part), then for even n the two remaining one-dimensional
    characters, then the two-dimensional irreducibles by increasing rotation
    angle.  A class representative is a reflection exactly when its index
    is >= n, and its rotation power k is ``perms[rep, 0]``.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    ks = np.arange(n)
    # a^k sends body i to k + i, a^k r sends it to k - i
    perms = np.concatenate([ks[:, None] + ks, ks[:, None] - ks]) % n
    refl = tuple(range(n, 2 * n))
    classes = [(0,)] + [tuple(sorted({k, n - k})) for k in range(1, n // 2 + 1)]
    classes += [refl] if n % 2 else [refl[0::2], refl[1::2]]
    classes.sort(key=lambda cl: (cl != (0,), len(cl), cl))
    classes = tuple(classes)
    class_of = np.empty(2 * n, dtype=int)
    for c, cl in enumerate(classes):
        class_of[list(cl)] = c
    reps = np.array([cl[0] for cl in classes])
    is_refl, k = reps >= n, perms[reps, 0]
    sign = np.where(is_refl, -1.0, 1.0)
    parity = np.where(k % 2, -1.0, 1.0)
    rows, names = [np.ones(reps.size), sign], ["A1", "A2"]
    if n % 2 == 0:
        rows += [parity, sign * parity]
        names += ["B1", "B2"]
    n_two_dim = (n - 1) // 2 if n % 2 else n // 2 - 1
    j = np.arange(1, n_two_dim + 1)
    rows.extend(np.where(is_refl, 0.0, 2.0 * np.cos(2.0 * np.pi * j[:, None] * k / n)))
    names += [f"E{i}" for i in j]
    degrees = np.array([1] * (len(names) - n_two_dim) + [2] * n_two_dim)
    characters = np.array(rows, dtype=float)
    class_sizes = np.array([len(cl) for cl in classes])
    gram = (characters * class_sizes) @ characters.T / (2 * n)
    if not np.max(np.abs(gram - np.eye(len(names)))) <= 1e-12:
        raise ValueError("character table failed orthonormality")
    # the rows 2 perm[i] + (0, 1) of a = element 1 and r = element n
    gathers = (2 * perms[[1, n], :, None] + np.arange(2)).reshape(2, 2 * n)
    kw = np.arange(n // 2 + 1)
    dims = np.where((2 * kw) % n, 4, 2)
    phase = 2.0 * np.pi * kw[:, None] * ks / n
    patterns = np.stack([np.cos(phase), np.sin(phase)], axis=1)    # (k, [cos, sin], n)
    patterns[dims == 2, 1] = 0.0
    norms = np.sqrt((patterns * patterns).sum(axis=2, keepdims=True))
    patterns /= np.where(norms > 0.0, norms, 1.0)
    for arr in (perms, class_of, degrees, characters, class_sizes, gathers, dims, patterns):
        arr.flags.writeable = False
    rots = np.moveaxis(rotation(2.0 * np.pi * ks / n), -1, 0)
    group = SymmetryGroup(perms, _planar_maps(rots, 0.0), classes, 0.0, class_of, tuple(names),
                          degrees, characters, class_sizes, (), gathers, dims, patterns)
    chi = representation_character(group)
    return replace(group, multiplicities=tuple(decompose_multiplicities(chi, group)))


def _commutator(H, idx, ortho):
    """D H - H D for the element (perm, ortho), its rows permuted, read off
    H's body blocks: with O the planar map, block (perm[i], j) of D H is
    O H_ij and that of H D is H_{perm[i] perm[j]} O; one gather of H by the
    rows idx = 2 perm[i] + (0, 1) lines the two up for every i and j."""
    n = idx.size // 2
    DH = np.einsum("kl,ilc->ikc", ortho, H.reshape(n, 2, 2 * n)).reshape(2 * n, 2 * n)
    HD = (H[np.ix_(idx, idx)].reshape(-1, 2) @ ortho).reshape(2 * n, 2 * n)
    return DH - HD


def invariance_defect(H, group):
    """A bound on max |D H - H D| over the representation matrices D of
    every element, from the two generators.

    With E_g = D(g) H - H D(g), E_{gh} = D(g) E_h + E_g D(h), and the
    Frobenius norm is invariant under the orthogonal D, so
    |E_{gh}|_F <= |E_g|_F + |E_h|_F; also |E_{a^-1}|_F = |E_a|_F.  Every
    a^k is a product of at most floor(n/2) factors a or a^-1, and every
    reflection is such a product times r, hence for every element g

        max |E_g| <= |E_g|_F <= floor(n/2) |E_a|_F + |E_r|_F = defect.

    The defect is therefore at least the all-element maximum, and a gate
    on it never passes a matrix that a gate on that maximum rejects; it
    costs two gathers of H instead of 2n.  Each |E_g|_F is at most 2n times
    its largest entry, so the defect exceeds the maximum by at most a factor
    (floor(n/2) + 1) 2n.  It is zero exactly when H commutes with a and r,
    which is when H commutes with the whole group.
    """
    H = np.asarray(H, dtype=float)
    n = group.n
    gather_a, gather_r = group.gathers              # a^1 and a^0 r
    return float(n // 2 * np.linalg.norm(_commutator(H, gather_a, group.orthos[1]))
                 + np.linalg.norm(_commutator(H, gather_r, group.orthos[n])))


def eigenvalues_by_trace_equations(H, group, wave_eigs):
    """Per-irreducible eigenvalues of an invariant symmetric matrix.

    The traces Tr(H D(g)) = sum_i tr(H_{i perm[i]} O) determine, through
    character orthonormality, the SUM of the eigenvalues carried by each
    isotypic component.  The 2n-dimensional action is the regular
    representation, so every irreducible of degree d has multiplicity d.
    The one-dimensional components are finished by their sums; the
    component of E_j is the wave-number-j subspace W_j of the polygon,
    where W_j^T H W_j is the realification of a 2x2 Hermitian K_j whose two
    eigenvalues each carry twice; row k of ``wave_eigs``, the ``lam`` of
    H's ``wave_number_spectrum`` (or of Hw = H / m times the common mass m),
    gives them.  The character table, the class of each element and the
    multiplicities are the group's own, checked when ``dihedral`` built it.
    Three checks run on every call, each raising InvarianceError with its
    value and its bound: the invariance gate, ``invariance_defect`` against
    INVARIANCE_TOL max |H| (on the Hessians of regular polygons under the
    four benchmark potentials it sits at <= 7.6e-13 max |H| for n <= 24,
    6.0e-12 at n <= 64 and 8.9e-11 at n = 200); the trace sums against the
    wave-number eigenvalues; and the assembled multiset against a direct
    symmetric diagonalization of H.

    Returns (components, multiset): per irreducible a dict of its name
    ``irrep``, ``degree``, ``multiplicity`` and ``eigenvalues``, and the
    sorted eigenvalues of H, each repeated by its degree.
    """
    H = np.asarray(H, dtype=float)
    scale = max(float(np.max(np.abs(H))), 1e-300)
    defect, bound = invariance_defect(H, group), INVARIANCE_TOL * scale
    if not defect <= bound:
        raise InvarianceError(f"matrix does not commute with the group action: invariance "
                              f"defect {defect:.3e} exceeds its bound {bound:.3e}")
    n = group.n
    # [g, i] is the 2x2 block H_{i perm_g[i]}
    blocks = H.reshape(n, 2, n, 2)[np.arange(n), :, group.perms]
    traces = np.einsum("gikl,glk->g", blocks, group.orthos)
    sums = group.characters[:, group.class_of] @ traces / group.order
    # the rows E1, E2, ... follow the one-dimensional irreducibles, and E_j
    # is carried by W_j, j = 1..n_two_dim
    n_one = int(np.sum(group.degrees == 1))
    wave_eigs = np.asarray(wave_eigs)[1:len(group.names) - n_one + 1]
    off = np.abs(wave_eigs.sum(axis=1) - sums[n_one:])
    bounds = TRACE_CHECK_TOL * (1.0 + np.abs(sums[n_one:]))
    bad = np.flatnonzero(~(off <= bounds))
    if bad.size:
        i = bad[0]
        raise InvarianceError(
            f"component {group.names[n_one + i]}: the wave-number eigenvalues add up to "
            f"{off[i]:.3e} off the trace-equation sum, beyond its bound {bounds[i]:.3e}"
        )
    # one eigenvalue per copy of each irreducible, in table order
    values = np.concatenate([sums[:n_one], wave_eigs.ravel()])
    lams = np.split(values, np.cumsum(group.multiplicities)[:-1])
    components = [
        {"irrep": name, "degree": int(d), "multiplicity": m, "eigenvalues": lam.tolist()}
        for name, d, m, lam in zip(group.names, group.degrees, group.multiplicities, lams)
    ]
    multiset = np.sort(np.repeat(values, np.repeat(group.degrees, group.multiplicities)))
    worst = float(np.max(np.abs(np.sort(np.linalg.eigvalsh(H)) - multiset)))
    bound = TRACE_CHECK_TOL * (scale + 1.0)
    if not worst <= bound:
        raise InvarianceError(f"trace-equation eigenvalues are {worst:.3e} from a direct "
                              f"diagonalization, beyond their bound {bound:.3e}")
    return components, multiset


@dataclass(frozen=True)
class JPair:
    """Eigenvector pair spanning a plane on which Jhat acts as the 2x2 J."""

    lam1: float
    lam2: float
    v1: np.ndarray
    v2: np.ndarray


@functools.lru_cache(maxsize=DIHEDRAL_CACHE_SIZE)
def block_symplectic(n):
    """diag(J, ..., J): the planar quarter-turn applied to every body, built
    once per n (4n^2 numbers) and shared read-only."""
    # the kron product of eye(n) and J2 without np.kron's overhead; + 0.0
    # turns the -0.0 that 0 * -1 leaves off the diagonal into +0.0
    Jh = (np.eye(n)[:, None, :, None] * J2[None, :, None, :]).reshape(2 * n, 2 * n) + 0.0
    Jh.flags.writeable = False
    return Jh


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

    The eigen-clusters of H (``_eigen_clusters``) fall into the components
    that Jhat couples (``_coupled_components``), each a joint (H, Jhat)-
    invariant subspace.  A component of dimension 2, two one-dimensional
    clusters that Jhat maps onto each other or one Jhat-invariant plane, is
    one pair when v1, its first basis vector, and v2 = -Jhat v1 pass the
    residual test of ``PAIR_TOL``; lam1 and lam2 are the means of its first
    and last cluster.  Every other component stays whole, even a sum of planes.

    Returns (pairs, rests): the JPair objects sorted by (lam1, lam2), and one
    orthonormal basis per remaining component, its clusters in ascending order.
    """
    H = np.asarray(H, dtype=float)
    clusters = _eigen_clusters(H)
    res_tol = PAIR_TOL * max(abs(lam) for lam, _ in clusters)
    pairs, rests = [], []
    for comp in _coupled_components([B for _, B in clusters]):
        V = np.column_stack([clusters[c][1] for c in comp])
        if V.shape[1] == 2:
            lam1, lam2 = clusters[comp[0]][0], clusters[comp[-1]][0]
            v1, v2 = V[:, 0], _apply_symplectic(-V[:, 0])
            r1, r2 = H @ v1 - lam1 * v1, H @ v2 - lam2 * v2
            if max(r1 @ r1, r2 @ r2) <= res_tol ** 2:
                pairs.append(JPair(lam1, lam2, v1, v2))
                continue
        rests.append(V)
    return sorted(pairs, key=lambda p: (p.lam1, p.lam2)), rests


def _coupled_components(bases):
    """The components of the eigen-cluster bases B_c that Jhat links, two
    when |B_b^T Jhat B_a|_F > COUPLE_TOL, as ascending lists of indices.
    Each is H-invariant, and Jhat-invariant up to the links it drops."""
    edges = np.cumsum([0] + [B.shape[1] for B in bases])[:-1]
    L = np.column_stack(bases)
    G = _apply_symplectic(L).T @ L
    frob2 = np.add.reduceat(np.add.reduceat(G * G, edges, axis=0), edges, axis=1)
    reach = (frob2 > COUPLE_TOL ** 2) | np.eye(len(bases), dtype=bool)
    # squaring the symmetric relation until it stops growing closes it
    while ((grown := reach @ reach) != reach).any():
        reach = grown
    label = reach.argmax(axis=1)        # the first cluster of each component
    return [np.flatnonzero(label == comp).tolist() for comp in dict.fromkeys(label)]


def polygon_axis_angle(config):
    """Angle of body 1 if the configuration is an equal-mass regular polygon.

    The bodies must sit counterclockwise at angles base + 2 pi j / n about
    the origin, with n >= 3, equal masses and radii (to 1e-8 relative) and
    angles within 1e-8 of these; returns None otherwise.
    """
    q = config.points
    radii = np.hypot(q[:, 0], q[:, 1])
    if np.max(np.abs(radii - radii[0])) > 1e-8 * radii[0]:
        return None
    if np.max(np.abs(config.masses - config.masses[0])) > 1e-8 * config.masses[0]:
        return None
    n = config.n
    if n < 3:
        return None
    base = np.arctan2(q[0, 1], q[0, 0])
    ang = np.arctan2(q[:, 1], q[:, 0])
    expected = base + 2.0 * np.pi * np.arange(n) / n
    delta = np.angle(np.exp(1j * (ang - expected)))
    if np.max(np.abs(delta)) > 1e-8:
        return None
    return base


def wave_number_stack(points):
    """Orthonormal bases of the real wave-number subspaces W_k of a regular
    polygon, k = 0..n//2, as one (n//2 + 1, 2n, 4) stack.

    The columns of W_k are the radial and tangential unit vectors of the
    bodies weighted by cos(2 pi j k / n) and sin(2 pi j k / n), in the order
    (r cos, t cos, r sin, t sin).  Where 2k = 0 mod n (k = 0, and k = n/2 for
    even n) the sine patterns vanish, W_k has dimension 2 and its last two
    columns are zero (``dihedral(n).wave_dims``).  At an equal-mass regular
    polygon each W_k is invariant under the Hessian of any pair potential
    and under Jhat, which acts on it as diag(J2, J2).  The unit cos/sin
    patterns depend on n alone (``dihedral``, n >= 3); only the bodies'
    frame is built here.
    """
    q = np.asarray(points, dtype=float)
    n = q.shape[0]
    radial = q / np.hypot(q[:, 0], q[:, 1])[:, None]
    frame = np.stack([radial, radial @ J2], axis=1)          # (n, [r, t], 2)
    # the frame vectors are unit vectors, so the unit patterns give unit columns
    waves = dihedral(n).patterns                            # (k, [cos, sin], n)
    # W[k, (j, x), (wave, frame vector)] = waves[k, wave, j] frame[j, vector, x]
    return (waves.transpose(0, 2, 1)[:, :, None, :, None]
            * frame.transpose(0, 2, 1)[None, :, :, None, :]).reshape(waves.shape[0], 2 * n, 4)


WaveSpectrum = namedtuple("WaveSpectrum", "images K lam U")


def wave_number_spectrum(M, waves):
    """A symmetric M on a wave-number stack, as a read-only ``WaveSpectrum``:
    the ``images`` M W_k (m, 2n, 4) from one product with M, the Hermitian
    ``K`` (m, 2, 2) with K_k = A + iB from h_k = W_k^T M W_k, one batched
    product, and from one stacked eigh the ascending eigenvalues ``lam``
    (m, 2) of each K_k and its unit eigenvectors, the columns of ``U``.
    Where M commutes with the polygon's group, h_k is the realification
    [[A, -B], [B, A]] of K_k (``checks.check_wave_number_blocks``); where
    W_k has dimension 2, B and the lower right block are zero and K_k = A.
    """
    m, n2 = waves.shape[0], waves.shape[1]
    images = np.asarray(M, dtype=float) @ waves.transpose(1, 0, 2).reshape(n2, 4 * m)
    images = images.reshape(n2, m, 4).transpose(1, 0, 2)
    h = waves.transpose(0, 2, 1) @ images
    K = h[:, :2, :2] + 1j * h[:, 2:, :2]
    spectrum = WaveSpectrum(images, K, *np.linalg.eigh(K))
    for a in spectrum:
        a.flags.writeable = False
    return spectrum


def wave_number_pairs(spectrum, waves):
    """Eigenvector pairs of an invariant symmetric M compatible with Jhat,
    read off the eigenvectors of every wave number's K_k at once from M's
    ``wave_number_spectrum`` on the stack ``waves``.

    Jhat acts on W_k as diag(J2, J2), which is J2 on the complex coordinates
    of K_k, so a pair inside W_k comes from an eigenvector u of K_k in one of
    two ways.  If u is real up to a phase, J2 u is the other eigenvector:
    v1 = W_k (u, 0) gives the pair (lam_low, lam_high), and where W_k has
    dimension 4, W_k (0, u) a second one.  If u is an eigenvector (1, +-i) of
    J2, span{u, i u} is a Jhat-invariant plane: v1 = W_k (Re u, Im u) gives
    (lam, lam), one pair per eigenvector.  Since |u^T u| is 1 in the first
    case and 0 in the second, it picks the case.  v2 = -Jhat v1 as in
    ``symplectic_pairs``.  A wave number pairs when all of its pairs pass the
    residual test of ``PAIR_TOL``, at the scale max |lam| = |M|_2 over every
    K_k; otherwise all of W_k stays unpaired.  On polygons n = 3..32, 48, 64
    under the four benchmark potentials and on the presets' alpha grid, the
    accepted pairs' residuals are <= 32 eps |M|_2 and the rejected ones
    >= 8e-4 |M|_2.

    Returns (pairs, paired): the JPair objects sorted by (lam1, lam2) and
    whether each k paired.
    """
    images, _, lam, U = spectrum
    full = dihedral(waves.shape[1] // 2).wave_dims == 4
    res_tol = PAIR_TOL * float(np.max(np.abs(lam)))
    s = (U * U).sum(axis=1)
    real = (np.abs(s[:, 0]) >= 0.5) | ~full
    # X[k] holds the coordinates of each v1 in W_k, then those of its v2
    X = np.zeros((len(lam), 4, 4))
    u = (U[:, :, 0] * np.exp(-0.5j * np.angle(s[:, :1]))).real
    X[:, :2, 0] = X[:, 2:, 1] = u / np.linalg.norm(u, axis=1, keepdims=True)
    plane = ~real
    X[plane, :2, :2], X[plane, 2:, :2] = U[plane].real, U[plane].imag
    # -diag(J2, J2) maps (a, b) on each half to (-b, a)
    X[:, 0::2, 2:], X[:, 1::2, 2:] = -X[:, 1::2, :2], X[:, 0::2, :2]
    L = np.where(real[:, None], lam[:, [0, 0, 1, 1]], lam[:, [0, 1, 0, 1]])
    V = waves @ X
    R = images @ X - V * L[:, None, :]
    ok = (R * R).sum(axis=1) <= res_tol ** 2
    ok = ok[:, :2] & ok[:, 2:]
    ok[~full, 1] = True
    paired = ok.all(axis=1)
    pairs = [JPair(float(L[k, c]), float(L[k, c + 2]), V[k, :, c], V[k, :, c + 2])
             for k in np.flatnonzero(paired) for c in range(1 + full[k])]
    return sorted(pairs, key=lambda p: (p.lam1, p.lam2)), paired
