"""Planar n-body configurations, pair potentials, and their derivatives.

Coordinates are flattened as (x1, y1, x2, y2, ..., xn, yn) throughout, so
vectors and matrices here line up entry-by-entry with the block structure
used everywhere else in the package.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .symmetry import (
    DIHEDRAL_CACHE_SIZE,
    block_symplectic,
    build_polygon_symmetry_group,
    polygon_axis_angle,
    rotation,
    wave_number_spectrum,
    wave_number_stack,
)


class CollisionError(ValueError):
    """Two bodies coincide, so pair potentials are undefined."""

    def __init__(self, i, j):
        self.pair = (i, j)
        super().__init__(f"bodies {i} and {j} coincide")


class NonCentralConfigurationError(ValueError):
    """The configuration does not satisfy grad(U) + omega^2 grad(I) = 0."""

    def __init__(self, residual, tol):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"centrality residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )


CENTRALITY_TOL_FACTOR = 1e-10   # residual <= factor * (|grad U| + 1)


def _readonly(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


PairPlan = namedtuple("PairPlan", "iu ju coords diag off")


@functools.lru_cache(maxsize=DIHEDRAL_CACHE_SIZE)
def pair_plan(n):
    """The pairs i < j of n bodies and where their terms land, built once
    per n and shared read-only: the body indices ``iu``, ``ju`` (those of
    np.triu_indices(n, 1)); ``coords``, the flat indices of the (x, y) of
    body i (row 0) and of body j (row 1) in a 2n-vector, pair by pair; and
    the flat indices into a 2n x 2n matrix of the entries of the pairs' 2x2
    blocks, row-major per block: ``diag`` the body blocks (j, j) of every
    pair and then their (i, i), ``off`` the blocks (i, j) and then (j, i)."""
    r = np.arange(n)
    iu, ju = np.nonzero(r[:, None] < r)
    coords = 2 * np.stack([iu, ju])[:, :, None] + np.arange(2)      # (2, P, 2)

    def entries(rows, cols):
        # entry (2 rows + x, 2 cols + y) of each pair's block
        return (2 * n * coords[rows][:, :, :, None] + coords[cols][:, :, None, :]).ravel()

    plan = PairPlan(iu, ju, coords.reshape(2, -1), entries([1, 0], [1, 0]),
                    entries([0, 1], [1, 0]))
    for a in plan:
        a.flags.writeable = False
    return plan


class BodyPairs:
    """The ``pair_plan`` of the bodies and the mass products m_i m_j of the
    pairs i < j, with the potential's formulas; each reads the separations
    ``sep`` of one set of (n, 2) points, and ``terms`` are the (c_k, a_k) of
    PotentialSpec.  The gradient and the Hessian scatter each pair's terms
    onto the plan's flat indices, with ufunc.at where targets repeat."""

    def __init__(self, masses):
        self.masses = masses
        self.plan = pair_plan(masses.size)
        self.iu, self.ju = self.plan.iu, self.plan.ju
        self.mm = masses[self.iu] * masses[self.ju]
        self.mm.flags.writeable = False

    def separations(self, points):
        """Separations d_ij = q_i - q_j and distances r_ij for i < j."""
        d = points[self.iu] - points[self.ju]
        return d, np.hypot(d[:, 0], d[:, 1])

    def check_distinct(self, r):
        """Raise CollisionError naming the first pair, in i < j order, at r == 0."""
        hit = np.flatnonzero(r == 0.0)
        if hit.size:
            raise CollisionError(int(self.iu[hit[0]]), int(self.ju[hit[0]]))

    def inertia(self, points):
        """I = (1/2) sum_i m_i |q_i|^2."""
        return 0.5 * float(self.masses @ (points * points).sum(axis=1))

    def energy_terms(self, sep, terms):
        """Per-term values U_k, so that U = sum_k U_k."""
        _, r = sep
        return np.array([c * np.sum(self.mm * r ** (-a)) for c, a in terms])

    def gradient(self, sep, terms):
        """Exact gradient of U as a flat 2n-vector."""
        d, r = sep
        grad = np.zeros(2 * self.masses.size)
        at_i, at_j = self.plan.coords
        for c, a in terms:
            f = ((-a * c * self.mm * r ** (-a - 2))[:, None] * d).ravel()
            np.add.at(grad, at_i, f)
            np.subtract.at(grad, at_j, f)
        return grad

    def hessian(self, sep, terms):
        """Exact symmetric 2n x 2n Hessian D^2 U.

        Assembled from per-pair 2x2 blocks
            c m_i m_j [a(a+2) r^{-a-4} d d^T - a r^{-a-2} I2],  d = q_i - q_j,
        added on the two diagonal body blocks and subtracted on the two
        off-diagonal ones, which encodes translation invariance exactly.
        Each term's blocks are built at once and scattered onto the flat
        entries of the plan.  A diagonal block b takes the pairs (j, b)
        before the pairs (b, j), so every entry sums its pairs in i < j
        order; each off-diagonal entry belongs to one pair, so one
        subtraction covers both off-diagonal blocks.
        """
        d, r = sep
        n = self.masses.size
        H = np.zeros(4 * n * n)
        dd = d[:, :, None] * d[:, None, :]
        eye = np.eye(2)
        diag, off = self.plan.diag, self.plan.off
        for c, a in terms:
            coef_dd = c * self.mm * a * (a + 2) * r ** (-a - 4)
            coef_id = c * self.mm * a * r ** (-a - 2)
            blk = coef_dd[:, None, None] * dd - coef_id[:, None, None] * eye
            both = np.concatenate([blk, blk]).ravel()
            np.add.at(H, diag, both)
            H[off] -= both
        return H.reshape(2 * n, 2 * n)

    def centrality_residual(self, points, sep, terms, energies, inertia):
        """(omega^2, grad U, grad U + omega^2 grad I) with the generalized Euler
        omega^2 = (sum_k a_k U_k) / (2 I) of the per-term ``energies`` U_k."""
        exps = np.array([a for _, a in terms])
        omega2 = float((exps @ energies) / (2.0 * inertia))
        g = self.gradient(sep, terms)
        return omega2, g, g + omega2 * np.repeat(self.masses, 2) * points.ravel()


@dataclass(frozen=True)
class BodyConfiguration:
    """Masses and flattened planar positions of n >= 2 point bodies.

    Raises CollisionError, naming the first coinciding pair in i < j
    order, if two bodies coincide and ValueError for non-finite entries or
    non-positive masses.
    ``pairs`` holds the bodies' BodyPairs and ``separations`` the read-only
    (d, r) of its one separation pass, which the collision check and every
    pair formula read.
    ``inertia``, ``trivial_vectors``, ``plane_basis``, ``group`` and ``waves``
    are built once, on first use.
    """

    masses: np.ndarray
    positions: np.ndarray
    pairs: BodyPairs = field(init=False, repr=False, compare=False)
    separations: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        masses = _readonly(self.masses)
        positions = _readonly(self.positions)
        if masses.ndim != 1 or masses.size < 2:
            raise ValueError("need at least two bodies")
        if positions.shape != (2 * masses.size,):
            raise ValueError(
                f"positions must be flat with length {2 * masses.size}"
            )
        for name, values in (("masses", masses), ("positions", positions)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if np.any(masses <= 0):
            raise ValueError("all masses must be strictly positive")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "pairs", BodyPairs(masses))
        d, r = self.pairs.separations(self.points)
        d.flags.writeable = r.flags.writeable = False
        object.__setattr__(self, "separations", (d, r))
        self.pairs.check_distinct(r)

    @property
    def n(self):
        return self.masses.size

    @property
    def points(self):
        """Positions as an (n, 2) array."""
        return self.positions.reshape(-1, 2)

    @property
    def mass_vector(self):
        """Per-coordinate masses, i.e. diag of the 2n x 2n mass matrix."""
        return np.repeat(self.masses, 2)

    @functools.cached_property
    def inertia(self):
        """I = (1/2) sum_i m_i |q_i|^2."""
        return self.pairs.inertia(self.points)

    @functools.cached_property
    def trivial_vectors(self):
        """Read-only (T, z, |z|): translations T = M^{1/2}(1 x I2), z = M^{1/2} q."""
        T = (np.sqrt(self.masses)[:, None, None] * np.eye(2)).reshape(-1, 2)
        z = np.sqrt(self.mass_vector) * self.positions
        return _readonly(T), _readonly(z), np.linalg.norm(z)

    @functools.cached_property
    def plane_basis(self):
        """``position_basis`` of [T, z', Jhat z'], z' = z / |z|: the vectors
        that the plane branch of ``spectrum.deflated_eigenvalues`` deflates."""
        T, z, z_norm = self.trivial_vectors
        z = z / z_norm
        J = block_symplectic(self.n)
        return position_basis(np.column_stack([T, z, J @ z]), J)

    @functools.cached_property
    def group(self):
        """The dihedral group of an equal-mass regular polygon, else None."""
        base = polygon_axis_angle(self)
        return None if base is None else build_polygon_symmetry_group(self.n, axis_angle=base)

    @functools.cached_property
    def waves(self):
        """The read-only ``wave_number_stack`` of the polygon's vertices, or None."""
        return None if self.group is None else _readonly(wave_number_stack(self.group.vertices()))

    def min_pair_distance(self):
        return float(self.separations[1].min())

    def with_positions(self, positions):
        return BodyConfiguration(self.masses, positions)

    def scaled(self, s):
        return self.with_positions(s * self.positions)

    def rotated(self, theta):
        """Rotate every body by theta about the origin."""
        return self.with_positions((self.points @ rotation(theta).T).ravel())


@dataclass(frozen=True)
class PotentialSpec:
    """Pair potential U = sum_k c_k sum_{i<j} m_i m_j r_ij^{-a_k}.

    Terms are (coefficient, exponent) with positive entries and strictly
    increasing exponents (canonical order).
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple((float(c), float(a)) for c, a in self.terms)
        if not terms:
            raise ValueError("potential needs at least one term")
        if not np.isfinite(terms).all():
            raise ValueError("potential coefficients and exponents must be finite")
        for c, a in terms:
            if c <= 0 or a <= 0:
                raise ValueError("coefficients and exponents must be positive")
        exps = [a for _, a in terms]
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise ValueError("exponents must be strictly increasing")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def homogeneous(cls, alpha):
        return cls(((1.0, float(alpha)),))

    @classmethod
    def manev(cls):
        return cls(((1.0, 1.0), (1.0, 2.0)))

    @classmethod
    def schwarzschild(cls):
        return cls(((1.0, 1.0), (1.0, 3.0)))

    def describe(self):
        return " + ".join(f"{c:g}*r^-{a:g}" for c, a in self.terms)


def potential_energy_terms(config, spec):
    """Per-term values U_k, so that U = sum_k U_k."""
    return config.pairs.energy_terms(config.separations, spec.terms)


def potential_energy(config, spec):
    """U evaluated at the configuration."""
    return float(potential_energy_terms(config, spec).sum())


def potential_gradient(config, spec):
    """Exact gradient of potential_energy as a flat 2n-vector."""
    return config.pairs.gradient(config.separations, spec.terms)


def potential_hessian(config, spec):
    """Exact symmetric 2n x 2n Hessian D^2 U (see BodyPairs.hessian); ``config``
    needs only its ``pairs`` and ``separations``, computed or kept."""
    return config.pairs.hessian(config.separations, spec.terms)


@dataclass(frozen=True)
class CentralityReport:
    """The centrality test's norms and its read-only grad U and residual
    F = grad U + multiplier * M q, with the Euler multiplier."""

    residual_norm: float
    multiplier: float
    tol: float
    is_central: bool
    energy_terms: tuple     # the U_k of the Euler multiplier
    gradient: np.ndarray = field(repr=False, compare=False)
    residual: np.ndarray = field(repr=False, compare=False)

    def omega_squared(self):
        """The multiplier omega^2; NonCentralConfigurationError if not central."""
        if not self.is_central:
            raise NonCentralConfigurationError(self.residual_norm, self.tol)
        return self.multiplier


def is_central_configuration(config, spec):
    """Residual test of grad(U) + lambda grad(I) = 0 with the Euler multiplier.

    Central means |grad U + lambda M z| <= CENTRALITY_TOL_FACTOR * (|grad U| + 1).
    """
    energies = potential_energy_terms(config, spec)
    lam, g, F = config.pairs.centrality_residual(config.points, config.separations,
                                                 spec.terms, energies, config.inertia)
    res = float(np.linalg.norm(F))
    tol = CENTRALITY_TOL_FACTOR * (float(np.linalg.norm(g)) + 1.0)
    g.flags.writeable = F.flags.writeable = False
    return CentralityReport(res, lam, tol, res <= tol, tuple(energies.tolist()), g, F)


def angular_frequency_squared(config, spec):
    """omega^2 for the relative equilibrium through the configuration.

    Computed by the generalized Euler formula and cross-checked against the
    residual of grad(U + omega^2 I); raises NonCentralConfigurationError if
    the configuration is not central at the derived tolerance.
    """
    return is_central_configuration(config, spec).omega_squared()


def rotation_period(omega2):
    """Period 2 pi / omega of the rigid rotation at angular frequency^2
    omega2; ValueError unless omega2 is finite and positive, since the
    inertial frame omega2 = 0 does not rotate and has no period."""
    if not (np.isfinite(omega2) and omega2 > 0):
        raise ValueError(f"omega2 must be finite and positive for a rotation period "
                         f"(the inertial frame omega2 = 0 has none), got {omega2!r}")
    return float(2.0 * np.pi / np.sqrt(omega2))


def first_order_matrix(omega2, omega, h, j):
    """[[0, I], [omega^2 I + h, 2 omega j]]: the linearized rotating-frame flow
    where the mass-scaled Hessian acts as h and Jhat as j.  omega2 is passed
    apart from omega so that each caller keeps its own rounding of omega^2.
    A stack h of shape (..., k, k), real or complex, gives the stack of
    matrices, one per h."""
    k = h.shape[-1]
    B = np.zeros(h.shape[:-2] + (2 * k, 2 * k), dtype=np.result_type(h.dtype, float))
    eye = np.eye(k)
    B[..., :k, k:] = eye
    B[..., k:, :k] = omega2 * eye + h
    B[..., k:, k:] = 2.0 * omega * j
    return B


def position_basis(P, j):
    """Read-only (Q, Q^T j Q) of the complete QR Q = [Q1, Q2] of the columns
    P: Q1 spans them and Q2 their orthogonal complement."""
    Q = np.linalg.qr(P, mode="complete")[0]
    jq = Q.T @ j @ Q
    Q.flags.writeable = jq.flags.writeable = False
    return Q, jq


@dataclass(frozen=True)
class Equilibrium:
    """A relative equilibrium with every quantity of its linearization.

    Construction runs the centrality test and raises
    NonCentralConfigurationError when it fails.  ``Hw`` = M^{-1/2} H M^{-1/2}
    is symmetric and similar to M^{-1} H, so eigenvector pairing applies
    when masses differ; ``Jh`` is the block symplectic map Jhat.

    ``trivial`` is (T, z, slack): the configuration's ``trivial_vectors``
    T = M^{1/2}(1 x I2), which Hw annihilates, and z = M^{1/2} q, and a
    slack, which alone depends on the potential.  Rotation invariance of U
    gives H Jhat q = Jhat grad U, so with the centrality residual
    F = grad U + omega^2 M q, (omega^2 + Hw) Jhat z = M^{-1/2} Jhat F, which
    slack = |F| / (sqrt(min m) |z|) bounds for unit z.
    """

    config: BodyConfiguration
    spec: PotentialSpec
    centrality: CentralityReport = field(init=False)
    omega: float = field(init=False)
    period: float = field(init=False)
    H: np.ndarray = field(init=False, repr=False)
    Hw: np.ndarray = field(init=False, repr=False)
    Jh: np.ndarray = field(init=False, repr=False)
    trivial: tuple = field(init=False, repr=False)

    def __post_init__(self):
        config = self.config
        centrality = is_central_configuration(config, self.spec)
        omega2 = centrality.omega_squared()
        H = potential_hessian(config, self.spec)
        inv_sqrt = 1.0 / np.sqrt(config.mass_vector)
        T, z, z_norm = config.trivial_vectors
        slack = centrality.residual_norm / (np.sqrt(config.masses.min()) * z_norm)
        object.__setattr__(self, "centrality", centrality)
        object.__setattr__(self, "omega", float(np.sqrt(omega2)))
        object.__setattr__(self, "period", rotation_period(omega2))
        object.__setattr__(self, "H", _readonly(H))
        object.__setattr__(self, "Hw", _readonly((H * inv_sqrt).T * inv_sqrt))
        object.__setattr__(self, "Jh", block_symplectic(config.n))
        object.__setattr__(self, "trivial", (T, z, float(slack)))

    @property
    def n(self):
        return self.config.n

    @functools.cached_property
    def wave_spectrum(self):
        """Hw's ``wave_number_spectrum`` on the configuration's ``waves``, or None."""
        waves = self.config.waves
        return None if waves is None else wave_number_spectrum(self.Hw, waves)

    @property
    def omega2(self):
        return self.centrality.multiplier
