"""Planar n-body configurations, pair potentials, and their derivatives.

Coordinates are flattened as (x1, y1, x2, y2, ..., xn, yn) throughout, so
vectors and matrices here line up entry-by-entry with the block structure
used everywhere else in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class CollisionError(ValueError):
    """Two bodies coincide, so pair potentials are undefined."""

    def __init__(self, i, j, message=None):
        self.pair = (i, j)
        super().__init__(message or f"bodies {i} and {j} coincide")


class NonCentralConfigurationError(ValueError):
    """The configuration does not satisfy grad(U) + omega^2 grad(I) = 0."""

    def __init__(self, residual, tol):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"centrality residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )


CENTER_TOL = 1e-8          # center-of-mass test for the `centered` flag
CENTRALITY_TOL_FACTOR = 1e-10   # residual <= factor * (|grad U| + 1)


def _readonly(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BodyConfiguration:
    """Masses and flattened planar positions of n >= 2 point bodies.

    Raises CollisionError if two bodies coincide and ValueError for
    non-positive masses.  ``centered`` records whether the weighted center
    of mass sits at the origin (within CENTER_TOL) at construction time.
    """

    masses: np.ndarray
    positions: np.ndarray
    centered: bool = field(init=False)

    def __post_init__(self):
        masses = _readonly(self.masses)
        positions = _readonly(self.positions)
        if masses.ndim != 1 or masses.size < 2:
            raise ValueError("need at least two bodies")
        if positions.shape != (2 * masses.size,):
            raise ValueError(
                f"positions must be flat with length {2 * masses.size}"
            )
        if np.any(masses <= 0):
            raise ValueError("all masses must be strictly positive")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "positions", positions)
        q = self.points
        for i in range(masses.size):
            for j in range(i + 1, masses.size):
                if np.hypot(*(q[i] - q[j])) == 0.0:
                    raise CollisionError(i, j)
        com = masses @ q / masses.sum()
        object.__setattr__(self, "centered", bool(np.hypot(*com) <= CENTER_TOL))

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

    def pair_distances(self):
        """Condensed upper-triangle pairwise distances (i < j order)."""
        q = self.points
        iu, ju = np.triu_indices(self.n, 1)
        return np.hypot(*(q[iu] - q[ju]).T)

    def min_pair_distance(self):
        return float(self.pair_distances().min())

    def with_positions(self, positions):
        return BodyConfiguration(self.masses, positions)

    def scaled(self, s):
        return self.with_positions(s * self.positions)

    def rotated(self, theta):
        """Rotate every body by theta about the origin."""
        c, s = np.cos(theta), np.sin(theta)
        q = self.points @ np.array([[c, s], [-s, c]])
        return self.with_positions(q.ravel())


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

    @property
    def is_homogeneous(self):
        return len(self.terms) == 1

    @property
    def exponents(self):
        return tuple(a for _, a in self.terms)

    def describe(self):
        return " + ".join(f"{c:g}*r^-{a:g}" for c, a in self.terms)


@dataclass(frozen=True)
class Spectrum:
    """Multiset of complex eigenvalues with a deterministic ordering."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.size

    def __iter__(self):
        return iter(self.values)

    def sorted_values(self, tol=1e-12):
        """Values sorted by (Re, Im) after rounding at tol * scale."""
        v = np.asarray(self.values)
        scale = max(float(np.max(np.abs(v))) if v.size else 0.0, 1e-300)
        step = tol * scale
        key_re = np.round(v.real / step) * step
        key_im = np.round(v.imag / step) * step
        order = np.lexsort((key_im, key_re))
        return v[order]

    def max_real_part(self):
        return float(np.max(self.values.real)) if len(self) else 0.0


def _pair_geometry(config):
    """Index arrays, separations d_ij = q_i - q_j and distances for i < j."""
    q = config.points
    iu, ju = np.triu_indices(config.n, 1)
    d = q[iu] - q[ju]
    r = np.hypot(d[:, 0], d[:, 1])
    if np.any(r == 0.0):
        k = int(np.argmin(r))
        raise CollisionError(int(iu[k]), int(ju[k]))
    return iu, ju, d, r


def moment_of_inertia(config):
    """I = (1/2) sum_i m_i |q_i|^2."""
    q = config.points
    return 0.5 * float(config.masses @ (q * q).sum(axis=1))


def potential_energy_terms(config, spec):
    """Per-term values U_k, so that U = sum_k U_k."""
    iu, ju, _, r = _pair_geometry(config)
    mm = config.masses[iu] * config.masses[ju]
    return np.array([c * np.sum(mm * r ** (-a)) for c, a in spec.terms])


def potential_energy(config, spec):
    """U evaluated at the configuration; raises CollisionError on contact."""
    return float(potential_energy_terms(config, spec).sum())


def potential_gradient(config, spec):
    """Exact gradient of potential_energy as a flat 2n-vector."""
    iu, ju, d, r = _pair_geometry(config)
    mm = config.masses[iu] * config.masses[ju]
    grad = np.zeros((config.n, 2))
    for c, a in spec.terms:
        w = -a * c * mm * r ** (-a - 2)
        f = w[:, None] * d
        np.add.at(grad, iu, f)
        np.subtract.at(grad, ju, f)
    return grad.ravel()


def potential_hessian(config, spec):
    """Exact symmetric 2n x 2n Hessian D^2 U.

    Assembled from per-pair 2x2 blocks
        c m_i m_j [a(a+2) r^{-a-4} d d^T - a r^{-a-2} I2],  d = q_i - q_j,
    added on the two diagonal body blocks and subtracted on the two
    off-diagonal ones, which encodes translation invariance exactly.
    Each term's blocks are built at once and scattered onto (n, n, 2, 2)
    body blocks.  A diagonal block b takes the pairs (j, b) before the
    pairs (b, j), so every entry sums its pairs in i < j order.
    """
    iu, ju, d, r = _pair_geometry(config)
    mm = config.masses[iu] * config.masses[ju]
    n = config.n
    H = np.zeros((n, n, 2, 2))
    dd = d[:, :, None] * d[:, None, :]
    diag = np.concatenate([ju, iu])
    for c, a in spec.terms:
        coef_dd = c * mm * a * (a + 2) * r ** (-a - 4)
        coef_id = c * mm * a * r ** (-a - 2)
        blk = coef_dd[:, None, None] * dd - coef_id[:, None, None] * np.eye(2)
        np.add.at(H, (diag, diag), np.concatenate([blk, blk]))
        H[iu, ju] -= blk
        H[ju, iu] -= blk
    return H.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


def centrality_residual(config, spec):
    """(omega^2, grad U, grad U + omega^2 grad I) with the Euler omega^2."""
    omega2 = euler_omega_squared(config, spec)
    g = potential_gradient(config, spec)
    return omega2, g, g + omega2 * config.mass_vector * config.positions


def euler_omega_squared(config, spec):
    """Generalized Euler value (sum_k a_k U_k) / (2 I), no centrality check."""
    Uk = potential_energy_terms(config, spec)
    exps = np.array(spec.exponents)
    return float((exps @ Uk) / (2.0 * moment_of_inertia(config)))


def angular_frequency_squared(config, spec, tol_factor=CENTRALITY_TOL_FACTOR):
    """omega^2 for the relative equilibrium through the configuration.

    Computed by the generalized Euler formula and cross-checked against the
    residual of grad(U + omega^2 I); raises NonCentralConfigurationError if
    the configuration is not central at the derived tolerance.
    """
    omega2, g, F = centrality_residual(config, spec)
    res = float(np.linalg.norm(F))
    tol = tol_factor * (float(np.linalg.norm(g)) + 1.0)
    if res > tol:
        raise NonCentralConfigurationError(res, tol)
    return omega2
